//===- support/EventLog.cpp - Bounded structured JSONL event log ----------===//
//
// Part of the metal/xgcc reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/EventLog.h"

#include "support/Json.h"
#include "support/RawOstream.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <sys/stat.h>

using namespace mc;

static constexpr uint64_t kDefaultMaxBytes = 4ull << 20;

EventLog::~EventLog() { close(); }

bool EventLog::open(const std::string &P, uint64_t Max, std::string *Err) {
  std::lock_guard<std::mutex> Lock(Mu);
  if (File) {
    std::fclose(File);
    File = nullptr;
  }
  File = std::fopen(P.c_str(), "ab");
  if (!File) {
    if (Err)
      *Err = std::strerror(errno);
    return false;
  }
  Path = P;
  MaxBytes = Max ? Max : kDefaultMaxBytes;
  struct stat St;
  CurBytes = ::stat(P.c_str(), &St) == 0 ? uint64_t(St.st_size) : 0;
  return true;
}

uint64_t EventLog::emit(const ServiceEvent &E) {
  std::lock_guard<std::mutex> Lock(Mu);
  if (!File)
    return 0;
  uint64_t Seq = NextSeq++;

  std::string Line;
  {
    raw_string_ostream OS(Line);
    OS << "{\"schema\": \"" << kServiceEventSchema << "\", \"seq\": " << Seq
       << ", \"event\": ";
    writeJsonString(OS, E.Type);
    for (const ServiceEvent::Field &F : E.Fields) {
      OS << ", ";
      writeJsonString(OS, F.Key);
      OS << ": ";
      if (F.Quoted)
        writeJsonString(OS, F.Value);
      else
        OS << F.Value;
    }
    OS << "}\n";
  }

  // Size-capped rotation: at most <path> + <path>.1 on disk. The rename
  // happens *before* the write so one oversized event still lands whole.
  if (CurBytes && CurBytes + Line.size() > MaxBytes) {
    std::fclose(File);
    File = nullptr;
    std::string Old = Path + ".1";
    std::remove(Old.c_str());
    std::rename(Path.c_str(), Old.c_str());
    File = std::fopen(Path.c_str(), "ab");
    CurBytes = 0;
    if (!File)
      return Seq; // Disk trouble: the event is lost, the daemon is not.
  }

  std::fwrite(Line.data(), 1, Line.size(), File);
  std::fflush(File);
  CurBytes += Line.size();
  return Seq;
}

void EventLog::close() {
  std::lock_guard<std::mutex> Lock(Mu);
  if (File) {
    std::fclose(File);
    File = nullptr;
  }
}
