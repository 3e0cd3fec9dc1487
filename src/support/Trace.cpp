//===- support/Trace.cpp - Hierarchical scoped-span tracing ---------------===//
//
// Part of the metal/xgcc reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Trace.h"

#include "support/Json.h"
#include "support/RawOstream.h"

#include <algorithm>
#include <chrono>

namespace mc {

static uint64_t traceNowNs() {
  return (uint64_t)std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

TraceBuffer *TraceCollector::openBuffer(uint64_t Lane) {
  if (!Enabled)
    return nullptr;
  std::lock_guard<std::mutex> Lock(Mu);
  TraceBuffer &Buf = Buffers.emplace_back();
  Buf.Lane = Lane;
  Buf.Epoch = NextEpoch[Lane]++;
  return &Buf;
}

size_t TraceCollector::eventCount() const {
  std::lock_guard<std::mutex> Lock(Mu);
  size_t N = 0;
  for (const TraceBuffer &Buf : Buffers)
    N += Buf.Events.size();
  return N;
}

void TraceCollector::exportChromeJson(raw_ostream &OS,
                                      bool IncludeTimes) const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::vector<const TraceBuffer *> Sorted;
  Sorted.reserve(Buffers.size());
  for (const TraceBuffer &Buf : Buffers)
    Sorted.push_back(&Buf);
  std::stable_sort(Sorted.begin(), Sorted.end(),
                   [](const TraceBuffer *A, const TraceBuffer *B) {
                     if (A->Lane != B->Lane)
                       return A->Lane < B->Lane;
                     return A->Epoch < B->Epoch;
                   });

  // Timestamps are rebased to the earliest span so the viewer's time axis
  // starts near zero.
  uint64_t BaseNs = UINT64_MAX;
  for (const TraceBuffer *Buf : Sorted)
    for (const TraceEvent &Ev : Buf->Events)
      BaseNs = std::min(BaseNs, Ev.StartNs);
  if (BaseNs == UINT64_MAX)
    BaseNs = 0;

  OS << "{\"traceEvents\":[";
  bool First = true;
  for (const TraceBuffer *Buf : Sorted) {
    for (const TraceEvent &Ev : Buf->Events) {
      if (!First)
        OS << ",";
      First = false;
      OS << "\n{\"name\":";
      writeJsonString(OS, Ev.Name);
      // Complete ("X") events; ts/dur in microseconds per the trace-event
      // format. %.3f keeps nanosecond precision.
      uint64_t Ts = IncludeTimes ? Ev.StartNs - BaseNs : 0;
      uint64_t Dur = IncludeTimes ? Ev.DurNs : 0;
      OS << ",\"ph\":\"X\"";
      OS.printf(",\"ts\":%.3f,\"dur\":%.3f", (double)Ts / 1000.0,
                (double)Dur / 1000.0);
      OS << ",\"pid\":1,\"tid\":" << Buf->Lane;
      if (!Ev.Args.empty()) {
        OS << ",\"args\":{";
        bool FirstArg = true;
        for (const auto &[K, V] : Ev.Args) {
          if (!FirstArg)
            OS << ",";
          FirstArg = false;
          writeJsonString(OS, K);
          OS << ":";
          writeJsonString(OS, V);
        }
        OS << "}";
      }
      OS << "}";
    }
  }
  OS << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

TraceSpan::TraceSpan(TraceBuffer *Buf, std::string_view Name) : Buf(Buf) {
  if (!Buf)
    return;
  Idx = (uint32_t)Buf->Events.size();
  TraceEvent &Ev = Buf->Events.emplace_back();
  Ev.Name = std::string(Name);
  Ev.StartNs = traceNowNs();
  Ev.Seq = Idx;
  Ev.Depth = (uint32_t)Buf->OpenStack.size();
  Buf->OpenStack.push_back(Idx);
}

TraceSpan::~TraceSpan() {
  if (!Buf)
    return;
  TraceEvent &Ev = Buf->Events[Idx];
  Ev.DurNs = traceNowNs() - Ev.StartNs;
  // Spans close in reverse open order (RAII), so the top of the stack is us.
  if (!Buf->OpenStack.empty() && Buf->OpenStack.back() == Idx)
    Buf->OpenStack.pop_back();
}

void TraceSpan::arg(std::string_view Key, std::string_view Value) {
  if (!Buf)
    return;
  Buf->Events[Idx].Args.emplace_back(std::string(Key), std::string(Value));
}

} // namespace mc
