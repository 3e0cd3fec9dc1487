//===- driver/xgcc_triage_main.cpp - Report-lifecycle query tool -------------===//
//
// Part of the metal/xgcc reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// xgcc-triage: the query side of the persistent report lifecycle
// (docs/REPORTS.md). Reads the baseline stores `xgcc --baseline` writes and
// the run manifests `--stats-json` writes, without re-running any analysis:
//
//   xgcc-triage list DIR [--status S]   every tracked report, newest first
//   xgcc-triage top DIR [--limit N]     active reports ranked by z-statistic
//   xgcc-triage diff DIR A B            reports that appeared/disappeared
//                                       between recorded runs A and B
//   xgcc-triage mark DIR FP STATUS      set a report's lifecycle status
//                                       (active | fixed | suppressed)
//   xgcc-triage manifest FILE           the reports a manifest recorded
//   xgcc-triage status SOCK             ask a live xgccd what it is doing
//                                       (uptime, request ledger, quarantine,
//                                       latency percentiles — the status RPC,
//                                       docs/OBSERVABILITY.md)
//
// All output is deterministic: listings order by (ordinal, fingerprint),
// never by map iteration over floats or wall-clock anything.
//
//===----------------------------------------------------------------------===//

#include "engine/RunManifest.h"
#include "cfront/Serialize.h" // readFileBytes
#include "lifecycle/BaselineStore.h"
#include "service/Client.h"
#include "service/Protocol.h"
#include "support/Hash.h"
#include "support/OptionParser.h"
#include "support/RawOstream.h"

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

using namespace mc;

namespace {

int usage(int Code) {
  raw_ostream &OS = Code == 0 ? outs() : errs();
  OS << "usage: xgcc-triage <command> ...\n"
     << "  list DIR [--status active|fixed|suppressed]\n"
     << "  top DIR [--limit N]\n"
     << "  diff DIR RUN_A RUN_B\n"
     << "  mark DIR FINGERPRINT active|fixed|suppressed\n"
     << "  manifest FILE\n"
     << "  status SOCKET\n";
  return Code;
}

std::string hexOf(uint64_t FP) {
  std::string S;
  appendHex64(FP, S);
  return S;
}

/// Parses a 16-hex-char fingerprint. False on anything else.
bool parseFingerprint(const std::string &S, uint64_t &Out) {
  if (S.size() != 16)
    return false;
  Out = 0;
  for (char C : S) {
    Out <<= 4;
    if (C >= '0' && C <= '9')
      Out |= uint64_t(C - '0');
    else if (C >= 'a' && C <= 'f')
      Out |= uint64_t(C - 'a' + 10);
    else
      return false;
  }
  return true;
}

bool parseStatus(const std::string &S, BaselineEntry::Status &Out) {
  if (S == "active")
    Out = BaselineEntry::Status::Active;
  else if (S == "fixed")
    Out = BaselineEntry::Status::Fixed;
  else if (S == "suppressed")
    Out = BaselineEntry::Status::Suppressed;
  else
    return false;
  return true;
}

BaselineStore openOrDie(const std::string &Dir) {
  BaselineStore Store;
  std::string Err;
  if (!Store.open(Dir, &Err)) {
    errs() << "xgcc-triage: cannot open baseline store '" << Dir
           << "': " << Err << '\n';
    std::exit(1);
  }
  return Store;
}

void printEntry(raw_ostream &OS, const BaselineStore &Store, uint64_t FP,
                const BaselineEntry &E) {
  OS << hexOf(FP) << ' ' << baselineStatusName(E.St) << " first=" << E.FirstSeen
     << " last=" << E.LastSeen << " hits=" << E.HitCount;
  if (!E.Rule.empty())
    OS.printf(" z=%.2f", Store.entryZ(E));
  OS << ' ' << E.File << ':' << E.Line << ": in " << E.Function << ": ["
     << E.Checker << "] " << E.Message << '\n';
}

int cmdList(const std::string &Dir, const char *StatusFilter) {
  BaselineStore Store = openOrDie(Dir);
  BaselineEntry::Status Want = BaselineEntry::Status::Active;
  bool Filter = StatusFilter != nullptr;
  if (Filter && !parseStatus(StatusFilter, Want)) {
    errs() << "xgcc-triage: unknown status '" << StatusFilter << "'\n";
    return 2;
  }
  // Newest sightings first; fingerprint tie-break keeps it deterministic.
  std::vector<std::pair<uint64_t, const BaselineEntry *>> Rows;
  for (const auto &[FP, E] : Store.entries()) {
    if (Filter && E.St != Want)
      continue;
    Rows.push_back({FP, &E});
  }
  std::sort(Rows.begin(), Rows.end(), [](const auto &A, const auto &B) {
    if (A.second->LastSeen != B.second->LastSeen)
      return A.second->LastSeen > B.second->LastSeen;
    return A.first < B.first;
  });
  outs() << Rows.size() << " report(s), " << Store.runCounter()
         << " run(s) recorded\n";
  for (const auto &[FP, E] : Rows)
    printEntry(outs(), Store, FP, *E);
  return 0;
}

int cmdTop(const std::string &Dir, unsigned Limit) {
  BaselineStore Store = openOrDie(Dir);
  std::vector<std::pair<uint64_t, const BaselineEntry *>> Rows;
  for (const auto &[FP, E] : Store.entries())
    if (E.St == BaselineEntry::Status::Active)
      Rows.push_back({FP, &E});
  // Violations of reliable rules (high z) first — Section 9's ranking over
  // the population the store accumulated, not just one run's counters.
  std::sort(Rows.begin(), Rows.end(), [&](const auto &A, const auto &B) {
    double ZA = Store.entryZ(*A.second);
    double ZB = Store.entryZ(*B.second);
    if (ZA != ZB)
      return ZA > ZB;
    if (A.second->LastSeen != B.second->LastSeen)
      return A.second->LastSeen > B.second->LastSeen;
    return A.first < B.first;
  });
  if (Rows.size() > Limit)
    Rows.resize(Limit);
  for (size_t I = 0; I != Rows.size(); ++I) {
    outs() << '[' << (I + 1) << "] ";
    printEntry(outs(), Store, Rows[I].first, *Rows[I].second);
  }
  return 0;
}

int cmdDiff(const std::string &Dir, unsigned OrdA, unsigned OrdB) {
  BaselineStore Store = openOrDie(Dir);
  const BaselineStore::RunRecord *A = nullptr, *B = nullptr;
  for (const BaselineStore::RunRecord &R : Store.runs()) {
    if (R.Ordinal == OrdA)
      A = &R;
    if (R.Ordinal == OrdB)
      B = &R;
  }
  if (!A || !B) {
    errs() << "xgcc-triage: run " << (!A ? OrdA : OrdB)
           << " is not recorded in '" << Dir << "' (the store keeps the last "
           << BaselineStore::kMaxRunRecords << " runs)\n";
    return 1;
  }
  auto Describe = [&](uint64_t FP, const char *Tag) {
    outs() << Tag << ' ';
    auto It = Store.entries().find(FP);
    if (It != Store.entries().end())
      printEntry(outs(), Store, FP, It->second);
    else
      outs() << hexOf(FP) << '\n';
  };
  // Run records are stored sorted; set-difference keeps the diff ordered.
  std::vector<uint64_t> Appeared, Disappeared;
  std::set_difference(B->Fingerprints.begin(), B->Fingerprints.end(),
                      A->Fingerprints.begin(), A->Fingerprints.end(),
                      std::back_inserter(Appeared));
  std::set_difference(A->Fingerprints.begin(), A->Fingerprints.end(),
                      B->Fingerprints.begin(), B->Fingerprints.end(),
                      std::back_inserter(Disappeared));
  outs() << "run " << OrdA << " -> run " << OrdB << ": " << Appeared.size()
         << " appeared, " << Disappeared.size() << " disappeared\n";
  for (uint64_t FP : Appeared)
    Describe(FP, "+");
  for (uint64_t FP : Disappeared)
    Describe(FP, "-");
  return 0;
}

int cmdMark(const std::string &Dir, const std::string &FPHex,
            const std::string &StatusName) {
  uint64_t FP = 0;
  if (!parseFingerprint(FPHex, FP)) {
    errs() << "xgcc-triage: '" << FPHex
           << "' is not a 16-hex-digit fingerprint\n";
    return 2;
  }
  BaselineEntry::Status S;
  if (!parseStatus(StatusName, S)) {
    errs() << "xgcc-triage: unknown status '" << StatusName << "'\n";
    return 2;
  }
  BaselineStore Store = openOrDie(Dir);
  if (!Store.setStatus(FP, S)) {
    errs() << "xgcc-triage: fingerprint " << FPHex << " is not in '" << Dir
           << "'\n";
    return 1;
  }
  std::string Err;
  if (!Store.save(&Err)) {
    errs() << "xgcc-triage: cannot write baseline store '" << Dir
           << "': " << Err << '\n';
    return 1;
  }
  outs() << FPHex << " -> " << StatusName << '\n';
  return 0;
}

int cmdManifest(const std::string &Path) {
  std::string Text;
  if (!readFileBytes(Path, Text)) {
    errs() << "xgcc-triage: cannot read manifest '" << Path << "'\n";
    return 1;
  }
  RunManifest M;
  std::string Err;
  if (!parseRunManifest(Text, M, &Err)) {
    errs() << "xgcc-triage: cannot parse manifest '" << Path << "': " << Err
           << '\n';
    return 1;
  }
  outs() << M.Tool << ' ' << M.Version << ": " << M.ReportCount
         << " report(s)";
  if (M.Baseline.Enabled)
    outs() << ", baseline run " << M.Baseline.RunOrdinal << " ("
           << M.Baseline.NewCount << " new, " << M.Baseline.KnownCount
           << " known, " << M.Baseline.FixedCount << " fixed, "
           << M.Baseline.SuppressedCount << " suppressed)";
  outs() << '\n';
  for (const ManifestReport &R : M.Reports) {
    outs() << R.Fingerprint;
    if (!R.Lifecycle.empty())
      outs() << " [" << R.Lifecycle << ']';
    outs() << ' ' << R.File << ':' << R.Line << ": [" << R.Checker << "] "
           << R.Message << '\n';
  }
  return 0;
}

/// The status RPC client: one mc.service-status.v1 line to a live daemon,
/// pretty-printed. Answered on a connection thread without queueing, so this
/// works even when the executor is saturated.
int cmdStatus(const std::string &SocketPath) {
  ServiceStatusRequest Req;
  Req.Id = "triage-status";
  std::string Reply, Err;
  if (!serviceRoundTrip(SocketPath, Req.serializeToString(), Reply, &Err)) {
    errs() << "xgcc-triage: " << Err << '\n';
    return 1;
  }
  ServiceStatusReply St;
  if (!St.parse(Reply, &Err)) {
    errs() << "xgcc-triage: malformed status reply: " << Err << '\n';
    return 1;
  }

  outs() << "xgccd on " << SocketPath << '\n';
  outs() << "  uptime: " << St.UptimeMs << " ms\n";
  outs() << "  requests: " << St.Total << " (" << St.Ok << " ok, "
         << St.Incomplete << " incomplete, " << St.Overloaded
         << " overloaded, " << St.Retriable << " retriable, " << St.Error
         << " error)\n";
  outs() << "  peak queue depth: " << St.PeakQueueDepth << '\n';
  if (!St.Quarantine.empty()) {
    outs() << "  quarantine:\n";
    for (const ServiceStatusReply::QuarantineEntry &Q : St.Quarantine)
      outs() << "    " << Q.Checker << ": "
             << (Q.Remaining ? "blocked, re-probe in " +
                                   std::to_string(Q.Remaining) + " request(s)"
                             : std::string("on probation"))
             << ", " << Q.Faults << " fault(s)\n";
  }
  if (!St.Baselines.empty()) {
    outs() << "  resident baselines:\n";
    for (const std::string &Dir : St.Baselines)
      outs() << "    " << Dir << '\n';
  }
  if (!St.CacheCounters.empty()) {
    outs() << "  cache:\n";
    for (const auto &[Name, Value] : St.CacheCounters)
      outs() << "    " << Name << ": " << Value << '\n';
  }
  if (!St.Histograms.empty()) {
    outs() << "  latency (ms; bucket upper bounds):\n";
    for (const ServiceStatusReply::HistogramEntry &H : St.Histograms)
      outs() << "    " << H.Name << ": n=" << H.Snap.count()
             << " p50<=" << H.P50 << " p95<=" << H.P95 << " p99<=" << H.P99
             << '\n';
  }
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Command;
  std::vector<std::string> Positional;
  const char *StatusFilter = nullptr;
  unsigned Limit = 10;

  OptionParser P(Argc, Argv);
  while (P.next()) {
    const char *V = nullptr;
    if (P.flag("--help") || P.flag("-h"))
      return usage(0);
    if (P.value("--status", &V)) {
      if (!V) {
        errs() << "xgcc-triage: --status expects a value\n";
        return 2;
      }
      StatusFilter = V;
      continue;
    }
    if (P.value("--limit", &V)) {
      if (!parseCount(V, Limit) || !Limit) {
        errs() << "xgcc-triage: --limit expects a positive count\n";
        return 2;
      }
      continue;
    }
    if (P.arg().size() > 1 && P.arg()[0] == '-') {
      errs() << "xgcc-triage: unknown option '" << P.arg() << "'\n";
      return usage(2);
    }
    if (Command.empty())
      Command = P.arg();
    else
      Positional.push_back(P.arg());
  }

  if (Command == "list" && Positional.size() == 1)
    return cmdList(Positional[0], StatusFilter);
  if (Command == "top" && Positional.size() == 1)
    return cmdTop(Positional[0], Limit);
  if (Command == "diff" && Positional.size() == 3) {
    unsigned A = 0, B = 0;
    if (!parseCount(Positional[1].c_str(), A) ||
        !parseCount(Positional[2].c_str(), B) || !A || !B) {
      errs() << "xgcc-triage: diff expects two run ordinals\n";
      return 2;
    }
    return cmdDiff(Positional[0], A, B);
  }
  if (Command == "mark" && Positional.size() == 3)
    return cmdMark(Positional[0], Positional[1], Positional[2]);
  if (Command == "manifest" && Positional.size() == 1)
    return cmdManifest(Positional[0]);
  if (Command == "status" && Positional.size() == 1)
    return cmdStatus(Positional[0]);
  return usage(2);
}
