//===- bench/ranking.cpp - Section 9: error ranking ----------------------------===//
//
// Part of the metal/xgcc reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Section 9's headline anecdote: a flow-insensitive free checker decided
// that some functions "always free" their argument when they only free it
// conditionally, producing an explosion of false positives — and z-statistic
// ranking pushed "all of the real errors to the top". This bench rebuilds
// that experiment with known ground truth and reports where the true bugs
// land under each ranking policy.
//
//===----------------------------------------------------------------------===//

#include "BenchJson.h"
#include "WorkloadGen.h"
#include "checkers/NativeCheckers.h"
#include "driver/Tool.h"
#include "support/RawOstream.h"

using namespace mc;
using namespace mc::bench;

namespace {

/// good_free() always frees: callers that touch the pointer afterwards are
/// real bugs (rare). cond_free() only frees when its flag is set — the
/// flow-insensitive checker is wrong about it, so every "violation" it
/// reports through cond_free is a false positive (common).
std::string corpus(unsigned GoodUses, unsigned GoodBugs, unsigned CondUses) {
  std::string S = "void kfree(void *p);\n"
                  "void good_free(int *p) { kfree(p); }\n"
                  "void cond_free(int *p, int doit) { if (doit) kfree(p); }\n"
                  "int touch(int *p);\n";
  for (unsigned I = 0; I != GoodUses; ++I)
    S += "int g_ok" + std::to_string(I) +
         "(int *p) { good_free(p); return 0; }\n";
  for (unsigned I = 0; I != GoodBugs; ++I)
    // Real bugs sit far from the free and cross conditionals, so the
    // generic criteria rank them poorly — the statistical policy must
    // rescue them.
    S += "int g_bug" + std::to_string(I) +
         "(int *p, int a, int b) {\n"
         "  good_free(p);\n"
         "  if (a) { a = a + 1; } else { a = a - 1; }\n"
         "  if (b) { b = b + 2; } else { b = b - 2; }\n"
         "  if (a < b) { a = b; } else { b = a; }\n"
         "  return *p + a + b;\n}\n"; // real bug
  for (unsigned I = 0; I != CondUses; ++I)
    S += "int c_fp" + std::to_string(I) +
         "(int *p) { cond_free(p, 0); return *p; }\n"; // checker FP
  return S;
}

} // namespace

int main(int argc, char **argv) {
  (void)smokeMode(argc, argv); // workload is small; flag accepted uniformly
  BenchTimer Timer;
  raw_ostream &OS = outs();
  const unsigned GoodUses = 40, GoodBugs = 3, CondUses = 30;
  std::string Source = corpus(GoodUses, GoodBugs, CondUses);

  OS << "==== Section 9: statistical ranking rescues an imprecise checker "
        "====\n";
  OS << "(flow-insensitive baseline: treats good_free AND cond_free as "
        "always-freeing)\n\n";

  XgccTool Tool;
  if (!Tool.addSource("corpus.c", Source))
    return 1;
  Tool.addChecker(std::make_unique<FlowInsensitiveFreeChecker>(
      std::vector<std::string>{"good_free", "cond_free"}));
  EngineOptions Opts;
  Opts.Interprocedural = false; // the baseline is a local pass (Section 9)
  Tool.run(Opts);

  OS << "rule statistics:\n";
  for (const auto &[Rule, Stats] : Tool.reports().rules())
    OS.printf("  %-10s followed %3u, violated %3u   z = %+.2f\n",
              Rule.c_str(), Stats.Examples, Stats.Counterexamples,
              Tool.reports().ruleZ(Rule));

  auto RankOf = [&](RankPolicy Policy) {
    // Mean rank position (1-based) of the true bugs (g_bug*).
    std::vector<size_t> Order = Tool.reports().ranked(Policy);
    double Sum = 0;
    unsigned Count = 0;
    for (size_t Pos = 0; Pos != Order.size(); ++Pos) {
      const ErrorReport &R = Tool.reports().reports()[Order[Pos]];
      if (R.FunctionName.find("g_bug") == 0) {
        Sum += double(Pos + 1);
        ++Count;
      }
    }
    return Count ? Sum / Count : 0.0;
  };

  unsigned Total = Tool.reports().size();
  double GenericRank = RankOf(RankPolicy::Generic);
  double StatRank = RankOf(RankPolicy::Statistical);

  OS << "\ntotal reports: " << Total << " (" << GoodBugs
     << " real, rest false positives from cond_free)\n";
  OS.printf("mean rank of the real bugs, generic ranking:      %5.1f of %u\n",
            GenericRank, Total);
  OS.printf("mean rank of the real bugs, statistical ranking:  %5.1f of %u\n",
            StatRank, Total);

  // The paper's claim: the real errors go to the top.
  bool Shape = StatRank <= GoodBugs + 1 && StatRank < GenericRank;
  (void)Total;
  // And the unreliable rule has lower z than the reliable one.
  Shape &= Tool.reports().ruleZ("good_free") > Tool.reports().ruleZ("cond_free");

  OS << "\ntop of the statistical ranking:\n";
  std::vector<size_t> Order = Tool.reports().ranked(RankPolicy::Statistical);
  for (size_t I = 0; I != Order.size() && I < 5; ++I) {
    const ErrorReport &R = Tool.reports().reports()[Order[I]];
    OS << "  [" << I + 1 << "] " << R.FunctionName << ": " << R.Message
       << '\n';
  }

  OS << '\n'
     << (Shape ? "SECTION 9 REPRODUCED: real errors rank on top under the "
                 "z-statistic\n"
               : "MISMATCH\n");

  //===------------------------------------------------------------------===//
  // Experiment 2: "Ranking code" — the lock-wrapper anecdote.
  //===------------------------------------------------------------------===//
  OS << "\n==== Section 9, 'Ranking code': intraprocedural lock checker "
        "====\n";
  std::string LockCorpus = "void lock(int *l); void unlock(int *l);\n";
  // Busy functions with many balanced pairs; one has a real lost lock.
  for (unsigned I = 0; I != 6; ++I) {
    LockCorpus += "int busy" + std::to_string(I) + "(int *l, int c) {\n";
    for (unsigned P = 0; P != 5; ++P)
      LockCorpus += "  lock(l); unlock(l);\n";
    if (I == 0)
      LockCorpus += "  lock(l);\n  if (c)\n    return -1;\n  unlock(l);\n";
    LockCorpus += "  return 0;\n}\n";
  }
  // Wrapper functions: always acquire, never release (the checker cannot
  // see their callers intraprocedurally).
  for (unsigned I = 0; I != 4; ++I)
    LockCorpus += "void grab" + std::to_string(I) +
                  "(int *l) { lock(l); }\n";

  XgccTool LockTool;
  if (!LockTool.addSource("locks.c", LockCorpus))
    return 1;
  LockTool.addChecker(std::make_unique<IntraLockChecker>());
  EngineOptions Intra;
  Intra.Interprocedural = false;
  LockTool.run(Intra);

  OS << "per-function rule statistics:\n";
  for (const auto &[Fn, Stats] : LockTool.reports().rules())
    OS.printf("  %-8s balanced %2u, mismatched %2u   z = %+.2f\n", Fn.c_str(),
              Stats.Examples, Stats.Counterexamples,
              LockTool.reports().ruleZ(Fn));

  std::vector<size_t> LockOrder =
      LockTool.reports().ranked(RankPolicy::Statistical);
  OS << "statistical ranking of the reports:\n";
  for (size_t I = 0; I != LockOrder.size(); ++I) {
    const ErrorReport &R = LockTool.reports().reports()[LockOrder[I]];
    OS << "  [" << I + 1 << "] " << R.FunctionName << ": " << R.Message
       << '\n';
  }
  // The real bug (busy0: many successes, one mismatch) must outrank every
  // wrapper false positive (no successes).
  bool LockShape =
      !LockOrder.empty() &&
      LockTool.reports().reports()[LockOrder[0]].FunctionName == "busy0";
  for (size_t I = 1; I < LockOrder.size() && LockShape; ++I)
    LockShape &= LockTool.reports().ruleZ("busy0") >
                 LockTool.reports().ruleZ(
                     LockTool.reports().reports()[LockOrder[I]].RuleKey);
  OS << (LockShape
             ? "the wrapper noise sinks; the busy function's real bug tops "
               "the list\n"
             : "UNEXPECTED lock-wrapper ranking\n");

  MetricsSnapshot Agg = Tool.metrics();
  Agg.merge(LockTool.metrics());
  BenchJson("ranking")
      .num("wall_ms", Timer.ms())
      .num("stmts_per_s", stmtsPerSec(Agg, Timer.seconds()))
      .engine(Agg)
      .flag("ok", Shape && LockShape)
      .emit(OS);
  return Shape && LockShape ? 0 : 1;
}
