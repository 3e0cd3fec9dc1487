//===- bench/fpp_suppression.cpp - Section 8: false positive suppression -------===//
//
// Part of the metal/xgcc reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Section 8 describes four suppression techniques; three run inside the
// engine (killing, synonyms, false path pruning) and one runs after the
// fact (history). This bench generates a workload whose ground truth is
// known and reports true bugs vs false positives with each mechanism
// toggled — the ablation DESIGN.md calls out.
//
//===----------------------------------------------------------------------===//

#include "BenchJson.h"
#include "WorkloadGen.h"
#include "driver/Tool.h"
#include "report/History.h"
#include "support/RawOstream.h"

using namespace mc;
using namespace mc::bench;

namespace {

/// A workload where every false positive comes from a specific suppression
/// mechanism being off:
///  - kill_*: freed pointer reassigned before use (needs killing)
///  - fpp_*:  free and use under contradictory conditions (needs FPP)
///  - real_*: genuine use-after-free (must always be found)
///  - syn_*:  bug reachable only through a synonym (found only WITH
///            synonyms — they increase coverage, Section 8)
std::string workload(unsigned Groups) {
  std::string S = "void kfree(void *p);\n";
  for (unsigned I = 0; I != Groups; ++I) {
    std::string N = std::to_string(I);
    S += "int kill_case" + N + "(int *p, int *q) {\n"
         "  kfree(p);\n  p = q;\n  return *p;\n}\n";
    S += "int fpp_case" + N + "(int *p, int x) {\n"
         "  if (x) kfree(p);\n  if (!x) return *p;\n  return 0;\n}\n";
    S += "int real_case" + N + "(int *p) {\n"
         "  kfree(p);\n  return *p;\n}\n";
    // The Section 8 synonym shape: the tracked pointer is copied AFTER it
    // acquires state (as in Figure 2's `q = p`).
    S += "int syn_case" + N + "(int *p) {\n"
         "  int *alias;\n  kfree(p);\n  alias = p;\n  p = 0;\n"
         "  return *alias;\n}\n";
  }
  return S;
}

struct Counts {
  unsigned True = 0;
  unsigned False = 0;
};

Counts run(const std::string &Source, bool Kill, bool Synonyms, bool FPP,
           MetricsSnapshot &Agg) {
  XgccTool Tool;
  Tool.addSource("w.c", Source);
  Tool.addBuiltinChecker("free");
  EngineOptions Opts;
  Opts.EnableAutoKill = Kill;
  Opts.EnableSynonyms = Synonyms;
  Opts.EnableFalsePathPruning = FPP;
  Tool.run(Opts);
  Agg.merge(Tool.metrics());
  Counts C;
  for (const ErrorReport &R : Tool.reports().reports()) {
    bool IsTrue = R.FunctionName.find("real_case") == 0 ||
                  R.FunctionName.find("syn_case") == 0;
    (IsTrue ? C.True : C.False) += 1;
  }
  return C;
}

} // namespace

int main(int argc, char **argv) {
  (void)smokeMode(argc, argv); // workload is small; flag accepted uniformly
  BenchTimer Timer;
  MetricsSnapshot Agg;
  raw_ostream &OS = outs();
  const unsigned Groups = 25;
  std::string Source = workload(Groups);

  OS << "==== Section 8: false positive suppression (ablation) ====\n";
  OS << "(workload: " << Groups << " functions per class; ground truth: "
     << 2 * Groups << " true bugs)\n\n";
  OS << "configuration              | true bugs | false positives\n";
  OS << "---------------------------+-----------+----------------\n";

  struct Config {
    const char *Name;
    bool Kill, Syn, FPP;
  };
  const Config Configs[] = {
      {"all suppression on", true, true, true},
      {"no killing", false, true, true},
      {"no synonyms", true, false, true},
      {"no false-path pruning", true, true, false},
      {"everything off", false, false, false},
  };

  Counts Baseline{};
  bool Shape = true;
  for (const Config &C : Configs) {
    Counts R = run(Source, C.Kill, C.Syn, C.FPP, Agg);
    OS.padToColumn(C.Name, 27);
    OS.printf("| %9u | %15u\n", R.True, R.False);
    if (std::string(C.Name) == "all suppression on") {
      Baseline = R;
      Shape &= R.False == 0 && R.True == 2 * Groups;
    } else {
      // Every ablation either loses true bugs (synonyms) or gains false
      // positives (killing, FPP).
      Shape &= R.False > 0 || R.True < Baseline.True;
    }
  }

  // History: suppress last version's reports, only new bugs remain.
  OS << "\n==== History suppression across versions ====\n";
  {
    XgccTool V1;
    V1.addSource("w.c", Source);
    V1.addBuiltinChecker("free");
    V1.run();
    HistoryFile H;
    for (const ErrorReport &R : V1.reports().reports())
      H.markFalsePositive(R); // triage: mark everything as seen

    // Version 2 = version 1 + one new bug.
    XgccTool V2;
    V2.addSource("w.c", Source + "int brand_new(int *p) { kfree(p); return *p; }\n");
    V2.addBuiltinChecker("free");
    V2.run();
    unsigned Before = V2.reports().size();
    unsigned Dropped = H.apply(V2.reports());
    OS << "version-2 reports: " << Before << ", suppressed by history: "
       << Dropped << ", new: " << V2.reports().size() << '\n';
    Shape &= V2.reports().size() == 1 &&
             V2.reports().reports()[0].FunctionName == "brand_new";
    Agg.merge(V1.metrics());
    Agg.merge(V2.metrics());
  }

  OS << '\n' << (Shape ? "SECTION 8 SHAPE REPRODUCED\n" : "MISMATCH\n");

  BenchJson("fpp_suppression")
      .num("wall_ms", Timer.ms())
      .num("stmts_per_s", stmtsPerSec(Agg, Timer.seconds()))
      .engine(Agg)
      .flag("ok", Shape)
      .emit(OS);
  return Shape ? 0 : 1;
}
