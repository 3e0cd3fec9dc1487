//===- bench/fault_containment.cpp - Cost and payoff of the fault boundary ----===//
//
// Part of the metal/xgcc reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Two claims about the fault-containment layer (per-root deadlines, checker
// quarantine, degradation ladder):
//
//   1. It is effectively free when nothing goes wrong. Arming a per-root
//      deadline that never fires (one watchdog arm/disarm per root plus one
//      relaxed atomic load per block) must cost < 3% wall clock on the
//      pattern-dispatch corpus, with byte-identical reports.
//
//   2. It buys completion. With a hostile checker faulting on K of N roots,
//      the run still finishes, exactly K roots are quarantined, and every
//      surviving root's report is identical to the fault-free run's.
//
//===----------------------------------------------------------------------===//

#include "BenchJson.h"
#include "WorkloadGen.h"
#include "checkers/FaultInjector.h"
#include "driver/Tool.h"
#include "support/RawOstream.h"

#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

using namespace mc;
using namespace mc::bench;

namespace {

constexpr unsigned RulesPerChecker = 16;

/// Same many-rules shape as bench/pattern_dispatch.cpp: checker \p K flags
/// any call of bad_<K>_<J>(v).
std::string ruleChecker(unsigned K) {
  std::string S = "sm rules" + std::to_string(K) + ";\n"
                  "state decl any_pointer v;\n\n"
                  "start:\n";
  for (unsigned J = 0; J != RulesPerChecker; ++J) {
    std::string Fn = "bad_" + std::to_string(K) + "_" + std::to_string(J);
    S += std::string(J ? "| " : "  ") + "{ " + Fn +
         "(v) } ==> v.stop, { err(\"call of " + Fn + "\"); }\n";
  }
  S += ";\n";
  return S;
}

/// The pattern-dispatch corpus (call-heavy, seeded banned calls), extended
/// with an inject_fault(p) marker in every \p FaultyEvery-th function so the
/// containment demo has roots for the injector to sabotage (0 = none).
std::string dispatchCorpus(unsigned Functions, unsigned StmtsPerFn,
                           unsigned Checkers, unsigned FaultyEvery,
                           uint64_t Seed) {
  Lcg Rng(Seed);
  std::string S = "void bad_call(void *p);\nvoid inject_fault(void *p);\n";
  for (unsigned I = 0; I != 8; ++I)
    S += "int ok" + std::to_string(I) + "(int x);\n";
  for (unsigned K = 0; K != Checkers; ++K)
    for (unsigned J = 0; J != RulesPerChecker; ++J)
      S += "void bad_" + std::to_string(K) + "_" + std::to_string(J) +
           "(void *p);\n";
  for (unsigned F = 0; F != Functions; ++F) {
    S += "int fn" + std::to_string(F) + "(int *p, int a) {\n";
    if (FaultyEvery && F % FaultyEvery == 0)
      S += "  inject_fault(p);\n";
    S += "  bad_call(p);\n";
    for (unsigned L = 0; L != StmtsPerFn; ++L)
      S += "  a = ok" + std::to_string(Rng.below(8)) + "(a + " +
           std::to_string(L) + ");\n";
    if (F % 17 == 0) {
      unsigned K = (F / 17) % Checkers;
      unsigned J = (F / 17) % RulesPerChecker;
      S += "  bad_" + std::to_string(K) + "_" + std::to_string(J) + "(p);\n";
    }
    S += "  return a;\n}\n";
  }
  return S;
}

struct RunResult {
  double AnalyzeSecs = 0;
  MetricsSnapshot Stats;
  std::string Rendered;
  size_t NumReports = 0;
  size_t NumIncidents = 0;
};

/// One run of the metal rule suite, with or without an armed (but
/// unreachable) per-root deadline.
RunResult runSuite(const std::string &Source,
                   const std::vector<std::string> &CheckerSrcs,
                   uint64_t DeadlineMs) {
  RunResult Res;
  XgccTool Tool;
  if (!Tool.addSource("fault.c", Source)) {
    errs() << "parse error\n";
    return Res;
  }
  for (size_t K = 0; K != CheckerSrcs.size(); ++K)
    Tool.addMetalChecker(CheckerSrcs[K], "rules" + std::to_string(K));
  EngineOptions Opts;
  Opts.Reporting.RootDeadlineMs = DeadlineMs;
  BenchTimer T;
  Tool.run(Opts);
  Res.AnalyzeSecs = T.seconds();
  Res.Stats = Tool.metrics();
  raw_string_ostream OS(Res.Rendered);
  Tool.reports().print(OS, RankPolicy::Generic);
  Res.NumReports = Tool.reports().size();
  Res.NumIncidents = Tool.reports().incidents().size();
  return Res;
}

void keepIfBest(RunResult &Best, RunResult Candidate, bool First) {
  if (First || Candidate.AnalyzeSecs < Best.AnalyzeSecs)
    Best = std::move(Candidate);
}

/// One run of the native fault injector over \p Source.
RunResult runInjector(const std::string &Source, FaultInjectorChecker::Mode M) {
  RunResult Res;
  XgccTool Tool;
  if (!Tool.addSource("fault.c", Source)) {
    errs() << "parse error\n";
    return Res;
  }
  Tool.addChecker(std::make_unique<FaultInjectorChecker>(M));
  BenchTimer T;
  Tool.run(EngineOptions());
  Res.AnalyzeSecs = T.seconds();
  Res.Stats = Tool.metrics();
  raw_string_ostream OS(Res.Rendered);
  Tool.reports().print(OS, RankPolicy::Generic);
  Res.NumReports = Tool.reports().size();
  Res.NumIncidents = Tool.reports().incidents().size();
  return Res;
}

/// Report lines with the "[rank] " prefix stripped, so two runs whose
/// surviving reports interleave at different ranks can still be compared
/// line-by-line.
std::set<std::string> reportLines(const std::string &Rendered) {
  std::set<std::string> Lines;
  size_t Pos = 0;
  while (Pos < Rendered.size()) {
    size_t End = Rendered.find('\n', Pos);
    if (End == std::string::npos)
      End = Rendered.size();
    std::string Line = Rendered.substr(Pos, End - Pos);
    Pos = End + 1;
    if (Line.empty() || Line[0] != '[')
      continue; // trailer or prose
    size_t Close = Line.find("] ");
    if (Close != std::string::npos)
      Lines.insert(Line.substr(Close + 2));
  }
  return Lines;
}

} // namespace

int main(int argc, char **argv) {
  const bool Smoke = smokeMode(argc, argv);
  BenchTimer Timer;
  raw_ostream &OS = outs();
  OS << "==== Fault containment: overhead when idle, completion under fire "
        "====\n";

  const unsigned Functions = Smoke ? 60 : 300;
  const unsigned StmtsPerFn = Smoke ? 24 : 40;
  const unsigned Repeats = Smoke ? 1 : 5;
  const unsigned Checkers = 8;
  const unsigned FaultyEvery = 10;

  std::vector<std::string> CheckerSrcs;
  for (unsigned K = 0; K != Checkers; ++K)
    CheckerSrcs.push_back(ruleChecker(K));

  bool Ok = true;

  // Part 1: the armed-but-idle overhead gate on the pattern-dispatch corpus.
  // The deadline is 10 minutes per root: the watchdog arms and disarms once
  // per root but can never fire. Baseline and armed runs interleave pairwise
  // (after one discarded warmup pair) so clock/cache drift hits both sides
  // equally, and each side keeps its best time.
  std::string Clean =
      dispatchCorpus(Functions, StmtsPerFn, Checkers, /*FaultyEvery=*/0, 42);
  RunResult Base, Armed;
  runSuite(Clean, CheckerSrcs, /*DeadlineMs=*/0);
  runSuite(Clean, CheckerSrcs, /*DeadlineMs=*/600000);
  for (unsigned R = 0; R != Repeats; ++R) {
    keepIfBest(Base, runSuite(Clean, CheckerSrcs, 0), R == 0);
    keepIfBest(Armed, runSuite(Clean, CheckerSrcs, 600000), R == 0);
  }
  double OverheadPct =
      Base.AnalyzeSecs > 0
          ? (Armed.AnalyzeSecs - Base.AnalyzeSecs) / Base.AnalyzeSecs * 100.0
          : 0;
  bool SameOutput = Base.Rendered == Armed.Rendered;
  bool NoIncidents = Armed.NumIncidents == 0 &&
                     Armed.Stats.value("engine.deadline.hits") == 0;
  OS.printf("idle overhead: %.2f ms baseline -> %.2f ms armed (%+.2f%%), "
            "reports %s, incidents %zu\n",
            Base.AnalyzeSecs * 1e3, Armed.AnalyzeSecs * 1e3, OverheadPct,
            SameOutput ? "identical" : "DIFFER", Armed.NumIncidents);
  Ok &= SameOutput && NoIncidents && !Base.Rendered.empty();
  if (Smoke) {
    OS << "overhead gate skipped (--smoke)\n";
  } else {
    bool Cheap = OverheadPct < 3.0;
    OS.printf("overhead gate (< 3.00%%): %.2f%% %s\n", OverheadPct,
              Cheap ? "PASS" : "FAIL");
    Ok &= Cheap;
  }

  // Part 2: completion under fire. The injector faults on every 10th root;
  // the run must finish, quarantine exactly those roots, and keep every
  // surviving root's report identical to the fault-free run's.
  std::string Faulty =
      dispatchCorpus(Functions, StmtsPerFn, Checkers, FaultyEvery, 42);
  RunResult NoFault = runInjector(Faulty, FaultInjectorChecker::Mode::None);
  RunResult Sabotaged = runInjector(Faulty, FaultInjectorChecker::Mode::Fault);
  const size_t FaultyRoots = (Functions + FaultyEvery - 1) / FaultyEvery;
  bool Quarantined = Sabotaged.NumIncidents == FaultyRoots;
  bool SurvivorCount =
      Sabotaged.NumReports == NoFault.NumReports - FaultyRoots;
  std::set<std::string> Expected = reportLines(NoFault.Rendered);
  std::set<std::string> Survivors = reportLines(Sabotaged.Rendered);
  bool SurvivorsIntact = true;
  for (const std::string &Line : Survivors)
    SurvivorsIntact &= Expected.count(Line) != 0;
  OS.printf("\nunder fire: %zu of %u roots sabotaged; run completed with "
            "%zu/%zu reports, %zu quarantined incident(s)\n",
            FaultyRoots, Functions, Sabotaged.NumReports, NoFault.NumReports,
            Sabotaged.NumIncidents);
  OS.printf("survivor reports subset-of fault-free run: %s\n",
            SurvivorsIntact ? "yes" : "NO");
  Ok &= Quarantined && SurvivorCount && SurvivorsIntact &&
        NoFault.NumReports > FaultyRoots;

  OS << '\n'
     << (Ok ? "FAULT CONTAINMENT IS FREE WHEN IDLE AND CONTAINS WHEN NOT\n"
            : "MISMATCH\n");

  BenchJson("fault_containment")
      .num("wall_ms", Timer.ms())
      .num("stmts_per_s", stmtsPerSec(Armed.Stats, Armed.AnalyzeSecs))
      .num("overhead_pct", OverheadPct)
      .count("faulty_roots", FaultyRoots)
      .count("surviving_reports", Sabotaged.NumReports)
      .engine(Sabotaged.Stats)
      .flag("ok", Ok)
      .emit(OS);
  return Ok ? 0 : 1;
}
