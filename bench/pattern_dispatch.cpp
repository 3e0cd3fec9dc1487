//===- bench/pattern_dispatch.cpp - The compiled dispatch index ---------------===//
//
// Part of the metal/xgcc reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Measures the compiled pattern-dispatch index: with many checkers loaded,
// the naive engine tries every live transition's pattern at every program
// point; the index consults (stmt kind, interned callee) and hands the
// matcher only the plausible candidates, and the per-block memo skips whole
// blocks that can never fire. The workload is the paper's many-rules
// scenario — API-rule checkers whose start state holds a pile of named-call
// patterns (banned-function style) — over a call-heavy corpus. Gate: with
// >= 8 checkers the indexed run must deliver >= 2x the statement-matching
// throughput of --no-dispatch-index, with byte-identical reports.
//
//===----------------------------------------------------------------------===//

#include "BenchJson.h"
#include "WorkloadGen.h"
#include "driver/Tool.h"
#include "support/RawOstream.h"

#include <string>
#include <vector>

using namespace mc;
using namespace mc::bench;

namespace {

/// Number of named-call rules per generated checker.
constexpr unsigned RulesPerChecker = 16;

/// A metal checker in the "banned API" family: checker \p K flags any call
/// of bad_<K>_<J>(v) for J in [0, RulesPerChecker).
std::string ruleChecker(unsigned K) {
  std::string S = "sm rules" + std::to_string(K) + ";\n"
                  "state decl any_pointer v;\n\n"
                  "start:\n";
  for (unsigned J = 0; J != RulesPerChecker; ++J) {
    std::string Fn = "bad_" + std::to_string(K) + "_" + std::to_string(J);
    S += std::string(J ? "| " : "  ") + "{ " + Fn + "(v) } ==> v.stop, { err(\"call of " +
         Fn + "\"); }\n";
  }
  S += ";\n";
  return S;
}

/// Call-heavy, straight-line corpus: every statement is a call through a
/// named function, so the naive matcher pays a kind match plus a callee
/// compare per rule per point. A seeded minority of functions actually call
/// a banned function, so every checker fires somewhere and the report
/// streams can be compared.
std::string dispatchCorpus(unsigned Functions, unsigned StmtsPerFn,
                           unsigned Checkers, uint64_t Seed) {
  Lcg Rng(Seed);
  std::string S;
  for (unsigned I = 0; I != 8; ++I)
    S += "int ok" + std::to_string(I) + "(int x);\n";
  for (unsigned K = 0; K != Checkers; ++K)
    for (unsigned J = 0; J != RulesPerChecker; ++J)
      S += "void bad_" + std::to_string(K) + "_" + std::to_string(J) +
           "(void *p);\n";
  for (unsigned F = 0; F != Functions; ++F) {
    S += "int fn" + std::to_string(F) + "(int *p, int a) {\n";
    for (unsigned L = 0; L != StmtsPerFn; ++L)
      S += "  a = ok" + std::to_string(Rng.below(8)) + "(a + " +
           std::to_string(L) + ");\n";
    if (F % 17 == 0) {
      // One banned call, cycling over the checkers and rules.
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
};

RunResult runSuite(const std::string &Source,
                   const std::vector<std::string> &CheckerSrcs, bool Index,
                   unsigned Repeats) {
  RunResult Best;
  for (unsigned R = 0; R != Repeats; ++R) {
    XgccTool Tool;
    if (!Tool.addSource("dispatch.c", Source)) {
      errs() << "parse error\n";
      return Best;
    }
    for (size_t K = 0; K != CheckerSrcs.size(); ++K)
      Tool.addMetalChecker(CheckerSrcs[K], "rules" + std::to_string(K));
    EngineOptions Opts;
    Opts.EnableDispatchIndex = Index;
    BenchTimer T;
    Tool.run(Opts);
    double Secs = T.seconds();
    if (R == 0 || Secs < Best.AnalyzeSecs) {
      Best.AnalyzeSecs = Secs;
      Best.Stats = Tool.metrics();
      raw_string_ostream OS(Best.Rendered);
      Best.Rendered.clear();
      Tool.reports().print(OS, RankPolicy::Generic);
    }
  }
  return Best;
}

} // namespace

int main(int argc, char **argv) {
  const bool Smoke = smokeMode(argc, argv);
  BenchTimer Timer;
  raw_ostream &OS = outs();
  OS << "==== Compiled pattern-dispatch index (many-checker suite) ====\n";

  const unsigned Functions = Smoke ? 60 : 300;
  const unsigned StmtsPerFn = Smoke ? 24 : 40;
  const unsigned Repeats = Smoke ? 1 : 3;
  const unsigned MaxCheckers = 8;

  std::vector<std::string> AllCheckers;
  for (unsigned K = 0; K != MaxCheckers; ++K)
    AllCheckers.push_back(ruleChecker(K));
  std::string Source =
      dispatchCorpus(Functions, StmtsPerFn, MaxCheckers, /*Seed=*/42);
  OS << "corpus: " << Functions << " call-heavy functions, "
     << MaxCheckers << " checkers x " << RulesPerChecker
     << " named-call rules each\n\n";

  OS << "checkers | naive (ms) | indexed (ms) | speedup | match attempts "
        "naive -> indexed\n";
  OS << "---------+------------+--------------+---------+----------------"
        "----------------\n";

  bool Ok = true;
  double SpeedupAtMax = 0;
  RunResult IndexedAtMax, NaiveAtMax;
  for (unsigned N : {2u, 4u, 8u}) {
    std::vector<std::string> Srcs(AllCheckers.begin(),
                                  AllCheckers.begin() + N);
    RunResult Naive = runSuite(Source, Srcs, /*Index=*/false, Repeats);
    RunResult Indexed = runSuite(Source, Srcs, /*Index=*/true, Repeats);
    double Speedup = Indexed.AnalyzeSecs > 0
                         ? Naive.AnalyzeSecs / Indexed.AnalyzeSecs
                         : 0;
    // Byte-identical reports and identical engine work are the soundness
    // side of the gate: the index may only skip provably-unmatchable tries.
    bool SameReports = Naive.Rendered == Indexed.Rendered;
    bool SameWork = Naive.Stats.value("engine.points.visited") ==
                    Indexed.Stats.value("engine.points.visited");
    uint64_t Tried = Indexed.Stats.value("index.candidates.tried");
    uint64_t Skipped = Indexed.Stats.value("index.transitions.skipped");
    // Naive mode tries every live transition; indexed mode reports how many
    // candidate patterns actually reached the matcher.
    OS.printf("%8u | %10.2f | %12.2f | %6.2fx | reports %s, points %s, "
              "tried %llu of %llu\n",
              N, Naive.AnalyzeSecs * 1e3, Indexed.AnalyzeSecs * 1e3, Speedup,
              SameReports ? "identical" : "DIFFER",
              SameWork ? "identical" : "DIFFER",
              (unsigned long long)Tried, (unsigned long long)(Tried + Skipped));
    Ok &= SameReports && SameWork && !Naive.Rendered.empty();
    if (N == MaxCheckers) {
      SpeedupAtMax = Speedup;
      IndexedAtMax = Indexed;
      NaiveAtMax = Naive;
    }
  }

  // Informational: the stock suite over the mini-kernel (mixed patterns,
  // fewer rules per state — the gap is smaller but must not invert).
  {
    MiniKernel MK = miniKernel(Smoke ? 60 : 200, 42);
    std::vector<std::string> Builtins;
    for (const std::string &Name : builtinCheckerNames())
      Builtins.push_back(builtinCheckerSource(Name));
    RunResult Naive = runSuite(MK.Source, Builtins, false, Repeats);
    RunResult Indexed = runSuite(MK.Source, Builtins, true, Repeats);
    double Speedup = Indexed.AnalyzeSecs > 0
                         ? Naive.AnalyzeSecs / Indexed.AnalyzeSecs
                         : 0;
    bool Same = Naive.Rendered == Indexed.Rendered;
    OS.printf("\nstock suite over the mini-kernel: %.2f ms -> %.2f ms "
              "(%.2fx), reports %s\n",
              Naive.AnalyzeSecs * 1e3, Indexed.AnalyzeSecs * 1e3, Speedup,
              Same ? "identical" : "DIFFER");
    Ok &= Same;
  }

  OS << '\n';
  if (Smoke) {
    OS.printf("throughput gate skipped (--smoke); measured %.2fx at %u "
              "checkers\n",
              SpeedupAtMax, MaxCheckers);
  } else {
    bool Fast = SpeedupAtMax >= 2.0;
    OS.printf("throughput gate (>= 2.00x at %u checkers): %.2fx %s\n",
              MaxCheckers, SpeedupAtMax, Fast ? "PASS" : "FAIL");
    Ok &= Fast;
  }
  OS << (Ok ? "DISPATCH INDEX REPRODUCES NAIVE OUTPUT\n" : "MISMATCH\n");

  BenchJson("pattern_dispatch_indexed")
      .num("wall_ms", IndexedAtMax.AnalyzeSecs * 1e3)
      .num("stmts_per_s",
           stmtsPerSec(IndexedAtMax.Stats, IndexedAtMax.AnalyzeSecs))
      .engine(IndexedAtMax.Stats)
      .flag("ok", Ok)
      .emit(OS);
  BenchJson("pattern_dispatch_naive")
      .num("wall_ms", NaiveAtMax.AnalyzeSecs * 1e3)
      .num("stmts_per_s", stmtsPerSec(NaiveAtMax.Stats, NaiveAtMax.AnalyzeSecs))
      .num("speedup", SpeedupAtMax)
      .engine(NaiveAtMax.Stats)
      .flag("ok", Ok)
      .emit(OS);
  BenchJson("pattern_dispatch")
      .num("wall_ms", Timer.ms())
      .num("stmts_per_s",
           stmtsPerSec(IndexedAtMax.Stats, IndexedAtMax.AnalyzeSecs))
      .num("speedup", SpeedupAtMax)
      .engine(IndexedAtMax.Stats)
      .flag("ok", Ok)
      .emit(OS);
  return Ok ? 0 : 1;
}
