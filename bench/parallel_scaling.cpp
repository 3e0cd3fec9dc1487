//===- bench/parallel_scaling.cpp - Sharded-analysis scaling -----------------===//
//
// Part of the metal/xgcc reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Measures root sharding (EngineOptions::Jobs): wall-clock speedup of
// root-function analysis at 1/2/4/8 workers over a corpus of independent
// root cones, while *strictly* verifying that every job count renders
// byte-identical report output and identical merged work counters. Each job
// count's times are the medians of interleaved repetitions. The determinism
// checks are hard failures at any worker count and in every repetition; the
// >= 2.5x speedup gate at 4 workers is enforced only when the machine
// actually has 4 hardware threads to give.
//
//===----------------------------------------------------------------------===//

#include "BenchJson.h"
#include "WorkloadGen.h"
#include "driver/Tool.h"
#include "support/RawOstream.h"
#include "support/ThreadPool.h"

#include <chrono>
#include <iterator>
#include <string>
#include <vector>

using namespace mc;
using namespace mc::bench;

namespace {

double seconds(std::chrono::steady_clock::time_point A,
               std::chrono::steady_clock::time_point B) {
  return std::chrono::duration<double>(B - A).count();
}

struct RunResult {
  double ParseSecs = 0;
  double AnalyzeSecs = 0;
  std::string Rendered;
  MetricsSnapshot Stats;
  size_t Reports = 0;
};

RunResult runAt(const std::string &Source, unsigned Jobs) {
  RunResult RR;
  EngineOptions Opts;
  Opts.Jobs = Jobs;

  XgccTool Tool;
  auto T0 = std::chrono::steady_clock::now();
  if (!Tool.addSource("parallel_corpus.c", Source)) {
    errs() << "parse error\n";
    return RR;
  }
  auto T1 = std::chrono::steady_clock::now();
  Tool.addBuiltinChecker("free");
  Tool.addBuiltinChecker("lock");
  Tool.run(Opts);
  auto T2 = std::chrono::steady_clock::now();

  RR.ParseSecs = seconds(T0, T1);
  RR.AnalyzeSecs = seconds(T1, T2);
  raw_string_ostream OS(RR.Rendered);
  Tool.reports().print(OS, RankPolicy::Generic);
  RR.Stats = Tool.metrics();
  RR.Reports = Tool.reports().size();
  return RR;
}

} // namespace

int main(int argc, char **argv) {
  const bool Smoke = smokeMode(argc, argv);
  BenchTimer Timer;
  raw_ostream &OS = outs();
  const unsigned HW = ThreadPool::hardwareThreads();
  OS << "==== Sharded-analysis scaling (EngineOptions::Jobs) ====\n";
  OS << "hardware threads: " << HW << "\n\n";

  // Independent root cones: no callee shared between roots, so per-shard
  // summary caches do exactly a one-shard run's work and even the counters
  // must agree across shardings.
  const unsigned Roots = Smoke ? 16 : 64, Diamonds = Smoke ? 6 : 12,
                 ChainDepth = Smoke ? 6 : 12;
  std::string Source = parallelCorpus(Roots, Diamonds, ChainDepth);
  unsigned Lines = 0;
  for (char C : Source)
    Lines += C == '\n';
  OS << "corpus: " << Roots << " roots, " << Lines << " lines, "
     << Roots / 2 << " seeded use-after-free\n\n";

  // One run is too short for a stable ratio (a single slow spell of the
  // machine moves it), so every job count runs once per round and its times
  // are the medians over the rounds.
  const unsigned Reps = 5;
  const unsigned JobCounts[] = {1, 2, 4, 8};
  const size_t NJ = std::size(JobCounts);
  std::vector<std::vector<double>> ParseSecs(NJ), AnalyzeSecs(NJ);
  std::vector<char> SameOutput(NJ, 1), SameStats(NJ, 1);
  std::vector<size_t> ReportsAt(NJ, 0);
  RunResult Base;
  for (unsigned Rep = 0; Rep < Reps; ++Rep)
    for (size_t K = 0; K < NJ; ++K) {
      RunResult RR = runAt(Source, JobCounts[K]);
      if (Rep == 0 && K == 0)
        Base = RR;
      ParseSecs[K].push_back(RR.ParseSecs);
      AnalyzeSecs[K].push_back(RR.AnalyzeSecs);
      SameOutput[K] &= RR.Rendered == Base.Rendered;
      SameStats[K] &= RR.Stats == Base.Stats;
      ReportsAt[K] = RR.Reports;
    }

  const double BaseSecs = median(AnalyzeSecs[0]);
  bool Ok = Base.Reports == Roots / 2;
  double SpeedupAt4 = 0;
  for (size_t K = 0; K < NJ; ++K) {
    double Secs = median(AnalyzeSecs[K]);
    Ok &= SameOutput[K] && SameStats[K];
    OS.printf("jobs=%u: parse %.3fs analyze %.3fs, %zu report(s)",
              JobCounts[K], median(ParseSecs[K]), Secs, ReportsAt[K]);
    if (K == 0) {
      OS << (SameOutput[K] && SameStats[K] ? "  [baseline]\n"
                                           : "  [baseline, DIFFERS]\n");
      continue;
    }
    double Speedup = Secs > 0 ? BaseSecs / Secs : 0;
    OS.printf(", speedup %.2fx, output %s, counters %s\n", Speedup,
              SameOutput[K] ? "identical" : "DIFFERS",
              SameStats[K] ? "identical" : "DIFFER");
    if (JobCounts[K] == 4)
      SpeedupAt4 = Speedup;
  }
  OS << "(median of " << Reps << " interleaved repetitions)\n";

  OS << '\n';
  if (Smoke) {
    OS.printf("speedup gate skipped (--smoke); measured %.2fx at 4 workers\n",
              SpeedupAt4);
  } else if (HW >= 4) {
    bool Fast = SpeedupAt4 >= 2.5;
    OS.printf("speedup gate (>= 2.50x at 4 workers): %.2fx %s\n", SpeedupAt4,
              Fast ? "PASS" : "FAIL");
    Ok &= Fast;
  } else {
    OS.printf("speedup gate skipped: only %u hardware thread(s); measured "
              "%.2fx at 4 workers\n",
              HW, SpeedupAt4);
  }

  OS << (Ok ? "DETERMINISM HOLDS ACROSS ALL JOB COUNTS\n" : "MISMATCH\n");

  BenchJson("parallel_scaling")
      .num("wall_ms", Timer.ms())
      .num("stmts_per_s", stmtsPerSec(Base.Stats, BaseSecs))
      .num("speedup_at_4", SpeedupAt4)
      .engine(Base.Stats)
      .flag("ok", Ok)
      .emit(OS);
  return Ok ? 0 : 1;
}
