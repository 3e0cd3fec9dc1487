//===- bench/interproc.cpp - Section 6: top-down summaries scale ---------------===//
//
// Part of the metal/xgcc reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Section 6's claim: the dynamic-programming function summaries let the
// top-down, context-sensitive analysis scale (it "runs effectively on the
// Linux kernel"). This bench sweeps callgraph size and fan-in and compares
// work with summaries on vs off (= re-analysing callees at every callsite).
//
//===----------------------------------------------------------------------===//

#include "BenchJson.h"
#include "WorkloadGen.h"
#include "driver/Tool.h"
#include "support/RawOstream.h"

#include <benchmark/benchmark.h>

using namespace mc;
using namespace mc::bench;

namespace {

/// `Callers` roots each call a shared `Depth`-deep utility chain.
MetricsSnapshot measure(unsigned Depth, unsigned Callers, bool Summaries,
                        unsigned *ReportsOut = nullptr) {
  XgccTool Tool;
  Tool.addSource("w.c", callChainCorpus(Depth, Callers));
  Tool.addBuiltinChecker("free");
  EngineOptions Opts;
  Opts.EnableFunctionSummaries = Summaries;
  Opts.MaxCallDepth = 256;
  Tool.run(Opts);
  if (ReportsOut)
    *ReportsOut = Tool.reports().size();
  return Tool.metrics();
}

void BM_CallChainSummaries(benchmark::State &State) {
  std::string Source = callChainCorpus(State.range(0), 8);
  for (auto _ : State) {
    XgccTool Tool;
    Tool.addSource("w.c", Source);
    Tool.addBuiltinChecker("free");
    EngineOptions Opts;
    Opts.MaxCallDepth = 256;
    Tool.run(Opts);
    benchmark::DoNotOptimize(Tool.reports().size());
  }
}

BENCHMARK(BM_CallChainSummaries)->RangeMultiplier(2)->Range(8, 64)
    ->Unit(benchmark::kMillisecond);

} // namespace

int main(int argc, char **argv) {
  const bool Smoke = smokeMode(argc, argv);
  BenchTimer Timer;
  raw_ostream &OS = outs();
  OS << "==== Section 6: function summaries vs re-analysis ====\n";
  OS << "(N callers of one depth-12 utility chain; every root has a bug)\n\n";
  OS << "callers | fn analyses (summaries) | fn analyses (re-analysis) | "
        "summary hits\n";
  bool Shape = true;
  MetricsSnapshot Agg;
  for (unsigned Callers : {2u, 4u, 8u, 16u}) {
    unsigned RepOn = 0, RepOff = 0;
    MetricsSnapshot On = measure(12, Callers, true, &RepOn);
    MetricsSnapshot Off = measure(12, Callers, false, &RepOff);
    Agg.merge(On);
    Agg.merge(Off);
    uint64_t OnAnalyses = On.value("engine.functions.analyzed");
    uint64_t OffAnalyses = Off.value("engine.functions.analyzed");
    OS.printf("%7u | %23llu | %25llu | %12llu\n", Callers,
              (unsigned long long)OnAnalyses, (unsigned long long)OffAnalyses,
              (unsigned long long)On.value("engine.cache.function_hits"));
    // Same bugs either way.
    Shape &= RepOn == Callers && RepOff == Callers;
    // With summaries the chain is analysed roughly once; without, the work
    // grows with the number of callers.
    Shape &= OnAnalyses < OffAnalyses;
  }
  OS << (Shape ? "shape: summaries amortize the callee chain across callers\n"
               : "UNEXPECTED SHAPE\n");

  OS << "\n==== Context sensitivity: callees analysed only in reaching "
        "states ====\n";
  {
    // One caller frees before calling, one does not: the callee is analysed
    // in exactly the states that reach it (2), not the full state space.
    XgccTool Tool;
    Tool.addSource("w.c", "void kfree(void *p);\n"
                          "int leaf(int *x) { return *x; }\n"
                          "int freed_caller(int *a) { kfree(a); return leaf(a); }\n"
                          "int clean_caller(int *b) { return leaf(b); }\n");
    Tool.addBuiltinChecker("free");
    Tool.run();
    OS << "leaf analysed "
       << Tool.metrics().value("engine.functions.analyzed") - 2
       << "x (for 2 distinct incoming states), reports: "
       << Tool.reports().size() << " (expect 1)\n";
    Shape &= Tool.reports().size() == 1;
    Agg.merge(Tool.metrics());
  }
  OS << '\n';

  BenchJson("interproc")
      .num("wall_ms", Timer.ms())
      .num("stmts_per_s", stmtsPerSec(Agg, Timer.seconds()))
      .engine(Agg)
      .flag("ok", Shape)
      .emit(OS);

  if (!Smoke) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
  }
  return Shape ? 0 : 1;
}
