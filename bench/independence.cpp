//===- bench/independence.cpp - Section 5.2's linear-scaling claim -------------===//
//
// Part of the metal/xgcc reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// "Without independence, the number of times that we analyze each program
// point would grow exponentially with the number of variable-specific
// instances. With independence, this number scales linearly." This bench
// sweeps the number of simultaneously tracked instances through a fixed
// CFG and reports the work done.
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

std::string instancesWorkload(unsigned Instances, unsigned Diamonds) {
  std::string S = "void kfree(void *p);\nint sink(int x);\n";
  S += "int f(int c";
  for (unsigned I = 0; I < Instances; ++I)
    S += ", int *p" + std::to_string(I);
  S += ") {\n";
  for (unsigned I = 0; I < Instances; ++I)
    S += "  kfree(p" + std::to_string(I) + ");\n";
  for (unsigned D = 0; D < Diamonds; ++D)
    S += "  if (c == " + std::to_string(D) + ") { sink(c); } else { sink(0); }\n";
  S += "  return 0;\n}\n";
  return S;
}

MetricsSnapshot measure(unsigned Instances) {
  XgccTool Tool;
  Tool.addSource("w.c", instancesWorkload(Instances, 6));
  Tool.addBuiltinChecker("free");
  Tool.run();
  return Tool.metrics();
}

void BM_TrackedInstances(benchmark::State &State) {
  std::string Source = instancesWorkload(State.range(0), 6);
  for (auto _ : State) {
    XgccTool Tool;
    Tool.addSource("w.c", Source);
    Tool.addBuiltinChecker("free");
    Tool.run();
    benchmark::DoNotOptimize(Tool.reports().size());
  }
}

BENCHMARK(BM_TrackedInstances)->RangeMultiplier(2)->Range(1, 32)
    ->Unit(benchmark::kMillisecond);

} // namespace

int main(int argc, char **argv) {
  const bool Smoke = smokeMode(argc, argv);
  BenchTimer Timer;
  raw_ostream &OS = outs();
  OS << "==== Section 5.2: independence => linear scaling in instances ====\n";
  OS << "instances | blocks visited | points visited\n";
  OS << "----------+----------------+---------------\n";
  uint64_t Blocks1 = 0, Blocks32 = 0;
  MetricsSnapshot Agg;
  for (unsigned N : {1u, 2u, 4u, 8u, 16u, 32u}) {
    MetricsSnapshot S = measure(N);
    uint64_t Blocks = S.value("engine.blocks.visited");
    OS.printf("%9u | %14llu | %14llu\n", N, (unsigned long long)Blocks,
              (unsigned long long)S.value("engine.points.visited"));
    if (N == 1)
      Blocks1 = Blocks;
    if (N == 32)
      Blocks32 = Blocks;
    Agg.merge(S);
  }
  // 32x the instances must cost far less than 32x the block traversals
  // (they ride the same paths); allow generous slack for the extra tuples.
  bool Linear = Blocks32 <= Blocks1 * 8;
  OS << (Linear ? "shape: block traversals stay flat as instances grow\n"
                : "UNEXPECTED SHAPE\n");
  OS << '\n';

  BenchJson("independence")
      .num("wall_ms", Timer.ms())
      .num("stmts_per_s", stmtsPerSec(Agg, Timer.seconds()))
      .engine(Agg)
      .flag("ok", Linear)
      .emit(OS);

  if (!Smoke) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
  }
  return Linear ? 0 : 1;
}
