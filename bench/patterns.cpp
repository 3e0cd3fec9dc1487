//===- bench/patterns.cpp - Pattern matching and compile throughput ------------===//
//
// Part of the metal/xgcc reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The paper's pragmatics rest on the matcher being cheap ("the more code we
// analyze, the more bugs we will find") and on checkers being cheap to
// write and compile ("a day's work"). Microbenchmarks: structural match
// cost per program point, whole-corpus analysis throughput per checker, and
// metal compile time for the stock suite.
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

void BM_MetalCompile(benchmark::State &State) {
  // Compiling the whole stock suite from source text.
  for (auto _ : State) {
    SourceManager SM;
    DiagnosticEngine Diags(SM);
    for (const std::string &Name : builtinCheckerNames()) {
      auto C = makeBuiltinChecker(Name, SM, Diags);
      benchmark::DoNotOptimize(C.get());
    }
  }
}
BENCHMARK(BM_MetalCompile)->Unit(benchmark::kMicrosecond);

void BM_ParseMiniKernel(benchmark::State &State) {
  MiniKernel MK = miniKernel(State.range(0), 42);
  for (auto _ : State) {
    XgccTool Tool;
    Tool.addSource("mk.c", MK.Source);
    Tool.finalize();
    benchmark::DoNotOptimize(Tool.callGraph().roots().size());
  }
  State.counters["lines"] = MK.Lines;
}
BENCHMARK(BM_ParseMiniKernel)->Arg(100)->Arg(400)->Unit(benchmark::kMillisecond);

void BM_AnalyzeOneChecker(benchmark::State &State) {
  MiniKernel MK = miniKernel(State.range(0), 42);
  for (auto _ : State) {
    XgccTool Tool;
    Tool.addSource("mk.c", MK.Source);
    Tool.addBuiltinChecker("free");
    Tool.run();
    benchmark::DoNotOptimize(Tool.reports().size());
  }
  State.counters["lines"] = MK.Lines;
}
BENCHMARK(BM_AnalyzeOneChecker)->Arg(100)->Arg(400)
    ->Unit(benchmark::kMillisecond);

void BM_AnalyzeFullSuite(benchmark::State &State) {
  MiniKernel MK = miniKernel(State.range(0), 42);
  for (auto _ : State) {
    XgccTool Tool;
    Tool.addSource("mk.c", MK.Source);
    for (const std::string &Name : builtinCheckerNames())
      Tool.addBuiltinChecker(Name);
    Tool.run();
    benchmark::DoNotOptimize(Tool.reports().size());
  }
  State.counters["lines"] = MK.Lines;
  State.counters["checkers"] = double(builtinCheckerNames().size());
}
BENCHMARK(BM_AnalyzeFullSuite)->Arg(200)->Unit(benchmark::kMillisecond);

void BM_SerializeMiniKernel(benchmark::State &State) {
  XgccTool Tool;
  MiniKernel MK = miniKernel(State.range(0), 42);
  Tool.addSource("mk.c", MK.Source);
  for (auto _ : State) {
    std::string Image = writeMast(Tool.context());
    benchmark::DoNotOptimize(Image.size());
  }
}
BENCHMARK(BM_SerializeMiniKernel)->Arg(200)->Unit(benchmark::kMillisecond);

void BM_DeserializeMiniKernel(benchmark::State &State) {
  XgccTool Tool;
  MiniKernel MK = miniKernel(State.range(0), 42);
  Tool.addSource("mk.c", MK.Source);
  std::string Image = writeMast(Tool.context());
  for (auto _ : State) {
    ASTContext Fresh;
    std::string Error;
    bool Ok = readMast(Image, Fresh, &Error);
    benchmark::DoNotOptimize(Ok);
  }
}
BENCHMARK(BM_DeserializeMiniKernel)->Arg(200)->Unit(benchmark::kMillisecond);

} // namespace

int main(int argc, char **argv) {
  const bool Smoke = smokeMode(argc, argv);
  BenchTimer Timer;
  // Headline: per-checker incremental cost over a fixed corpus (the paper:
  // "once the fixed cost of writing a metal extension is paid there is
  // little incremental cost to applying it").
  raw_ostream &OS = outs();
  MiniKernel MK = miniKernel(Smoke ? 80 : 300, 42);
  OS << "==== Incremental cost per additional checker ("
     << MK.Functions << "-fn corpus) ====\n";
  uint64_t PrevPoints = 0;
  MetricsSnapshot Last;
  std::vector<std::string> Names = builtinCheckerNames();
  for (size_t N = 1; N <= Names.size(); ++N) {
    XgccTool Tool;
    Tool.addSource("mk.c", MK.Source);
    for (size_t I = 0; I < N; ++I)
      Tool.addBuiltinChecker(Names[I]);
    Tool.run();
    Last = Tool.metrics();
    uint64_t Points = Last.value("engine.points.visited");
    OS.printf("%zu checker(s): %8llu points visited (+%llu)\n", N,
              (unsigned long long)Points,
              (unsigned long long)(Points - PrevPoints));
    PrevPoints = Points;
  }
  OS << '\n';

  BenchJson("patterns")
      .num("wall_ms", Timer.ms())
      .num("stmts_per_s", stmtsPerSec(Last, Timer.seconds()))
      .engine(Last)
      .flag("ok", true)
      .emit(OS);

  if (!Smoke) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
  }
  return 0;
}
