//===- bench/corpus.cpp - Whole-suite run over the mini-kernel -----------------===//
//
// Part of the metal/xgcc reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The paper's headline numbers (Section 1/Section 10 framing): small
// checkers, applied to a large code base, find large numbers of real bugs
// with little incremental cost. We substitute a generated mini-kernel with
// seeded ground truth for Linux/BSD and report bugs found vs seeded,
// runtime, throughput, and checker sizes; plus a two-pass (.mast) run to
// time the paper's compile/analyze split.
//
//===----------------------------------------------------------------------===//

#include "BenchJson.h"
#include "WorkloadGen.h"
#include "driver/Tool.h"
#include "support/RawOstream.h"

#include <chrono>
#include <vector>

using namespace mc;
using namespace mc::bench;

namespace {

double seconds(std::chrono::steady_clock::time_point A,
               std::chrono::steady_clock::time_point B) {
  return std::chrono::duration<double>(B - A).count();
}

} // namespace

int main(int argc, char **argv) {
  const bool Smoke = smokeMode(argc, argv);
  BenchTimer Timer;
  raw_ostream &OS = outs();
  OS << "==== Whole-suite run over the generated mini-kernel ====\n\n";

  const unsigned Functions = Smoke ? 120 : 600;
  MiniKernel MK = miniKernel(Functions, /*Seed=*/42, /*BugPercent=*/20);
  OS << "corpus: " << MK.Functions << " functions, " << MK.Lines
     << " lines; seeded bugs: " << MK.SeededUseAfterFree << " use-after-free, "
     << MK.SeededLostLocks << " lost locks, " << MK.SeededNullDerefs
     << " unchecked allocations\n\n";

  auto T0 = std::chrono::steady_clock::now();
  XgccTool Tool;
  if (!Tool.addSource("mini_kernel.c", MK.Source)) {
    errs() << "parse error\n";
    return 1;
  }
  auto T1 = std::chrono::steady_clock::now();
  Tool.addBuiltinChecker("free");
  Tool.addBuiltinChecker("lock");
  Tool.addBuiltinChecker("null");
  Tool.run();
  auto T2 = std::chrono::steady_clock::now();

  unsigned FoundFree = 0, FoundLock = 0, FoundNull = 0;
  for (const ErrorReport &R : Tool.reports().reports()) {
    if (R.CheckerName == "free_checker")
      ++FoundFree;
    else if (R.CheckerName == "lock_checker")
      ++FoundLock;
    else if (R.CheckerName == "null_checker")
      ++FoundNull;
  }

  OS << "checker       | seeded | found | checker size (lines)\n";
  OS << "--------------+--------+-------+---------------------\n";
  auto Size = [&](const char *Name) {
    std::string Src = builtinCheckerSource(Name);
    unsigned Lines = 1;
    for (char C : Src)
      Lines += C == '\n';
    return Lines;
  };
  OS.printf("free          | %6u | %5u | %u\n", MK.SeededUseAfterFree,
            FoundFree, Size("free"));
  OS.printf("lock          | %6u | %5u | %u\n", MK.SeededLostLocks, FoundLock,
            Size("lock"));
  OS.printf("null          | %6u | %5u | %u\n", MK.SeededNullDerefs, FoundNull,
            Size("null"));

  const MetricsSnapshot S = Tool.metrics();
  double Parse = seconds(T0, T1), Analyze = seconds(T1, T2);
  OS.printf("\nparse: %.3fs, analyze (3 checkers): %.3fs  (%.0f lines/s "
            "analyzed)\n",
            Parse, Analyze, 3 * MK.Lines / (Analyze > 0 ? Analyze : 1e-9));
  OS << "points=" << S.value("engine.points.visited")
     << " paths=" << S.value("engine.paths.explored")
     << " cache-hits=" << S.value("engine.cache.block_hits")
     << " fn-hits=" << S.value("engine.cache.function_hits")
     << " pruned=" << S.value("engine.paths.pruned") << '\n';

  // The two-pass pipeline (Section 6 step 1-2): emit ASTs, reload, analyze.
  OS << "\n==== Two-pass pipeline (.mast emission) ====\n";
  std::string MastPath = "/tmp/mc_bench_corpus.mast";
  {
    XgccTool Pass1;
    Pass1.addSource("mini_kernel.c", MK.Source);
    Pass1.emitMast(MastPath);
    std::string Image;
    readFileBytes(MastPath, Image);
    OS.printf("source: %zu bytes, AST image: %zu bytes (%.1fx — the paper "
              "reports 4-5x)\n",
              MK.Source.size(), Image.size(),
              double(Image.size()) / double(MK.Source.size()));
  }
  XgccTool Pass2;
  bool Loaded = Pass2.addMastFile(MastPath);
  Pass2.addBuiltinChecker("free");
  Pass2.run();
  unsigned Pass2Free = Pass2.reports().size();
  OS << "pass-2 analysis from the image finds " << Pass2Free
     << " free bugs (direct run found " << FoundFree << ")\n";
  remove(MastPath.c_str());

  // Scale sweep: throughput as the corpus grows (the paper's engine "has
  // not been prevented from running effectively on the Linux kernel").
  OS << "\n==== Scale sweep (full suite of 3 checkers) ====\n";
  OS << "functions |   lines | seeded | found | analyze time | throughput\n";
  bool ScaleOk = true;
  const std::vector<unsigned> Sweep =
      Smoke ? std::vector<unsigned>{120u}
            : std::vector<unsigned>{600u, 2400u, 9600u};
  for (unsigned N : Sweep) {
    MiniKernel Big = miniKernel(N, 42);
    XgccTool T;
    T.addSource("mk.c", Big.Source);
    T.addBuiltinChecker("free");
    T.addBuiltinChecker("lock");
    T.addBuiltinChecker("null");
    auto A0 = std::chrono::steady_clock::now();
    T.run();
    auto A1 = std::chrono::steady_clock::now();
    unsigned Seeded =
        Big.SeededUseAfterFree + Big.SeededLostLocks + Big.SeededNullDerefs;
    double Secs = seconds(A0, A1);
    OS.printf("%9u | %7u | %6u | %5zu | %9.3f s  | %7.0f kLoC/s\n", N,
              Big.Lines, Seeded, T.reports().size(), Secs,
              3 * Big.Lines / (Secs > 0 ? Secs : 1e-9) / 1000.0);
    ScaleOk &= T.reports().size() == Seeded;
  }

  bool Ok = Loaded && FoundFree == MK.SeededUseAfterFree &&
            FoundLock == MK.SeededLostLocks &&
            FoundNull == MK.SeededNullDerefs && Pass2Free == FoundFree &&
            ScaleOk;
  OS << '\n'
     << (Ok ? "ALL SEEDED BUGS FOUND, ZERO FALSE POSITIVES, PASSES AGREE\n"
            : "MISMATCH\n");

  BenchJson("corpus")
      .num("wall_ms", Timer.ms())
      .num("stmts_per_s", stmtsPerSec(S, Analyze))
      .engine(S)
      .flag("ok", Ok)
      .emit(OS);
  return Ok ? 0 : 1;
}
