//===- bench/fig4_caching.cpp - Figure 4: DFS with block caching ---------------===//
//
// Part of the metal/xgcc reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Figure 4 presents the DFS-with-caching algorithm; its point is that
// block-level caching turns the exponential path space into linear work.
// This bench sweeps the number of sequential diamonds and reports paths
// explored and runtime with the cache on vs off — the crossover shape the
// algorithm exists for.
//
//===----------------------------------------------------------------------===//

#include "BenchJson.h"
#include "WorkloadGen.h"
#include "driver/Tool.h"
#include "support/RawOstream.h"

#include <benchmark/benchmark.h>

#include <filesystem>
#include <string>
#include <system_error>
#include <unistd.h>
#include <vector>

using namespace mc;
using namespace mc::bench;

namespace {

MetricsSnapshot runOnce(const std::string &Source, bool Cache) {
  XgccTool Tool;
  Tool.addSource("w.c", Source);
  Tool.addBuiltinChecker("free");
  EngineOptions Opts;
  Opts.EnableBlockCache = Cache;
  Opts.EnableFalsePathPruning = false; // the conditions are opaque anyway
  Opts.MaxPathsPerFunction = 1u << 22;
  Tool.run(Opts);
  return Tool.metrics();
}

void BM_DiamondsCached(benchmark::State &State) {
  std::string Source = diamondCorpus(1, State.range(0), /*SeedBugs=*/true);
  MetricsSnapshot S;
  for (auto _ : State)
    S = runOnce(Source, /*Cache=*/true);
  State.counters["paths"] = S.value("engine.paths.explored");
  State.counters["blocks"] = S.value("engine.blocks.visited");
}

void BM_DiamondsUncached(benchmark::State &State) {
  std::string Source = diamondCorpus(1, State.range(0), /*SeedBugs=*/true);
  MetricsSnapshot S;
  for (auto _ : State)
    S = runOnce(Source, /*Cache=*/false);
  State.counters["paths"] = S.value("engine.paths.explored");
  State.counters["blocks"] = S.value("engine.blocks.visited");
}

BENCHMARK(BM_DiamondsCached)->DenseRange(4, 16, 4)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DiamondsUncached)->DenseRange(4, 16, 4)->Unit(benchmark::kMillisecond);

/// One run of the diamond corpus against an on-disk incremental store
/// (--cache-dir equivalent). Goes through real files because the AST store
/// keys on post-preprocess token streams of file-backed TUs.
struct StoreRun {
  std::string Reports;
  MetricsSnapshot Metrics;
};

StoreRun runStored(const std::string &Path, const std::string &StoreDir) {
  XgccTool Tool;
  Tool.setCacheDir(StoreDir);
  Tool.addSourceFiles({Path}, 1);
  Tool.addBuiltinChecker("free");
  EngineOptions Opts;
  Opts.EnableFalsePathPruning = false;
  Tool.run(Opts);
  Tool.finishCache();
  StoreRun R;
  raw_string_ostream OS(R.Reports);
  Tool.reports().print(OS, RankPolicy::Generic);
  OS.flush();
  R.Metrics = Tool.metrics();
  return R;
}

} // namespace

int main(int argc, char **argv) {
  const bool Smoke = smokeMode(argc, argv);
  BenchTimer Timer;
  // The headline table first: paths explored, cached vs uncached.
  raw_ostream &OS = outs();
  OS << "==== Figure 4: block-level caching (paths explored) ====\n";
  OS << "diamonds | uncached paths | cached paths\n";
  OS << "---------+----------------+-------------\n";
  bool Shape = true;
  MetricsSnapshot Agg;
  const std::vector<unsigned> Depths =
      Smoke ? std::vector<unsigned>{4u, 8u}
            : std::vector<unsigned>{4u, 8u, 12u, 16u};
  for (unsigned D : Depths) {
    std::string Source = diamondCorpus(1, D, true);
    MetricsSnapshot On = runOnce(Source, true);
    MetricsSnapshot Off = runOnce(Source, false);
    uint64_t OnPaths = On.value("engine.paths.explored");
    uint64_t OffPaths = Off.value("engine.paths.explored");
    OS.printf("%8u | %14llu | %12llu\n", D, (unsigned long long)OffPaths,
              (unsigned long long)OnPaths);
    Shape &= OffPaths >= (1ull << D); // exponential
    Shape &= OnPaths <= 4ull * D + 8; // linear-ish
    Agg.merge(On);
    Agg.merge(Off);
  }
  OS << (Shape ? "shape: uncached grows exponentially, cached stays linear\n"
               : "UNEXPECTED SHAPE\n");
  OS << '\n';

  // The other caching layer: the on-disk incremental store. Cold-then-warm
  // over one store must replay byte-identically, with the warm run serving
  // everything from cache. The hit/miss counters land in BENCH_JSON so the
  // harness can track replay coverage alongside the block-cache shape.
  namespace fs = std::filesystem;
  std::error_code EC;
  fs::path Dir = fs::temp_directory_path(EC);
  Dir /= "mc-bench-fig4-" + std::to_string(::getpid());
  fs::remove_all(Dir, EC);
  fs::create_directories(Dir, EC);
  fs::path Src = Dir / "w.c";
  writeFileBytes(Src.string(),
                 diamondCorpus(Smoke ? 2 : 8, Depths.back(), /*SeedBugs=*/true));
  const std::string Store = (Dir / "store").string();
  StoreRun Cold = runStored(Src.string(), Store);
  StoreRun Warm = runStored(Src.string(), Store);
  bool IncrOk = Warm.Reports == Cold.Reports &&
                Warm.Metrics.value(kCacheAstHits) > 0 &&
                Warm.Metrics.value(kCacheSummaryHits) > 0 &&
                Warm.Metrics.value(kCacheSummaryMisses) == 0;
  OS << "incremental store: warm replay "
     << (IncrOk ? "byte-identical, all hits\n" : "BROKEN\n");
  Agg.merge(Cold.Metrics);
  Agg.merge(Warm.Metrics);
  fs::remove_all(Dir, EC);

  bool Ok = Shape && IncrOk;
  BenchJson("fig4_caching")
      .num("wall_ms", Timer.ms())
      .num("stmts_per_s", stmtsPerSec(Agg, Timer.seconds()))
      .engine(Agg)
      .flag("ok", Ok)
      .emit(OS);

  if (!Smoke) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
  }
  return Ok ? 0 : 1;
}
