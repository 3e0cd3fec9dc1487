//===- bench/incremental.cpp - Warm re-run speedup gate ----------------------===//
//
// Part of the metal/xgcc reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The incremental-analysis acceptance gate: over a multi-file corpus of a
// few hundred functions, a warm re-run after editing ONE function must be
// at least 5x faster than the cold run (full mode; --smoke only
// shape-checks), and every warm configuration — --jobs 1 and 8, sharing one
// cache directory — must produce byte-identical reports.
//
//===----------------------------------------------------------------------===//

#include "BenchJson.h"
#include "driver/Tool.h"
#include "support/RawOstream.h"

#include <filesystem>
#include <string>
#include <system_error>
#include <unistd.h>
#include <vector>

using namespace mc;
using namespace mc::bench;

namespace {

/// One self-contained corpus file: FnsPerFile (helper, root) pairs with
/// seeded use-after-free bugs. Roots are namespaced by file index so names
/// never collide across files; the only cross-file symbol is kfree. \p Edit
/// rewrites the body of the file's first helper — the "one function edit".
std::string fileSource(unsigned FileIdx, unsigned FnsPerFile, bool Edit) {
  std::string S = "void kfree(void *p);\n";
  for (unsigned F = 0; F < FnsPerFile; ++F) {
    std::string N = "f" + std::to_string(FileIdx) + "_" + std::to_string(F);
    bool Bug = (FileIdx + F) % 3 == 0;
    S += "static int helper_" + N + "(int *p, int a, int b) {\n";
    S += "  int acc = a;\n";
    if (Edit && F == 0)
      S += "  acc = acc * 2 + b;\n";
    for (unsigned D = 0; D < 14; ++D)
      S += "  if (a > " + std::to_string(D) + ") { acc += " +
           std::to_string(D) + "; } else { acc -= b; }\n";
    S += "  return acc + *p;\n}\n";
    S += "int root_" + N + "(int v) {\n";
    S += "  int x = v;\n";
    S += "  int *p = &x;\n";
    if (Bug) {
      S += "  kfree(p);\n";
      S += "  if (v > 1) { x = *p; }\n"; // use after free on one branch
    } else {
      S += "  x = helper_" + N + "(p, v, 2);\n";
      S += "  kfree(p);\n";
    }
    S += "  return helper_" + N + "(&x, x, v);\n}\n";
  }
  return S;
}

struct RunResult {
  std::string Reports;
  MetricsSnapshot Metrics;
  double WallMs = 0;
};

RunResult runOnce(const std::vector<std::string> &Paths,
                  const std::string &StoreDir, unsigned Jobs) {
  BenchTimer T;
  XgccTool Tool;
  if (!StoreDir.empty())
    Tool.setCacheDir(StoreDir);
  Tool.addSourceFiles(Paths, Jobs);
  Tool.addBuiltinChecker("free");
  Tool.addBuiltinChecker("lock");
  EngineOptions Opts;
  Opts.Jobs = Jobs;
  Tool.run(Opts);
  Tool.finishCache();
  RunResult R;
  raw_string_ostream OS(R.Reports);
  Tool.reports().print(OS, RankPolicy::Generic);
  OS.flush();
  R.Metrics = Tool.metrics();
  R.WallMs = T.ms();
  return R;
}

} // namespace

int main(int argc, char **argv) {
  const bool Smoke = smokeMode(argc, argv);
  BenchTimer Timer;
  raw_ostream &OS = outs();

  const unsigned Files = Smoke ? 3 : 14;
  const unsigned FnsPerFile = Smoke ? 4 : 18; // full: 252 fns, 504 decls
  namespace fs = std::filesystem;
  std::error_code EC;
  fs::path Dir = fs::temp_directory_path(EC);
  Dir /= "mc-bench-incremental-" + std::to_string(::getpid());
  fs::remove_all(Dir, EC);
  fs::create_directories(Dir, EC);
  const std::string Store = (Dir / "store").string();

  std::vector<std::string> Paths;
  auto WriteCorpus = [&](bool Edit) {
    Paths.clear();
    for (unsigned I = 0; I < Files; ++I) {
      fs::path P = Dir / ("f" + std::to_string(I) + ".c");
      writeFileBytes(P.string(), fileSource(I, FnsPerFile, Edit && I == 0));
      Paths.push_back(P.string());
    }
  };

  OS << "==== incremental: warm re-run after a 1-function edit ====\n";
  WriteCorpus(/*Edit=*/false);

  // Cold: empty store, everything misses and records.
  RunResult Cold = runOnce(Paths, Store, /*Jobs=*/8);
  // Warm, unchanged corpus: everything replays.
  RunResult Warm = runOnce(Paths, Store, 8);
  bool Identical = Warm.Reports == Cold.Reports;
  bool WarmHits = Warm.Metrics.value(kCacheSummaryHits) > 0 &&
                  Warm.Metrics.value(kCacheAstHits) > 0 &&
                  Warm.Metrics.value(kCacheSummaryMisses) == 0;

  // Warm at every job count, one shared store.
  bool MatrixOk = true;
  for (unsigned Jobs : {1u, 8u})
    MatrixOk &= runOnce(Paths, Store, Jobs).Reports == Cold.Reports;

  // The headline: edit one function, re-run warm, compare against a fresh
  // uncached run of the edited corpus (correctness) and the cold wall time
  // (speed). Only file 0 re-parses; only its roots re-analyze.
  WriteCorpus(/*Edit=*/true);
  RunResult WarmEdit = runOnce(Paths, Store, 8);
  RunResult RefEdit = runOnce(Paths, /*StoreDir=*/"", 8);
  bool EditOk = WarmEdit.Reports == RefEdit.Reports &&
                WarmEdit.Metrics.value(kCacheSummaryHits) > 0;
  double Speedup = WarmEdit.WallMs > 0 ? Cold.WallMs / WarmEdit.WallMs : 0;

  OS.printf("cold: %.1f ms   warm: %.1f ms   warm-after-edit: %.1f ms "
            "(%.1fx vs cold)\n",
            Cold.WallMs, Warm.WallMs, WarmEdit.WallMs, Speedup);
  OS << "warm reports identical to cold: " << (Identical ? "yes" : "NO")
     << "\n";
  OS << "warm at jobs {1,8} identical: "
     << (MatrixOk ? "yes" : "NO") << "\n";
  OS << "post-edit warm identical to uncached reference: "
     << (EditOk ? "yes" : "NO") << "\n";

  // --smoke shape-checks correctness only; the 5x wall-clock gate needs the
  // full corpus to dominate constant overheads.
  bool SpeedOk = Smoke || Speedup >= 5.0;
  if (!SpeedOk)
    OS << "SPEEDUP GATE FAILED: expected >= 5x\n";
  bool Ok = Identical && WarmHits && MatrixOk && EditOk && SpeedOk;

  MetricsSnapshot Agg = Warm.Metrics;
  Agg.merge(WarmEdit.Metrics);
  BenchJson("incremental")
      .num("wall_ms", Timer.ms())
      .num("cold_ms", Cold.WallMs)
      .num("warm_ms", Warm.WallMs)
      .num("warm_edit_ms", WarmEdit.WallMs)
      .num("speedup", Speedup)
      .num("stmts_per_s", stmtsPerSec(Agg, Timer.seconds()))
      .engine(Agg)
      .flag("ok", Ok)
      .emit(OS);

  fs::remove_all(Dir, EC);
  return Ok ? 0 : 1;
}
