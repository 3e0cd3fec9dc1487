//===- bench/report_lifecycle.cpp - Baseline-diff acceptance gate ------------===//
//
// Part of the metal/xgcc reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The persistent-report-lifecycle acceptance gate (docs/REPORTS.md): over a
// multi-file corpus of a few hundred functions,
//
//   1. shifting every report site down by 50 lines must produce ZERO
//      spurious "new" classifications — the fingerprints are the identity,
//      not the line numbers;
//   2. classifying a run against the baseline store (open + recordRun +
//      save) must cost < 5% of the analysis run it annotates, each side the
//      median of five repetitions (full mode; --smoke only shape-checks);
//   3. `--baseline`-annotated output must be byte-identical at --jobs 1
//      and 8.
//
//===----------------------------------------------------------------------===//

#include "BenchJson.h"
#include "driver/Tool.h"
#include "lifecycle/BaselineStore.h"
#include "support/RawOstream.h"

#include <filesystem>
#include <string>
#include <system_error>
#include <unistd.h>
#include <vector>

using namespace mc;
using namespace mc::bench;

namespace {

/// One corpus file: FnsPerFile (helper, root) pairs, a use-after-free seeded
/// in every third root. With \p Shift, 50 comment lines are spliced in ahead
/// of the functions, moving every report site down the file.
std::string fileSource(unsigned FileIdx, unsigned FnsPerFile, bool Shift) {
  std::string S = "void kfree(void *p);\n";
  if (Shift)
    for (unsigned L = 0; L < 50; ++L)
      S += "/* release-to-release drift, line " + std::to_string(L) + " */\n";
  for (unsigned F = 0; F < FnsPerFile; ++F) {
    std::string N = "f" + std::to_string(FileIdx) + "_" + std::to_string(F);
    bool Bug = (FileIdx + F) % 3 == 0;
    S += "static int helper_" + N + "(int *p, int a, int b) {\n";
    S += "  int acc = a;\n";
    for (unsigned D = 0; D < 6; ++D)
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
    S += "  return x;\n}\n";
  }
  return S;
}

struct RunResult {
  std::string Reports;     ///< Annotated text output (post-recordRun).
  BaselineDelta Delta;
  double AnalysisMs = 0;   ///< Parse + engine wall time.
  double ClassifyMs = 0;   ///< Baseline open + recordRun + save wall time.
  bool Ok = true;
};

/// One full `xgcc --baseline`-equivalent run: analyze \p Paths, classify
/// against the store at \p BaselineDir, persist, render annotated output.
RunResult runOnce(const std::vector<std::string> &Paths,
                  const std::string &BaselineDir, unsigned Jobs) {
  RunResult R;
  BenchTimer Analysis;
  XgccTool Tool;
  R.Ok &= Tool.addSourceFiles(Paths, Jobs);
  R.Ok &= Tool.addBuiltinChecker("free");
  EngineOptions Opts;
  Opts.Jobs = Jobs;
  Tool.run(Opts);
  R.AnalysisMs = Analysis.ms();

  BenchTimer Classify;
  BaselineStore Store;
  std::string Err;
  if (!Store.open(BaselineDir, &Err) ||
      (R.Delta = Store.recordRun(Tool.reports(), false),
       !Store.save(&Err))) {
    errs() << "baseline store error: " << Err << "\n";
    R.Ok = false;
  }
  R.ClassifyMs = Classify.ms();

  raw_string_ostream OS(R.Reports);
  Tool.reports().print(OS, RankPolicy::Generic);
  OS.flush();
  return R;
}

} // namespace

int main(int argc, char **argv) {
  const bool Smoke = smokeMode(argc, argv);
  BenchTimer Timer;
  raw_ostream &OS = outs();

  const unsigned Files = Smoke ? 3 : 14;
  const unsigned FnsPerFile = Smoke ? 4 : 18; // full: 252 fns
  namespace fs = std::filesystem;
  std::error_code EC;
  fs::path Dir = fs::temp_directory_path(EC);
  Dir /= "mc-bench-lifecycle-" + std::to_string(::getpid());
  fs::remove_all(Dir, EC);
  fs::create_directories(Dir, EC);

  std::vector<std::string> Paths;
  auto WriteCorpus = [&](bool Shift) {
    Paths.clear();
    for (unsigned I = 0; I < Files; ++I) {
      fs::path P = Dir / ("f" + std::to_string(I) + ".c");
      writeFileBytes(P.string(), fileSource(I, FnsPerFile, Shift));
      Paths.push_back(P.string());
    }
  };

  OS << "==== report_lifecycle: fingerprints vs a 50-line shift ====\n";

  // Run 1 seeds the store; the shifted runs re-analyze the corpus with every
  // report site shifted 50 lines down, each against its own copy of the
  // seeded store. A single spurious "new" in any of them fails the gate.
  const std::string Baseline = (Dir / "baseline").string();
  WriteCorpus(/*Shift=*/false);
  RunResult Seed = runOnce(Paths, Baseline, /*Jobs=*/8);
  WriteCorpus(/*Shift=*/true);
  // Classification takes well under a millisecond, so one preemption during
  // a single sample could trip the 5% gate: each side of the ratio is the
  // median of interleaved repetitions.
  const unsigned Reps = 5;
  const fs::path Copy = Dir / "baseline-copy";
  std::vector<double> AnalysisMs, ClassifyMs;
  RunResult Shifted;
  bool ShiftOk = Seed.Ok && Seed.Delta.NewCount > 0;
  for (unsigned I = 0; I < Reps; ++I) {
    fs::remove_all(Copy, EC);
    fs::copy(Baseline, Copy, fs::copy_options::recursive, EC);
    Shifted = runOnce(Paths, Copy.string(), 8);
    ShiftOk = ShiftOk && !EC && Shifted.Ok && Shifted.Delta.NewCount == 0 &&
              Shifted.Delta.FixedCount == 0 &&
              Shifted.Delta.KnownCount == Seed.Delta.NewCount;
    AnalysisMs.push_back(Shifted.AnalysisMs);
    ClassifyMs.push_back(Shifted.ClassifyMs);
  }
  OS.printf("seed run: %u new   shifted run: %u new, %u known, %u fixed\n",
            Seed.Delta.NewCount, Shifted.Delta.NewCount,
            Shifted.Delta.KnownCount, Shifted.Delta.FixedCount);
  if (!ShiftOk)
    OS << "SHIFT GATE FAILED: expected 0 spurious new / 0 fixed\n";

  // Classification overhead, measured on the (warm-process) shifted runs.
  double MedianAnalysisMs = median(AnalysisMs);
  double MedianClassifyMs = median(ClassifyMs);
  double OverheadPct = MedianAnalysisMs > 0
                           ? 100.0 * MedianClassifyMs / MedianAnalysisMs
                           : 0;
  OS.printf("analysis: %.1f ms   classification: %.2f ms (%.2f%%), median "
            "of %u\n",
            MedianAnalysisMs, MedianClassifyMs, OverheadPct, Reps);
  // --smoke corpora are too small for a ratio gate: constant per-run costs
  // (directory creation, file IO) dominate.
  bool OverheadOk = Smoke || OverheadPct < 5.0;
  if (!OverheadOk)
    OS << "OVERHEAD GATE FAILED: expected < 5%\n";

  // Determinism: two fresh stores, seeded and re-run at --jobs 1 vs 8; the
  // annotated report bytes must match at both stages.
  WriteCorpus(/*Shift=*/false);
  const std::string Base1 = (Dir / "baseline-j1").string();
  const std::string Base8 = (Dir / "baseline-j8").string();
  RunResult SeedJ1 = runOnce(Paths, Base1, 1);
  RunResult SeedJ8 = runOnce(Paths, Base8, 8);
  WriteCorpus(/*Shift=*/true);
  RunResult WarmJ1 = runOnce(Paths, Base1, 1);
  RunResult WarmJ8 = runOnce(Paths, Base8, 8);
  bool JobsOk = SeedJ1.Ok && SeedJ8.Ok && WarmJ1.Ok && WarmJ8.Ok &&
                SeedJ1.Reports == SeedJ8.Reports &&
                WarmJ1.Reports == WarmJ8.Reports &&
                WarmJ1.Reports.find("[known]") != std::string::npos;
  OS << "--baseline output identical at --jobs {1,8}: "
     << (JobsOk ? "yes" : "NO") << "\n";

  bool Ok = ShiftOk && OverheadOk && JobsOk;
  BenchJson("report_lifecycle")
      .num("wall_ms", Timer.ms())
      .num("analysis_ms", MedianAnalysisMs)
      .num("classify_ms", MedianClassifyMs)
      .num("classify_overhead_pct", OverheadPct)
      .count("seed_new", Seed.Delta.NewCount)
      .count("shifted_new", Shifted.Delta.NewCount)
      .count("shifted_known", Shifted.Delta.KnownCount)
      .flag("shift_ok", ShiftOk)
      .flag("jobs_ok", JobsOk)
      .flag("ok", Ok)
      .emit(OS);

  fs::remove_all(Dir, EC);
  return Ok ? 0 : 1;
}
