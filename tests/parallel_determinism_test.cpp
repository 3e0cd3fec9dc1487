//===- tests/parallel_determinism_test.cpp - Sharded-run determinism ----------===//
//
// Part of the metal/xgcc reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The contract of EngineOptions::Jobs: the sharded run mode may change how
// work is scheduled, never what comes out. These tests run the free and
// lock builtin checkers over a multi-TU corpus at several job counts and
// require byte-identical rendered reports and identical merged counters,
// plus the satellite guarantees (batch pass 1 equivalence, tool-level stats
// accumulation, per-worker path budgets).
//
//===----------------------------------------------------------------------===//

#include "driver/Tool.h"
#include "support/RawOstream.h"
#include "support/ThreadPool.h"

#include "gtest/gtest.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

using namespace mc;

namespace {

/// One translation unit with private roots and callees: a use-after-free
/// reached through a helper, a lost-lock path, and a clean root. Tags keep
/// every function name unique to its TU so no callee is shared and even
/// summary-cache counters are sharding-invariant.
std::string makeTU(unsigned Tag) {
  std::string T = std::to_string(Tag);
  std::string S = "void kfree(void *p);\n"
                  "void lock(int *l);\n"
                  "void unlock(int *l);\n";
  S += "int t" + T + "_helper(int *x) { kfree(x); return 0; }\n";
  S += "int t" + T + "_root_free(int *p) {\n"
       "  t" + T + "_helper(p);\n"
       "  return *p;\n"
       "}\n";
  S += "int t" + T + "_root_lock(int *l, int c) {\n"
       "  lock(l);\n"
       "  if (c)\n"
       "    return -1;\n"
       "  unlock(l);\n"
       "  return 0;\n"
       "}\n";
  S += "int t" + T + "_root_ok(int a, int b) {\n"
       "  if (a > b)\n"
       "    return a - b;\n"
       "  return b - a;\n"
       "}\n";
  return S;
}

struct RunSnapshot {
  std::string Rendered;
  MetricsSnapshot Stats;
  size_t Reports = 0;
};

RunSnapshot runCorpusAt(unsigned Jobs, unsigned TUs = 6) {
  XgccTool Tool;
  for (unsigned I = 0; I < TUs; ++I)
    EXPECT_TRUE(Tool.addSource("tu" + std::to_string(I) + ".c", makeTU(I)));
  EXPECT_TRUE(Tool.addBuiltinChecker("free"));
  EXPECT_TRUE(Tool.addBuiltinChecker("lock"));
  EngineOptions Opts;
  Opts.Jobs = Jobs;
  Tool.run(Opts);

  RunSnapshot Snap;
  raw_string_ostream OS(Snap.Rendered);
  Tool.reports().print(OS, RankPolicy::Generic);
  Snap.Stats = Tool.metrics();
  Snap.Reports = Tool.reports().size();
  return Snap;
}

std::string writeTemp(const std::string &Name, const std::string &Text) {
  std::string Path = ::testing::TempDir() + "/" + Name;
  std::ofstream Out(Path);
  Out << Text;
  return Path;
}

} // namespace

TEST(ParallelDeterminismTest, ShardedRunMatchesSerial) {
  RunSnapshot Serial = runCorpusAt(1);
  // 6 TUs x (1 use-after-free + 1 lost lock).
  EXPECT_EQ(Serial.Reports, 12u);
  EXPECT_FALSE(Serial.Rendered.empty());
  for (unsigned Jobs : {2u, 4u, 8u}) {
    RunSnapshot Sharded = runCorpusAt(Jobs);
    EXPECT_EQ(Sharded.Rendered, Serial.Rendered) << "jobs=" << Jobs;
    EXPECT_EQ(Sharded.Stats, Serial.Stats) << "jobs=" << Jobs;
  }
}

TEST(ParallelDeterminismTest, JobsZeroMeansAutoAndStaysDeterministic) {
  RunSnapshot Serial = runCorpusAt(1);
  RunSnapshot Auto = runCorpusAt(0);
  EXPECT_EQ(Auto.Rendered, Serial.Rendered);
  EXPECT_EQ(Auto.Stats, Serial.Stats);
}

TEST(ParallelDeterminismTest, BatchAddSourceFilesIsJobCountInvariant) {
  std::vector<std::string> Paths;
  for (unsigned I = 0; I < 5; ++I)
    Paths.push_back(
        writeTemp("pdt_tu" + std::to_string(I) + ".c", makeTU(I)));

  RunSnapshot Snaps[2];
  unsigned JobCounts[2] = {1, 4};
  for (int K = 0; K < 2; ++K) {
    XgccTool Tool;
    ASSERT_TRUE(Tool.addSourceFiles(Paths, JobCounts[K]));
    EXPECT_TRUE(Tool.diags().all().empty());
    ASSERT_TRUE(Tool.addBuiltinChecker("free"));
    EngineOptions Opts;
    Opts.Jobs = JobCounts[K];
    Tool.run(Opts);
    raw_string_ostream OS(Snaps[K].Rendered);
    Tool.reports().print(OS, RankPolicy::Generic);
    Snaps[K].Stats = Tool.metrics();
    Snaps[K].Reports = Tool.reports().size();
  }
  EXPECT_EQ(Snaps[0].Reports, 5u);
  EXPECT_EQ(Snaps[1].Rendered, Snaps[0].Rendered);
  EXPECT_EQ(Snaps[1].Stats, Snaps[0].Stats);
  for (const std::string &P : Paths)
    std::remove(P.c_str());
}

TEST(ParallelDeterminismTest, BatchReportsMissingFilesInInputOrder) {
  std::string Good = writeTemp("pdt_good.c", makeTU(9));
  XgccTool Tool;
  EXPECT_FALSE(Tool.addSourceFiles(
      {Good, ::testing::TempDir() + "/pdt_missing_file.c"}, 2));
  ASSERT_EQ(Tool.diags().all().size(), 1u);
  EXPECT_NE(Tool.diags().all()[0].Message.find("pdt_missing_file.c"),
            std::string::npos);
  std::remove(Good.c_str());
}

TEST(ParallelDeterminismTest, StatsAccumulateAcrossEngineRecreation) {
  XgccTool Tool;
  ASSERT_TRUE(Tool.addSource("tu.c", makeTU(0)));
  ASSERT_TRUE(Tool.addBuiltinChecker("free"));

  EngineOptions A;
  Tool.run(A);
  MetricsSnapshot First = Tool.metrics();
  EXPECT_GT(First.value("engine.functions.analyzed"), 0u);

  // A second run with different options builds new engines; the first
  // run's counters must survive in the tool-level merged stats.
  EngineOptions B;
  B.EnableBlockCache = false;
  Tool.run(B);
  MetricsSnapshot Total = Tool.metrics();
  EXPECT_GT(Total.value("engine.functions.analyzed"),
            First.value("engine.functions.analyzed"));
  EXPECT_GE(Total.value("engine.points.visited"),
            2 * First.value("engine.points.visited"));
}

TEST(ParallelDeterminismTest, ShardedStatsAccumulateLikeSerial) {
  // Two sharded runs on one tool: metrics() must be the sum of both, exactly
  // as two serial runs on one engine would accumulate.
  XgccTool Tool;
  for (unsigned I = 0; I < 4; ++I)
    ASSERT_TRUE(Tool.addSource("tu" + std::to_string(I) + ".c", makeTU(I)));
  ASSERT_TRUE(Tool.addBuiltinChecker("free"));
  EngineOptions Opts;
  Opts.Jobs = 4;
  Tool.run(Opts);
  MetricsSnapshot Once = Tool.metrics();
  Tool.run(Opts);
  MetricsSnapshot Twice = Tool.metrics();
  MetricsSnapshot OnceTwice = Once;
  OnceTwice.merge(Once);
  EXPECT_EQ(Twice, OnceTwice);
}

TEST(ParallelDeterminismTest, CompositionSurvivesSharding) {
  // path_kill annotates panic callsites; the engine consults those
  // PATHKILL marks during every later checker's traversal. Sharded runs
  // must carry the merged worker annotations across the per-checker
  // barrier or the guarded use-after-frees below would be (wrongly)
  // reported at Jobs>1.
  auto RunAt = [](unsigned Jobs) {
    XgccTool Tool;
    for (unsigned I = 0; I < 4; ++I) {
      std::string T = std::to_string(I);
      std::string S = "void kfree(void *p);\nvoid panic(char *msg);\n";
      S += "int p" + T + "_guarded(int *p, int c) {\n"
           "  kfree(p);\n"
           "  if (c) {\n"
           "    panic(\"boom\");\n"
           "    return *p;\n"
           "  }\n"
           "  return 0;\n"
           "}\n";
      S += "int p" + T + "_buggy(int *p) {\n"
           "  kfree(p);\n"
           "  return *p;\n"
           "}\n";
      EXPECT_TRUE(Tool.addSource("tu" + T + ".c", S));
    }
    EXPECT_TRUE(Tool.addBuiltinChecker("path_kill"));
    EXPECT_TRUE(Tool.addBuiltinChecker("free"));
    EngineOptions Opts;
    Opts.Jobs = Jobs;
    Tool.run(Opts);
    RunSnapshot Snap;
    raw_string_ostream OS(Snap.Rendered);
    Tool.reports().print(OS, RankPolicy::Generic);
    Snap.Reports = Tool.reports().size();
    return Snap;
  };
  RunSnapshot Serial = RunAt(1);
  // Only the unguarded use-after-frees; the panic paths are killed.
  EXPECT_EQ(Serial.Reports, 4u);
  for (unsigned Jobs : {2u, 4u}) {
    RunSnapshot Sharded = RunAt(Jobs);
    EXPECT_EQ(Sharded.Rendered, Serial.Rendered) << "jobs=" << Jobs;
  }
}

TEST(ParallelDeterminismTest, RootsSeeOnlyTheirOwnAnnotations) {
  // selfmark annotates each mark() call it reaches and reports one that
  // already carries its annotation. A root reads the earlier checkers'
  // annotations and its own writes, never another root's, so each input
  // gives the same bytes whichever engine runs which root, and whether the
  // root is analyzed or replayed from the store.
  const char *SelfMark =
      "sm selfmark;  decl any_arguments args;\n"
      "start:  { mark(args) } && ${ mc_annotated(\"SEEN\") } ==> start, "
      "{ err(\"mark reached by an earlier root\"); }\n"
      "      | { mark(args) } ==> start, { annotate(\"SEEN\"); }\n"
      "      | { flip(args) } ==> other ;\n"
      "other:  { mark(args) } && ${ mc_annotated(\"SEEN\") } ==> other, "
      "{ err(\"mark reached by an earlier root\"); }\n"
      "      | { mark(args) } ==> other, { annotate(\"SEEN\"); } ;\n";
  const std::string Decls = "void mark(int x); void flip(void);\n"
                            "void helper(int v) { mark(v); }\n";
  const std::string Report =
      ":2: in helper: [selfmark] mark reached by an earlier root "
      "(interprocedural, depth 1)\n";
  const std::string Store = ::testing::TempDir() + "/pdt_selfmark_store";
  uint64_t StoreHits = 0;
  auto Render = [&](const std::string &Path, EngineOptions Opts,
                    bool Cached) {
    XgccTool Tool;
    if (Cached)
      Tool.setCacheDir(Store);
    EXPECT_TRUE(Tool.addSourceFiles({Path}, 1));
    EXPECT_TRUE(Tool.addMetalChecker(SelfMark, "selfmark.m"));
    Tool.run(Opts);
    Tool.finishCache();
    StoreHits = Tool.metrics().value(kCacheSummaryHits);
    std::string Out;
    raw_string_ostream OS(Out);
    Tool.reports().print(OS, RankPolicy::Generic);
    return Out;
  };
  struct Input {
    const char *File;
    const char *Roots;
    bool Reports;
  };
  const Input Inputs[] = {
      // r1 and r2 reach the same call in helper (r2 after flip(), so helper
      // is walked again in another state instead of replayed from its
      // summary): neither sees the other's mark.
      {"pdt_selfmark.c",
       "void r1(void) { helper(1); }\n"
       "void r2(void) { flip(); helper(2); }\n",
       false},
      // r1 walks helper in `other`; r2 marks the call in `start`, then
      // reaches it in `other` and sees its own mark. r1's summary of helper
      // in `other` must not stand in for r2's walk: one report.
      {"pdt_selfmark_mirror.c",
       "void r1(void) { flip(); helper(1); }\n"
       "void r2(void) { helper(0); flip(); helper(2); }\n",
       true},
  };
  for (const Input &In : Inputs) {
    const std::string Path = writeTemp(In.File, Decls + In.Roots);
    const std::string Expected = In.Reports ? "[1] " + Path + Report : "";
    EngineOptions Opts;
    for (unsigned Jobs : {1u, 2u, 4u}) {
      Opts.Jobs = Jobs;
      EXPECT_EQ(Render(Path, Opts, false), Expected)
          << In.File << " jobs=" << Jobs;
      std::filesystem::remove_all(Store);
      EXPECT_EQ(Render(Path, Opts, true), Expected)
          << In.File << " cold, jobs=" << Jobs;
      EXPECT_EQ(Render(Path, Opts, true), Expected)
          << In.File << " warm, jobs=" << Jobs;
      EXPECT_EQ(StoreHits, 2u) << In.File << " warm, jobs=" << Jobs;
    }
  }
  std::filesystem::remove_all(Store);

  // A root still sees its own writes: one root reaching the call twice
  // (walked twice, with summaries off) reports it once.
  const std::string OneRoot =
      writeTemp("pdt_selfmark_one.c",
                Decls + "void r1(void) { helper(1); helper(2); }\n");
  EngineOptions Opts;
  Opts.EnableFunctionSummaries = false;
  EXPECT_EQ(Render(OneRoot, Opts, false), "[1] " + OneRoot + Report);
}

TEST(ParallelDeterminismTest, PathBudgetIsPerWorker) {
  // A cache-off configuration with a tiny per-function path budget: each
  // worker-engine must enforce MaxPathsPerFunction for its own roots, so
  // the limit fires the same number of times at any job count.
  std::string S = "void kfree(void *p);\n";
  for (unsigned R = 0; R < 4; ++R) {
    std::string T = std::to_string(R);
    S += "int wide" + T + "(int *p, int a, int b, int c, int d, int e) {\n"
         "  int acc = 0;\n"
         "  if (a) { acc += 1; } else { acc -= 1; }\n"
         "  if (b) { acc += 2; } else { acc -= 2; }\n"
         "  if (c) { acc += 3; } else { acc -= 3; }\n"
         "  if (d) { acc += 4; } else { acc -= 4; }\n"
         "  if (e) { acc += 5; } else { acc -= 5; }\n"
         "  kfree(p);\n"
         "  return acc + *p;\n"
         "}\n";
  }

  MetricsSnapshot Stats[2];
  std::string Rendered[2];
  unsigned JobCounts[2] = {1, 2};
  for (int K = 0; K < 2; ++K) {
    XgccTool Tool;
    ASSERT_TRUE(Tool.addSource("wide.c", S));
    ASSERT_TRUE(Tool.addBuiltinChecker("free"));
    EngineOptions Opts;
    Opts.EnableBlockCache = false;
    Opts.EnableFunctionSummaries = false;
    Opts.MaxPathsPerFunction = 8;
    Opts.Jobs = JobCounts[K];
    Tool.run(Opts);
    Stats[K] = Tool.metrics();
    raw_string_ostream OS(Rendered[K]);
    Tool.reports().print(OS, RankPolicy::Generic);
  }
  EXPECT_GT(Stats[0].value("engine.paths.limit_hits"), 0u);
  EXPECT_EQ(Stats[1], Stats[0]);
  EXPECT_EQ(Rendered[1], Rendered[0]);
  // The path that trips the limit still completes, so the budget allows at
  // most MaxPathsPerFunction + 1 paths per function.
  EXPECT_LE(Stats[0].value("engine.paths.explored"), 4 * (8u + 1));
}

TEST(ParallelDeterminismTest, EachCallOfACalleeWalksItsOwnBlockCaches) {
  // lib1 calls lib2 twice: first with l locked, then with l released by the
  // first call. The second activation must walk lib2 in its own state, not
  // stop at the interior block caches the first one filled, or the path
  // never returns to lib1 and line 10's unlock of a released lock goes
  // unreported. The reference walk keeps no summaries and no block cache.
  const std::string Source = "void lock(int *l); void unlock(int *l);\n"
                             "int lib2(int *l, int v) {\n"
                             "  unlock(l);\n"
                             "  return v;\n"
                             "}\n"
                             "int lib1(int *l, int v) {\n"
                             "  lock(l);\n"
                             "  v += lib2(l, v);\n"
                             "  v += lib2(l, v);\n"
                             "  unlock(l);\n"
                             "  return v;\n"
                             "}\n";
  auto Run = [&](unsigned Jobs, bool Reference) {
    XgccTool Tool;
    EXPECT_TRUE(Tool.addSource("t.c", Source));
    EXPECT_TRUE(Tool.addBuiltinChecker("lock"));
    EngineOptions Opts;
    Opts.Jobs = Jobs;
    if (Reference) {
      Opts.EnableFunctionSummaries = false;
      Opts.EnableBlockCache = false;
    }
    Tool.run(Opts);
    std::set<std::string> Reports;
    for (const ErrorReport &R : Tool.reports().reports())
      Reports.insert(R.File + ":" + std::to_string(R.Line) + ": " +
                     R.Message);
    return std::make_pair(Reports,
                          Tool.metrics().value("engine.cache.block_hits"));
  };
  const std::set<std::string> Want = {
      "t.c:10: releasing unacquired lock l!",
      "t.c:3: releasing unacquired lock l!"};
  for (unsigned Jobs : {1u, 4u}) {
    std::set<std::string> Reference = Run(Jobs, /*Reference=*/true).first;
    auto [Default, Hits] = Run(Jobs, /*Reference=*/false);
    EXPECT_EQ(Reference, Want) << "jobs " << Jobs;
    EXPECT_EQ(Default, Reference) << "jobs " << Jobs;
    EXPECT_EQ(Hits, 0u) << "jobs " << Jobs;
  }
}
