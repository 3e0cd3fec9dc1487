//===- tests/cache_test.cpp - Incremental cache tests --------------------------===//
//
// Part of the metal/xgcc reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The --cache-dir layer's contract: warm replays are byte-identical to cold
// runs, any malformed entry degrades to a miss (never a crash, never a wrong
// report), and the stores self-heal by rewriting what they dropped.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "cfront/Serialize.h"
#include "store/Cache.h"
#include "support/RawOstream.h"

#include <filesystem>
#include <functional>
#include <string>
#include <system_error>
#include <vector>

#include <unistd.h>

using namespace mc;
using namespace mc::test;

namespace {

namespace fs = std::filesystem;

struct CacheRun {
  std::string Reports;
  MetricsSnapshot Metrics;
  std::string Diags; ///< Everything the tool wrote to its diagnostic stream.
};

/// Occurrences of \p Needle in \p Text.
size_t countOf(const std::string &Text, const std::string &Needle) {
  size_t N = 0;
  for (size_t Pos = Text.find(Needle); Pos != std::string::npos;
       Pos = Text.find(Needle, Pos + Needle.size()))
    ++N;
  return N;
}

class CacheTest : public ::testing::Test {
protected:
  fs::path Dir;
  std::string Store;
  std::vector<std::string> Paths;

  void SetUp() override {
    const auto *Info = ::testing::UnitTest::GetInstance()->current_test_info();
    Dir = fs::path(::testing::TempDir()) /
          (std::string("mc_cache_") + Info->name());
    std::error_code EC;
    fs::remove_all(Dir, EC);
    fs::create_directories(Dir, EC);
    Store = (Dir / "store").string();
  }

  void TearDown() override {
    std::error_code EC;
    fs::remove_all(Dir, EC);
  }

  /// Two files, two roots each: a use-after-free root and a clean root that
  /// routes through a static helper. Both stores populate (the TUs are
  /// diagnostic-free); \p Edit rewrites one helper body in file 0.
  void writeCorpus(bool Edit = false) {
    Paths.clear();
    for (unsigned I = 0; I < 2; ++I) {
      std::string N = std::to_string(I);
      std::string S = "void kfree(void *p);\n";
      S += "static int helper" + N + "(int *p, int a) {\n  int acc = a;\n";
      if (Edit && I == 0)
        S += "  acc = acc * 3;\n";
      S += "  if (a > 1) { acc += 2; } else { acc -= 1; }\n";
      S += "  return acc + *p;\n}\n";
      S += "int bad" + N + "(int *p, int c) {\n";
      S += "  kfree(p);\n  if (c) { return *p; }\n  return 0;\n}\n";
      S += "int good" + N + "(int v) {\n  int x = v;\n";
      S += "  x = helper" + N + "(&x, v);\n  kfree(&x);\n  return v;\n}\n";
      fs::path P = Dir / ("f" + N + ".c");
      writeFileBytes(P.string(), S);
      Paths.push_back(P.string());
    }
  }

  CacheRun run(const std::string &StoreDir, bool Verify = false,
               EngineOptions Opts = EngineOptions(),
               const std::vector<std::string> &Checkers = {"free"}) {
    CacheRun R;
    raw_string_ostream DiagOS(R.Diags);
    XgccTool Tool(&DiagOS);
    if (!StoreDir.empty())
      Tool.setCacheDir(StoreDir);
    Tool.setCacheVerify(Verify);
    EXPECT_TRUE(Tool.addSourceFiles(Paths, 2));
    for (const std::string &Name : Checkers)
      EXPECT_TRUE(Tool.addBuiltinChecker(Name));
    Tool.run(Opts);
    Tool.finishCache();
    raw_string_ostream OS(R.Reports);
    Tool.reports().print(OS, RankPolicy::Generic);
    OS.flush();
    R.Metrics = Tool.metrics();
    return R;
  }

  /// Entry files currently on disk, name-sorted for determinism.
  std::vector<fs::path> entries() const {
    std::vector<fs::path> Out;
    std::error_code EC;
    for (const auto &E : fs::directory_iterator(Store, EC))
      if (E.path().extension() == ".mcc")
        Out.push_back(E.path());
    std::sort(Out.begin(), Out.end());
    return Out;
  }

  /// Rewrites the first stored summary artifact that \p Edit accepts with
  /// the bytes it returns. store() reseals the checksum, so the entry still
  /// loads and only the artifact parser or --cache-verify can object.
  bool resealFirstSummary(
      const std::function<bool(const std::string &, std::string &)> &Edit) {
    AnalysisCache C(Store);
    EXPECT_TRUE(C.usable());
    for (const fs::path &P : entries()) {
      std::string Name = P.stem().string();
      if (Name.rfind("sum-", 0) != 0)
        continue;
      uint64_t Key = std::stoull(Name.substr(4), nullptr, 16);
      std::string Payload, Edited;
      if (!C.load(AnalysisCache::Kind::Summary, Key, Payload) ||
          !Edit(Payload, Edited))
        continue;
      C.store(AnalysisCache::Kind::Summary, Key, Edited);
      return true;
    }
    return false;
  }
};

TEST_F(CacheTest, ColdWarmByteIdentical) {
  writeCorpus();
  CacheRun Cold = run(Store);
  EXPECT_GT(Cold.Metrics.value(kCacheAstMisses), 0u);
  EXPECT_GT(Cold.Metrics.value(kCacheSummaryMisses), 0u);
  EXPECT_EQ(Cold.Metrics.value(kCacheAstHits), 0u);

  CacheRun Warm = run(Store);
  EXPECT_EQ(Warm.Reports, Cold.Reports);
  EXPECT_GT(Warm.Metrics.value(kCacheAstHits), 0u);
  EXPECT_GT(Warm.Metrics.value(kCacheSummaryHits), 0u);
  EXPECT_EQ(Warm.Metrics.value(kCacheSummaryMisses), 0u);

  CacheRun Uncached = run(/*StoreDir=*/"");
  EXPECT_EQ(Warm.Reports, Uncached.Reports);
}

TEST_F(CacheTest, WarmIdenticalAcrossJobs) {
  writeCorpus();
  CacheRun Cold = run(Store);
  for (unsigned Jobs : {1u, 4u}) {
    EngineOptions Opts;
    Opts.Jobs = Jobs;
    CacheRun Warm = run(Store, /*Verify=*/false, Opts);
    EXPECT_EQ(Warm.Reports, Cold.Reports) << "jobs=" << Jobs;
    EXPECT_GT(Warm.Metrics.value(kCacheSummaryHits), 0u);
  }
}

TEST_F(CacheTest, BitFlipDegradesToMissAndHeals) {
  writeCorpus();
  CacheRun Cold = run(Store);
  const size_t Flipped = entries().size();
  ASSERT_GT(Flipped, 0u);
  for (const fs::path &P : entries()) {
    std::string Bytes;
    ASSERT_TRUE(readFileBytes(P.string(), Bytes));
    Bytes[Bytes.size() / 2] ^= 0x40; // one flipped bit mid-file
    ASSERT_TRUE(writeFileBytes(P.string(), Bytes));
  }

  testing::internal::CaptureStderr();
  CacheRun Broken = run(Store);
  // Each dropped entry is named once, in the log of the run that dropped it.
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
  EXPECT_EQ(countOf(Broken.Diags, "xgcc: cache: dropping corrupt entry "),
            Flipped);
  EXPECT_EQ(countOf(Broken.Diags, " (checksum mismatch)\n"), Flipped);
  EXPECT_EQ(Broken.Reports, Cold.Reports);
  EXPECT_GT(Broken.Metrics.value(kCacheEvictionsCorrupt), 0u);
  EXPECT_EQ(Broken.Metrics.value(kCacheAstHits), 0u);
  EXPECT_EQ(Broken.Metrics.value(kCacheSummaryHits), 0u);

  // The broken run dropped the corrupt entries and re-recorded fresh ones.
  CacheRun Healed = run(Store);
  EXPECT_EQ(Healed.Reports, Cold.Reports);
  EXPECT_GT(Healed.Metrics.value(kCacheAstHits), 0u);
  EXPECT_GT(Healed.Metrics.value(kCacheSummaryHits), 0u);
  EXPECT_EQ(Healed.Metrics.value(kCacheEvictionsCorrupt), 0u);
}

TEST_F(CacheTest, TruncatedEntryIsMiss) {
  writeCorpus();
  CacheRun Cold = run(Store);
  ASSERT_FALSE(entries().empty());
  std::error_code EC;
  for (const fs::path &P : entries())
    fs::resize_file(P, 6, EC); // shorter than the 16-byte header

  CacheRun Broken = run(Store);
  EXPECT_EQ(Broken.Reports, Cold.Reports);
  EXPECT_GT(Broken.Metrics.value(kCacheEvictionsCorrupt), 0u);
  EXPECT_EQ(Broken.Metrics.value(kCacheSummaryHits), 0u);
}

TEST_F(CacheTest, VersionMismatchIsMiss) {
  writeCorpus();
  CacheRun Cold = run(Store);
  ASSERT_FALSE(entries().empty());
  for (const fs::path &P : entries()) {
    std::string Bytes;
    ASSERT_TRUE(readFileBytes(P.string(), Bytes));
    ASSERT_GT(Bytes.size(), 6u);
    Bytes[5] = char(kCacheFormatVersion + 1); // version byte after magic+kind
    ASSERT_TRUE(writeFileBytes(P.string(), Bytes));
  }

  CacheRun Skewed = run(Store);
  EXPECT_EQ(Skewed.Reports, Cold.Reports);
  EXPECT_GT(Skewed.Metrics.value(kCacheEvictionsCorrupt), 0u);
  EXPECT_EQ(Skewed.Metrics.value(kCacheSummaryHits), 0u);
}

TEST_F(CacheTest, VerifyModeChecksHitsWithoutMismatch) {
  writeCorpus();
  CacheRun Cold = run(Store);
  CacheRun Warm = run(Store, /*Verify=*/true);
  EXPECT_EQ(Warm.Reports, Cold.Reports);
  EXPECT_GT(Warm.Metrics.value(kCacheVerifyChecks), 0u);
  EXPECT_EQ(Warm.Metrics.value(kCacheVerifyMismatch), 0u);
}

TEST_F(CacheTest, VerifyModeComparesSummaryDigests) {
  writeCorpus();
  CacheRun Cold = run(Store);
  // Flip one digest of one stored summary artifact: only --cache-verify's
  // comparison with a fresh analysis can catch it.
  ASSERT_TRUE(resealFirstSummary([](const std::string &In, std::string &Out) {
    RootArtifact A;
    std::string Err;
    if (!A.parse(In, &Err) || A.Digests.empty())
      return false;
    A.Digests.front().Value ^= 1;
    Out = A.serialize();
    return true;
  }));
  CacheRun Verify = run(Store, /*Verify=*/true);
  EXPECT_EQ(Verify.Reports, Cold.Reports);
  EXPECT_EQ(Verify.Metrics.value(kCacheVerifyMismatch), 1u);
  // The note goes to the tool's own stream (a served request's log).
  EXPECT_NE(Verify.Diags.find("verify mismatch for root"), std::string::npos);
}

TEST_F(CacheTest, CorruptSummaryArtifactIsDiagnosedOnTheToolStream) {
  writeCorpus();
  CacheRun Cold = run(Store);
  ASSERT_TRUE(resealFirstSummary([](const std::string &, std::string &Out) {
    Out = "not a root artifact";
    return true;
  }));
  CacheRun Warm = run(Store);
  EXPECT_EQ(Warm.Reports, Cold.Reports);
  EXPECT_EQ(Warm.Metrics.value(kCacheSummaryMisses), 1u);
  EXPECT_NE(Warm.Diags.find("dropping corrupt entry for root"),
            std::string::npos);
}

TEST_F(CacheTest, PathKillCompositionSameColdAndWarm) {
  // path_kill marks the panic() calls and free skips the paths they end,
  // so of the three use-after-frees only the unguarded one is reported.
  // One guard sits in a helper, so its mark lies in the closure of the
  // root free analyzes and reaches that root's summary key.
  std::string S = "void kfree(void *p);\n"
                  "void panic(char *msg);\n"
                  "void die(void) { panic(\"fatal\"); }\n"
                  "int guarded(int *p, int c) {\n"
                  "  kfree(p);\n"
                  "  if (c) { panic(\"boom\"); return *p; }\n"
                  "  return 0;\n}\n"
                  "int guarded_by_helper(int *p, int c) {\n"
                  "  kfree(p);\n"
                  "  if (c) { die(); return *p; }\n"
                  "  return 0;\n}\n"
                  "int buggy(int *p) {\n"
                  "  kfree(p);\n"
                  "  return *p;\n}\n";
  fs::path P = Dir / "guard.c";
  ASSERT_TRUE(writeFileBytes(P.string(), S));
  Paths = {P.string()};
  const std::vector<std::string> Suite = {"path_kill", "free"};
  std::string Ref = run(/*StoreDir=*/"", false, {}, Suite).Reports;
  EXPECT_EQ(std::count(Ref.begin(), Ref.end(), '\n'), 1) << Ref;
  EXPECT_NE(Ref.find("in buggy:"), std::string::npos) << Ref;
  for (unsigned Jobs : {1u, 4u}) {
    fs::remove_all(Store);
    EngineOptions Opts;
    Opts.Jobs = Jobs;
    CacheRun Cold = run(Store, false, Opts, Suite);
    CacheRun Warm = run(Store, false, Opts, Suite);
    EXPECT_EQ(Cold.Reports, Ref) << "jobs=" << Jobs;
    EXPECT_EQ(Warm.Reports, Ref) << "jobs=" << Jobs;
    EXPECT_GT(Warm.Metrics.value(kCacheSummaryHits), 0u) << "jobs=" << Jobs;
    EXPECT_EQ(Warm.Metrics.value(kCacheSummaryMisses), 0u) << "jobs=" << Jobs;
  }
}

TEST_F(CacheTest, EditInvalidatesOnlyChangedFunctions) {
  writeCorpus();
  run(Store);
  writeCorpus(/*Edit=*/true);
  CacheRun Warm = run(Store);
  CacheRun Ref = run(/*StoreDir=*/"");
  EXPECT_EQ(Warm.Reports, Ref.Reports);
  // The untouched file's roots replay; the edited helper's dependents miss.
  EXPECT_GT(Warm.Metrics.value(kCacheSummaryHits), 0u);
  EXPECT_GT(Warm.Metrics.value(kCacheSummaryMisses), 0u);
  EXPECT_GT(Warm.Metrics.value(kCacheAstHits), 0u);
}

TEST_F(CacheTest, StoreLoadDropEvictUnits) {
  AnalysisCache C(Store);
  ASSERT_TRUE(C.usable());
  C.store(AnalysisCache::Kind::Ast, 1, "payload-one");
  std::string Out;
  EXPECT_TRUE(C.load(AnalysisCache::Kind::Ast, 1, Out));
  EXPECT_EQ(Out, "payload-one");
  // Kinds are separate namespaces; absent keys miss.
  EXPECT_FALSE(C.load(AnalysisCache::Kind::Summary, 1, Out));
  EXPECT_FALSE(C.load(AnalysisCache::Kind::Ast, 2, Out));

  C.dropEntry(AnalysisCache::Kind::Ast, 1);
  EXPECT_FALSE(C.load(AnalysisCache::Kind::Ast, 1, Out));
  EXPECT_GE(C.counters().value(kCacheEvictionsCorrupt), 1u);

  for (uint64_t K = 0; K < 8; ++K)
    C.store(AnalysisCache::Kind::Summary, K, std::string(1000, 'x'));
  EXPECT_GT(C.diskBytes(), 2500u);
  C.evictToLimit(2500);
  EXPECT_LE(C.diskBytes(), 2500u);
  EXPECT_GT(C.counters().value(kCacheEvictionsSize), 0u);
}

TEST_F(CacheTest, UnusableDirectoryDegradesGracefully) {
  // A store path nested under a regular *file* can never be created.
  std::string Blocker = (Dir / "blocker").string();
  ASSERT_TRUE(writeFileBytes(Blocker, "not a directory"));
  AnalysisCache C(Blocker + "/store");
  EXPECT_FALSE(C.usable());
  C.store(AnalysisCache::Kind::Ast, 1, "payload");
  std::string Out;
  EXPECT_FALSE(C.load(AnalysisCache::Kind::Ast, 1, Out));
}

TEST_F(CacheTest, DirectoryLockExcludesSecondOpener) {
  AnalysisCache First(Store);
  ASSERT_TRUE(First.usable());
  EXPECT_FALSE(First.lockConflict());

  // flock is per open file description, so a second opener conflicts even
  // within one process: it degrades to the unusable cache (misses and
  // dropped stores), and names the holder.
  AnalysisCache Second(Store);
  EXPECT_FALSE(Second.usable());
  EXPECT_TRUE(Second.lockConflict());
  EXPECT_EQ(Second.lockHolderPid(), long(::getpid()));
  Second.store(AnalysisCache::Kind::Ast, 1, "payload");
  std::string Out;
  EXPECT_FALSE(Second.load(AnalysisCache::Kind::Ast, 1, Out));
}

TEST_F(CacheTest, UnusableDirectoryNoteGoesToTheTool) {
  // The note that the store cannot be opened comes from the cache's
  // constructor, before the tool attaches its stream for later notes; it
  // still belongs in the tool's log, and the run goes on uncached.
  writeCorpus();
  std::string Blocker = (Dir / "blocker").string();
  ASSERT_TRUE(writeFileBytes(Blocker, "not a directory"));
  testing::internal::CaptureStderr();
  CacheRun R = run(Blocker + "/store");
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
  EXPECT_EQ(R.Diags, "xgcc: cache: cannot open cache directory '" + Blocker +
                         "/store'; caching disabled this run\n");
  EXPECT_EQ(R.Reports, run("").Reports);
}

TEST_F(CacheTest, LockedDirectoryNoteGoesToTheTool) {
  writeCorpus();
  AnalysisCache Holder(Store);
  ASSERT_TRUE(Holder.usable());
  testing::internal::CaptureStderr();
  CacheRun R = run(Store);
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
  EXPECT_EQ(R.Diags, "xgcc: cache: directory '" + Store +
                         "' is locked by running process " +
                         std::to_string(::getpid()) +
                         "; caching disabled this run\n");
  EXPECT_EQ(R.Reports, run("").Reports);
}

TEST_F(CacheTest, InjectedWriteFaultsLeaveNoLitterAndAreCounted) {
  writeCorpus();
  injectWriteFaults(2);
  testing::internal::CaptureStderr();
  CacheRun Faulted = run(Store);
  std::string Stderr = testing::internal::GetCapturedStderr();
  injectWriteFaults(0);

  // The failed writes are noted once, in the faulted run's own log.
  EXPECT_EQ(Stderr, "");
  EXPECT_EQ(countOf(Faulted.Diags, "xgcc: cache: cannot write to '" + Store +
                                       "'; new entries dropped\n"),
            1u);

  // The shortened writes were detected and counted, and their partial files
  // were cleaned up — no *.tmp litter for a later run to trip over.
  EXPECT_GT(Faulted.Metrics.value(kCacheWriteFailures), 0u);
  std::error_code EC;
  for (const auto &E : fs::directory_iterator(Store, EC))
    EXPECT_NE(E.path().extension(), ".tmp") << E.path();

  // A disk fault degrades cache coverage, never reports: the next run over
  // the same store heals the dropped entries and prints the same bytes.
  CacheRun Healed = run(Store);
  EXPECT_EQ(Healed.Reports, Faulted.Reports);
  EXPECT_EQ(Healed.Metrics.value(kCacheWriteFailures), 0u);
}

TEST_F(CacheTest, SharedCacheNotesGoToTheAttachedTool) {
  // A daemon's store outlives every request's tool. Each request's failed
  // write is noted in that request's own log, and a note the store prints
  // after its last tool went reaches errs(), never a dead stream.
  writeCorpus();
  AnalysisCache Shared(Store);
  const std::string Note =
      "xgcc: cache: cannot write to '" + Store + "'; new entries dropped\n";
  testing::internal::CaptureStderr();
  for (int Request = 0; Request != 2; ++Request) {
    std::string Log;
    raw_string_ostream LogOS(Log);
    {
      XgccTool Tool(&LogOS);
      Tool.setSharedCache(&Shared);
      injectWriteFaults(1);
      EXPECT_TRUE(Tool.addSourceFiles(Paths, 1));
      EXPECT_TRUE(Tool.addBuiltinChecker("free"));
      Tool.run();
      injectWriteFaults(0);
    }
    LogOS.flush();
    EXPECT_EQ(countOf(Log, Note), 1u) << "request " << Request;
  }
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");

  testing::internal::CaptureStderr();
  injectWriteFaults(1);
  Shared.store(AnalysisCache::Kind::Ast, 1, "payload");
  injectWriteFaults(0);
  EXPECT_EQ(testing::internal::GetCapturedStderr(), Note);
}

TEST(RootArtifactTest, RoundtripIsByteStable) {
  RootArtifact A;
  A.Rules["uaf"] = RuleStats{3, 1};
  A.Annots.push_back({"good0", 4, "lock.state", "held"});
  A.Annots.push_back({"helper0", 0, "k", ""});
  A.Digests.push_back({"helper0", 0x1234567890abcdefULL});
  A.Digests.push_back({"good0", 42});

  std::string P = A.serialize();
  RootArtifact B;
  std::string Err;
  ASSERT_TRUE(B.parse(P, &Err)) << Err;
  EXPECT_EQ(B.serialize(), P);
  EXPECT_EQ(B.Annots.size(), 2u);
  EXPECT_EQ(B.Digests.size(), 2u);
  EXPECT_EQ(B.Rules.at("uaf").Examples, 3u);
  EXPECT_EQ(B.Rules.at("uaf").Counterexamples, 1u);
}

TEST(RootArtifactTest, RejectsTruncationAndTrailingBytes) {
  RootArtifact A;
  A.Annots.push_back({"fn", 1, "key", "value"});
  A.Digests.push_back({"fn", 7});
  std::string P = A.serialize();
  std::string Err;
  for (size_t Cut : {size_t(0), size_t(1), P.size() / 2, P.size() - 1}) {
    RootArtifact B;
    EXPECT_FALSE(B.parse(P.substr(0, Cut), &Err)) << "cut=" << Cut;
  }
  RootArtifact C;
  EXPECT_FALSE(C.parse(P + "x", &Err));
}

} // namespace
