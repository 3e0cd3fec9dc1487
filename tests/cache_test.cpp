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
};

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
               EngineOptions Opts = EngineOptions()) {
    XgccTool Tool;
    if (!StoreDir.empty())
      Tool.setCacheDir(StoreDir);
    Tool.setCacheVerify(Verify);
    EXPECT_TRUE(Tool.addSourceFiles(Paths, 2));
    EXPECT_TRUE(Tool.addBuiltinChecker("free"));
    Tool.run(Opts);
    Tool.finishCache();
    CacheRun R;
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
  ASSERT_FALSE(entries().empty());
  for (const fs::path &P : entries()) {
    std::string Bytes;
    ASSERT_TRUE(readFileBytes(P.string(), Bytes));
    Bytes[Bytes.size() / 2] ^= 0x40; // one flipped bit mid-file
    ASSERT_TRUE(writeFileBytes(P.string(), Bytes));
  }

  CacheRun Broken = run(Store);
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
  // Flip one digest of one stored summary artifact. store() reseals the
  // checksum, so the entry still loads and only --cache-verify's comparison
  // with a fresh analysis can catch it.
  bool Flipped = false;
  {
    AnalysisCache C(Store);
    ASSERT_TRUE(C.usable());
    for (const fs::path &P : entries()) {
      std::string Name = P.stem().string();
      if (Name.rfind("sum-", 0) != 0)
        continue;
      uint64_t Key = std::stoull(Name.substr(4), nullptr, 16);
      std::string Payload, Err;
      RootArtifact A;
      if (!C.load(AnalysisCache::Kind::Summary, Key, Payload) ||
          !A.parse(Payload, &Err) || A.Digests.empty())
        continue;
      A.Digests.front().Value ^= 1;
      C.store(AnalysisCache::Kind::Summary, Key, A.serialize());
      Flipped = true;
      break;
    }
  }
  ASSERT_TRUE(Flipped);
  CacheRun Verify = run(Store, /*Verify=*/true);
  EXPECT_EQ(Verify.Reports, Cold.Reports);
  EXPECT_EQ(Verify.Metrics.value(kCacheVerifyMismatch), 1u);
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

TEST_F(CacheTest, InjectedWriteFaultsLeaveNoLitterAndAreCounted) {
  writeCorpus();
  injectWriteFaults(2);
  CacheRun Faulted = run(Store);
  injectWriteFaults(0);

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
