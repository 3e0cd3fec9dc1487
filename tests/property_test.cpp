//===- tests/property_test.cpp - Invariants over generated corpora -------------===//
//
// Part of the metal/xgcc reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Property-style sweeps (parameterized over generator seeds) of the
// invariants DESIGN.md calls out:
//   - determinism: two runs produce identical ranked reports;
//   - cache transparency: block caching never changes the report set;
//   - summary transparency: function summaries never change the report set;
//   - serialization: analysing a .mast round-trip equals analysing source;
//   - ground truth: the whole suite finds every seeded bug, no extras.
//
//===----------------------------------------------------------------------===//

#include "../bench/WorkloadGen.h"
#include "TestUtil.h"

using namespace mc;
using namespace mc::bench;
using namespace mc::test;

namespace {

std::vector<std::string> runSuite(const std::string &Source,
                                  const EngineOptions &Opts) {
  XgccTool Tool;
  EXPECT_TRUE(Tool.addSource("mk.c", Source));
  EXPECT_TRUE(Tool.addBuiltinChecker("free"));
  EXPECT_TRUE(Tool.addBuiltinChecker("lock"));
  EXPECT_TRUE(Tool.addBuiltinChecker("null"));
  Tool.run(Opts);
  std::vector<std::string> Out;
  for (size_t I : Tool.reports().ranked(RankPolicy::Generic)) {
    const ErrorReport &R = Tool.reports().reports()[I];
    Out.push_back(R.FunctionName + ": " + R.Message);
  }
  return Out;
}

class MiniKernelProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MiniKernelProperty, DeterministicAcrossRuns) {
  MiniKernel MK = miniKernel(60, GetParam());
  EXPECT_EQ(runSuite(MK.Source, EngineOptions()),
            runSuite(MK.Source, EngineOptions()));
}

TEST_P(MiniKernelProperty, BlockCacheIsTransparent) {
  MiniKernel MK = miniKernel(40, GetParam());
  EngineOptions Off;
  Off.EnableBlockCache = false;
  Off.MaxPathsPerFunction = 4000;
  Off.MaxPathLength = 128;
  auto A = runSuite(MK.Source, EngineOptions());
  auto B = runSuite(MK.Source, Off);
  std::sort(A.begin(), A.end());
  std::sort(B.begin(), B.end());
  EXPECT_EQ(A, B);
}

TEST_P(MiniKernelProperty, FunctionSummariesAreTransparent) {
  MiniKernel MK = miniKernel(40, GetParam());
  EngineOptions Off;
  Off.EnableFunctionSummaries = false;
  auto A = runSuite(MK.Source, EngineOptions());
  auto B = runSuite(MK.Source, Off);
  std::sort(A.begin(), A.end());
  std::sort(B.begin(), B.end());
  EXPECT_EQ(A, B);
}

TEST_P(MiniKernelProperty, SerializationPreservesAnalysis) {
  MiniKernel MK = miniKernel(40, GetParam());
  std::string Path = ::testing::TempDir() + "/mc_prop_" +
                     std::to_string(GetParam()) + ".mast";
  {
    XgccTool Pass1;
    ASSERT_TRUE(Pass1.addSource("mk.c", MK.Source));
    ASSERT_TRUE(Pass1.emitMast(Path));
  }
  XgccTool Pass2;
  ASSERT_TRUE(Pass2.addMastFile(Path));
  ASSERT_TRUE(Pass2.addBuiltinChecker("free"));
  Pass2.run(EngineOptions());
  std::vector<std::string> FromImage;
  for (const ErrorReport &R : Pass2.reports().reports())
    FromImage.push_back(R.FunctionName + ": " + R.Message);

  XgccTool Direct;
  ASSERT_TRUE(Direct.addSource("mk.c", MK.Source));
  ASSERT_TRUE(Direct.addBuiltinChecker("free"));
  Direct.run(EngineOptions());
  std::vector<std::string> FromSource;
  for (const ErrorReport &R : Direct.reports().reports())
    FromSource.push_back(R.FunctionName + ": " + R.Message);

  std::sort(FromImage.begin(), FromImage.end());
  std::sort(FromSource.begin(), FromSource.end());
  EXPECT_EQ(FromImage, FromSource);
  remove(Path.c_str());
}

TEST_P(MiniKernelProperty, AllSeededBugsFoundNoExtras) {
  MiniKernel MK = miniKernel(80, GetParam());
  XgccTool Tool;
  ASSERT_TRUE(Tool.addSource("mk.c", MK.Source));
  ASSERT_TRUE(Tool.addBuiltinChecker("free"));
  ASSERT_TRUE(Tool.addBuiltinChecker("lock"));
  ASSERT_TRUE(Tool.addBuiltinChecker("null"));
  Tool.run(EngineOptions());
  unsigned Free = 0, Lock = 0, Null = 0;
  for (const ErrorReport &R : Tool.reports().reports()) {
    if (R.CheckerName == "free_checker")
      ++Free;
    else if (R.CheckerName == "lock_checker")
      ++Lock;
    else if (R.CheckerName == "null_checker")
      ++Null;
  }
  EXPECT_EQ(Free, MK.SeededUseAfterFree);
  EXPECT_EQ(Lock, MK.SeededLostLocks);
  EXPECT_EQ(Null, MK.SeededNullDerefs);
}

TEST_P(MiniKernelProperty, MastImageRoundTripsStructurally) {
  MiniKernel MK = miniKernel(30, GetParam());
  XgccTool Pass1;
  ASSERT_TRUE(Pass1.addSource("mk.c", MK.Source));
  std::string Image = writeMast(Pass1.context());
  ASTContext Fresh;
  std::string Error;
  ASSERT_TRUE(readMast(Image, Fresh, &Error)) << Error;
  EXPECT_EQ(Fresh.functions().size(), Pass1.context().functions().size());
  // Re-serialization of the reloaded context is stable (fixpoint).
  std::string Image2 = writeMast(Fresh);
  ASTContext Fresh2;
  ASSERT_TRUE(readMast(Image2, Fresh2, &Error)) << Error;
  EXPECT_EQ(Fresh2.functions().size(), Fresh.functions().size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, MiniKernelProperty,
                         ::testing::Values(1, 7, 42, 1234, 99991));

//===----------------------------------------------------------------------===//
// Diamond-corpus properties (deep path spaces)
//===----------------------------------------------------------------------===//

class DiamondProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(DiamondProperty, CachingFindsTheSeededBugs) {
  std::string Source = diamondCorpus(3, GetParam(), /*SeedBugs=*/true);
  XgccTool Tool;
  ASSERT_TRUE(Tool.addSource("d.c", Source));
  ASSERT_TRUE(Tool.addBuiltinChecker("free"));
  Tool.run(EngineOptions());
  // workers 0 and 2 are seeded (every even index).
  EXPECT_EQ(Tool.reports().size(), 2u);
}

TEST_P(DiamondProperty, WorkIsLinearInDiamonds) {
  auto Blocks = [&](unsigned D) {
    XgccTool Tool;
    EXPECT_TRUE(Tool.addSource("d.c", diamondCorpus(1, D, false)));
    EXPECT_TRUE(Tool.addBuiltinChecker("free"));
    Tool.run(EngineOptions());
    return Tool.metrics().value("engine.blocks.visited");
  };
  unsigned D = GetParam();
  // Doubling the diamonds at most ~doubles the block traversals.
  EXPECT_LE(Blocks(2 * D), 3 * Blocks(D) + 16);
}

INSTANTIATE_TEST_SUITE_P(Sizes, DiamondProperty,
                         ::testing::Values(4, 8, 16, 24));

} // namespace
