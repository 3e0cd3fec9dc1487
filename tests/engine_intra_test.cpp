//===- tests/engine_intra_test.cpp - Intraprocedural engine tests -------------===//
//
// Part of the metal/xgcc reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Section 5: DFS execution, path splitting, block-level caching, the
// transparent kill/synonym analyses, and the Figure 2 walkthrough.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

using namespace mc;
using namespace mc::test;

namespace {

const char *FreeDecls = "void kfree(void *p);\n";

TEST(EngineIntra, UseAfterFreeDetected) {
  auto Msgs = runBuiltin("free", std::string(FreeDecls) +
                                     "int f(int *p) { kfree(p); return *p; }");
  ASSERT_EQ(Msgs.size(), 1u);
  EXPECT_EQ(Msgs[0], "using p after free!");
}

TEST(EngineIntra, DoubleFreeDetected) {
  auto Msgs = runBuiltin("free", std::string(FreeDecls) +
                                     "void f(int *p) { kfree(p); kfree(p); }");
  ASSERT_EQ(Msgs.size(), 1u);
  EXPECT_EQ(Msgs[0], "double free of p!");
}

TEST(EngineIntra, NoFalsePositiveOnCleanCode) {
  auto Msgs = runBuiltin("free", std::string(FreeDecls) +
                                     "int f(int *p, int *q) { kfree(p); return *q; }");
  EXPECT_TRUE(Msgs.empty());
}

TEST(EngineIntra, FreeOnOneBranchOnly) {
  auto Msgs = runBuiltin(
      "free", std::string(FreeDecls) +
                  "int f(int *p, int c) { if (c) kfree(p); return 0; }");
  EXPECT_TRUE(Msgs.empty());
}

TEST(EngineIntra, ErrorOnlyOnFreeingPath) {
  // *p is an error only on the path where the free happened; the engine
  // explores both paths and reports once.
  auto Msgs = runBuiltin(
      "free", std::string(FreeDecls) +
                  "int f(int *p, int c) { if (c) kfree(p); return *p; }");
  ASSERT_EQ(Msgs.size(), 1u);
}

TEST(EngineIntra, KillOnReassignmentSuppresses) {
  // "xgcc automatically transitions the variable p from the freed state to
  // the stop state at the assignment p = 0".
  auto Msgs = runBuiltin("free", std::string(FreeDecls) +
                                     "int f(int *p, int *q) {\n"
                                     "  kfree(p);\n"
                                     "  p = q;\n"
                                     "  return *p;\n"
                                     "}");
  EXPECT_TRUE(Msgs.empty());
}

TEST(EngineIntra, KillOfExpressionComponent) {
  // a[i] loses its state when i is redefined.
  auto Msgs = runBuiltin("free", std::string(FreeDecls) +
                                     "int f(int **a, int i) {\n"
                                     "  kfree(a[i]);\n"
                                     "  i = i + 1;\n"
                                     "  return *a[i];\n"
                                     "}");
  EXPECT_TRUE(Msgs.empty());
}

TEST(EngineIntra, ExpressionTreesCarryState) {
  // State attaches to a[i], not just plain variables.
  auto Msgs = runBuiltin("free", std::string(FreeDecls) +
                                     "int f(int **a, int i) {\n"
                                     "  kfree(a[i]);\n"
                                     "  return *a[i];\n"
                                     "}");
  ASSERT_EQ(Msgs.size(), 1u);
  EXPECT_EQ(Msgs[0], "using a[i] after free!");
}

TEST(EngineIntra, SynonymsPropagateState) {
  auto Msgs = runBuiltin("free", std::string(FreeDecls) +
                                     "int f(int *p) {\n"
                                     "  int *q;\n"
                                     "  kfree(p);\n"
                                     "  q = p;\n"
                                     "  return *q;\n"
                                     "}");
  ASSERT_EQ(Msgs.size(), 1u);
  EXPECT_EQ(Msgs[0], "using q after free!");
}

TEST(EngineIntra, SynonymsDisabledMissesTheBug) {
  EngineOptions Opts;
  Opts.EnableSynonyms = false;
  auto Msgs = runBuiltin("free",
                         std::string(FreeDecls) + "int f(int *p) {\n"
                                                  "  int *q;\n"
                                                  "  kfree(p);\n"
                                                  "  q = p;\n"
                                                  "  return *q;\n"
                                                  "}",
                         Opts);
  EXPECT_TRUE(Msgs.empty());
}

TEST(EngineIntra, SynonymMirrorsTransitions) {
  // After the error on q stops the instance, p is stopped too (mirrored),
  // so only one report appears.
  auto Msgs = runBuiltin("free", std::string(FreeDecls) +
                                     "int f(int *p) {\n"
                                     "  int *q;\n"
                                     "  kfree(p);\n"
                                     "  q = p;\n"
                                     "  *q = 1;\n"
                                     "  return *p;\n"
                                     "}");
  ASSERT_EQ(Msgs.size(), 1u);
}

TEST(EngineIntra, ReinstantiationAfterStop) {
  // Once stopped, a second kfree re-creates the SM: "if the variable
  // associated with the instance is freed again, the transition in the
  // start state will execute and thus reinstantiate the deleted SM."
  auto Msgs = runBuiltin("free", std::string(FreeDecls) +
                                     "int f(int *p, int *q) {\n"
                                     "  kfree(p);\n"
                                     "  p = q;\n" // killed
                                     "  kfree(p);\n" // re-tracked
                                     "  return *p;\n" // error again
                                     "}");
  ASSERT_EQ(Msgs.size(), 1u);
}

TEST(EngineIntra, NoTransitionAtCreatingStatement) {
  // kfree(p) must not instantly double-free at its own statement.
  auto Msgs = runBuiltin("free", std::string(FreeDecls) +
                                     "void f(int *p) { kfree(p); }");
  EXPECT_TRUE(Msgs.empty());
}

TEST(EngineIntra, LoopsTerminate) {
  auto Msgs = runBuiltin("free", std::string(FreeDecls) +
                                     "int f(int *p, int n) {\n"
                                     "  while (n > 0) { n--; }\n"
                                     "  kfree(p);\n"
                                     "  for (;;) { if (n) break; n++; }\n"
                                     "  return *p;\n"
                                     "}");
  ASSERT_EQ(Msgs.size(), 1u);
}

TEST(EngineIntra, FreeInsideLoopBody) {
  auto Msgs = runBuiltin("free", std::string(FreeDecls) +
                                     "int f(int **v, int n) {\n"
                                     "  int i;\n"
                                     "  for (i = 0; i < n; i++)\n"
                                     "    kfree(v[i]);\n"
                                     "  return 0;\n"
                                     "}");
  EXPECT_TRUE(Msgs.empty()); // v[i] killed when i changes
}

TEST(EngineIntra, SwitchPathsExplored) {
  auto Msgs = runBuiltin("free", std::string(FreeDecls) +
                                     "int f(int *p, int c) {\n"
                                     "  switch (c) {\n"
                                     "  case 1: kfree(p); break;\n"
                                     "  case 2: return 0;\n"
                                     "  }\n"
                                     "  return *p;\n"
                                     "}");
  ASSERT_EQ(Msgs.size(), 1u);
}

//===----------------------------------------------------------------------===//
// Caching invariants (Section 5.2)
//===----------------------------------------------------------------------===//

/// The same reports must come out with the block cache on and off — the
/// cache is a pure memoization of the meet-over-paths fixed point.
class CacheEquivalenceTest : public ::testing::TestWithParam<const char *> {};

TEST_P(CacheEquivalenceTest, SameReportsWithAndWithoutCache) {
  std::string Source = std::string(FreeDecls) + GetParam();
  EngineOptions On;
  EngineOptions Off;
  Off.EnableBlockCache = false;
  // Without caching, loops diverge: budget the exploration tightly. The
  // report sets still agree because the bugs appear on short paths.
  Off.MaxPathsPerFunction = 2000;
  Off.MaxPathLength = 64;
  auto MsgsOn = runBuiltin("free", Source, On);
  auto MsgsOff = runBuiltin("free", Source, Off);
  std::sort(MsgsOn.begin(), MsgsOn.end());
  std::sort(MsgsOff.begin(), MsgsOff.end());
  EXPECT_EQ(MsgsOn, MsgsOff);
}

INSTANTIATE_TEST_SUITE_P(
    Programs, CacheEquivalenceTest,
    ::testing::Values(
        "int f(int *p) { kfree(p); return *p; }",
        "int f(int *p, int a, int b) {\n"
        "  if (a) kfree(p);\n"
        "  if (b) return 0;\n"
        "  return *p;\n"
        "}",
        "int f(int *p, int a, int b, int c, int d) {\n"
        "  if (a) { } else { }\n"
        "  if (b) { } else { }\n"
        "  if (c) { } else { }\n"
        "  kfree(p);\n"
        "  if (d) return *p;\n"
        "  return 0;\n"
        "}",
        "int f(int *p, int n) {\n"
        "  while (n--) { if (n == 2) kfree(p); }\n"
        "  return *p;\n"
        "}"));

TEST(EngineIntra, CachingCollapsesDiamonds) {
  // 8 diamonds: 256 paths without caching, linear blocks with it.
  std::string Source = std::string(FreeDecls) + "int f(int *p";
  for (int I = 0; I < 8; ++I)
    Source += ", int c" + std::to_string(I);
  Source += ") {\n";
  for (int I = 0; I < 8; ++I)
    Source += "  if (c" + std::to_string(I) + ") { } else { }\n";
  Source += "  return 0;\n}";

  XgccTool On;
  ASSERT_TRUE(On.addSource("t.c", Source));
  ASSERT_TRUE(On.addBuiltinChecker("free"));
  On.run(EngineOptions());
  uint64_t PathsOn = On.metrics().value("engine.paths.explored");

  XgccTool Off;
  ASSERT_TRUE(Off.addSource("t.c", Source));
  ASSERT_TRUE(Off.addBuiltinChecker("free"));
  EngineOptions OffOpts;
  OffOpts.EnableBlockCache = false;
  OffOpts.EnableFalsePathPruning = false; // conditions are opaque anyway
  Off.run(OffOpts);
  uint64_t PathsOff = Off.metrics().value("engine.paths.explored");

  EXPECT_GE(PathsOff, 256u);
  EXPECT_LE(PathsOn, 20u);
}

TEST(EngineIntra, DeterministicAcrossRuns) {
  std::string Source = std::string(FreeDecls) +
                       "int f(int *p, int c) { if (c) kfree(p); return *p; }";
  auto A = runBuiltin("free", Source);
  auto B = runBuiltin("free", Source);
  EXPECT_EQ(A, B);
}

//===----------------------------------------------------------------------===//
// Independence (Section 5.2): cost scales linearly in tracked instances
//===----------------------------------------------------------------------===//

TEST(EngineIntra, IndependentInstancesDoNotMultiplyWork) {
  // N tracked pointers through a diamond: points visited must grow linearly
  // with N, not exponentially.
  auto MakeSource = [](int N) {
    std::string S = FreeDecls;
    S += "int f(int c";
    for (int I = 0; I < N; ++I)
      S += ", int *p" + std::to_string(I);
    S += ") {\n";
    for (int I = 0; I < N; ++I)
      S += "  kfree(p" + std::to_string(I) + ");\n";
    S += "  if (c) { } else { }\n  return 0;\n}";
    return S;
  };
  uint64_t Blocks4, Blocks8;
  {
    XgccTool T;
    ASSERT_TRUE(T.addSource("t.c", MakeSource(4)));
    ASSERT_TRUE(T.addBuiltinChecker("free"));
    T.run(EngineOptions());
    Blocks4 = T.metrics().value("engine.blocks.visited");
  }
  {
    XgccTool T;
    ASSERT_TRUE(T.addSource("t.c", MakeSource(8)));
    ASSERT_TRUE(T.addBuiltinChecker("free"));
    T.run(EngineOptions());
    Blocks8 = T.metrics().value("engine.blocks.visited");
  }
  // Doubling the instances must not double the block traversals (the
  // instances ride along the same paths).
  EXPECT_LE(Blocks8, Blocks4 * 2);
}

} // namespace
