//===- tests/tool_test.cpp - End-to-end pipeline tests -------------------------===//
//
// Part of the metal/xgcc reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

using namespace mc;
using namespace mc::test;

namespace {

const char *Kernel = R"c(
void kfree(void *p);
int trylock(int *l); void lock(int *l); void unlock(int *l);

int alloc_path(int *p, int c) {
  kfree(p);
  if (c)
    return *p;
  return 0;
}
int lock_path(int *l, int c) {
  lock(l);
  if (c)
    return 1;
  unlock(l);
  return 0;
}
)c";

TEST(Tool, MultipleCheckersAccumulateReports) {
  XgccTool T;
  ASSERT_TRUE(T.addSource("k.c", Kernel));
  ASSERT_TRUE(T.addBuiltinChecker("free"));
  ASSERT_TRUE(T.addBuiltinChecker("lock"));
  T.run(EngineOptions());
  EXPECT_EQ(T.reports().size(), 2u);
}

TEST(Tool, TwoPassPipelineMatchesDirectParse) {
  // Pass 1 (emit .mast) + pass 2 (analyze the image) must find the same
  // errors as analysing the source directly.
  std::string Path = ::testing::TempDir() + "/mc_tool_test.mast";
  {
    XgccTool Pass1;
    ASSERT_TRUE(Pass1.addSource("k.c", Kernel));
    ASSERT_TRUE(Pass1.emitMast(Path));
  }
  XgccTool Pass2;
  ASSERT_TRUE(Pass2.addMastFile(Path));
  ASSERT_TRUE(Pass2.addBuiltinChecker("free"));
  Pass2.run(EngineOptions());

  XgccTool Direct;
  ASSERT_TRUE(Direct.addSource("k.c", Kernel));
  ASSERT_TRUE(Direct.addBuiltinChecker("free"));
  Direct.run(EngineOptions());

  ASSERT_EQ(Pass2.reports().size(), Direct.reports().size());
  for (size_t I = 0; I != Direct.reports().size(); ++I)
    EXPECT_EQ(Pass2.reports().reports()[I].Message,
              Direct.reports().reports()[I].Message);
}

TEST(Tool, MultipleTranslationUnits) {
  XgccTool T;
  ASSERT_TRUE(T.addSource("a.c", "void kfree(void *p);\n"
                                 "void release(int *x) { kfree(x); }"));
  ASSERT_TRUE(T.addSource("b.c", "void release(int *x);\n"
                                 "int top(int *a) { release(a); return *a; }"));
  ASSERT_TRUE(T.addBuiltinChecker("free"));
  T.run(EngineOptions());
  ASSERT_EQ(T.reports().size(), 1u);
  EXPECT_EQ(T.reports().reports()[0].Message, "using a after free!");
}

TEST(Tool, PreprocessorWiredIn) {
  XgccTool T;
  T.preprocessor().define("FREE_IT", "kfree(p)");
  ASSERT_TRUE(T.addSource("t.c", "void kfree(void *p);\n"
                                 "int f(int *p) { FREE_IT; return *p; }"));
  ASSERT_TRUE(T.addBuiltinChecker("free"));
  T.run(EngineOptions());
  EXPECT_EQ(T.reports().size(), 1u);
}

TEST(Tool, CustomMetalCheckerFromText) {
  const char *GetsChecker =
      "sm no_gets;\n"
      "decl any_fn_call fn;\n"
      "decl any_arguments args;\n"
      "start: { fn(args) } && ${ mc_is_call_to(fn, \"gets\") } ==> start, "
      "{ err(\"never use gets()\"); path_annotate(\"SECURITY\"); };\n";
  XgccTool T;
  ASSERT_TRUE(T.addSource("t.c", "char *gets(char *buf);\n"
                                 "void f(char *b) { gets(b); }"));
  ASSERT_TRUE(T.addMetalChecker(GetsChecker, "no_gets.metal"));
  T.run(EngineOptions());
  ASSERT_EQ(T.reports().size(), 1u);
  EXPECT_EQ(T.reports().reports()[0].Message, "never use gets()");
}

TEST(Tool, StatsExposed) {
  XgccTool T;
  ASSERT_TRUE(T.addSource("k.c", Kernel));
  ASSERT_TRUE(T.addBuiltinChecker("free"));
  T.run(EngineOptions());
  MetricsSnapshot M = T.metrics();
  EXPECT_GT(M.value("engine.points.visited"), 0u);
  EXPECT_GT(M.value("engine.blocks.visited"), 0u);
  EXPECT_GT(M.value("engine.paths.explored"), 0u);
}

TEST(Tool, ParseErrorsReported) {
  XgccTool T;
  EXPECT_FALSE(T.addSource("bad.c", "int f( {"));
  EXPECT_TRUE(T.diags().hasErrors());
}

TEST(Tool, MissingFilesFailGracefully) {
  XgccTool T;
  EXPECT_FALSE(T.addSourceFiles({"/no/such/file.c"}));
  EXPECT_FALSE(T.addMastFile("/no/such/file.mast"));
}

} // namespace

namespace {

TEST(Tool, TwoPassPreservesLocations) {
  std::string Path = ::testing::TempDir() + "/mc_tool_locs.mast";
  {
    XgccTool Pass1;
    ASSERT_TRUE(Pass1.addSource("locs.c", "void kfree(void *p);\n"
                                          "int f(int *p) {\n"
                                          "  kfree(p);\n"
                                          "  return *p;\n"
                                          "}\n"));
    ASSERT_TRUE(Pass1.emitMast(Path));
  }
  XgccTool Pass2;
  ASSERT_TRUE(Pass2.addMastFile(Path));
  ASSERT_TRUE(Pass2.addBuiltinChecker("free"));
  Pass2.run(EngineOptions());
  ASSERT_EQ(Pass2.reports().size(), 1u);
  // The report decodes against the embedded buffer: right file, right line.
  EXPECT_EQ(Pass2.reports().reports()[0].File, "locs.c");
  EXPECT_EQ(Pass2.reports().reports()[0].Line, 4u);
  remove(Path.c_str());
}

} // namespace
