//===- tests/fpp_test.cpp - False path pruning tests ---------------------------===//
//
// Part of the metal/xgcc reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Section 8's false-path-pruning algorithm: congruence closure unit tests,
// value tracker behaviour, and engine-level pruning.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "fpp/CongruenceClosure.h"
#include "fpp/ValueTracker.h"

using namespace mc;
using namespace mc::test;

namespace {

//===----------------------------------------------------------------------===//
// Congruence closure
//===----------------------------------------------------------------------===//

TEST(CongruenceClosure, ConstantsAreUnique) {
  CongruenceClosure CC;
  EXPECT_EQ(CC.constant(5), CC.constant(5));
  EXPECT_NE(CC.constant(5), CC.constant(6));
  EXPECT_EQ(CC.constantOf(CC.constant(5)).value(), 5);
}

TEST(CongruenceClosure, MergePropagatesConstants) {
  CongruenceClosure CC;
  TermId X = CC.variable("x");
  ASSERT_TRUE(CC.merge(X, CC.constant(10)));
  EXPECT_EQ(CC.constantOf(X).value(), 10);
  EXPECT_EQ(CC.equal(X, CC.constant(10)), Tri::True);
  EXPECT_EQ(CC.equal(X, CC.constant(11)), Tri::False);
}

TEST(CongruenceClosure, EqualityIsTransitive) {
  CongruenceClosure CC;
  TermId X = CC.variable("x"), Y = CC.variable("y"), Z = CC.variable("z");
  ASSERT_TRUE(CC.merge(X, Y));
  ASSERT_TRUE(CC.merge(Y, Z));
  EXPECT_EQ(CC.equal(X, Z), Tri::True);
}

TEST(CongruenceClosure, ConstantConflictIsContradiction) {
  CongruenceClosure CC;
  TermId X = CC.variable("x");
  ASSERT_TRUE(CC.merge(X, CC.constant(1)));
  EXPECT_FALSE(CC.merge(X, CC.constant(2)));
  EXPECT_TRUE(CC.contradictory());
}

TEST(CongruenceClosure, DisequalityBlocksMerge) {
  CongruenceClosure CC;
  TermId X = CC.variable("x"), Y = CC.variable("y");
  ASSERT_TRUE(CC.addDisequal(X, Y));
  EXPECT_EQ(CC.equal(X, Y), Tri::False);
  EXPECT_FALSE(CC.merge(X, Y));
}

TEST(CongruenceClosure, DisequalOfEqualFails) {
  CongruenceClosure CC;
  TermId X = CC.variable("x"), Y = CC.variable("y");
  ASSERT_TRUE(CC.merge(X, Y));
  EXPECT_FALSE(CC.addDisequal(X, Y));
}

TEST(CongruenceClosure, CongruencePropagation) {
  // x == y implies f(x) == f(y).
  CongruenceClosure CC;
  TermId X = CC.variable("x"), Y = CC.variable("y");
  TermId FX = CC.apply("+", X, CC.constant(1));
  TermId FY = CC.apply("+", Y, CC.constant(1));
  EXPECT_EQ(CC.equal(FX, FY), Tri::Unknown);
  ASSERT_TRUE(CC.merge(X, Y));
  EXPECT_EQ(CC.equal(FX, FY), Tri::True);
}

TEST(CongruenceClosure, OrderingQueries) {
  CongruenceClosure CC;
  TermId X = CC.variable("x"), Y = CC.variable("y"), Z = CC.variable("z");
  ASSERT_TRUE(CC.addLess(X, Y, true));
  ASSERT_TRUE(CC.addLess(Y, Z, false));
  EXPECT_EQ(CC.less(X, Z, true), Tri::True);  // x < y <= z
  EXPECT_EQ(CC.less(Z, X, false), Tri::False); // would contradict
  EXPECT_EQ(CC.equal(X, Y), Tri::False);       // strict ordering
}

TEST(CongruenceClosure, StrictCycleIsContradiction) {
  CongruenceClosure CC;
  TermId X = CC.variable("x"), Y = CC.variable("y");
  ASSERT_TRUE(CC.addLess(X, Y, true));
  EXPECT_FALSE(CC.addLess(Y, X, false)); // y <= x with x < y
}

TEST(CongruenceClosure, ConstantOrderings) {
  CongruenceClosure CC;
  TermId X = CC.variable("x");
  ASSERT_TRUE(CC.merge(X, CC.constant(5)));
  EXPECT_EQ(CC.less(X, CC.constant(10), true), Tri::True);
  EXPECT_EQ(CC.less(X, CC.constant(3), true), Tri::False);
  EXPECT_FALSE(CC.addLess(X, CC.constant(4), true));
}

//===----------------------------------------------------------------------===//
// Value tracker (uses parsed expressions)
//===----------------------------------------------------------------------===//

/// Parses every probe expression in ONE translation unit so that variable
/// identity is shared across them (as it is inside the engine).
struct VTLab {
  SourceManager SM;
  DiagnosticEngine Diags{SM};
  ASTContext Ctx;
  std::map<std::string, const Expr *> Exprs;

  explicit VTLab(std::initializer_list<const char *> Probes) {
    std::string Src = "int x; int y; int z; int *p;\n";
    unsigned N = 0;
    std::vector<std::string> Texts;
    for (const char *Probe : Probes) {
      Texts.push_back(Probe);
      Src += "int e" + std::to_string(N++) + "(void) { return (" +
             std::string(Probe) + "); }\n";
    }
    unsigned ID = SM.addBuffer("t.c", Src);
    Parser P(Ctx, SM, Diags, ID);
    EXPECT_TRUE(P.parseTranslationUnit());
    for (unsigned I = 0; I != N; ++I) {
      const FunctionDecl *F = Ctx.findFunction("e" + std::to_string(I));
      EXPECT_NE(F, nullptr);
      if (!F)
        continue;
      Exprs[Texts[I]] =
          cast<ReturnStmt>(F->body()->body()[0])->value();
    }
  }

  const Expr *expr(const std::string &Text) {
    auto It = Exprs.find(Text);
    EXPECT_NE(It, Exprs.end()) << Text;
    return It == Exprs.end() ? nullptr : It->second;
  }
};

TEST(ValueTracker, ConstantAssignment) {
  VTLab L{"x", "10", "x == 10", "x == 11"};
  ValueTracker VT;
  VT.assign(L.expr("x"), L.expr("10"));
  EXPECT_EQ(VT.constantValue(L.expr("x")).value(), 10);
  EXPECT_EQ(VT.evaluate(L.expr("x == 10")), Tri::True);
  EXPECT_EQ(VT.evaluate(L.expr("x == 11")), Tri::False);
  EXPECT_EQ(VT.evaluate(L.expr("x")), Tri::True); // truthiness
}

TEST(ValueTracker, ExpressionEvaluation) {
  // Step 2: "If we know that x is 10, then we will assign y the value 11."
  VTLab L{"x", "y", "10", "x + 1"};
  ValueTracker VT;
  VT.assign(L.expr("x"), L.expr("10"));
  VT.assign(L.expr("y"), L.expr("x + 1"));
  EXPECT_EQ(VT.constantValue(L.expr("y")).value(), 11);
}

TEST(ValueTracker, RenamingSeparatesDefinitions) {
  // Step 1: each assignment gets a new name.
  VTLab L{"x", "y", "1", "2"};
  ValueTracker VT;
  VT.assign(L.expr("x"), L.expr("1"));
  VT.assign(L.expr("y"), L.expr("x"));
  VT.assign(L.expr("x"), L.expr("2"));
  EXPECT_EQ(VT.constantValue(L.expr("y")).value(), 1); // old x
  EXPECT_EQ(VT.constantValue(L.expr("x")).value(), 2);
}

TEST(ValueTracker, SymbolicEquality) {
  VTLab L{"x", "y", "y == x", "y != x"};
  ValueTracker VT;
  VT.assign(L.expr("y"), L.expr("x"));
  EXPECT_EQ(VT.evaluate(L.expr("y == x")), Tri::True);
  EXPECT_EQ(VT.evaluate(L.expr("y != x")), Tri::False);
}

TEST(ValueTracker, AssumeBranches) {
  VTLab L{"x", "x == 0"};
  ValueTracker VT;
  ASSERT_TRUE(VT.assume(L.expr("x"), true)); // x != 0
  EXPECT_EQ(VT.evaluate(L.expr("x == 0")), Tri::False);
  EXPECT_FALSE(VT.assume(L.expr("x"), false)); // contradiction: x == 0
}

TEST(ValueTracker, ContradictoryBranchDetected) {
  // The Figure 2 pattern: if (x) ... if (!x) — second condition decided.
  VTLab L{"x", "!x"};
  ValueTracker VT;
  ASSERT_TRUE(VT.assume(L.expr("x"), true));
  EXPECT_EQ(VT.evaluate(L.expr("!x")), Tri::False);
}

TEST(ValueTracker, RelationalChains) {
  VTLab L{"x < y", "y < z", "x < z", "z < x", "x == z"};
  ValueTracker VT;
  ASSERT_TRUE(VT.assume(L.expr("x < y"), true));
  ASSERT_TRUE(VT.assume(L.expr("y < z"), true));
  EXPECT_EQ(VT.evaluate(L.expr("x < z")), Tri::True);
  EXPECT_EQ(VT.evaluate(L.expr("z < x")), Tri::False);
  EXPECT_EQ(VT.evaluate(L.expr("x == z")), Tri::False);
}

TEST(ValueTracker, NegatedComparisonOnFalseBranch) {
  VTLab L{"x < 5", "x >= 5", "x == 7"};
  ValueTracker VT;
  ASSERT_TRUE(VT.assume(L.expr("x < 5"), false)); // x >= 5
  EXPECT_EQ(VT.evaluate(L.expr("x >= 5")), Tri::True);
  EXPECT_EQ(VT.evaluate(L.expr("x < 5")), Tri::False);
  EXPECT_EQ(VT.evaluate(L.expr("x == 7")), Tri::Unknown);
}

TEST(ValueTracker, HavocForgets) {
  VTLab L{"x", "10", "x == 10"};
  ValueTracker VT;
  VT.assign(L.expr("x"), L.expr("10"));
  VT.havoc(L.expr("x"));
  EXPECT_EQ(VT.evaluate(L.expr("x == 10")), Tri::Unknown);
}

TEST(ValueTracker, AndOrConditions) {
  VTLab L{"x == 1 && y == 2", "x", "y", "x == 1 || y == 2", "x == 1",
          "y == 2"};
  ValueTracker VT;
  ASSERT_TRUE(VT.assume(L.expr("x == 1 && y == 2"), true));
  EXPECT_EQ(VT.constantValue(L.expr("x")).value(), 1);
  EXPECT_EQ(VT.constantValue(L.expr("y")).value(), 2);
  ValueTracker VT2;
  ASSERT_TRUE(VT2.assume(L.expr("x == 1 || y == 2"), false));
  EXPECT_EQ(VT2.evaluate(L.expr("x == 1")), Tri::False);
  EXPECT_EQ(VT2.evaluate(L.expr("y == 2")), Tri::False);
}

TEST(ValueTracker, AssignmentInCondition) {
  VTLab L{"x", "y", "x = y", "y == 0"};
  ValueTracker VT;
  // if ((x = y)) — the branch tests x's new value.
  VT.assign(L.expr("x"), L.expr("y"));
  ASSERT_TRUE(VT.assume(L.expr("x = y"), false));
  EXPECT_EQ(VT.evaluate(L.expr("y == 0")), Tri::True);
}

TEST(ValueTracker, BacktracksAtPathSplits) {
  VTLab L{"x", "1", "2", "y == 2", "x == 1"};
  ValueTracker VT;
  VT.assign(L.expr("x"), L.expr("1"));
  {
    TrackerScope Branch(VT);
    ASSERT_TRUE(VT.assume(L.expr("y == 2"), true));
    EXPECT_EQ(VT.evaluate(L.expr("y == 2")), Tri::True);
    VT.assign(L.expr("x"), L.expr("2"));
    EXPECT_EQ(VT.evaluate(L.expr("x == 1")), Tri::False);
  }
  // The branch's assumption and rename are gone; the fact before the split
  // is not.
  EXPECT_EQ(VT.evaluate(L.expr("y == 2")), Tri::Unknown);
  EXPECT_EQ(VT.evaluate(L.expr("x == 1")), Tri::True);
  // A contradiction is undone too.
  ValueTracker::Mark M = VT.mark();
  EXPECT_FALSE(VT.assume(L.expr("x == 1"), false));
  VT.undo(M);
  EXPECT_EQ(VT.evaluate(L.expr("x == 1")), Tri::True);
  EXPECT_TRUE(VT.assume(L.expr("y == 2"), false));
}

//===----------------------------------------------------------------------===//
// Engine-level pruning
//===----------------------------------------------------------------------===//

const char *FreeDecls = "void kfree(void *p);\n";

TEST(FPPEngine, ContradictoryConditionsPruned) {
  // Figure 2's structure: only two of the four paths are executable.
  std::string Source = std::string(FreeDecls) +
                       "int f(int *p, int x) {\n"
                       "  if (x) kfree(p);\n"
                       "  if (!x) return *p;\n" // never reached with freed p
                       "  return 0;\n"
                       "}";
  EXPECT_TRUE(runBuiltin("free", Source).empty());
  EngineOptions NoFPP;
  NoFPP.EnableFalsePathPruning = false;
  EXPECT_EQ(runBuiltin("free", Source, NoFPP).size(), 1u);
}

TEST(FPPEngine, ConstantConditionPrunesBranch) {
  std::string Source = std::string(FreeDecls) +
                       "int f(int *p) {\n"
                       "  int debug = 0;\n"
                       "  kfree(p);\n"
                       "  if (debug) return *p;\n" // dead code
                       "  return 0;\n"
                       "}";
  EXPECT_TRUE(runBuiltin("free", Source).empty());
}

TEST(FPPEngine, EqualityGuardsRespected) {
  std::string Source = std::string(FreeDecls) +
                       "int f(int *p, int mode) {\n"
                       "  if (mode == 1) kfree(p);\n"
                       "  if (mode == 2) return *p;\n" // mode can't be both
                       "  return 0;\n"
                       "}";
  EXPECT_TRUE(runBuiltin("free", Source).empty());
}

TEST(FPPEngine, SwitchCaseValuePruning) {
  std::string Source = std::string(FreeDecls) +
                       "int f(int *p) {\n"
                       "  int mode = 3;\n"
                       "  switch (mode) {\n"
                       "  case 1: kfree(p); return *p;\n" // dead arm
                       "  case 3: return 0;\n"
                       "  }\n"
                       "  return 1;\n"
                       "}";
  EXPECT_TRUE(runBuiltin("free", Source).empty());
}

TEST(FPPEngine, LoopBoundValuesDoNotLeakPastExit) {
  // After `for (i = 0; i < n; i++)`, the exit edge knows i >= n.
  std::string Source = std::string(FreeDecls) +
                       "int f(int *p, int n) {\n"
                       "  int i;\n"
                       "  for (i = 0; i < n; i++) { }\n"
                       "  if (i < n) return *p;\n" // infeasible after loop
                       "  kfree(p);\n"
                       "  return 0;\n"
                       "}";
  EXPECT_TRUE(runBuiltin("free", Source).empty());
}

/// The source lines of \p Source's free-checker reports, in line order.
std::vector<unsigned> freeReportLines(const std::string &Source,
                                      const EngineOptions &Opts = {}) {
  std::vector<unsigned> Lines;
  for (const ErrorReport &R : runBuiltinReports("free", Source, Opts))
    Lines.push_back(R.Line);
  std::sort(Lines.begin(), Lines.end());
  return Lines;
}

TEST(FPPEngine, SuccessorNeverSeesItsSiblingsAssumption) {
  // Each arm of the first branch reaches exactly one of the two uses. Were
  // the first-traversed arm's assumption left behind, its sibling would
  // start from `x == 1` and `x != 1` together and lose its use. The block
  // cache is off: it would otherwise cut the second arm at the join.
  std::string Source = std::string(FreeDecls) +
                       "void opaque(void);\n"
                       "int f(int *p, int x) {\n"
                       "  kfree(p);\n"
                       "  if (x == 1)\n"
                       "    opaque();\n"
                       "  else\n"
                       "    opaque();\n"
                       "  if (x == 1)\n"
                       "    return *p;\n"     // line 10: the x == 1 arm
                       "  return *p + 1;\n"  // line 11: the x != 1 arm
                       "}";
  EngineOptions NoCache;
  NoCache.EnableBlockCache = false;
  EXPECT_EQ(freeReportLines(Source, NoCache), (std::vector<unsigned>{10, 11}));
}

TEST(FPPEngine, CalleeFactsNeverReachTheCallersContinuation) {
  // Value facts do not cross a call in either direction: each activation
  // tracks values on a tracker of its own, as refine() hands a callee its
  // checker state only. reset() learns `g == 0`, yet f continues knowing
  // nothing of g and reaches both of its uses...
  std::string Source = std::string(FreeDecls) +
                       "int g;\n"
                       "void reset(void) {\n"
                       "  g = 0;\n"
                       "}\n"
                       "int f(int *p) {\n"
                       "  kfree(p);\n"
                       "  reset();\n"
                       "  if (g == 0)\n"
                       "    return *p;\n"     // line 10
                       "  return *p + 1;\n"  // line 11
                       "}";
  EXPECT_EQ(freeReportLines(Source), (std::vector<unsigned>{10, 11}));
  // ...and touch() starts knowing nothing of its caller's `g == 0`, so the
  // use on its `g != 0` arm stays reachable.
  std::string Into = std::string(FreeDecls) +
                     "int g;\n"
                     "int *q;\n"
                     "int touch(void) {\n"
                     "  if (g != 0)\n"
                     "    return *q;\n" // line 6
                     "  return 0;\n"
                     "}\n"
                     "int f(void) {\n"
                     "  kfree(q);\n"
                     "  if (g == 0)\n"
                     "    return touch();\n"
                     "  return 0;\n"
                     "}";
  EXPECT_EQ(freeReportLines(Into), (std::vector<unsigned>{6}));
}

TEST(FPPEngine, EveryCalleeExitStartsFromTheCallersFacts) {
  // free_one() has two exit states (q freed, r freed), and the caller's
  // statement goes on after the call: it copies x into y, then sets x to
  // 5. Were the first exit's renames left behind, the second would copy the
  // first's x (known 5) into y and prune `y != 5`, losing its report.
  std::string Source = std::string(FreeDecls) +
                       "int *q;\n"
                       "int *r;\n"
                       "void free_one(int c) {\n"
                       "  if (c)\n"
                       "    kfree(q);\n"
                       "  else\n"
                       "    kfree(r);\n"
                       "}\n"
                       "int f(int x, int c) {\n"
                       "  int y;\n"
                       "  free_one(c), y = x, x = 5;\n"
                       "  if (y != 5)\n"
                       "    return *q + *r;\n" // line 15, once per exit
                       "  return 0;\n"
                       "}";
  std::vector<std::string> Messages = runBuiltin("free", Source);
  std::sort(Messages.begin(), Messages.end());
  EXPECT_EQ(Messages, (std::vector<std::string>{"using q after free!",
                                                "using r after free!"}));
}

TEST(FPPEngine, TrackedStatsReportPrunes) {
  XgccTool T;
  ASSERT_TRUE(T.addSource("t.c", std::string(FreeDecls) +
                                     "int f(int *p, int x) {\n"
                                     "  if (x) kfree(p);\n"
                                     "  if (!x) return *p;\n"
                                     "  return 0;\n"
                                     "}"));
  ASSERT_TRUE(T.addBuiltinChecker("free"));
  T.run(EngineOptions());
  EXPECT_GE(T.metrics().value("engine.paths.pruned"), 2u);
}

} // namespace

namespace {

//===----------------------------------------------------------------------===//
// Symbolic terms and congruence at engine level
//===----------------------------------------------------------------------===//

TEST(FPPEngine, SymbolicExpressionEquality) {
  // y = x + 1; the branch y == x + 1 is decided by hash-consed app terms.
  std::string Source = "void kfree(void *p);\n"
                       "int f(int *p, int x) {\n"
                       "  int y;\n"
                       "  y = x + 1;\n"
                       "  kfree(p);\n"
                       "  if (y == x + 1)\n"
                       "    return 0;\n"
                       "  return *p;\n" // infeasible
                       "}";
  EXPECT_TRUE(mc::test::runBuiltin("free", Source).empty());
}

TEST(FPPEngine, CongruencePropagatesThroughCopies) {
  // a = b; then a + 1 == b + 1 must hold.
  std::string Source = "void kfree(void *p);\n"
                       "int f(int *p, int b) {\n"
                       "  int a;\n"
                       "  a = b;\n"
                       "  kfree(p);\n"
                       "  if (a + 1 != b + 1)\n"
                       "    return *p;\n" // infeasible
                       "  return 0;\n"
                       "}";
  EXPECT_TRUE(mc::test::runBuiltin("free", Source).empty());
}

TEST(FPPEngine, ReassignmentInvalidatesOldFacts) {
  // After b changes, a == b no longer holds: both branches possible.
  std::string Source = "void kfree(void *p);\n"
                       "int f(int *p, int b) {\n"
                       "  int a;\n"
                       "  a = b;\n"
                       "  b = b + 1;\n"
                       "  kfree(p);\n"
                       "  if (a != b)\n"
                       "    return *p;\n" // feasible now
                       "  return 0;\n"
                       "}";
  EXPECT_EQ(mc::test::runBuiltin("free", Source).size(), 1u);
}

TEST(FPPEngine, RelationalPruningAcrossConditions) {
  std::string Source = "void kfree(void *p);\n"
                       "int f(int *p, int a, int b, int c) {\n"
                       "  kfree(p);\n"
                       "  if (a < b) {\n"
                       "    if (b < c) {\n"
                       "      if (c < a)\n"     // contradicts transitivity
                       "        return *p;\n" // infeasible
                       "    }\n"
                       "  }\n"
                       "  return 0;\n"
                       "}";
  EXPECT_TRUE(mc::test::runBuiltin("free", Source).empty());
}

TEST(FPPEngine, UnknownConditionsStillExploreBothPaths) {
  // FPP must not over-prune: opaque conditions keep both branches.
  std::string Source = "void kfree(void *p);\n"
                       "int opaque(int v);\n"
                       "int f(int *p, int x) {\n"
                       "  if (opaque(x))\n"
                       "    kfree(p);\n"
                       "  if (opaque(x + 1))\n"
                       "    return *p;\n" // reachable: must report
                       "  return 0;\n"
                       "}";
  EXPECT_EQ(mc::test::runBuiltin("free", Source).size(), 1u);
}

} // namespace
