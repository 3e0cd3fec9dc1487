//===- tests/metal_interpreter_test.cpp - MetalChecker in isolation ------------===//
//
// Part of the metal/xgcc reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Unit-tests the metal interpreter against a mock AnalysisContext: action
// vocabulary (err formatting, set_global, counters, annotations,
// kill_path, data ops), creation semantics, and per-instance transition
// selection — without the engine in the loop.
//
//===----------------------------------------------------------------------===//

#include "cfront/Parser.h"
#include "checkers/BuiltinCheckers.h"

#include <gtest/gtest.h>

using namespace mc;

namespace {

/// A scripted AnalysisContext capturing everything the checker does.
class MockACtx : public AnalysisContext {
public:
  SMInstance SMI;
  std::vector<std::string> Errors;
  std::vector<std::string> ErrorGroups;
  std::map<std::string, unsigned> Examples, Violations;
  std::map<const Stmt *, std::map<std::string, std::string>> Notes;
  std::vector<PathSpecificEffect> Effects;
  std::string PathTag;
  bool PathKilled = false;
  bool Transitioned = false;
  const Stmt *TopStmt = nullptr;
  bool InCondition = false;
  const Expr *BranchCond = nullptr;
  SourceManager SM;

  SMInstance &state() override { return SMI; }

  VarState &createInstance(const Expr *Tree, int Value) override {
    VarState VS;
    VS.Tree = Tree;
    VS.TreeKey = symbolize(exprKey(Tree));
    VS.Value = Value;
    VS.CreatedAt = TopStmt;
    SMI.ActiveVars.push_back(std::move(VS));
    return SMI.ActiveVars.back();
  }
  void transition(VarState &VS, int Value) override { VS.Value = Value; }
  bool justCreated(const VarState &VS) const override {
    return VS.CreatedAt && VS.CreatedAt == TopStmt;
  }
  void pathSpecific(const PathSpecificEffect &E) override {
    Effects.push_back(E);
  }
  void markTransition() override { Transitioned = true; }
  void report(const ReportBuilder &B) override {
    Errors.push_back(B.Message);
    ErrorGroups.push_back(B.GroupKey);
  }
  void countExample(const std::string &K) override { ++Examples[K]; }
  void countViolation(const std::string &K) override { ++Violations[K]; }
  void annotatePath(const std::string &Tag) override { PathTag = Tag; }
  void annotate(const Stmt *Node, const std::string &Key,
                const std::string &Value) override {
    Notes[Node][Key] = Value;
  }
  const std::string *annotation(const Stmt *Node,
                                const std::string &Key) const override {
    auto It = Notes.find(Node);
    if (It == Notes.end())
      return nullptr;
    auto KIt = It->second.find(Key);
    return KIt == It->second.end() ? nullptr : &KIt->second;
  }
  void killPath() override { PathKilled = true; }
  const FunctionDecl *currentFunction() const override { return nullptr; }
  const Stmt *currentTopStmt() const override { return TopStmt; }
  bool atBranchCondition() const override { return InCondition; }
  const Expr *branchCondition() const override { return BranchCond; }
  const SourceManager &sourceManager() const override { return SM; }
};

/// Parses a probe program and returns the points of interest.
struct Lab {
  SourceManager SM;
  DiagnosticEngine Diags{SM};
  ASTContext Ctx;
  unsigned Counter = 0;

  /// Parses `return (Text);` and returns the expression.
  const Expr *expr(const std::string &Text) {
    std::string Name = "e" + std::to_string(Counter++);
    std::string Src = "int x; int *p; int *q;\nvoid kfree(void *v);\n"
                      "int " + Name + "(void) { return (int)(" + Text + "); }";
    unsigned ID = SM.addBuffer("t.c", Src);
    Parser P(Ctx, SM, Diags, ID);
    EXPECT_TRUE(P.parseTranslationUnit()) << Text;
    const auto *Ret =
        cast<ReturnStmt>(Ctx.findFunction(Name)->body()->body()[0]);
    return cast<CastExpr>(Ret->value())->sub();
  }
};

std::unique_ptr<MetalChecker> compile(const std::string &Source) {
  static SourceManager SM;
  DiagnosticEngine Diags(SM, nullptr);
  auto C = compileMetalChecker(Source, "<unit>", SM, Diags);
  EXPECT_NE(C, nullptr);
  return C;
}

TEST(MetalInterpreter, CreationAttachesStateAndMarks) {
  auto C = compile(builtinCheckerSource("free"));
  Lab L;
  MockACtx ACtx;
  ACtx.SMI.GState = C->initialGlobalState();
  const Expr *Call = L.expr("kfree(p)");
  ACtx.TopStmt = Call;
  C->checkPoint(Call, ACtx);
  EXPECT_TRUE(ACtx.Transitioned);
  ASSERT_EQ(ACtx.SMI.ActiveVars.size(), 1u);
  EXPECT_EQ(symbolText(ACtx.SMI.ActiveVars[0].TreeKey), "p");
  EXPECT_EQ(C->stateName(ACtx.SMI.ActiveVars[0].Value), "freed");
}

TEST(MetalInterpreter, NoTransitionAtCreatingStatement) {
  auto C = compile(builtinCheckerSource("free"));
  Lab L;
  MockACtx ACtx;
  ACtx.SMI.GState = C->initialGlobalState();
  const Expr *Call = L.expr("kfree(p)");
  ACtx.TopStmt = Call;
  C->checkPoint(Call, ACtx); // creates
  C->checkPoint(Call, ACtx); // same statement: must NOT double-free
  EXPECT_TRUE(ACtx.Errors.empty());
}

TEST(MetalInterpreter, ErrFormatsHoleArguments) {
  auto C = compile(builtinCheckerSource("free"));
  Lab L;
  MockACtx ACtx;
  ACtx.SMI.GState = C->initialGlobalState();
  const Expr *Free = L.expr("kfree(q)");
  ACtx.TopStmt = Free;
  C->checkPoint(Free, ACtx);
  const Expr *Deref = L.expr("*q");
  ACtx.TopStmt = Deref; // new statement: transitions may fire
  C->checkPoint(Deref, ACtx);
  ASSERT_EQ(ACtx.Errors.size(), 1u);
  EXPECT_EQ(ACtx.Errors[0], "using q after free!");
  // The instance transitioned to stop.
  EXPECT_FALSE(ACtx.SMI.ActiveVars[0].live());
}

TEST(MetalInterpreter, SetGlobalAction) {
  auto C = compile("sm g;\nstart: { go() } ==> start, { set_global(armed); };\n"
                   "armed: { fire() } ==> armed, { err(\"boom\"); };\n");
  Lab L;
  MockACtx ACtx;
  ACtx.SMI.GState = C->initialGlobalState();
  const Expr *Go = L.expr("go()");
  ACtx.TopStmt = Go;
  C->checkPoint(Go, ACtx);
  EXPECT_EQ(C->stateName(ACtx.SMI.GState), "armed");
  const Expr *Fire = L.expr("fire()");
  ACtx.TopStmt = Fire;
  C->checkPoint(Fire, ACtx);
  ASSERT_EQ(ACtx.Errors.size(), 1u);
  EXPECT_EQ(ACtx.Errors[0], "boom");
}

TEST(MetalInterpreter, CountersAccumulate) {
  auto C = compile(
      "sm s;\nstart: { good() } ==> start, { count_example(\"rule\"); }\n"
      "| { bad() } ==> start, { count_violation(\"rule\"); };\n");
  Lab L;
  MockACtx ACtx;
  ACtx.SMI.GState = C->initialGlobalState();
  for (int I = 0; I < 3; ++I) {
    const Expr *E = L.expr("good()");
    ACtx.TopStmt = E;
    C->checkPoint(E, ACtx);
  }
  const Expr *B = L.expr("bad()");
  ACtx.TopStmt = B;
  C->checkPoint(B, ACtx);
  EXPECT_EQ(ACtx.Examples["rule"], 3u);
  EXPECT_EQ(ACtx.Violations["rule"], 1u);
}

TEST(MetalInterpreter, AnnotateAndKillPath) {
  auto C = compile(builtinCheckerSource("path_kill"));
  Lab L;
  MockACtx ACtx;
  ACtx.SMI.GState = C->initialGlobalState();
  const Expr *Panic = L.expr("panic(\"die\")");
  ACtx.TopStmt = Panic;
  C->checkPoint(Panic, ACtx);
  EXPECT_TRUE(ACtx.PathKilled);
  ASSERT_NE(ACtx.annotation(Panic, "PATHKILL"), nullptr);
}

TEST(MetalInterpreter, ReadsOwnAnnotationsOnlyForAKeyItWrites) {
  // Writing a key, or reading one an earlier checker wrote, keeps the
  // engine's cross-root summaries; testing a key the checker writes does not.
  auto PathKill = compile(builtinCheckerSource("path_kill"));
  EXPECT_FALSE(PathKill->readsOwnAnnotations());
  auto ReadsEarlier =
      compile("sm s;\nstart: { go() } && ${ mc_annotated(\"PATHKILL\") } "
              "==> start, { annotate(\"SEEN\"); };\n");
  EXPECT_FALSE(ReadsEarlier->readsOwnAnnotations());
  auto ReadsOwn =
      compile("sm s;\nstart: { go() } ==> start, { annotate(\"SEEN\"); }\n"
              "| { stop() } && ${ mc_annotated(\"SEEN\") } ==> start;\n");
  EXPECT_TRUE(ReadsOwn->readsOwnAnnotations());
}

TEST(MetalInterpreter, PathAnnotateSetsClassification) {
  auto C = compile(builtinCheckerSource("user_pointer"));
  Lab L;
  MockACtx ACtx;
  ACtx.SMI.GState = C->initialGlobalState();
  const Expr *Get = L.expr("p = get_user_ptr(1)");
  ACtx.TopStmt = Get;
  C->checkPoint(Get, ACtx);
  EXPECT_EQ(ACtx.PathTag, "SECURITY");
}

TEST(MetalInterpreter, PathSpecificAtBranchQueuesEffect) {
  auto C = compile(builtinCheckerSource("lock"));
  Lab L;
  MockACtx ACtx;
  ACtx.SMI.GState = C->initialGlobalState();
  const Expr *Try = L.expr("trylock(p)");
  ACtx.TopStmt = Try;
  ACtx.InCondition = true;
  C->checkPoint(Try, ACtx);
  ASSERT_EQ(ACtx.Effects.size(), 1u);
  EXPECT_EQ(symbolText(ACtx.Effects[0].TreeKey), "p");
  EXPECT_EQ(C->stateName(ACtx.Effects[0].TrueValue), "locked");
  EXPECT_EQ(ACtx.Effects[0].FalseValue, StateStop);
}

TEST(MetalInterpreter, DataValueActions) {
  auto C = compile(builtinCheckerSource("rlock"));
  Lab L;
  MockACtx ACtx;
  ACtx.SMI.GState = C->initialGlobalState();
  const Expr *Lock1 = L.expr("rlock(p)");
  ACtx.TopStmt = Lock1;
  C->checkPoint(Lock1, ACtx);
  ASSERT_EQ(ACtx.SMI.ActiveVars.size(), 1u);
  EXPECT_EQ(symbolText(ACtx.SMI.ActiveVars[0].Data), "1"); // data_set(1)
  const Expr *Lock2 = L.expr("rlock(q) , rlock(p)");
  // Use a distinct statement so the transition can fire; match on p again.
  const Expr *Again = L.expr("rlock(p)");
  (void)Lock2;
  ACtx.TopStmt = Again;
  C->checkPoint(Again, ACtx);
  EXPECT_EQ(symbolText(ACtx.SMI.ActiveVars[0].Data), "2"); // data_inc()
}

TEST(MetalInterpreter, UnknownActionsIgnored) {
  auto C = compile("sm s;\nstart: { go() } ==> start, "
                   "{ not_a_real_action(1, \"x\"); err(\"after\"); };\n");
  Lab L;
  MockACtx ACtx;
  ACtx.SMI.GState = C->initialGlobalState();
  const Expr *E = L.expr("go()");
  ACtx.TopStmt = E;
  C->checkPoint(E, ACtx);
  ASSERT_EQ(ACtx.Errors.size(), 1u); // the err after the unknown still ran
}

TEST(MetalInterpreter, EndOfPathGlobalAndInstance) {
  auto C = compile(builtinCheckerSource("intr"));
  MockACtx ACtx;
  ACtx.SMI.GState = C->stateId("disabled");
  C->checkEndOfPath(nullptr, ACtx);
  ASSERT_EQ(ACtx.Errors.size(), 1u);
  EXPECT_EQ(ACtx.Errors[0], "exiting with interrupts disabled!");

  auto Lock = compile(builtinCheckerSource("lock"));
  Lab L;
  MockACtx ACtx2;
  ACtx2.SMI.GState = Lock->initialGlobalState();
  VarState VS;
  VS.Tree = L.expr("p");
  VS.TreeKey = symbolize("p");
  VS.Value = Lock->stateId("locked");
  ACtx2.SMI.ActiveVars.push_back(VS);
  Lock->checkEndOfPath(&ACtx2.SMI.ActiveVars[0], ACtx2);
  ASSERT_EQ(ACtx2.Errors.size(), 1u);
  EXPECT_EQ(ACtx2.Errors[0], "lock p never released!");
}

TEST(MetalInterpreter, FirstMatchingTransitionPerInstanceWins) {
  // Both patterns match `use(p)`; only the first transition fires.
  auto C = compile("sm s;\nstate decl any_pointer v;\n"
                   "decl any_arguments args;\n"
                   "start: { track(v) } ==> v.seen;\n"
                   "v.seen:\n"
                   "  { use(v) } ==> v.seen, { err(\"first\"); }\n"
                   "| { use(args) } ==> v.stop, { err(\"second\"); }\n"
                   ";\n");
  Lab L;
  MockACtx ACtx;
  ACtx.SMI.GState = C->initialGlobalState();
  const Expr *Track = L.expr("track(p)");
  ACtx.TopStmt = Track;
  C->checkPoint(Track, ACtx);
  const Expr *Use = L.expr("use(p)");
  ACtx.TopStmt = Use;
  C->checkPoint(Use, ACtx);
  ASSERT_EQ(ACtx.Errors.size(), 1u);
  EXPECT_EQ(ACtx.Errors[0], "first");
}

} // namespace
