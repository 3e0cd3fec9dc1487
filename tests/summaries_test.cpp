//===- tests/summaries_test.cpp - Block/suffix summary tests ------------------===//
//
// Part of the metal/xgcc reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Sections 5.2 and 6.2: transition/add edges, the Figure 5 block and suffix
// summaries, and the relax pass's documented omissions (stop edges, local
// variables).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

using namespace mc;
using namespace mc::test;

namespace {

/// Renders a summary edge in the paper's notation using the checker's state
/// names.
std::string edgeStr(const SummaryEdge &E, const Checker &C,
                    std::string_view Var) {
  auto Name = [&](int Id) { return C.stateName(Id); };
  return tupleStr(E.From, Name, Var) + " --> " + tupleStr(E.To, Name, Var);
}

/// Runs the tool's one checker in an engine of its own over the tool's
/// finalized context, and keeps that engine for its summaries: the shard
/// engines of XgccTool::run are gone when it returns.
std::unique_ptr<Engine> runForSummaries(XgccTool &T) {
  T.finalize();
  auto E = std::make_unique<Engine>(T.context(), T.sourceManager(),
                                    T.callGraph());
  E->run(*T.checkers()[0]);
  return E;
}

/// Runs the free checker over Figure 2 and exposes the engine + CFGs.
struct Fig5Lab {
  XgccTool Tool;
  Checker *FreeChecker = nullptr;
  std::unique_ptr<Engine> Eng;

  Fig5Lab() {
    const char *Figure2 = R"c(
void kfree(void *p);
int contrived(int *p, int *w, int x) {
  int *q;
  if (x) {
    kfree(w);
    q = p;
    p = 0;
  }
  if (!x)
    return *w;
  return *q;
}
int contrived_caller(int *w, int x, int *p) {
  kfree(p);
  contrived(p, w, x);
  return *w;
}
)c";
    EXPECT_TRUE(Tool.addSource("fig2.c", Figure2));
    EXPECT_TRUE(Tool.addBuiltinChecker("free"));
    Eng = runForSummaries(Tool);
    FreeChecker = Tool.checkers()[0].get();
  }

  const FunctionDecl *fn(const char *Name) {
    return Tool.context().findFunction(Name);
  }

  /// Collects every edge string of the function's blocks.
  std::set<std::string> allEdges(const char *Name, bool Suffix) {
    std::set<std::string> Out;
    const CFG *G = Tool.callGraph().cfg(fn(Name));
    for (const auto &B : G->blocks()) {
      const BlockSummary *Sum = Eng->blockSummary(fn(Name), B.get());
      if (!Sum)
        continue;
      for (const SummaryEdge &E : Suffix ? Sum->SuffixEdges : Sum->Edges)
        Out.insert(edgeStr(E, *FreeChecker, "v"));
    }
    return Out;
  }
};

TEST(Figure5, BlockSummariesContainThePapersEdges) {
  Fig5Lab L;
  std::set<std::string> Edges = L.allEdges("contrived", /*Suffix=*/false);
  // Representative edges straight out of Figure 5.
  EXPECT_TRUE(Edges.count(
      "(start, v:w->unknown) --> (start, v:w->freed)")); // kfree(w) add edge
  EXPECT_TRUE(Edges.count(
      "(start, v:p->freed) --> (start, v:p->stop)")); // p = 0 kill
  EXPECT_TRUE(Edges.count(
      "(start, v:p->freed) --> (start, v:p->freed)")); // identity
}

TEST(Figure5, AddEdgeForCalleeCreatedState) {
  Fig5Lab L;
  auto Edges = L.allEdges("contrived", false);
  // q = p creates an instance for q (synonym) inside the if-block.
  bool FoundQ = false;
  for (const std::string &E : Edges)
    FoundQ |= E.find("v:q->unknown") != std::string::npos;
  EXPECT_TRUE(FoundQ);
}

TEST(Figure5, SuffixSummariesOmitLocals) {
  Fig5Lab L;
  // "none of the suffix summaries record any information about q because q
  // is a local variable".
  auto Sfx = L.allEdges("contrived", /*Suffix=*/true);
  for (const std::string &E : Sfx)
    EXPECT_EQ(E.find("v:q->"), std::string::npos) << E;
}

TEST(Figure5, SuffixSummariesOmitStopEndings) {
  Fig5Lab L;
  // "the suffix summary intentionally omits edges that end in a tuple with
  // the value stop."
  auto Sfx = L.allEdges("contrived", /*Suffix=*/true);
  for (const std::string &E : Sfx) {
    size_t Arrow = E.find("-->");
    ASSERT_NE(Arrow, std::string::npos);
    EXPECT_EQ(E.find("stop)", Arrow), std::string::npos) << E;
  }
}

TEST(Figure5, FunctionSummaryTransportsParameters) {
  Fig5Lab L;
  // contrived's function summary (entry suffix edges) must mention the
  // parameters p and w — they are what the caller cares about.
  const CFG *G = L.Tool.callGraph().cfg(L.fn("contrived"));
  const BlockSummary *Entry =
      L.Eng->blockSummary(L.fn("contrived"), G->entry());
  ASSERT_NE(Entry, nullptr);
  bool SawP = false, SawW = false;
  for (const SummaryEdge &E : Entry->SuffixEdges) {
    SawP |= symbolText(E.To.TreeKey) == "p";
    SawW |= symbolText(E.To.TreeKey) == "w";
  }
  EXPECT_TRUE(SawP);
  EXPECT_TRUE(SawW);
}

TEST(Figure5, EntryCacheRecordsReachingTuples) {
  Fig5Lab L;
  const CFG *G = L.Tool.callGraph().cfg(L.fn("contrived"));
  const BlockSummary *Entry =
      L.Eng->blockSummary(L.fn("contrived"), G->entry());
  ASSERT_NE(Entry, nullptr);
  // The caller enters contrived with p freed.
  bool Found = false;
  for (const StateTuple &T : Entry->Reached)
    Found |= symbolText(T.TreeKey) == "p" &&
             L.FreeChecker->stateName(T.Value) == "freed";
  EXPECT_TRUE(Found);
}

TEST(Summaries, GlobalOnlyEdgesAlwaysRecorded) {
  XgccTool T;
  ASSERT_TRUE(T.addSource("t.c", "int f(int x) { return x; }"));
  ASSERT_TRUE(T.addBuiltinChecker("intr"));
  std::unique_ptr<Engine> E = runForSummaries(T);
  const FunctionDecl *F = T.context().findFunction("f");
  const CFG *G = T.callGraph().cfg(F);
  const BlockSummary *Entry = E->blockSummary(F, G->entry());
  ASSERT_NE(Entry, nullptr);
  bool SawGlobalEdge = false;
  for (const SummaryEdge &E : Entry->Edges)
    SawGlobalEdge |= E.isGlobalOnly();
  EXPECT_TRUE(SawGlobalEdge);
}

TEST(Summaries, GlobalStateTransitionsSummarized) {
  // cli() flips the global state; the function summary must carry
  // start -> disabled.
  XgccTool T;
  ASSERT_TRUE(T.addSource("t.c", "void cli(void); void sti(void);\n"
                                 "void irq_off(void) { cli(); }\n"
                                 "void top(void) { irq_off(); }"));
  ASSERT_TRUE(T.addBuiltinChecker("intr"));
  std::unique_ptr<Engine> E = runForSummaries(T);
  Checker &C = *T.checkers()[0];
  const FunctionDecl *F = T.context().findFunction("irq_off");
  const CFG *G = T.callGraph().cfg(F);
  const BlockSummary *Entry = E->blockSummary(F, G->entry());
  ASSERT_NE(Entry, nullptr);
  bool Found = false;
  for (const SummaryEdge &E : Entry->SuffixEdges)
    if (E.isGlobalOnly() && C.stateName(E.From.GState) == "start" &&
        C.stateName(E.To.GState) == "disabled")
      Found = true;
  EXPECT_TRUE(Found);
}

TEST(Summaries, TupleStrNotation) {
  StateTuple Placeholder{1, 0, StateStop, 0};
  StateTuple Var{1, symbolize("p"), 2, 0};
  auto Name = [](int Id) {
    return std::string(Id == 1 ? "start" : Id == 2 ? "freed" : "stop");
  };
  EXPECT_EQ(tupleStr(Placeholder, Name), "(start, <>)");
  EXPECT_EQ(tupleStr(Var, Name, "v"), "(start, v:p->freed)");
  StateTuple Unknown{1, symbolize("p"), StateUnknown, 0};
  EXPECT_EQ(tupleStr(Unknown, Name, "v"), "(start, v:p->unknown)");
}

} // namespace
