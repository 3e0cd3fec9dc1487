//===- tests/pattern_index_test.cpp - Dispatch-index equivalence ---------------===//
//
// Part of the metal/xgcc reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The compiled pattern-dispatch index is a pure pre-filter: with it on or
// off (EngineOptions::EnableDispatchIndex), every checker must fire the
// same transitions on the same points and render byte-identical reports.
// Property sweeps over generated corpora check exactly that, for the whole
// builtin suite and for an example metal checker; unit tests pin down the
// PatternDiscriminator algebra, the declaration-order guarantee of
// DispatchIndex::lookup, and duplicate-checker registration.
//
// Lives in mc_parallel_tests (ctest label "parallel") so the TSan preset
// also exercises the index shared across worker engines.
//
//===----------------------------------------------------------------------===//

#include "../bench/WorkloadGen.h"
#include "TestUtil.h"
#include "metal/DispatchIndex.h"
#include "metal/MetalParser.h"
#include "support/RawOstream.h"

using namespace mc;
using namespace mc::bench;
using namespace mc::test;

namespace {

struct SuiteResult {
  std::string Rendered;
  MetricsSnapshot Stats;
};

/// Runs \p CheckerNames (builtins) over \p Source and renders the reports.
SuiteResult runSuite(const std::string &Source,
                     const std::vector<std::string> &CheckerNames,
                     EngineOptions Opts) {
  XgccTool Tool;
  EXPECT_TRUE(Tool.addSource("t.c", Source));
  for (const std::string &Name : CheckerNames)
    EXPECT_TRUE(Tool.addBuiltinChecker(Name));
  Tool.run(Opts);
  SuiteResult R;
  raw_string_ostream OS(R.Rendered);
  Tool.reports().print(OS, RankPolicy::Generic);
  R.Stats = Tool.metrics();
  return R;
}

/// Every counter of \p S except the dispatch telemetry, which legitimately
/// differs between the two modes: the index.* counters and each checker's
/// transitions.tried (the matcher calls the index exists to avoid). All the
/// rest reflects transition firings and traversal decisions and must match.
MetricsSnapshot maskIndexCounters(const MetricsSnapshot &S) {
  MetricsSnapshot Kept;
  for (const auto &[Name, Value] : S) {
    std::string_view N = Name;
    if (N.starts_with("index.") ||
        (N.starts_with("checker.") && N.ends_with(".transitions.tried")))
      continue;
    Kept.add(N, Value);
  }
  return Kept;
}

class PatternIndexProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PatternIndexProperty, BuiltinSuiteIndexedEqualsNaive) {
  MiniKernel MK = miniKernel(50, GetParam());
  std::vector<std::string> All = builtinCheckerNames();
  EngineOptions On, Off;
  Off.EnableDispatchIndex = false;
  SuiteResult A = runSuite(MK.Source, All, On);
  SuiteResult B = runSuite(MK.Source, All, Off);
  EXPECT_EQ(A.Rendered, B.Rendered);
  EXPECT_EQ(maskIndexCounters(A.Stats), maskIndexCounters(B.Stats));
  // The index actually did something on this corpus.
  EXPECT_GT(A.Stats.value("index.points.lookups") +
                A.Stats.value("index.blocks.skipped"),
            0u);
}

TEST_P(PatternIndexProperty, DiamondCorpusIndexedEqualsNaive) {
  std::string Source = diamondCorpus(4, 6, /*SeedBugs=*/true);
  std::vector<std::string> Suite = {"free", "lock", "null"};
  EngineOptions On, Off;
  Off.EnableDispatchIndex = false;
  // Vary the traversal shape with the seed so the sweep is not one run.
  On.MaxPathLength = Off.MaxPathLength = 256 + unsigned(GetParam() % 7) * 64;
  SuiteResult A = runSuite(Source, Suite, On);
  SuiteResult B = runSuite(Source, Suite, Off);
  EXPECT_EQ(A.Rendered, B.Rendered);
  EXPECT_EQ(maskIndexCounters(A.Stats), maskIndexCounters(B.Stats));
}

TEST_P(PatternIndexProperty, MultiJobsByteIdenticalWithIndexOn) {
  MiniKernel MK = miniKernel(40, GetParam());
  std::vector<std::string> Suite = {"free", "lock"};
  EngineOptions Base;
  Base.Jobs = 1;
  SuiteResult Serial = runSuite(MK.Source, Suite, Base);
  for (unsigned Jobs : {2u, 4u, 8u}) {
    EngineOptions Opts;
    Opts.Jobs = Jobs;
    SuiteResult Sharded = runSuite(MK.Source, Suite, Opts);
    EXPECT_EQ(Serial.Rendered, Sharded.Rendered) << "jobs=" << Jobs;
    EXPECT_EQ(maskIndexCounters(Serial.Stats),
              maskIndexCounters(Sharded.Stats))
        << "jobs=" << Jobs;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PatternIndexProperty,
                         ::testing::Values(1, 7, 42, 1234, 99991));

/// An example (non-builtin) metal checker with global states, $end_of_path$
/// and any-arguments holes — the shapes the discriminator must route to the
/// right buckets.
const char *ExampleChecker = R"metal(
sm no_sleep_in_atomic;
decl any_arguments args;

start:
  { cli() } ==> atomic
| { disable_irqs() } ==> atomic
;

atomic:
  { sti() } ==> start
| { enable_irqs() } ==> start
| { sleep_alloc(args) } ==> atomic,
    { err("blocking sleep_alloc() call while interrupts are disabled"); }
| $end_of_path$ ==> atomic, { err("interrupts never re-enabled"); }
;
)metal";

TEST(PatternIndexExampleChecker, IndexedEqualsNaive) {
  // Generated atomic-section corpus with seeded violations.
  Lcg Rng(7);
  std::string Source = "void cli(void); void sti(void);\n"
                       "void disable_irqs(void); void enable_irqs(void);\n"
                       "void *sleep_alloc(int n); int work(int x);\n";
  for (unsigned F = 0; F != 40; ++F) {
    std::string N = std::to_string(F);
    Source += "int fn" + N + "(int x) {\n";
    bool Atomic = Rng.chance(60);
    if (Atomic)
      Source += Rng.chance(50) ? "  cli();\n" : "  disable_irqs();\n";
    for (unsigned L = 0; L != 4; ++L)
      Source += Rng.chance(25) ? "  sleep_alloc(x);\n"
                               : "  x = work(x + " + std::to_string(L) + ");\n";
    if (Atomic && Rng.chance(70))
      Source += Rng.chance(50) ? "  sti();\n" : "  enable_irqs();\n";
    Source += "  return x;\n}\n";
  }

  auto Run = [&](bool Index) {
    XgccTool Tool;
    EXPECT_TRUE(Tool.addSource("irq.c", Source));
    EXPECT_TRUE(Tool.addMetalChecker(ExampleChecker, "no_sleep"));
    EngineOptions Opts;
    Opts.EnableDispatchIndex = Index;
    Tool.run(Opts);
    SuiteResult R;
    raw_string_ostream OS(R.Rendered);
    Tool.reports().print(OS, RankPolicy::Generic);
    R.Stats = Tool.metrics();
    return R;
  };

  SuiteResult A = Run(true);
  SuiteResult B = Run(false);
  EXPECT_FALSE(A.Rendered.empty());
  EXPECT_EQ(A.Rendered, B.Rendered);
  EXPECT_EQ(maskIndexCounters(A.Stats), maskIndexCounters(B.Stats));
}

//===----------------------------------------------------------------------===//
// PatternDiscriminator unit tests
//===----------------------------------------------------------------------===//

constexpr uint64_t bit(Stmt::StmtKind K) { return 1ull << unsigned(K); }

/// Parses a one-state metal checker and hands back its start transitions'
/// patterns for direct discriminator inspection.
class DiscriminatorTest : public ::testing::Test {
protected:
  std::unique_ptr<CheckerSpec> parse(const std::string &Body) {
    SourceManager SM;
    DiagnosticEngine Diags(SM, &errs());
    auto Spec = parseMetal("sm t;\nstate decl any_pointer v;\n"
                           "decl any_arguments args;\n"
                           "decl any_expr e;\n\nstart:\n" +
                               Body + "\n;\n",
                           "<test>", SM, Diags);
    EXPECT_NE(Spec, nullptr);
    return Spec;
  }

  PatternDiscriminator discOf(const std::string &Rule) {
    auto Spec = parse(Rule);
    if (!Spec || Spec->Blocks.empty() || Spec->Blocks[0].Transitions.empty())
      return PatternDiscriminator::never();
    PatternDiscriminator D =
        PatternDiscriminator::of(*Spec->Blocks[0].Transitions[0].Pat);
    Specs.push_back(std::move(Spec)); // keep the pattern ASTs alive
    return D;
  }

  std::vector<std::unique_ptr<CheckerSpec>> Specs;
};

TEST_F(DiscriminatorTest, NamedCallFiltersOnCallee) {
  PatternDiscriminator D = discOf("  { kfree(v) } ==> v.stop");
  ASSERT_EQ(D.Kind, PatternDiscriminator::Filtered);
  EXPECT_TRUE(D.KindMask & bit(Stmt::SK_Call));
  EXPECT_FALSE(D.AnyCallee);
  ASSERT_EQ(D.Callees.size(), 1u);
  EXPECT_EQ(D.Callees[0], "kfree");
}

TEST_F(DiscriminatorTest, DerefFiltersOnUnaryKind) {
  PatternDiscriminator D = discOf("  { *v } ==> v.stop");
  ASSERT_EQ(D.Kind, PatternDiscriminator::Filtered);
  EXPECT_TRUE(D.KindMask & bit(Stmt::SK_Unary));
  EXPECT_FALSE(D.KindMask & bit(Stmt::SK_Call));
}

TEST_F(DiscriminatorTest, OrUnitesAlternatives) {
  PatternDiscriminator D =
      discOf("  { kfree(v) } || { *v } ==> v.stop");
  ASSERT_EQ(D.Kind, PatternDiscriminator::Filtered);
  EXPECT_TRUE(D.KindMask & bit(Stmt::SK_Call));
  EXPECT_TRUE(D.KindMask & bit(Stmt::SK_Unary));
  ASSERT_EQ(D.Callees.size(), 1u);
  EXPECT_EQ(D.Callees[0], "kfree");
}

TEST_F(DiscriminatorTest, BareHoleIsWideButFiltered) {
  // An untyped hole accepts any expression kind but never a plain
  // statement point, so it still filters (expression-kind mask).
  PatternDiscriminator D = discOf("  { e } ==> v.stop");
  ASSERT_EQ(D.Kind, PatternDiscriminator::Filtered);
  EXPECT_EQ(D.KindMask, PatternDiscriminator::anyExprMask());
  EXPECT_TRUE(D.AnyCallee);
}

TEST_F(DiscriminatorTest, CalloutMustAlwaysTry) {
  PatternDiscriminator D =
      discOf("  { kfree(v) } && ${ mc_in_function(\"f\") } ==> v.stop");
  // && with a callout keeps the syntactic side's filter.
  ASSERT_EQ(D.Kind, PatternDiscriminator::Filtered);
  ASSERT_EQ(D.Callees.size(), 1u);
  EXPECT_EQ(D.Callees[0], "kfree");
}

TEST_F(DiscriminatorTest, EndOfPathNeverDispatchesAtPoints) {
  auto P = Pattern::makeEndOfPath();
  EXPECT_EQ(PatternDiscriminator::of(*P).Kind, PatternDiscriminator::Never);
}

TEST(DiscriminatorAlgebra, UniteAndIntersect) {
  PatternDiscriminator CallA{PatternDiscriminator::Filtered,
                             bit(Stmt::SK_Call), false, {"a"}};
  PatternDiscriminator CallB{PatternDiscriminator::Filtered,
                             bit(Stmt::SK_Call), false, {"b"}};
  PatternDiscriminator Unary{PatternDiscriminator::Filtered,
                             bit(Stmt::SK_Unary), false, {}};

  // Never is the unite identity; AlwaysTry absorbs.
  EXPECT_EQ(PatternDiscriminator::unite(PatternDiscriminator::never(), CallA)
                .Callees,
            CallA.Callees);
  EXPECT_EQ(PatternDiscriminator::unite(PatternDiscriminator::always(), CallA)
                .Kind,
            PatternDiscriminator::AlwaysTry);

  // Unite merges callee sets and kind masks.
  PatternDiscriminator U = PatternDiscriminator::unite(CallA, CallB);
  ASSERT_EQ(U.Kind, PatternDiscriminator::Filtered);
  EXPECT_EQ(U.Callees.size(), 2u);

  // AlwaysTry is the intersect identity.
  EXPECT_EQ(
      PatternDiscriminator::intersect(PatternDiscriminator::always(), Unary)
          .KindMask,
      Unary.KindMask);

  // Disjoint callee sets: no call point satisfies both conjuncts, and with
  // no other kind in the mask the conjunction can never match.
  PatternDiscriminator I = PatternDiscriminator::intersect(CallA, CallB);
  EXPECT_EQ(I.Kind, PatternDiscriminator::Never);

  // Disjoint kind masks intersect to Never too.
  EXPECT_EQ(PatternDiscriminator::intersect(CallA, Unary).Kind,
            PatternDiscriminator::Never);
}

//===----------------------------------------------------------------------===//
// DispatchIndex lookup ordering
//===----------------------------------------------------------------------===//

TEST(DispatchIndexLookup, CandidatesComeBackInDeclarationOrder) {
  SourceManager SM;
  DiagnosticEngine Diags(SM, &errs());
  auto Spec = parseMetal("sm t;\nstate decl any_pointer v;\n"
                         "decl any_expr e;\n\nstart:\n"
                         "  { kfree(v) } ==> v.stop\n"
                         "| { e } ==> v.stop\n"
                         "| { kfree(v) } ==> v.stop\n"
                         ";\n",
                         "<test>", SM, Diags);
  ASSERT_NE(Spec, nullptr);
  ASSERT_EQ(Spec->Blocks.size(), 1u);
  ASSERT_EQ(Spec->Blocks[0].Transitions.size(), 3u);

  DispatchIndex Idx;
  // File them across two logical blocks to exercise the packed-ref order.
  Idx.add(0, 0, *Spec->Blocks[0].Transitions[0].Pat);
  Idx.add(0, 1, *Spec->Blocks[0].Transitions[1].Pat);
  Idx.add(1, 0, *Spec->Blocks[0].Transitions[2].Pat);
  Idx.seal();
  EXPECT_EQ(Idx.transitionCount(), 3u);

  // A kfree(...) call point: all three transitions are candidates, in
  // ascending (block, transition) order.
  ASTContext Ctx;
  unsigned ID = SM.addBuffer(
      "probe.c", "int kfree(void *p); int *ip;\n"
                 "int probe(void) { return (int)(kfree(ip)); }\n");
  Parser P(Ctx, SM, Diags, ID);
  ASSERT_TRUE(P.parseTranslationUnit());
  const auto *Ret =
      cast<ReturnStmt>(Ctx.findFunction("probe")->body()->body()[0]);
  const Expr *Call = cast<CastExpr>(Ret->value())->sub();
  ASSERT_EQ(Call->kind(), Stmt::SK_Call);

  DispatchIndex::CandidateList Cands;
  Idx.lookup(Call, Cands);
  ASSERT_EQ(Cands.size(), 3u);
  EXPECT_EQ(Cands[0], DispatchIndex::makeRef(0, 0));
  EXPECT_EQ(Cands[1], DispatchIndex::makeRef(0, 1));
  EXPECT_EQ(Cands[2], DispatchIndex::makeRef(1, 0));
  EXPECT_TRUE(Idx.mayMatch(Call));
}

//===----------------------------------------------------------------------===//
// Duplicate checker registration (regression: both used to run silently)
//===----------------------------------------------------------------------===//

TEST(DuplicateCheckers, SecondRegistrationIsDropped) {
  const char *Source = "void kfree(void *p);\n"
                       "int f(int *p) { kfree(p); return *p; }\n";
  XgccTool Tool;
  ASSERT_TRUE(Tool.addSource("d.c", Source));
  EXPECT_TRUE(Tool.addBuiltinChecker("free"));
  // Same builtin again, and the same source under --metal-style compile:
  // both are duplicates by checker name.
  EXPECT_FALSE(Tool.addBuiltinChecker("free"));
  EXPECT_FALSE(Tool.addMetalChecker(builtinCheckerSource("free"), "dup"));
  EXPECT_EQ(Tool.checkers().size(), 1u);

  Tool.run();
  // One checker, one report — not two copies of it.
  EXPECT_EQ(Tool.reports().size(), 1u);
}

} // namespace
