//===- tests/checkers_test.cpp - Stock checker behaviour ----------------------===//
//
// Part of the metal/xgcc reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "checkers/NativeCheckers.h"

using namespace mc;
using namespace mc::test;

namespace {

const char *LockDecls =
    "int trylock(int *l); void lock(int *l); void unlock(int *l);\n";

//===----------------------------------------------------------------------===//
// Lock checker (Figure 3)
//===----------------------------------------------------------------------===//

TEST(LockChecker, BalancedPairIsClean) {
  auto Msgs = runBuiltin("lock", std::string(LockDecls) +
                                     "int f(int *l) { lock(l); unlock(l); return 0; }");
  EXPECT_TRUE(Msgs.empty());
}

TEST(LockChecker, MissingReleaseOnEarlyReturn) {
  auto Msgs = runBuiltin("lock", std::string(LockDecls) +
                                     "int f(int *l, int x) {\n"
                                     "  lock(l);\n"
                                     "  if (x) return 1;\n"
                                     "  unlock(l);\n"
                                     "  return 0;\n"
                                     "}");
  ASSERT_EQ(Msgs.size(), 1u);
  EXPECT_EQ(Msgs[0], "lock l never released!");
}

TEST(LockChecker, DoubleAcquire) {
  auto Msgs = runBuiltin("lock", std::string(LockDecls) +
                                     "int f(int *l) { lock(l); lock(l); unlock(l); return 0; }");
  EXPECT_TRUE(anyContains(Msgs, "double acquire of lock l!"));
}

TEST(LockChecker, ReleaseWithoutAcquire) {
  auto Msgs = runBuiltin("lock", std::string(LockDecls) +
                                     "int f(int *l) { unlock(l); return 0; }");
  ASSERT_EQ(Msgs.size(), 1u);
  EXPECT_EQ(Msgs[0], "releasing unacquired lock l!");
}

TEST(LockChecker, TrylockPathSpecific) {
  // Acquired only on the true branch — no false positives either way.
  auto Msgs = runBuiltin("lock", std::string(LockDecls) +
                                     "int f(int *l) {\n"
                                     "  if (trylock(l)) {\n"
                                     "    unlock(l);\n"
                                     "    return 1;\n"
                                     "  }\n"
                                     "  return 0;\n"
                                     "}");
  EXPECT_TRUE(Msgs.empty());
}

TEST(LockChecker, TrylockTrueBranchMustRelease) {
  auto Msgs = runBuiltin("lock", std::string(LockDecls) +
                                     "int f(int *l) {\n"
                                     "  if (trylock(l))\n"
                                     "    return 1;\n" // forgot unlock
                                     "  return 0;\n"
                                     "}");
  ASSERT_EQ(Msgs.size(), 1u);
  EXPECT_EQ(Msgs[0], "lock l never released!");
}

TEST(LockChecker, TrylockFalseBranchReleaseIsBogus) {
  auto Msgs = runBuiltin("lock", std::string(LockDecls) +
                                     "int f(int *l) {\n"
                                     "  if (trylock(l) == 0) {\n"
                                     "    unlock(l);\n" // not held here!
                                     "    return 0;\n"
                                     "  }\n"
                                     "  unlock(l);\n"
                                     "  return 1;\n"
                                     "}");
  EXPECT_TRUE(anyContains(Msgs, "releasing unacquired lock"));
}

TEST(LockChecker, TwoLocksTrackedIndependently) {
  auto Msgs = runBuiltin("lock", std::string(LockDecls) +
                                     "int f(int *a, int *b) {\n"
                                     "  lock(a);\n"
                                     "  lock(b);\n"
                                     "  unlock(b);\n"
                                     "  return 0;\n" // a leaks
                                     "}");
  ASSERT_EQ(Msgs.size(), 1u);
  EXPECT_EQ(Msgs[0], "lock a never released!");
}

//===----------------------------------------------------------------------===//
// Null checker
//===----------------------------------------------------------------------===//

const char *AllocDecls = "void *kmalloc(int n);\n";

TEST(NullChecker, UncheckedDereference) {
  auto Msgs = runBuiltin("null", std::string(AllocDecls) +
                                     "int f(int n) { int *p; p = kmalloc(n); return *p; }");
  ASSERT_EQ(Msgs.size(), 1u);
  EXPECT_TRUE(Msgs[0].find("may be NULL") != std::string::npos);
}

TEST(NullChecker, CheckedDereferenceIsClean) {
  auto Msgs = runBuiltin("null", std::string(AllocDecls) +
                                     "int f(int n) {\n"
                                     "  int *p;\n"
                                     "  p = kmalloc(n);\n"
                                     "  if (!p) return -1;\n"
                                     "  return *p;\n"
                                     "}");
  EXPECT_TRUE(Msgs.empty());
}

TEST(NullChecker, DereferenceOnNullBranch) {
  auto Msgs = runBuiltin("null", std::string(AllocDecls) +
                                     "int f(int n) {\n"
                                     "  int *p;\n"
                                     "  p = kmalloc(n);\n"
                                     "  if (p == 0)\n"
                                     "    return *p;\n" // deref of NULL
                                     "  return 0;\n"
                                     "}");
  ASSERT_EQ(Msgs.size(), 1u);
  EXPECT_TRUE(Msgs[0].find("NULL pointer") != std::string::npos);
}

TEST(NullChecker, PositiveCheckStopsTracking) {
  auto Msgs = runBuiltin("null", std::string(AllocDecls) +
                                     "int f(int n) {\n"
                                     "  int *p;\n"
                                     "  p = kmalloc(n);\n"
                                     "  if (p) return *p;\n"
                                     "  return 0;\n"
                                     "}");
  EXPECT_TRUE(Msgs.empty());
}

//===----------------------------------------------------------------------===//
// Interrupt checker (global state)
//===----------------------------------------------------------------------===//

const char *IntrDecls = "void cli(void); void sti(void);\n";

TEST(IntrChecker, BalancedIsClean) {
  auto Msgs = runBuiltin("intr", std::string(IntrDecls) +
                                     "void f(void) { cli(); sti(); }");
  EXPECT_TRUE(Msgs.empty());
}

TEST(IntrChecker, ExitWithInterruptsDisabled) {
  auto Msgs = runBuiltin("intr", std::string(IntrDecls) +
                                     "void f(int x) { cli(); if (x) return; sti(); }");
  ASSERT_EQ(Msgs.size(), 1u);
  EXPECT_EQ(Msgs[0], "exiting with interrupts disabled!");
}

TEST(IntrChecker, DoubleDisable) {
  auto Msgs = runBuiltin("intr", std::string(IntrDecls) +
                                     "void f(void) { cli(); cli(); sti(); }");
  EXPECT_TRUE(anyContains(Msgs, "double disable of interrupts"));
}

TEST(IntrChecker, GlobalStateCrossesCalls) {
  auto Msgs = runBuiltin("intr", std::string(IntrDecls) +
                                     "void helper(void) { sti(); }\n"
                                     "void top(void) { cli(); helper(); }");
  EXPECT_TRUE(Msgs.empty()); // helper re-enables: balanced end-to-end
}

TEST(IntrChecker, DisabledInCalleeLeaks) {
  auto Msgs = runBuiltin("intr", std::string(IntrDecls) +
                                     "void helper(void) { cli(); }\n"
                                     "void top(void) { helper(); }");
  ASSERT_EQ(Msgs.size(), 1u);
  EXPECT_EQ(Msgs[0], "exiting with interrupts disabled!");
}

//===----------------------------------------------------------------------===//
// User-pointer (SECURITY annotation)
//===----------------------------------------------------------------------===//

TEST(UserPointerChecker, TaintedDerefIsSecurityClass) {
  auto Reports = runBuiltinReports(
      "user_pointer", "void *get_user_ptr(int which);\n"
                      "int copyin(void *p, int n);\n"
                      "int f(int w) {\n"
                      "  int *u;\n"
                      "  u = get_user_ptr(w);\n"
                      "  return *u;\n"
                      "}");
  ASSERT_EQ(Reports.size(), 1u);
  EXPECT_EQ(Reports[0].Annotation, "SECURITY");
  EXPECT_EQ(Reports[0].severityClass(), 0);
}

TEST(UserPointerChecker, CopyinSanitizes) {
  auto Msgs = runBuiltin("user_pointer",
                         "void *get_user_ptr(int which);\n"
                         "int copyin(void *p, int n);\n"
                         "int f(int w) {\n"
                         "  int *u;\n"
                         "  u = get_user_ptr(w);\n"
                         "  copyin(u, 4);\n"
                         "  return *u;\n"
                         "}");
  EXPECT_TRUE(Msgs.empty());
}

//===----------------------------------------------------------------------===//
// Path-kill composition
//===----------------------------------------------------------------------===//

TEST(PathKill, PanicSuppressesDownstreamReports) {
  // Composition: run path_kill first, then free; the path dominated by
  // panic() must not report.
  std::string Source = "void kfree(void *p); void panic(char *msg);\n"
                       "int f(int *p, int c) {\n"
                       "  kfree(p);\n"
                       "  if (c) {\n"
                       "    panic(\"bad state\");\n"
                       "    return *p;\n" // unreachable in practice
                       "  }\n"
                       "  return 0;\n"
                       "}";
  XgccTool T;
  ASSERT_TRUE(T.addSource("t.c", Source));
  ASSERT_TRUE(T.addBuiltinChecker("path_kill"));
  ASSERT_TRUE(T.addBuiltinChecker("free"));
  T.run(EngineOptions());
  EXPECT_EQ(T.reports().size(), 0u);
}

TEST(PathKill, WithoutCompositionTheReportAppears) {
  std::string Source = "void kfree(void *p); void panic(char *msg);\n"
                       "int f(int *p, int c) {\n"
                       "  kfree(p);\n"
                       "  if (c) {\n"
                       "    panic(\"bad state\");\n"
                       "    return *p;\n"
                       "  }\n"
                       "  return 0;\n"
                       "}";
  auto Msgs = runBuiltin("free", Source);
  EXPECT_EQ(Msgs.size(), 1u);
}

//===----------------------------------------------------------------------===//
// Native free checker (C++ API)
//===----------------------------------------------------------------------===//

TEST(NativeFree, MatchesMetalBehaviour) {
  const char *Source = "void kfree(void *p);\n"
                       "int f(int *p) {\n"
                       "  int *q;\n"
                       "  kfree(p);\n"
                       "  q = p;\n"
                       "  return *q;\n"
                       "}";
  // Metal version:
  auto MetalMsgs = runBuiltin("free", Source);
  // Native version:
  XgccTool T;
  ASSERT_TRUE(T.addSource("t.c", Source));
  T.addChecker(std::make_unique<NativeFreeChecker>());
  T.run(EngineOptions());
  ASSERT_EQ(T.reports().size(), MetalMsgs.size());
  EXPECT_TRUE(T.reports().reports()[0].Message.find("after free") !=
              std::string::npos);
}

TEST(NativeFree, DoubleFree) {
  XgccTool T;
  ASSERT_TRUE(T.addSource("t.c", "void kfree(void *p);\n"
                                 "void f(int *p) { kfree(p); kfree(p); }"));
  T.addChecker(std::make_unique<NativeFreeChecker>());
  T.run(EngineOptions());
  ASSERT_EQ(T.reports().size(), 1u);
  EXPECT_TRUE(T.reports().reports()[0].Message.find("double free") !=
              std::string::npos);
}

//===----------------------------------------------------------------------===//
// Pair inference ("bugs as deviant behaviour")
//===----------------------------------------------------------------------===//

TEST(PairInference, LearnsLockUnlockAndFindsViolations) {
  // 6 functions pair spin_lock/spin_unlock correctly, 1 violates.
  std::string Source = "void spin_lock(int *l); void spin_unlock(int *l);\n";
  for (int I = 0; I < 6; ++I)
    Source += "void ok" + std::to_string(I) +
              "(int *l) { spin_lock(l); spin_unlock(l); }\n";
  Source += "void buggy(int *l) { spin_lock(l); }\n";

  XgccTool T;
  ASSERT_TRUE(T.addSource("t.c", Source));
  T.finalize();

  auto Checker = std::make_unique<PairInferenceChecker>();
  PairInferenceChecker *PI = Checker.get();
  T.addChecker(std::move(Checker));
  // Pass 1: learn.
  PI->setMode(PairInferenceChecker::Mode::Learn);
  T.run();
  const auto &Rules = PI->inferRules(/*MinZ=*/1.0);
  ASSERT_TRUE(Rules.count("spin_lock"));
  EXPECT_EQ(Rules.at("spin_lock"), "spin_unlock");
  // Pass 2: check.
  PI->setMode(PairInferenceChecker::Mode::Check);
  T.run();
  ASSERT_EQ(T.reports().size(), 1u);
  EXPECT_EQ(T.reports().reports()[0].FunctionName, "buggy");
  EXPECT_TRUE(T.reports().reports()[0].Message.find("missing spin_unlock") !=
              std::string::npos);
  // The rule has many examples, one violation: strongly positive z.
  EXPECT_GT(T.reports().ruleZ("spin_lock->spin_unlock"), 1.0);
}

TEST(PairInference, NoRuleForRandomPairs) {
  // a() and b() co-occur half the time: no rule should be inferred.
  std::string Source = "void a(int *p); void b(int *p); void c(int *p);\n";
  Source += "void f0(int *p) { a(p); b(p); }\n";
  Source += "void f1(int *p) { a(p); c(p); }\n";
  Source += "void f2(int *p) { a(p); }\n";
  Source += "void f3(int *p) { a(p); }\n";

  XgccTool T;
  ASSERT_TRUE(T.addSource("t.c", Source));
  T.finalize();
  auto Checker = std::make_unique<PairInferenceChecker>();
  PairInferenceChecker *PI = Checker.get();
  T.addChecker(std::move(Checker));
  PI->setMode(PairInferenceChecker::Mode::Learn);
  T.run();
  EXPECT_TRUE(PI->inferRules(/*MinZ=*/1.0).empty());
}

} // namespace

//===----------------------------------------------------------------------===//
// IntraLockChecker (the Section 9 "Ranking code" baseline)
//===----------------------------------------------------------------------===//

namespace {

TEST(IntraLock, BalancedPairsCountExamples) {
  XgccTool T;
  ASSERT_TRUE(T.addSource("t.c", "void lock(int *l); void unlock(int *l);\n"
                                 "int f(int *l) {\n"
                                 "  lock(l); unlock(l);\n"
                                 "  lock(l); unlock(l);\n"
                                 "  return 0;\n"
                                 "}"));
  T.addChecker(std::make_unique<IntraLockChecker>());
  EngineOptions Opts;
  Opts.Interprocedural = false;
  T.run(Opts);
  EXPECT_EQ(T.reports().size(), 0u);
  ASSERT_TRUE(T.reports().rules().count("f"));
  EXPECT_EQ(T.reports().rules().at("f").Examples, 2u);
  EXPECT_EQ(T.reports().rules().at("f").Counterexamples, 0u);
}

TEST(IntraLock, WrapperFunctionsScoreNegativeZ) {
  XgccTool T;
  ASSERT_TRUE(T.addSource("t.c", "void lock(int *l);\n"
                                 "void grab(int *l) { lock(l); }"));
  T.addChecker(std::make_unique<IntraLockChecker>());
  EngineOptions Opts;
  Opts.Interprocedural = false;
  T.run(Opts);
  ASSERT_EQ(T.reports().size(), 1u);
  EXPECT_LT(T.reports().ruleZ("grab"), 0.0);
}

TEST(IntraLock, SemaphoreStyleAliasesRecognized) {
  // up/down are the Linux semaphore spellings the paper discusses.
  XgccTool T;
  ASSERT_TRUE(T.addSource("t.c", "void down(int *s); void up(int *s);\n"
                                 "int f(int *s, int c) {\n"
                                 "  down(s);\n"
                                 "  if (c)\n"
                                 "    return -1;\n"
                                 "  up(s);\n"
                                 "  return 0;\n"
                                 "}"));
  T.addChecker(std::make_unique<IntraLockChecker>());
  EngineOptions Opts;
  Opts.Interprocedural = false;
  T.run(Opts);
  ASSERT_EQ(T.reports().size(), 1u);
  EXPECT_TRUE(T.reports().reports()[0].Message.find("never released") !=
              std::string::npos);
}

} // namespace
