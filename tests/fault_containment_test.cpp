//===- tests/fault_containment_test.cpp - Fault boundary tests ----------------===//
//
// Part of the metal/xgcc reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The fault-containment contract: no fault crosses a root boundary. A
// checker fault quarantines exactly its root (other roots' reports are
// byte-identical to a fault-free run); a root that blows its deadline or
// path budget walks the degradation ladder and still yields a result; the
// incomplete-analysis trailer is byte-identical at every job count; and
// with the valves armed but never tripped, output is byte-identical to a
// run without them.
//
//===----------------------------------------------------------------------===//

#include "checkers/FaultInjector.h"
#include "driver/Tool.h"
#include "support/RawOstream.h"

#include "gtest/gtest.h"

#include <memory>
#include <string>
#include <vector>

using namespace mc;

namespace {

/// N root functions, each calling bad_call(p) once (the injector's
/// reporting rule). Roots whose index is in \p FaultyEvery's residue class
/// also call inject_fault(p) first, so the injector misbehaves there.
std::string corpus(unsigned Roots, unsigned FaultyEvery) {
  std::string S = "int ok(int x);\n"
                  "void bad_call(void *p);\n"
                  "void inject_fault(void *p);\n";
  for (unsigned I = 0; I != Roots; ++I) {
    std::string T = std::to_string(I);
    S += "int fn" + T + "(int *p, int a) {\n"
         "  a = ok(a + " + T + ");\n";
    if (FaultyEvery && I % FaultyEvery == 0)
      S += "  inject_fault(p);\n";
    S += "  bad_call(p);\n"
         "  a = ok(a);\n"
         "  return a;\n}\n";
  }
  return S;
}

struct Snapshot {
  std::string Rendered; ///< print() output including any trailer.
  MetricsSnapshot Stats;
  std::vector<RootIncident> Incidents;
};

Snapshot runInjector(const std::string &Source, FaultInjectorChecker::Mode M,
                     EngineOptions Opts, unsigned SleepMs = 100,
                     unsigned GrowthPerHit = 1u << 17) {
  XgccTool Tool;
  EXPECT_TRUE(Tool.addSource("fault.c", Source));
  Tool.addChecker(std::make_unique<FaultInjectorChecker>(
      M, "inject_fault", SleepMs, GrowthPerHit));
  Tool.run(Opts);
  Snapshot Snap;
  raw_string_ostream OS(Snap.Rendered);
  Tool.reports().print(OS, RankPolicy::Generic);
  Snap.Stats = Tool.metrics();
  Snap.Incidents = Tool.reports().incidents();
  return Snap;
}

TEST(FaultContainment, QuarantineIsolatesCheckerFault) {
  // 8 roots; fn0 and fn4 trigger a checker fault before their bad_call.
  std::string Faulty = corpus(8, 4);
  EngineOptions Opts;
  Snapshot Got = runInjector(Faulty, FaultInjectorChecker::Mode::Fault, Opts);

  // The run completed and exactly the two faulting roots were quarantined,
  // recorded in serial root order.
  ASSERT_EQ(Got.Incidents.size(), 2u);
  EXPECT_EQ(Got.Incidents[0].Root, "fn0");
  EXPECT_EQ(Got.Incidents[1].Root, "fn4");
  for (const RootIncident &I : Got.Incidents) {
    EXPECT_TRUE(I.Quarantined);
    EXPECT_EQ(I.Checker, "fault_injector");
    EXPECT_EQ(I.Reason, "injected checker fault");
  }
  EXPECT_EQ(Got.Stats.value("ladder.roots.quarantined"), 2u);
  EXPECT_EQ(Got.Stats.value("ladder.roots.degraded"), 0u);
  // A checker fault never walks the ladder: retrying re-executes the bug.
  EXPECT_EQ(Got.Stats.value("ladder.retries"), 0u);

  // The other 6 roots' reports are exactly those of a fault-free run over
  // the same source (the quarantined roots' buffered reports discarded).
  XgccTool FaultTool, CleanTool;
  ASSERT_TRUE(FaultTool.addSource("fault.c", Faulty));
  ASSERT_TRUE(CleanTool.addSource("fault.c", Faulty));
  FaultTool.addChecker(
      std::make_unique<FaultInjectorChecker>(FaultInjectorChecker::Mode::Fault));
  CleanTool.addChecker(
      std::make_unique<FaultInjectorChecker>(FaultInjectorChecker::Mode::None));
  FaultTool.run(Opts);
  CleanTool.run(Opts);
  const std::vector<ErrorReport> &Clean = CleanTool.reports().reports();
  const std::vector<ErrorReport> &Fault = FaultTool.reports().reports();
  ASSERT_EQ(Clean.size(), 8u);
  ASSERT_EQ(Fault.size(), 6u);
  size_t FI = 0;
  for (const ErrorReport &R : Clean) {
    if (R.FunctionName == "fn0" || R.FunctionName == "fn4")
      continue; // quarantined
    ASSERT_LT(FI, Fault.size());
    EXPECT_EQ(Fault[FI].FunctionName, R.FunctionName);
    EXPECT_EQ(Fault[FI].Line, R.Line);
    EXPECT_EQ(Fault[FI].Message, R.Message);
    EXPECT_EQ(Fault[FI].ErrorLoc, R.ErrorLoc);
    ++FI;
  }
  EXPECT_EQ(FI, Fault.size());
}

TEST(FaultContainment, TrailerByteIdenticalAcrossJobs) {
  std::string Faulty = corpus(12, 5); // fn0, fn5, fn10 fault
  Snapshot Ref;
  for (unsigned Jobs : {1u, 2u, 8u}) {
    EngineOptions Opts;
    Opts.Jobs = Jobs;
    Snapshot S = runInjector(Faulty, FaultInjectorChecker::Mode::Fault, Opts);
    EXPECT_NE(S.Rendered.find("analysis incomplete: 3 root(s) quarantined"),
              std::string::npos);
    if (Jobs == 1) {
      Ref = S;
      continue;
    }
    // Full rendered output — ranked reports AND trailer — byte-identical,
    // and the outcome counters deterministic, at every job count.
    EXPECT_EQ(S.Rendered, Ref.Rendered) << "jobs=" << Jobs;
    EXPECT_TRUE(S.Incidents == Ref.Incidents) << "jobs=" << Jobs;
    for (const char *Name : {"ladder.roots.quarantined",
                             "ladder.roots.degraded", "ladder.retries"})
      EXPECT_EQ(S.Stats.value(Name), Ref.Stats.value(Name))
          << Name << " jobs=" << Jobs;
  }
}

TEST(FaultContainment, DeadlineDegradesToIntraprocedural) {
  // The slow callout hides behind an interprocedural call: stage 1 of the
  // ladder (interprocedural off) never reaches it, so the root degrades
  // once and its direct bad_call report survives.
  // The branch after the slow call matters: the deadline flag is polled
  // cooperatively at block entry, so the root needs blocks left to traverse
  // once the callout returns.
  std::string S = "void bad_call(void *p);\n"
                  "void inject_fault(void *p);\n"
                  "int slow_helper(int *p) { inject_fault(p); return 1; }\n"
                  "int fast_root(int *p, int a) {\n"
                  "  bad_call(p);\n"
                  "  a = slow_helper(p);\n"
                  "  if (a) { a += 1; } else { a -= 1; }\n"
                  "  return a;\n"
                  "}\n";
  EngineOptions Opts;
  Opts.Reporting.RootDeadlineMs = 20;
  Snapshot Got = runInjector(S, FaultInjectorChecker::Mode::SlowCallout, Opts,
                             /*SleepMs=*/200);
  ASSERT_EQ(Got.Incidents.size(), 1u);
  EXPECT_FALSE(Got.Incidents[0].Quarantined);
  EXPECT_EQ(Got.Incidents[0].Root, "fast_root");
  EXPECT_EQ(Got.Incidents[0].Stage, 1u);
  EXPECT_NE(Got.Incidents[0].Reason.find("deadline"), std::string::npos);
  EXPECT_EQ(Got.Stats.value("ladder.roots.degraded"), 1u);
  EXPECT_EQ(Got.Stats.value("ladder.retries"), 1u);
  EXPECT_GE(Got.Stats.value("engine.deadline.hits"), 1u);
  // The degraded (intraprocedural) result still carries the root's report.
  EXPECT_NE(Got.Rendered.find("call of bad_call"), std::string::npos);
  EXPECT_NE(Got.Rendered.find("degraded fast_root [fault_injector] (stage 1)"),
            std::string::npos);
}

TEST(FaultContainment, PathBudgetLadderReachesSkimStage) {
  // Plenty of paths (diamonds, caching off so each one is walked) and a
  // tiny root budget: stages 1 and 2 still abort; the stage 3 skim turns
  // the hard budget off and truncates instead, so the root lands degraded
  // at stage 3 with its report intact.
  std::string S = "void bad_call(void *p);\n"
                  "int many_paths(int *p, int a, int b, int c, int d) {\n"
                  "  bad_call(p);\n"
                  "  if (a) { b += 1; } else { b -= 1; }\n"
                  "  if (b) { c += 1; } else { c -= 1; }\n"
                  "  if (c) { d += 1; } else { d -= 1; }\n"
                  "  if (d) { a += 1; } else { a -= 1; }\n"
                  "  return a + b + c + d;\n}\n";
  EngineOptions Opts;
  Opts.EnableBlockCache = false;
  Opts.EnableFunctionSummaries = false;
  Opts.RootPathBudget = 3;
  for (unsigned Jobs : {1u, 4u}) {
    Opts.Jobs = Jobs;
    Snapshot Got =
        runInjector(S, FaultInjectorChecker::Mode::None, Opts);
    ASSERT_EQ(Got.Incidents.size(), 1u) << "jobs=" << Jobs;
    EXPECT_FALSE(Got.Incidents[0].Quarantined);
    EXPECT_EQ(Got.Incidents[0].Stage, 3u);
    EXPECT_NE(Got.Incidents[0].Reason.find("path budget"), std::string::npos);
    EXPECT_EQ(Got.Stats.value("ladder.retries"), 3u);
    EXPECT_NE(Got.Rendered.find("call of bad_call"), std::string::npos);
  }
}

TEST(FaultContainment, StateGrowthQuarantinesAfterLadder) {
  // Unbounded state growth is independent of the ladder's cost cuts: every
  // stage trips the valve again, so after kDegradationStages retries the
  // root is quarantined — deterministically at any job count.
  std::string Faulty = corpus(4, 2); // fn0, fn2 grow state
  EngineOptions Opts;
  Opts.MaxActiveStates = 1024;
  Snapshot Ref;
  for (unsigned Jobs : {1u, 4u}) {
    Opts.Jobs = Jobs;
    Snapshot Got = runInjector(Faulty, FaultInjectorChecker::Mode::StateGrowth,
                               Opts, /*SleepMs=*/0, /*GrowthPerHit=*/8192);
    ASSERT_EQ(Got.Incidents.size(), 2u);
    for (const RootIncident &I : Got.Incidents) {
      EXPECT_TRUE(I.Quarantined);
      EXPECT_NE(I.Reason.find("active-state limit"), std::string::npos);
    }
    EXPECT_EQ(Got.Stats.value("ladder.roots.quarantined"), 2u);
    EXPECT_EQ(Got.Stats.value("ladder.retries"), 2 * kDegradationStages);
    // The healthy roots fn1/fn3 still report.
    EXPECT_NE(Got.Rendered.find("in fn1:"), std::string::npos);
    EXPECT_NE(Got.Rendered.find("in fn3:"), std::string::npos);
    EXPECT_EQ(Got.Rendered.find("in fn0:"), std::string::npos);
    if (Jobs == 1)
      Ref = Got;
    else
      EXPECT_EQ(Got.Rendered, Ref.Rendered);
  }
}

TEST(FaultContainment, ArmedValvesChangeNothingWithoutFaults) {
  // All robustness valves on, none tripping: reports, trailer (absent) and
  // incident list byte-identical to the default configuration — at jobs 1
  // and sharded.
  std::string Clean = corpus(10, 0);
  for (unsigned Jobs : {1u, 4u}) {
    EngineOptions Plain;
    Plain.Jobs = Jobs;
    EngineOptions Armed = Plain;
    Armed.Reporting.RootDeadlineMs = 3600 * 1000;
    Armed.RootPathBudget = uint64_t(1) << 40;
    Snapshot A = runInjector(Clean, FaultInjectorChecker::Mode::None, Plain);
    Snapshot B = runInjector(Clean, FaultInjectorChecker::Mode::None, Armed);
    EXPECT_EQ(A.Rendered, B.Rendered) << "jobs=" << Jobs;
    EXPECT_TRUE(B.Incidents.empty());
    EXPECT_EQ(B.Stats.value("engine.deadline.hits"), 0u);
    EXPECT_EQ(B.Stats.value("ladder.roots.degraded"), 0u);
    EXPECT_EQ(B.Stats.value("ladder.roots.quarantined"), 0u);
    EXPECT_EQ(A.Rendered.find("analysis incomplete"), std::string::npos);
  }
}

TEST(FaultContainment, DegradedRootHandsAnnotationsToLaterCheckers) {
  // The 16 paths through spread() blow the root budget, so both checkers'
  // analyses of guarded abort and complete at ladder stage 1, which does
  // not follow calls. path_kill's stage-1 outcome carries the PATHKILL mark
  // on the panic() call; the free checker's stage 1 must read it and drop
  // the use after panic(), as it does without the ladder.
  std::string S = "void kfree(void *p);\n"
                  "void panic(char *msg);\n"
                  "int spread(int a, int b, int c, int d) {\n"
                  "  int acc = 0;\n"
                  "  if (a) { acc += 1; } else { acc -= 1; }\n"
                  "  if (b) { acc += 2; } else { acc -= 2; }\n"
                  "  if (c) { acc += 3; } else { acc -= 3; }\n"
                  "  if (d) { acc += 4; } else { acc -= 4; }\n"
                  "  return acc;\n}\n"
                  "int guarded(int *p, int c) {\n"
                  "  c = spread(c, c, c, c);\n"
                  "  kfree(p);\n"
                  "  if (c) {\n"
                  "    panic(\"boom\");\n"
                  "    return *p;\n"
                  "  }\n"
                  "  return 0;\n}\n";
  auto Run = [&](bool WithPathKill, EngineOptions Opts) {
    XgccTool Tool;
    EXPECT_TRUE(Tool.addSource("guard.c", S));
    if (WithPathKill)
      Tool.addBuiltinChecker("path_kill");
    Tool.addBuiltinChecker("free");
    Tool.run(Opts);
    Snapshot Snap;
    raw_string_ostream OS(Snap.Rendered);
    Tool.reports().print(OS, RankPolicy::Generic);
    Snap.Incidents = Tool.reports().incidents();
    return Snap;
  };
  EngineOptions Opts;
  Opts.EnableBlockCache = false;
  Opts.EnableFunctionSummaries = false;
  Opts.RootPathBudget = 4;
  for (unsigned Jobs : {1u, 4u}) {
    Opts.Jobs = Jobs;
    Snapshot Got = Run(/*WithPathKill=*/true, Opts);
    ASSERT_EQ(Got.Incidents.size(), 2u) << "jobs=" << Jobs;
    for (const RootIncident &I : Got.Incidents) {
      EXPECT_EQ(I.Root, "guarded");
      EXPECT_FALSE(I.Quarantined);
      EXPECT_EQ(I.Stage, 1u);
      EXPECT_NE(I.Reason.find("path budget"), std::string::npos);
    }
    EXPECT_EQ(Got.Incidents[0].Checker, "path_kill");
    EXPECT_EQ(Got.Incidents[1].Checker, "free_checker");
    EXPECT_EQ(Got.Rendered.find("using p after free"), std::string::npos)
        << Got.Rendered;
    // Without the marks, the same degraded analysis reports the use.
    Snapshot Alone = Run(/*WithPathKill=*/false, Opts);
    ASSERT_EQ(Alone.Incidents.size(), 1u) << "jobs=" << Jobs;
    EXPECT_EQ(Alone.Incidents[0].Stage, 1u);
    EXPECT_NE(Alone.Rendered.find("using p after free"), std::string::npos)
        << Alone.Rendered;
  }
}

TEST(FaultContainment, QuarantineRollsBackAnnotations) {
  // A quarantined root must leave no composition trace: run the injector
  // (which quarantines fn0) and then the path_kill + free builtins; the
  // reports must match a run where the injector was never present.
  std::string S = "void kfree(void *p);\n"
                  "void bad_call(void *p);\n"
                  "void inject_fault(void *p);\n"
                  "int fn0(int *p) { inject_fault(p); bad_call(p); return 1; }\n"
                  "int fn1(int *p) { kfree(p); return *p; }\n";
  EngineOptions Opts;
  auto Render = [&](bool WithInjector) {
    XgccTool Tool;
    EXPECT_TRUE(Tool.addSource("mix.c", S));
    if (WithInjector)
      Tool.addChecker(std::make_unique<FaultInjectorChecker>(
          FaultInjectorChecker::Mode::Fault));
    Tool.addBuiltinChecker("path_kill");
    Tool.addBuiltinChecker("free");
    Tool.run(Opts);
    std::string Out;
    raw_string_ostream OS(Out);
    // Compare only the free checker's reports (the injector adds its own
    // bad_call lines when present).
    for (const ErrorReport &R : Tool.reports().reports())
      if (R.CheckerName == "free")
        OS << R.FunctionName << ':' << R.Line << ' ' << R.Message << '\n';
    return Out;
  };
  EXPECT_EQ(Render(true), Render(false));
}

} // namespace
