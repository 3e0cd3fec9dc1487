//===- tests/lifecycle_test.cpp - Persistent report lifecycle ----------------===//
//
// Part of the metal/xgcc reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The report-lifecycle contract (docs/REPORTS.md): fingerprints are stable
// under code motion and every engine configuration, and change exactly when
// the report's *shape* changes; the baseline store classifies runs into
// new/known/fixed/suppressed, survives save/open round-trips, and refuses
// corrupt files instead of silently resetting triage state.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "cfront/Serialize.h"
#include "engine/RunManifest.h"
#include "lifecycle/BaselineStore.h"
#include "support/Hash.h"
#include "support/RawOstream.h"

#include <filesystem>
#include <set>
#include <string>
#include <system_error>
#include <vector>

#include <unistd.h>

using namespace mc;
using namespace mc::test;

namespace {

namespace fs = std::filesystem;

//===----------------------------------------------------------------------===//
// Fingerprint stability
//===----------------------------------------------------------------------===//

/// Fingerprints of every ranked report the free checker emits on \p Source.
std::vector<uint64_t> freeFingerprints(const std::string &Source,
                                       const EngineOptions &Opts =
                                           EngineOptions()) {
  std::vector<uint64_t> Out;
  for (const ErrorReport &R : runBuiltinReports("free", Source, Opts))
    Out.push_back(R.Fingerprint);
  return Out;
}

/// A use-after-free whose report the stability tests track. \p Padding is
/// spliced in *above* the buggy function so every edit shifts its lines.
std::string corpusSource(const std::string &Padding) {
  std::string S = "void kfree(void *p);\n";
  S += Padding;
  S += "int bad(int *p, int c) {\n"
       "  kfree(p);\n"
       "  if (c) { return *p; }\n"
       "  return 0;\n"
       "}\n"
       "int good(int v) {\n"
       "  int x = v;\n"
       "  kfree(&x);\n"
       "  return v;\n"
       "}\n";
  return S;
}

TEST(Fingerprint, SurvivesLineInsertionAboveSite) {
  std::string Base = corpusSource("");
  // Fifty shifted lines: comments plus a whole unrelated function.
  std::string Padding;
  for (int I = 0; I != 46; ++I)
    Padding += "/* shifted */\n";
  Padding += "static int unrelated(int a) {\n"
             "  if (a > 3) { a += 2; }\n"
             "  return a;\n"
             "}\n";
  std::string Shifted = corpusSource(Padding);

  std::vector<ErrorReport> A = runBuiltinReports("free", Base);
  std::vector<ErrorReport> B = runBuiltinReports("free", Shifted);
  ASSERT_EQ(A.size(), 1u);
  ASSERT_EQ(B.size(), 1u);
  // The shift really moved the report...
  EXPECT_NE(A[0].Line, B[0].Line);
  // ...and the fingerprint did not notice.
  EXPECT_NE(A[0].Fingerprint, 0u);
  EXPECT_EQ(A[0].Fingerprint, B[0].Fingerprint);
}

TEST(Fingerprint, SurvivesLineDeletionAndUnrelatedEdits) {
  // Deletion is insertion read backwards: the padded variant is the "before".
  std::string Before = corpusSource("static int helper(int a) {\n"
                                    "  return a + 1;\n"
                                    "}\n");
  std::string After = corpusSource("");
  EXPECT_EQ(freeFingerprints(Before), freeFingerprints(After));

  // Editing an unrelated function's body (not just deleting it) is the
  // common case between two analysis runs.
  std::string EditedHelper = corpusSource("static int helper(int a) {\n"
                                          "  int b = a * 3;\n"
                                          "  if (b > 10) { b -= 4; }\n"
                                          "  return b;\n"
                                          "}\n");
  EXPECT_EQ(freeFingerprints(Before), freeFingerprints(EditedHelper));
}

TEST(Fingerprint, StableAcrossJobs) {
  // Several buggy roots so a parallel run actually shards.
  std::string S = "void kfree(void *p);\n";
  for (int I = 0; I != 6; ++I) {
    std::string N = std::to_string(I);
    S += "int bad" + N + "(int *p, int c) {\n"
         "  kfree(p);\n"
         "  if (c) { return *p; }\n"
         "  return 0;\n"
         "}\n";
  }
  std::vector<uint64_t> Ref = freeFingerprints(S);
  ASSERT_EQ(Ref.size(), 6u);
  EXPECT_EQ(std::set<uint64_t>(Ref.begin(), Ref.end()).size(), 6u)
      << "distinct functions must not collide";

  EngineOptions Par;
  Par.Jobs = 8;
  EXPECT_EQ(freeFingerprints(S, Par), Ref);
}

TEST(Fingerprint, ChangesWhenWitnessShapeChanges) {
  // Same checker, same message, same tracked object — but the error path
  // crosses an extra live conditional, so the shape trail differs.
  std::string Straight = "void kfree(void *p);\n"
                         "int bad(int *p, int c, int d) {\n"
                         "  kfree(p);\n"
                         "  if (c) { return *p; }\n"
                         "  return d;\n"
                         "}\n";
  std::string Nested = "void kfree(void *p);\n"
                       "int bad(int *p, int c, int d) {\n"
                       "  kfree(p);\n"
                       "  if (c) { if (d) { return *p; } }\n"
                       "  return d;\n"
                       "}\n";
  std::vector<ErrorReport> A = runBuiltinReports("free", Straight);
  std::vector<ErrorReport> B = runBuiltinReports("free", Nested);
  ASSERT_EQ(A.size(), 1u);
  ASSERT_EQ(B.size(), 1u);
  EXPECT_EQ(A[0].Message, B[0].Message);
  EXPECT_NE(A[0].Fingerprint, B[0].Fingerprint);
}

//===----------------------------------------------------------------------===//
// ReportManager lifecycle surface
//===----------------------------------------------------------------------===//

ErrorReport makeReport(uint64_t FP, const std::string &Message,
                       const std::string &Rule = "") {
  ErrorReport R;
  R.CheckerName = "free";
  R.Message = Message;
  R.File = "a.c";
  R.Line = 10;
  R.FunctionName = "f";
  R.Fingerprint = FP;
  R.RuleKey = Rule;
  R.GroupKey = Rule;
  return R;
}

TEST(ReportManagerLifecycle, SuppressFingerprintsDropsExactly) {
  ReportManager RM;
  RM.add(makeReport(1, "one"));
  RM.add(makeReport(2, "two"));
  RM.add(makeReport(3, "three"));
  EXPECT_EQ(RM.suppressFingerprints({2, 3, 99}), 2u);
  ASSERT_EQ(RM.size(), 1u);
  EXPECT_EQ(RM.reports()[0].Fingerprint, 1u);
}

TEST(ReportManagerLifecycle, TagsAnnotateTextAndJson) {
  ReportManager RM;
  RM.add(makeReport(0xabcdef0123456789ull, "tagged"));
  RM.add(makeReport(0x42, "untagged"));
  RM.setLifecycle({{0xabcdef0123456789ull, "new"}});

  std::string Text;
  raw_string_ostream TOS(Text);
  RM.print(TOS, RankPolicy::Generic);
  EXPECT_NE(Text.find(" [new]\n"), std::string::npos);
  // The untagged report's line carries no bracket suffix.
  EXPECT_EQ(Text.find("untagged ["), std::string::npos);

  std::string Json;
  raw_string_ostream JOS(Json);
  RM.printJson(JOS, RankPolicy::Generic);
  EXPECT_NE(Json.find("\"fingerprint\": \"abcdef0123456789\""),
            std::string::npos);
  EXPECT_NE(Json.find("\"fingerprint\": \"0000000000000042\""),
            std::string::npos);
  EXPECT_NE(Json.find("\"lifecycle\": \"new\""), std::string::npos);
}

TEST(ReportManagerLifecycle, RuleZCombinesPriorPopulation) {
  ReportManager RM;
  RM.countExample("r");
  RM.countViolation("r");
  // Current run alone: n=2, e=1 — dead even, z = 0.
  EXPECT_DOUBLE_EQ(RM.ruleZ("r"), 0.0);
  // Eight accumulated examples sharpen it to n=10, e=9.
  std::map<std::string, RuleStats> Prior;
  Prior["r"].Examples = 8;
  RM.setRulePrior(std::move(Prior));
  EXPECT_DOUBLE_EQ(RM.ruleZ("r"), zStatistic(10, 9));
  // A prior for a rule with no current events still ranks.
  std::map<std::string, RuleStats> Prior2;
  Prior2["s"].Examples = 5;
  Prior2["s"].Counterexamples = 1;
  RM.setRulePrior(std::move(Prior2));
  EXPECT_DOUBLE_EQ(RM.ruleZ("s"), zStatistic(6, 5));
}

//===----------------------------------------------------------------------===//
// BaselineStore
//===----------------------------------------------------------------------===//

class BaselineTest : public ::testing::Test {
protected:
  fs::path Dir;

  void SetUp() override {
    const auto *Info = ::testing::UnitTest::GetInstance()->current_test_info();
    Dir = fs::path(::testing::TempDir()) /
          (std::string("mc_baseline_") + Info->name());
    std::error_code EC;
    fs::remove_all(Dir, EC);
  }

  void TearDown() override {
    std::error_code EC;
    fs::remove_all(Dir, EC);
  }

  BaselineStore openStore() {
    BaselineStore Store;
    std::string Err;
    EXPECT_TRUE(Store.open(Dir.string(), &Err)) << Err;
    return Store;
  }
};

TEST_F(BaselineTest, ClassifiesNewKnownFixedAndReopens) {
  BaselineStore Store = openStore();

  ReportManager R1;
  R1.add(makeReport(10, "ten"));
  R1.add(makeReport(20, "twenty"));
  BaselineDelta D1 = Store.recordRun(R1, false);
  EXPECT_EQ(D1.RunOrdinal, 1u);
  EXPECT_EQ(D1.NewCount, 2u);
  EXPECT_EQ(D1.KnownCount, 0u);
  EXPECT_EQ(D1.FixedCount, 0u);
  EXPECT_EQ(R1.lifecycle().at(10), "new");
  EXPECT_EQ(R1.lifecycle().at(20), "new");

  // Run 2: 10 persists, 20 disappears.
  ReportManager R2;
  R2.add(makeReport(10, "ten"));
  BaselineDelta D2 = Store.recordRun(R2, false);
  EXPECT_EQ(D2.RunOrdinal, 2u);
  EXPECT_EQ(D2.NewCount, 0u);
  EXPECT_EQ(D2.KnownCount, 1u);
  EXPECT_EQ(D2.FixedCount, 1u);
  EXPECT_EQ(R2.lifecycle().at(10), "known");
  EXPECT_EQ(Store.entries().at(20).St, BaselineEntry::Status::Fixed);
  EXPECT_EQ(Store.entries().at(10).HitCount, 2u);
  EXPECT_EQ(Store.entries().at(10).FirstSeen, 1u);
  EXPECT_EQ(Store.entries().at(10).LastSeen, 2u);

  // Run 3: the fixed report reappears — a regression, classified new again.
  ReportManager R3;
  R3.add(makeReport(10, "ten"));
  R3.add(makeReport(20, "twenty"));
  BaselineDelta D3 = Store.recordRun(R3, false);
  EXPECT_EQ(D3.NewCount, 1u);
  EXPECT_EQ(D3.KnownCount, 1u);
  EXPECT_EQ(R3.lifecycle().at(20), "new");
  EXPECT_EQ(Store.entries().at(20).St, BaselineEntry::Status::Active);
}

TEST_F(BaselineTest, SuppressedStatusDropsReports) {
  BaselineStore Store = openStore();
  ReportManager R1;
  R1.add(makeReport(7, "seven"));
  Store.recordRun(R1, false);
  ASSERT_TRUE(Store.setStatus(7, BaselineEntry::Status::Suppressed));

  ReportManager R2;
  R2.add(makeReport(7, "seven"));
  BaselineDelta D2 = Store.recordRun(R2, false);
  EXPECT_EQ(D2.SuppressedCount, 1u);
  EXPECT_EQ(D2.KnownCount, 0u);
  EXPECT_EQ(R2.size(), 0u);
  EXPECT_TRUE(R2.lifecycle().empty());

  EXPECT_FALSE(Store.setStatus(999, BaselineEntry::Status::Fixed));
}

TEST_F(BaselineTest, SuppressKnownKeepsOnlyNewReports) {
  BaselineStore Store = openStore();
  ReportManager R1;
  R1.add(makeReport(1, "one"));
  Store.recordRun(R1, false);

  ReportManager R2;
  R2.add(makeReport(1, "one"));
  R2.add(makeReport(2, "two"));
  BaselineDelta D2 = Store.recordRun(R2, true);
  // Classification counts are unchanged by --suppress-known...
  EXPECT_EQ(D2.NewCount, 1u);
  EXPECT_EQ(D2.KnownCount, 1u);
  // ...but the known report is gone from the output.
  ASSERT_EQ(R2.size(), 1u);
  EXPECT_EQ(R2.reports()[0].Fingerprint, 2u);
  EXPECT_EQ(R2.lifecycle().size(), 1u);
  EXPECT_EQ(R2.lifecycle().at(2), "new");
}

TEST_F(BaselineTest, SaveOpenRoundTripPreservesEverything) {
  BaselineStore Store = openStore();
  ReportManager R1;
  R1.add(makeReport(10, "ten", "rule-a"));
  R1.add(makeReport(20, "twenty"));
  R1.countExample("rule-a");
  R1.countExample("rule-a");
  R1.countViolation("rule-a");
  Store.recordRun(R1, false);

  ReportManager R2;
  R2.add(makeReport(10, "ten", "rule-a"));
  R2.countExample("rule-a");
  Store.recordRun(R2, false);
  ASSERT_TRUE(Store.setStatus(10, BaselineEntry::Status::Suppressed));
  std::string Err;
  ASSERT_TRUE(Store.save(&Err)) << Err;

  BaselineStore Reloaded = openStore();
  EXPECT_EQ(Reloaded.runCounter(), Store.runCounter());
  EXPECT_EQ(Reloaded.entries(), Store.entries());
  EXPECT_EQ(Reloaded.runs(), Store.runs());
  ASSERT_EQ(Reloaded.rules().size(), 1u);
  EXPECT_EQ(Reloaded.rules().at("rule-a").Examples, 3u);
  EXPECT_EQ(Reloaded.rules().at("rule-a").Counterexamples, 1u);
  // entryZ ranks off the reloaded population.
  EXPECT_DOUBLE_EQ(Reloaded.entryZ(Reloaded.entries().at(10)),
                   zStatistic(4, 3));
}

TEST_F(BaselineTest, MissingFileIsAFreshStore) {
  BaselineStore Store = openStore();
  EXPECT_EQ(Store.runCounter(), 0u);
  EXPECT_TRUE(Store.entries().empty());
}

TEST_F(BaselineTest, CorruptFileIsAnExplicitOpenError) {
  {
    BaselineStore Store = openStore();
    ReportManager RM;
    RM.add(makeReport(1, "one"));
    Store.recordRun(RM, false);
    std::string Err;
    ASSERT_TRUE(Store.save(&Err)) << Err;
  }
  std::string Path = (Dir / "baseline.mcb").string();
  std::string Raw;
  ASSERT_TRUE(readFileBytes(Path, Raw));

  // Flip a payload byte: the checksum catches it.
  std::string Flipped = Raw;
  Flipped.back() = char(Flipped.back() ^ 0x5a);
  ASSERT_TRUE(writeFileBytes(Path, Flipped));
  BaselineStore S1;
  std::string Err;
  EXPECT_FALSE(S1.open(Dir.string(), &Err));
  EXPECT_NE(Err.find("never silently reset"), std::string::npos);

  // Truncation is rejected too (header or payload).
  ASSERT_TRUE(writeFileBytes(Path, Raw.substr(0, 5)));
  BaselineStore S2;
  EXPECT_FALSE(S2.open(Dir.string(), &Err));

  // The intact bytes still open: the failures above were the edits, not
  // some latent serializer bug.
  ASSERT_TRUE(writeFileBytes(Path, Raw));
  BaselineStore S3;
  EXPECT_TRUE(S3.open(Dir.string(), &Err)) << Err;
  EXPECT_EQ(S3.runCounter(), 1u);
}

TEST_F(BaselineTest, RunJournalIsBounded) {
  BaselineStore Store = openStore();
  for (unsigned I = 0; I != BaselineStore::kMaxRunRecords + 5; ++I) {
    ReportManager RM;
    RM.add(makeReport(1, "one"));
    Store.recordRun(RM, false);
  }
  EXPECT_EQ(Store.runs().size(), BaselineStore::kMaxRunRecords);
  EXPECT_EQ(Store.runs().front().Ordinal, 6u);
  EXPECT_EQ(Store.runs().back().Ordinal,
            unsigned(BaselineStore::kMaxRunRecords) + 5);
  // The per-entry state never truncates with the journal.
  EXPECT_EQ(Store.entries().at(1).HitCount,
            unsigned(BaselineStore::kMaxRunRecords) + 5);
}

//===----------------------------------------------------------------------===//
// End-to-end: engine runs against a baseline, deterministically
//===----------------------------------------------------------------------===//

/// Analyzes \p Source with the free checker under \p Opts, records the run
/// into the store at \p Dir, and returns the annotated text output.
std::string runAgainstBaseline(const fs::path &Dir, const std::string &Source,
                               const EngineOptions &Opts, BaselineDelta *Delta,
                               bool SuppressKnown = false) {
  XgccTool Tool;
  EXPECT_TRUE(Tool.addSource("test.c", Source));
  EXPECT_TRUE(Tool.addBuiltinChecker("free"));
  Tool.run(Opts);
  BaselineStore Store;
  std::string Err;
  EXPECT_TRUE(Store.open(Dir.string(), &Err)) << Err;
  BaselineDelta D = Store.recordRun(Tool.reports(), SuppressKnown);
  if (Delta)
    *Delta = D;
  EXPECT_TRUE(Store.save(&Err)) << Err;
  std::string Out;
  raw_string_ostream OS(Out);
  Tool.reports().print(OS, RankPolicy::Generic);
  return Out;
}

TEST_F(BaselineTest, EndToEndDiffSurvivesLineShift) {
  std::string Before = corpusSource("");
  // The edit shifts every line below it AND introduces one genuinely new bug.
  std::string Bug = "int extra(int *p) {\n"
                    "  kfree(p);\n"
                    "  return *p;\n"
                    "}\n"
                    "/* pad */\n/* pad */\n/* pad */\n";
  std::string After = corpusSource(Bug);

  BaselineDelta D1, D2;
  std::string Out1 = runAgainstBaseline(Dir, Before, EngineOptions(), &D1);
  EXPECT_EQ(D1.NewCount, 1u);
  EXPECT_NE(Out1.find("[new]"), std::string::npos);

  std::string Out2 = runAgainstBaseline(Dir, After, EngineOptions(), &D2);
  // The shifted report is known; only the introduced bug is new.
  EXPECT_EQ(D2.NewCount, 1u);
  EXPECT_EQ(D2.KnownCount, 1u);
  EXPECT_EQ(D2.FixedCount, 0u);
  EXPECT_NE(Out2.find("[known]"), std::string::npos);
}

TEST_F(BaselineTest, EndToEndOutputIdenticalAcrossJobs) {
  std::string S = "void kfree(void *p);\n";
  for (int I = 0; I != 5; ++I) {
    std::string N = std::to_string(I);
    S += "int bad" + N + "(int *p, int c) {\n"
         "  kfree(p);\n"
         "  if (c) { return *p; }\n"
         "  return 0;\n"
         "}\n";
  }
  fs::path DirA = Dir / "j1", DirB = Dir / "j8";
  EngineOptions Serial;
  EngineOptions Par;
  Par.Jobs = 8;
  BaselineDelta DA, DB;
  // Two runs per store so both new- and known-tagging are compared.
  runAgainstBaseline(DirA, S, Serial, nullptr);
  runAgainstBaseline(DirB, S, Par, nullptr);
  std::string OutA = runAgainstBaseline(DirA, S, Serial, &DA);
  std::string OutB = runAgainstBaseline(DirB, S, Par, &DB);
  EXPECT_EQ(OutA, OutB);
  EXPECT_EQ(DA.NewCount, DB.NewCount);
  EXPECT_EQ(DA.KnownCount, DB.KnownCount);
  EXPECT_EQ(DA.KnownCount, 5u);
}

//===----------------------------------------------------------------------===//
// Manifest round-trip with the lifecycle fields
//===----------------------------------------------------------------------===//

TEST(ManifestLifecycle, ReportsAndBaselineRoundTrip) {
  RunManifest M;
  M.ReportCount = 2;
  ManifestReport R1;
  R1.Checker = "free";
  R1.File = "a.c";
  R1.Line = 12;
  R1.Message = "use after free of \"p\"";
  R1.Fingerprint = "00d1f2e3a4b5c697";
  R1.Lifecycle = "new";
  ManifestReport R2;
  R2.Checker = "lock";
  R2.File = "b.c";
  R2.Line = 40;
  R2.Message = "double acquire";
  R2.Fingerprint = "ffffffffffffffff";
  M.Reports = {R1, R2};
  M.Baseline.Enabled = true;
  M.Baseline.RunOrdinal = 3;
  M.Baseline.NewCount = 1;
  M.Baseline.KnownCount = 1;
  M.Baseline.FixedCount = 2;
  M.Baseline.SuppressedCount = 4;

  std::string Json;
  raw_string_ostream OS(Json);
  M.writeJson(OS);
  RunManifest Parsed;
  std::string Err;
  ASSERT_TRUE(parseRunManifest(Json, Parsed, &Err)) << Err;
  EXPECT_EQ(M, Parsed);
}

TEST(ManifestLifecycle, ToolManifestCarriesFingerprintsAndTags) {
  XgccTool Tool;
  ASSERT_TRUE(Tool.addSource("test.c", corpusSource("")));
  ASSERT_TRUE(Tool.addBuiltinChecker("free"));
  EngineOptions Opts;
  Tool.run(Opts);
  BaselineStore Store;
  fs::path Dir = fs::path(::testing::TempDir()) /
                 ("mc_manifest_" + std::to_string(long(::getpid())));
  std::error_code EC;
  fs::remove_all(Dir, EC);
  std::string Err;
  ASSERT_TRUE(Store.open(Dir.string(), &Err)) << Err;
  BaselineDelta Delta = Store.recordRun(Tool.reports(), false);

  RunManifest M = Tool.manifest(Opts);
  M.Baseline.Enabled = true;
  M.Baseline.RunOrdinal = Delta.RunOrdinal;
  M.Baseline.NewCount = Delta.NewCount;
  ASSERT_EQ(M.Reports.size(), 1u);
  EXPECT_EQ(M.Reports[0].Checker, "free_checker");
  EXPECT_EQ(M.Reports[0].Lifecycle, "new");
  ASSERT_EQ(M.Reports[0].Fingerprint.size(), 16u);
  std::string Hex;
  appendHex64(Tool.reports().reports()[0].Fingerprint, Hex);
  EXPECT_EQ(M.Reports[0].Fingerprint, Hex);

  std::string Json;
  raw_string_ostream OS(Json);
  M.writeJson(OS);
  RunManifest Parsed;
  ASSERT_TRUE(parseRunManifest(Json, Parsed, &Err)) << Err;
  EXPECT_EQ(M, Parsed);
  fs::remove_all(Dir, EC);
}

} // namespace
