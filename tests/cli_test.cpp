//===- tests/cli_test.cpp - xgcc command-line tool tests -----------------------===//
//
// Part of the metal/xgcc reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Drives the installed `xgcc` binary end to end: pass 1 (--emit-ast),
// pass 2 over the image, checker selection, ranking flags, history files,
// and the engine ablation switches. The binary path is injected by CMake.
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include <sys/resource.h>

#ifndef MC_XGCC_BINARY
#define MC_XGCC_BINARY "xgcc"
#endif
#ifndef MC_SOURCE_DIR
#define MC_SOURCE_DIR "."
#endif

namespace {

struct RunResult {
  int ExitCode = -1;
  std::string Output;
};

/// Runs xgcc on \p Args with stderr redirected to \p StderrTo: by default
/// into Output, interleaved with stdout.
RunResult runXgcc(const std::string &Args,
                  const std::string &StderrTo = "&1") {
  std::string Cmd =
      std::string(MC_XGCC_BINARY) + " " + Args + " 2>" + StderrTo;
  FILE *Pipe = popen(Cmd.c_str(), "r");
  RunResult R;
  if (!Pipe)
    return R;
  char Buf[4096];
  size_t N;
  while ((N = fread(Buf, 1, sizeof(Buf), Pipe)) > 0)
    R.Output.append(Buf, N);
  int Status = pclose(Pipe);
  R.ExitCode = WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
  return R;
}

/// One xgcc invocation with stdout and stderr kept apart.
struct SplitRun {
  int ExitCode = -1;
  std::string Out;
  std::string Err;
};

std::string readFile(const std::string &Path) {
  std::string Text;
  if (FILE *F = fopen(Path.c_str(), "r")) {
    char Buf[4096];
    size_t N;
    while ((N = fread(Buf, 1, sizeof(Buf), F)) > 0)
      Text.append(Buf, N);
    fclose(F);
  }
  return Text;
}

SplitRun runXgccSplit(const std::string &Args) {
  // Named after the running test: ctest runs tests in parallel processes.
  std::string ErrPath =
      ::testing::TempDir() + "/cli_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".stderr";
  RunResult R = runXgcc(Args, ErrPath);
  SplitRun S{R.ExitCode, std::move(R.Output), readFile(ErrPath)};
  remove(ErrPath.c_str());
  return S;
}

size_t countOf(const std::string &Text, const std::string &Needle) {
  size_t N = 0;
  for (size_t At = Text.find(Needle); At != std::string::npos;
       At = Text.find(Needle, At + Needle.size()))
    ++N;
  return N;
}

std::string writeTemp(const std::string &Name, const std::string &Text) {
  std::string Path = ::testing::TempDir() + "/" + Name;
  FILE *F = fopen(Path.c_str(), "w");
  EXPECT_NE(F, nullptr);
  fputs(Text.c_str(), F);
  fclose(F);
  return Path;
}

const char *BuggySource = "void kfree(void *p);\n"
                          "int f(int *p) { kfree(p); return *p; }\n";

TEST(Cli, ListCheckers) {
  RunResult R = runXgcc("--list-checkers");
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_NE(R.Output.find("free"), std::string::npos);
  EXPECT_NE(R.Output.find("lock"), std::string::npos);
  EXPECT_NE(R.Output.find("path_kill"), std::string::npos);
}

TEST(Cli, NoInputsPrintsUsage) {
  RunResult R = runXgcc("");
  EXPECT_NE(R.ExitCode, 0);
  EXPECT_NE(R.Output.find("usage:"), std::string::npos);
}

TEST(Cli, UnknownOptionRejected) {
  RunResult R = runXgcc("--frobnicate x.c");
  EXPECT_NE(R.ExitCode, 0);
  EXPECT_NE(R.Output.find("unknown option"), std::string::npos);
}

TEST(Cli, AnalyzeSourceFindsBug) {
  std::string Src = writeTemp("cli_buggy.c", BuggySource);
  RunResult R = runXgcc("--checker free " + Src);
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_NE(R.Output.find("using p after free!"), std::string::npos);
  EXPECT_NE(R.Output.find("1 report(s)"), std::string::npos);
  remove(Src.c_str());
}

TEST(Cli, TwoPassPipeline) {
  std::string Src = writeTemp("cli_pass1.c", BuggySource);
  std::string Mast = ::testing::TempDir() + "/cli_pass1.mast";
  RunResult Emit = runXgcc("--emit-ast " + Mast + " " + Src);
  EXPECT_EQ(Emit.ExitCode, 0);
  EXPECT_NE(Emit.Output.find("wrote AST image"), std::string::npos);

  RunResult Analyze = runXgcc("--checker free " + Mast);
  EXPECT_EQ(Analyze.ExitCode, 0);
  EXPECT_NE(Analyze.Output.find("using p after free!"), std::string::npos);
  remove(Src.c_str());
  remove(Mast.c_str());
}

TEST(Cli, StatsFlag) {
  std::string Src = writeTemp("cli_stats.c", BuggySource);
  RunResult R = runXgcc("--checker free --stats " + Src);
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_NE(R.Output.find("points="), std::string::npos);
  EXPECT_NE(R.Output.find("paths="), std::string::npos);
  remove(Src.c_str());
}

const char *GetsSource = "char *gets(char *b);\n"
                         "void f(char *b) { gets(b); }\n";
const char *NoGetsMetal =
    "sm no_gets;\n"
    "decl any_fn_call fn;\ndecl any_arguments args;\n"
    "start: { fn(args) } && ${ mc_is_call_to(fn, \"gets\") } ==> start, "
    "{ err(\"never use gets()\"); };\n";

TEST(Cli, MetalCheckerFromFile) {
  std::string Src = writeTemp("cli_gets.c", GetsSource);
  std::string Metal = writeTemp("cli_no_gets.metal", NoGetsMetal);
  RunResult R = runXgcc("--metal " + Metal + " " + Src);
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_NE(R.Output.find("never use gets()"), std::string::npos);
  remove(Src.c_str());
  remove(Metal.c_str());
}

TEST(Cli, RepeatedCheckerWarnsAndRunsOnce) {
  std::string Src = writeTemp("cli_dup.c", BuggySource);
  SplitRun R = runXgccSplit("--checker free --checker free " + Src);
  EXPECT_EQ(R.ExitCode, 0) << R.Err;
  EXPECT_EQ(countOf(R.Out, "using p after free!"), 1u) << R.Out;
  EXPECT_NE(R.Out.find("1 report(s)"), std::string::npos);
  EXPECT_EQ(countOf(R.Err, "duplicate checker 'free_checker' ignored"), 1u)
      << R.Err;
  remove(Src.c_str());
}

TEST(Cli, RepeatedMetalFileWarnsAndRunsOnce) {
  std::string Src = writeTemp("cli_dup_gets.c", GetsSource);
  std::string Metal = writeTemp("cli_dup_gets.metal", NoGetsMetal);
  SplitRun R = runXgccSplit("--metal " + Metal + " --metal " + Metal + " " +
                            Src);
  EXPECT_EQ(R.ExitCode, 0) << R.Err;
  EXPECT_EQ(countOf(R.Out, "never use gets()"), 1u) << R.Out;
  EXPECT_NE(R.Out.find("1 report(s)"), std::string::npos);
  EXPECT_EQ(countOf(R.Err, "duplicate checker 'no_gets' ignored"), 1u)
      << R.Err;
  remove(Src.c_str());
  remove(Metal.c_str());
}

TEST(Cli, NoCacheDeepPathsFinishAtAnyJobs) {
  // Without the block cache, queue.c's loops unroll until the path-length
  // valve cuts them; the valve counts blocks across call frames, so the
  // walk stays inside the default stack at every --jobs count.
  std::string Corpus = std::string(MC_SOURCE_DIR) + "/examples/corpus";
  std::string Args =
      "--no-cache --checker free -I" + Corpus + " " + Corpus + "/queue.c";
  SplitRun One = runXgccSplit("--jobs 1 " + Args);
  SplitRun Four = runXgccSplit("--jobs 4 " + Args);
  EXPECT_EQ(One.ExitCode, 0) << One.Err;
  EXPECT_EQ(Four.ExitCode, 0) << Four.Err;
  EXPECT_NE(One.Out.find("report(s)"), std::string::npos);
  EXPECT_EQ(One.Out, Four.Out);
}

TEST(Cli, NoCacheDeepPathsFinishWithUnlimitedStack) {
  // With RLIMIT_STACK unlimited, glibc's default thread stack is only 2 MiB;
  // the walk runs on pool workers with a fixed stack at every --jobs count,
  // so it finishes there too. The child inherits this process's limit.
  rlimit Saved;
  ASSERT_EQ(getrlimit(RLIMIT_STACK, &Saved), 0);
  if (Saved.rlim_max != RLIM_INFINITY)
    GTEST_SKIP() << "the hard stack limit forbids raising it to unlimited";
  rlimit Unlimited = Saved;
  Unlimited.rlim_cur = RLIM_INFINITY;
  ASSERT_EQ(setrlimit(RLIMIT_STACK, &Unlimited), 0);
  std::string Corpus = std::string(MC_SOURCE_DIR) + "/examples/corpus";
  std::string Args =
      "--no-cache --checker free -I" + Corpus + " " + Corpus + "/queue.c";
  SplitRun One = runXgccSplit("--jobs 1 " + Args);
  SplitRun Four = runXgccSplit("--jobs 4 " + Args);
  ASSERT_EQ(setrlimit(RLIMIT_STACK, &Saved), 0);
  EXPECT_EQ(One.ExitCode, 0) << One.Err;
  EXPECT_EQ(Four.ExitCode, 0) << Four.Err;
  EXPECT_NE(One.Out.find("report(s)"), std::string::npos);
  EXPECT_EQ(One.Out, Four.Out);
}

TEST(Cli, HistoryRoundTrip) {
  std::string Src = writeTemp("cli_hist.c", BuggySource);
  std::string Hist = ::testing::TempDir() + "/cli_hist.txt";
  remove(Hist.c_str());
  // First run records; second run suppresses.
  RunResult First =
      runXgcc("--checker free --update-history " + Hist + " " + Src);
  EXPECT_NE(First.Output.find("1 report(s)"), std::string::npos);
  RunResult Second = runXgcc("--checker free --history " + Hist + " " + Src);
  EXPECT_NE(Second.Output.find("suppressed 1 report(s)"), std::string::npos);
  EXPECT_NE(Second.Output.find("0 report(s)"), std::string::npos);
  remove(Src.c_str());
  remove(Hist.c_str());
}

TEST(Cli, RankingFlag) {
  std::string Src = writeTemp("cli_rank.c", BuggySource);
  RunResult R = runXgcc("--checker free --rank statistical " + Src);
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_NE(R.Output.find("using p after free!"), std::string::npos);
  remove(Src.c_str());
}

TEST(Cli, AblationSwitchesStillFindTheBug) {
  std::string Src = writeTemp("cli_ablate.c", BuggySource);
  for (const char *Flag :
       {"--no-cache", "--no-summaries", "--no-fpp", "--intraprocedural"}) {
    RunResult R = runXgcc(std::string("--checker free ") + Flag + " " + Src);
    EXPECT_EQ(R.ExitCode, 0) << Flag;
    EXPECT_NE(R.Output.find("using p after free!"), std::string::npos) << Flag;
  }
  remove(Src.c_str());
}

TEST(Cli, DefineAndIncludeFlags) {
  std::string Dir = ::testing::TempDir();
  std::string Header = writeTemp("cli_defs.h", "void kfree(void *p);\n");
  std::string Src = writeTemp("cli_pp.c", "#include \"cli_defs.h\"\n"
                                          "int f(int *p) {\n"
                                          "#ifdef ENABLE_BUG\n"
                                          "  kfree(p);\n"
                                          "#endif\n"
                                          "  return *p;\n"
                                          "}\n");
  RunResult Without = runXgcc("--checker free -I" + Dir + " " + Src);
  EXPECT_NE(Without.Output.find("0 report(s)"), std::string::npos);
  RunResult With =
      runXgcc("--checker free -I" + Dir + " -DENABLE_BUG " + Src);
  EXPECT_NE(With.Output.find("1 report(s)"), std::string::npos);
  remove(Header.c_str());
  remove(Src.c_str());
}

TEST(Cli, DefaultRunsWholeSuite) {
  std::string Src = writeTemp("cli_suite.c", BuggySource);
  RunResult R = runXgcc(Src);
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_NE(R.Output.find("free_checker"), std::string::npos);
  remove(Src.c_str());
}

} // namespace

namespace {

TEST(Cli, JsonOutput) {
  std::string Src = writeTemp("cli_json.c", BuggySource);
  RunResult R = runXgcc("--checker free --format json " + Src);
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_NE(R.Output.find("\"checker\": \"free_checker\""), std::string::npos);
  EXPECT_NE(R.Output.find("\"message\": \"using p after free!\""),
            std::string::npos);
  EXPECT_NE(R.Output.find("\"rank\": 1"), std::string::npos);
  remove(Src.c_str());
}

} // namespace

namespace {

std::string readBack(const std::string &Path) {
  std::string Text;
  FILE *F = fopen(Path.c_str(), "r");
  EXPECT_NE(F, nullptr);
  if (!F)
    return Text;
  char Buf[4096];
  size_t N;
  while ((N = fread(Buf, 1, sizeof(Buf), F)) > 0)
    Text.append(Buf, N);
  fclose(F);
  return Text;
}

TEST(Cli, StatsJsonWritesRunManifest) {
  std::string Src = writeTemp("cli_manifest.c", BuggySource);
  std::string Out = ::testing::TempDir() + "/cli_manifest.json";
  remove(Out.c_str());
  RunResult R = runXgcc("--checker free --stats-json " + Out + " " + Src);
  EXPECT_EQ(R.ExitCode, 0);
  std::string Json = readBack(Out);
  EXPECT_EQ(Json.find("{\n  \"schema\": \"mc.run-manifest.v1\""), 0u);
  EXPECT_NE(Json.find("\"report_count\": 1"), std::string::npos);
  EXPECT_NE(Json.find("\"engine.points.visited\""), std::string::npos);
  EXPECT_NE(Json.find("\"incidents\": []"), std::string::npos);
  // The =VALUE spelling writes to stdout.
  RunResult Dash = runXgcc("--checker free --stats-json=- " + Src);
  EXPECT_EQ(Dash.ExitCode, 0);
  EXPECT_NE(Dash.Output.find("\"schema\": \"mc.run-manifest.v1\""),
            std::string::npos);
  remove(Src.c_str());
  remove(Out.c_str());
}

TEST(Cli, TraceOutWritesChromeJson) {
  std::string Src = writeTemp("cli_trace.c", BuggySource);
  std::string Out = ::testing::TempDir() + "/cli_trace.json";
  remove(Out.c_str());
  RunResult R = runXgcc("--checker free --trace-out " + Out + " " + Src);
  EXPECT_EQ(R.ExitCode, 0);
  std::string Json = readBack(Out);
  EXPECT_EQ(Json.compare(0, 16, "{\"traceEvents\":["), 0);
  EXPECT_NE(Json.find("\"name\":\"run\""), std::string::npos);
  EXPECT_NE(Json.find("\"name\":\"checker\""), std::string::npos);
  EXPECT_NE(Json.find("\"name\":\"root\""), std::string::npos);
  remove(Src.c_str());
  remove(Out.c_str());
}

TEST(Cli, ObservabilityFlagsDoNotPerturbOutput) {
  std::string Src = writeTemp("cli_obs.c", BuggySource);
  std::string Trace = ::testing::TempDir() + "/cli_obs_trace.json";
  for (const char *Jobs : {"1", "4"}) {
    RunResult Plain =
        runXgcc(std::string("--checker free --stats --jobs ") + Jobs + " " +
                Src);
    RunResult Obs = runXgcc(std::string("--checker free --stats --jobs ") +
                            Jobs + " --trace-out " + Trace + " " + Src);
    EXPECT_EQ(Plain.ExitCode, 0);
    // Reports and the stats line are byte-identical with tracing on.
    EXPECT_EQ(Plain.Output, Obs.Output) << "jobs=" << Jobs;
  }
  remove(Src.c_str());
  remove(Trace.c_str());
}

TEST(Cli, ProfileReportsCheckerAttribution) {
  std::string Src = writeTemp("cli_profile.c", BuggySource);
  RunResult R = runXgcc("--profile=2 " + Src);
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_NE(R.Output.find("profile: top 2 of"), std::string::npos);
  EXPECT_NE(R.Output.find("callout_ms="), std::string::npos);
  // Bare --profile defaults to top 5.
  RunResult Bare = runXgcc("--profile " + Src);
  EXPECT_EQ(Bare.ExitCode, 0);
  EXPECT_NE(Bare.Output.find("profile: top 5 of"), std::string::npos);
  remove(Src.c_str());
}

TEST(Cli, BadFailOnValueRejected) {
  std::string Src = writeTemp("cli_failon.c", BuggySource);
  RunResult R = runXgcc("--fail-on sometimes " + Src);
  EXPECT_EQ(R.ExitCode, 2);
  EXPECT_NE(R.Output.find("--fail-on expects"), std::string::npos);
  RunResult Eq = runXgcc("--fail-on=never --checker free " + Src);
  EXPECT_EQ(Eq.ExitCode, 0);
  remove(Src.c_str());
}

TEST(Cli, BadRankAndFormatValuesRejected) {
  std::string Src = writeTemp("cli_bad_rank.c", BuggySource);
  RunResult Rank = runXgcc("--checker free --rank bogus " + Src);
  EXPECT_EQ(Rank.ExitCode, 2);
  EXPECT_NE(Rank.Output.find("xgcc: unknown rank mode 'bogus'"),
            std::string::npos)
      << Rank.Output;
  RunResult Format = runXgcc("--checker free --format=xml " + Src);
  EXPECT_EQ(Format.ExitCode, 2);
  EXPECT_NE(Format.Output.find("xgcc: unknown format 'xml'"),
            std::string::npos)
      << Format.Output;
  remove(Src.c_str());
}

TEST(Cli, BadCountValuesRejected) {
  std::string Src = writeTemp("cli_counts.c", BuggySource);
  // Each is rejected on the flag: nothing is truncated, wrapped or read as
  // "auto" — a wrapped --jobs would ask for billions of pass-1 threads.
  for (const char *Jobs : {"abc", "-1", "99999999999", "4294967297"}) {
    RunResult R = runXgcc("--checker free --jobs " + std::string(Jobs) + " " +
                          Src);
    EXPECT_EQ(R.ExitCode, 2) << Jobs;
    EXPECT_NE(R.Output.find("--jobs expects"), std::string::npos) << R.Output;
  }
  for (const char *Flag : {"--deadline-ms=12x", "--cache-max-mb=-5",
                           "--profile=lots",
                           "--deadline-ms=99999999999999999999"}) {
    RunResult R = runXgcc("--checker free " + std::string(Flag) + " " + Src);
    EXPECT_EQ(R.ExitCode, 2) << Flag;
    EXPECT_NE(R.Output.find("expects"), std::string::npos) << R.Output;
  }
  RunResult Ok = runXgcc("--checker free --jobs 2 --deadline-ms=0 " + Src);
  EXPECT_EQ(Ok.ExitCode, 0) << Ok.Output;
  remove(Src.c_str());
}

TEST(Cli, ExplainRendersWitness) {
  std::string Src = writeTemp("cli_explain.c", BuggySource);
  // Bare --explain defaults to the top 3 reports.
  RunResult Bare = runXgcc("--checker free --explain " + Src);
  EXPECT_EQ(Bare.ExitCode, 0);
  EXPECT_NE(Bare.Output.find("explain: top 1 of 1 report(s)"),
            std::string::npos);
  EXPECT_NE(Bare.Output.find("witness ("), std::string::npos);
  // Both value spellings parse.
  RunResult Eq = runXgcc("--checker free --explain=5 " + Src);
  EXPECT_EQ(Eq.ExitCode, 0);
  EXPECT_NE(Eq.Output.find("explain: top 1 of 1 report(s)"),
            std::string::npos);
  RunResult Sp = runXgcc("--checker free --explain 5 " + Src);
  EXPECT_EQ(Sp.ExitCode, 0);
  EXPECT_NE(Sp.Output.find("explain: top 1 of 1 report(s)"),
            std::string::npos);
  remove(Src.c_str());
}

TEST(Cli, BadExplainValueRejected) {
  std::string Src = writeTemp("cli_explain_bad.c", BuggySource);
  RunResult Zero = runXgcc("--checker free --explain=0 " + Src);
  EXPECT_EQ(Zero.ExitCode, 2);
  EXPECT_NE(Zero.Output.find("--explain expects"), std::string::npos);
  RunResult Garbage = runXgcc("--checker free --explain=lots " + Src);
  EXPECT_EQ(Garbage.ExitCode, 2);
  EXPECT_NE(Garbage.Output.find("--explain expects"), std::string::npos);
  remove(Src.c_str());
}

TEST(Cli, ExplainDoesNotPerturbReports) {
  std::string Src = writeTemp("cli_explain_same.c", BuggySource);
  RunResult Plain = runXgcc("--checker free " + Src);
  RunResult Explained = runXgcc("--checker free --explain " + Src);
  EXPECT_EQ(Plain.ExitCode, 0);
  EXPECT_EQ(Explained.ExitCode, 0);
  // The explain section is strictly appended: everything before it is the
  // byte-identical report list of a capture-off run.
  size_t Cut = Explained.Output.find("---- explain:");
  ASSERT_NE(Cut, std::string::npos);
  EXPECT_EQ(Plain.Output, Explained.Output.substr(0, Cut));
  remove(Src.c_str());
}

TEST(Cli, FailedStatsJsonWriteExitsNonzero) {
  std::string Src = writeTemp("cli_badwrite.c", BuggySource);
  RunResult R = runXgcc("--checker free --stats-json /nonexistent-dir/x.json " +
                        Src);
  EXPECT_NE(R.ExitCode, 0);
  EXPECT_NE(R.Output.find("cannot write"), std::string::npos);
  remove(Src.c_str());
}

TEST(Cli, FailedUpdateHistoryWriteExitsNonzero) {
  std::string Src = writeTemp("cli_badhist.c", BuggySource);
  RunResult R = runXgcc(
      "--checker free --update-history /nonexistent-dir/h.txt " + Src);
  EXPECT_EQ(R.ExitCode, 1);
  EXPECT_NE(R.Output.find("cannot write '/nonexistent-dir/h.txt'"),
            std::string::npos)
      << R.Output;
  // The reports still print: only the artifact was lost.
  EXPECT_NE(R.Output.find("1 report(s)"), std::string::npos);
  remove(Src.c_str());
}

TEST(Cli, FailedTraceOutWriteExitsNonzero) {
  std::string Src = writeTemp("cli_badtrace.c", BuggySource);
  RunResult R = runXgcc("--checker free --trace-out /nonexistent-dir/t.json " +
                        Src);
  EXPECT_NE(R.ExitCode, 0);
  EXPECT_NE(R.Output.find("cannot write"), std::string::npos);
  remove(Src.c_str());
}

TEST(Cli, GroupsOutput) {
  std::string Src = writeTemp("cli_groups.c",
                              "void kfree(void *p);\n"
                              "int a(int *p) { kfree(p); return *p; }\n"
                              "int b(int *p) { kfree(p); return *p; }\n");
  RunResult R = runXgcc("--checker free --groups " + Src);
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_NE(R.Output.find("groups (by analysis fact)"), std::string::npos);
  EXPECT_NE(R.Output.find("kfree: 2 report(s)"), std::string::npos);
  remove(Src.c_str());
}

//===----------------------------------------------------------------------===//
// xgccd observability flags (both --flag V and --flag=V spellings)
//===----------------------------------------------------------------------===//

RunResult runXgccd(const std::string &Args) {
  std::string Cmd = std::string(MC_XGCCD_BINARY) + " " + Args + " 2>&1";
  FILE *Pipe = popen(Cmd.c_str(), "r");
  RunResult R;
  if (!Pipe)
    return R;
  char Buf[4096];
  size_t N;
  while ((N = fread(Buf, 1, sizeof(Buf), Pipe)) > 0)
    R.Output.append(Buf, N);
  int Status = pclose(Pipe);
  R.ExitCode = WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
  return R;
}

/// A well-formed value for an xgccd flag must get past option parsing: with
/// no --socket the daemon then prints usage (exit 2) WITHOUT a
/// flag-diagnostic line. A malformed value must fail on the flag itself.
void expectFlagAccepted(const std::string &Args, const char *Diagnostic) {
  RunResult R = runXgccd(Args);
  EXPECT_EQ(R.ExitCode, 2) << R.Output;
  EXPECT_NE(R.Output.find("usage:"), std::string::npos) << R.Output;
  EXPECT_EQ(R.Output.find(Diagnostic), std::string::npos) << R.Output;
}

void expectFlagRejected(const std::string &Args, const char *Diagnostic) {
  RunResult R = runXgccd(Args);
  EXPECT_EQ(R.ExitCode, 2) << R.Output;
  EXPECT_NE(R.Output.find(Diagnostic), std::string::npos) << R.Output;
}

TEST(Cli, XgccdLogFileFlagBothSpellings) {
  expectFlagAccepted("--log-file /tmp/ev.jsonl", "--log-file expects");
  expectFlagAccepted("--log-file=/tmp/ev.jsonl", "--log-file expects");
  expectFlagRejected("--log-file=", "--log-file expects a path");
}

TEST(Cli, XgccdSlowRequestMsFlagBothSpellings) {
  expectFlagAccepted("--slow-request-ms 250", "--slow-request-ms expects");
  expectFlagAccepted("--slow-request-ms=250", "--slow-request-ms expects");
  // 0 is meaningful (slow capture off), in either spelling.
  expectFlagAccepted("--slow-request-ms 0", "--slow-request-ms expects");
  expectFlagAccepted("--slow-request-ms=0", "--slow-request-ms expects");
  // Malformed values are rejected on the flag, not silently truncated.
  expectFlagRejected("--slow-request-ms=12x",
                     "--slow-request-ms expects a non-negative count");
  expectFlagRejected("--slow-request-ms abc",
                     "--slow-request-ms expects a non-negative count");
  expectFlagRejected("--slow-request-ms=",
                     "--slow-request-ms expects a non-negative count");
}

TEST(Cli, XgccdFlightrecMaxFlagBothSpellings) {
  expectFlagAccepted("--flightrec-max 8", "--flightrec-max expects");
  expectFlagAccepted("--flightrec-max=8", "--flightrec-max expects");
  expectFlagRejected("--flightrec-max=0",
                     "--flightrec-max expects a positive count");
  expectFlagRejected("--flightrec-max nope",
                     "--flightrec-max expects a positive count");
  // Too big for the field: rejected, not wrapped to 1.
  expectFlagRejected("--flightrec-max 4294967297",
                     "--flightrec-max expects a positive count");
}

TEST(Cli, XgccdCountFlagsRejectGarbage) {
  expectFlagAccepted("--jobs 4", "--jobs expects");
  expectFlagAccepted("--max-queue=32", "--max-queue expects");
  expectFlagRejected("--jobs abc", "--jobs expects a non-negative count");
  expectFlagRejected("--jobs=99999999999",
                     "--jobs expects a non-negative count");
  expectFlagRejected("--max-queue -1", "--max-queue expects a positive count");
  expectFlagRejected("--default-deadline-ms 5s",
                     "--default-deadline-ms expects a non-negative count");
  expectFlagRejected("--cache-max-mb=",
                     "--cache-max-mb expects a size in MiB");
}

TEST(Cli, XgccdLogMaxBytesFlagBothSpellings) {
  expectFlagAccepted("--log-max-bytes 65536", "--log-max-bytes expects");
  expectFlagAccepted("--log-max-bytes=65536", "--log-max-bytes expects");
  expectFlagRejected("--log-max-bytes=zero",
                     "--log-max-bytes expects a positive count");
}

} // namespace
