//===- tests/service_test.cpp - xgccd analysis-service tests -------------------===//
//
// Part of the metal/xgcc reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The xgccd robustness contract, end to end against the real daemon binary:
// byte-identity with standalone xgcc (cold and warm, any jobs count),
// bounded admission (typed `overloaded`), deadline expiry in queue
// (`retriable`), graceful SIGTERM drain (in-flight request answered, exit
// 0), cross-request checker quarantine with exponential-backoff re-probe,
// and crash-journal recovery after a mid-request death. The protocol,
// QuarantineTable and RequestJournal units are covered in-process.
//
//===----------------------------------------------------------------------===//

#include "engine/RunManifest.h"
#include "service/Client.h"
#include "service/Protocol.h"
#include "service/Server.h"

#include "gtest/gtest.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#ifndef MC_XGCCD_BINARY
#define MC_XGCCD_BINARY "xgccd"
#endif
#ifndef MC_XGCC_BINARY
#define MC_XGCC_BINARY "xgcc"
#endif

using namespace mc;
namespace fs = std::filesystem;

namespace {

//===----------------------------------------------------------------------===//
// Protocol round-trips
//===----------------------------------------------------------------------===//

ServiceRequest sampleRequest() {
  ServiceRequest R;
  R.Id = "req-1";
  R.Files = {"a.c", "dir/b.c"};
  R.Checkers = {"free", "lock"};
  R.Metal = {{"no_gets.metal", "sm no_gets;\nstart: { x } ==> start;\n"}};
  R.IncludeDirs = {"/usr/include", "inc"};
  R.Defines = {{"DEBUG", "1"}, {"NAME", "\"quoted\nvalue\""}};
  R.Jobs = 4;
  R.DeadlineMs = 1500;
  R.Rank = "combined";
  R.Format = "json";
  R.ExplainTopN = 3;
  R.KeepGoing = true;
  R.Options.BlockCache = false;
  R.Options.RootDeadlineMs = 250;
  R.Options.RootPathBudget = 1000;
  R.Options.MaxActiveStates = 77;
  R.Options.FailOn = "degraded";
  R.InjectKnobs.SlowMs = 10;
  R.InjectKnobs.PoisonChecker = true;
  return R;
}

TEST(ServiceProtocol, RequestRoundTripIsIdentity) {
  ServiceRequest R = sampleRequest();
  std::string Line = R.serializeToString();
  EXPECT_EQ(Line.find('\n'), std::string::npos) << "wire form must be one line";

  ServiceRequest Parsed;
  std::string Err;
  ASSERT_TRUE(Parsed.parse(Line, &Err)) << Err;
  EXPECT_EQ(Parsed, R);
  // serialize ∘ parse ∘ serialize is byte-stable (what makes fingerprint()
  // well-defined across processes).
  EXPECT_EQ(Parsed.serializeToString(), Line);
}

TEST(ServiceProtocol, FingerprintIgnoresIdOnly) {
  ServiceRequest A = sampleRequest();
  ServiceRequest B = A;
  B.Id = "a totally different correlation id";
  EXPECT_EQ(A.fingerprint(), B.fingerprint());
  B.Files.push_back("c.c");
  EXPECT_NE(A.fingerprint(), B.fingerprint());
}

TEST(ServiceProtocol, ResponseRoundTripWithHostileBytes) {
  ServiceResponse R;
  R.Id = "id with \"quotes\" and \\ backslashes";
  R.Status = ServiceStatus::Incomplete;
  R.Output = "line one\nline two\twith tab\r\nand control \x01 byte\n";
  R.Log = "xgcc: continuing despite parse errors\n";
  R.Manifest = "{\n  \"schema\": \"mc.run-manifest.v1\"\n}\n";
  R.Error = "";
  R.ExitCode = 1;
  R.QueueMs = 12;
  R.RunMs = 345;

  std::string Line = R.serializeToString();
  EXPECT_EQ(Line.find('\n'), std::string::npos);
  ServiceResponse Parsed;
  std::string Err;
  ASSERT_TRUE(Parsed.parse(Line, &Err)) << Err;
  EXPECT_EQ(Parsed, R);
}

TEST(ServiceProtocol, MalformedAndWrongSchemaRejected) {
  ServiceRequest R;
  std::string Err;
  EXPECT_FALSE(R.parse("this is not json", &Err));
  EXPECT_FALSE(Err.empty());
  EXPECT_FALSE(R.parse("{\"schema\": \"mc.other.v1\"}", &Err));
  EXPECT_NE(Err.find("mc.service-request.v1"), std::string::npos);
  // A response line is not a request line.
  ServiceResponse Resp;
  EXPECT_FALSE(R.parse(Resp.serializeToString(), &Err));
  // A number above UINT64_MAX, or one too big for its field, is rejected at
  // its offset instead of wrapping (both used to become "jobs": 1).
  for (const char *Jobs : {"18446744073709551617", "4294967297"}) {
    std::string Line = std::string("{\"schema\": \"mc.service-request.v1\", "
                                   "\"jobs\": ") +
                       Jobs + "}";
    EXPECT_FALSE(R.parse(Line, &Err)) << Jobs;
    EXPECT_NE(Err.find("number out of range at offset 44"), std::string::npos)
        << Err;
  }
}

TEST(ServiceProtocol, RequestWireBytesArePinned) {
  // One fixed request, serialized byte for byte as the protocol has always
  // written it: the field order and spelling are the wire contract, and
  // the crash journal's fingerprint hashes exactly these bytes.
  ServiceRequest R = sampleRequest();
  R.Baseline = "base\tdir";
  R.SuppressKnown = true;
  R.Options.Interprocedural = false;
  const char *Pinned =
      "{\"schema\": \"mc.service-request.v1\", \"id\": \"req-1\", "
      "\"files\": [\"a.c\", \"dir/b.c\"], \"checkers\": [\"free\", \"lock\"], "
      "\"metal\": [{\"name\": \"no_gets.metal\", \"source\": \"sm "
      "no_gets;\\nstart: { x } ==> start;\\n\"}], \"include_dirs\": "
      "[\"/usr/include\", \"inc\"], \"defines\": [{\"name\": \"DEBUG\", "
      "\"value\": \"1\"}, {\"name\": \"NAME\", \"value\": "
      "\"\\\"quoted\\nvalue\\\"\"}], \"jobs\": 4, \"deadline_ms\": 1500, "
      "\"rank\": \"combined\", \"format\": \"json\", \"explain_top_n\": 3, "
      "\"keep_going\": true, \"baseline\": \"base\\tdir\", "
      "\"suppress_known\": true, \"options\": {\"block_cache\": false, "
      "\"function_summaries\": true, \"false_path_pruning\": true, "
      "\"dispatch_index\": true, \"interprocedural\": false, "
      "\"root_deadline_ms\": 250, \"root_path_budget\": 1000, "
      "\"max_active_states\": 77, "
      "\"fail_on\": \"degraded\"}, \"inject\": {\"slow_ms\": 10, \"die\": "
      "false, \"poison_checker\": true}}";
  EXPECT_EQ(R.serializeToString(), Pinned);
  EXPECT_EQ(R.fingerprint(), 0x13aa516a93e1979eULL);
  ServiceRequest Parsed;
  std::string Err;
  ASSERT_TRUE(Parsed.parse(Pinned, &Err)) << Err;
  EXPECT_EQ(Parsed, R);
}

TEST(ServiceProtocol, UnknownKeysSkipForForwardCompat) {
  ServiceRequest R;
  std::string Line = "{\"schema\": \"mc.service-request.v1\", "
                     "\"future_field\": {\"nested\": [1, true, \"s\"]}, "
                     "\"files\": [\"x.c\"], \"id\": \"f\"}";
  std::string Err;
  ASSERT_TRUE(R.parse(Line, &Err)) << Err;
  EXPECT_EQ(R.Id, "f");
  ASSERT_EQ(R.Files.size(), 1u);
  EXPECT_EQ(R.Files[0], "x.c");

  // An option this version no longer reads, as an older client may still
  // send it, skips too and leaves every option at its default.
  ServiceRequest Old;
  ASSERT_TRUE(Old.parse("{\"schema\": \"mc.service-request.v1\", "
                        "\"id\": \"g\", \"files\": [\"x.c\"], "
                        "\"options\": {\"state_interning\": false}}",
                        &Err))
      << Err;
  EXPECT_EQ(Old.Id, "g");
  EXPECT_EQ(Old.Options, RunRequest::EngineKnobs());
}

//===----------------------------------------------------------------------===//
// QuarantineTable
//===----------------------------------------------------------------------===//

TEST(QuarantineTable, FaultBlocksForInitialBackoff) {
  QuarantineTable Q(2, 64);
  EXPECT_FALSE(Q.blocked("freak"));
  Q.noteFault("freak");
  EXPECT_TRUE(Q.blocked("freak"));
  EXPECT_EQ(Q.remaining("freak"), 2u);
  EXPECT_FALSE(Q.onProbation("freak"));

  Q.noteCompletedRequest();
  EXPECT_TRUE(Q.blocked("freak"));
  Q.noteCompletedRequest();
  EXPECT_FALSE(Q.blocked("freak"));
  EXPECT_TRUE(Q.onProbation("freak"));
}

TEST(QuarantineTable, RefaultDoublesBackoffUpToCap) {
  QuarantineTable Q(2, 8);
  Q.noteFault("freak");
  EXPECT_EQ(Q.remaining("freak"), 2u);
  Q.noteFault("freak");
  EXPECT_EQ(Q.remaining("freak"), 4u);
  Q.noteFault("freak");
  EXPECT_EQ(Q.remaining("freak"), 8u);
  Q.noteFault("freak"); // Capped.
  EXPECT_EQ(Q.remaining("freak"), 8u);
  EXPECT_EQ(Q.faultCount("freak"), 4u);
  // Shift overflow guard: many faults still cap cleanly.
  for (int I = 0; I != 40; ++I)
    Q.noteFault("freak");
  EXPECT_EQ(Q.remaining("freak"), 8u);
}

TEST(QuarantineTable, CleanProbeResetsTheLadder) {
  QuarantineTable Q(2, 64);
  Q.noteFault("freak");
  Q.noteCompletedRequest();
  Q.noteCompletedRequest();
  ASSERT_TRUE(Q.onProbation("freak"));
  Q.noteCleanProbe("freak");
  EXPECT_FALSE(Q.blocked("freak"));
  EXPECT_EQ(Q.faultCount("freak"), 0u);
  // The next fault starts over at the initial backoff, not doubled.
  Q.noteFault("freak");
  EXPECT_EQ(Q.remaining("freak"), 2u);
}

TEST(QuarantineTable, BlockedCheckersSortedAndScoped) {
  QuarantineTable Q(1, 64);
  Q.noteFault("zeta");
  Q.noteFault("alpha");
  EXPECT_EQ(Q.blockedCheckers(),
            (std::vector<std::string>{"alpha", "zeta"}));
  EXPECT_FALSE(Q.blocked("beta"));
}

//===----------------------------------------------------------------------===//
// RequestJournal
//===----------------------------------------------------------------------===//

TEST(RequestJournal, BeginEndRecoverAbsolve) {
  fs::path Dir = fs::path(::testing::TempDir()) / "mc_journal_unit";
  std::error_code EC;
  fs::remove_all(Dir, EC);
  fs::create_directories(Dir, EC);

  RequestJournal J(Dir.string());
  EXPECT_TRUE(J.recoverSuspects().empty());

  J.begin(0xdeadbeefcafef00dULL, "{\"raw\": \"line\"}");
  EXPECT_TRUE(fs::exists(J.pathFor(0xdeadbeefcafef00dULL)));
  J.begin(0x1122334455667788ULL, "other");

  // A second journal over the same directory (the restarted process) sees
  // exactly the two open entries.
  RequestJournal Restarted(Dir.string());
  std::set<uint64_t> Suspects = Restarted.recoverSuspects();
  EXPECT_EQ(Suspects.size(), 2u);
  EXPECT_TRUE(Suspects.count(0xdeadbeefcafef00dULL));
  EXPECT_TRUE(Suspects.count(0x1122334455667788ULL));

  J.end(0xdeadbeefcafef00dULL);
  Restarted.absolve(0x1122334455667788ULL);
  EXPECT_TRUE(Restarted.recoverSuspects().empty());

  fs::remove_all(Dir, EC);
}

//===----------------------------------------------------------------------===//
// End-to-end daemon harness
//===----------------------------------------------------------------------===//

std::string writeTemp(const fs::path &Dir, const std::string &Name,
                      const std::string &Text) {
  std::string Path = (Dir / Name).string();
  std::FILE *F = std::fopen(Path.c_str(), "w");
  EXPECT_NE(F, nullptr);
  std::fwrite(Text.data(), 1, Text.size(), F);
  std::fclose(F);
  return Path;
}

/// Forks and execs the real xgccd binary; stderr goes to a log file inside
/// the test directory so failures are debuggable.
struct Daemon {
  pid_t Pid = -1;
  std::string Sock;
  std::string CacheDir;
  std::string LogPath;

  bool start(const fs::path &Dir, const std::string &Tag,
             std::vector<std::string> Extra = {}) {
    Sock = (Dir / (Tag + ".sock")).string();
    CacheDir = (Dir / "cache").string();
    LogPath = (Dir / (Tag + ".log")).string();
    std::vector<std::string> Args = {MC_XGCCD_BINARY, "--socket", Sock,
                                     "--cache-dir", CacheDir};
    for (std::string &E : Extra)
      Args.push_back(std::move(E));

    Pid = ::fork();
    if (Pid == 0) {
      int LogFd = ::open(LogPath.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (LogFd >= 0) {
        ::dup2(LogFd, 2);
        ::close(LogFd);
      }
      std::vector<char *> Argv;
      for (std::string &A : Args)
        Argv.push_back(A.data());
      Argv.push_back(nullptr);
      ::execv(MC_XGCCD_BINARY, Argv.data());
      ::_exit(127);
    }
    if (Pid < 0)
      return false;
    return waitForSocket();
  }

  bool waitForSocket() {
    for (int I = 0; I != 200; ++I) {
      int Fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
      sockaddr_un Addr;
      std::memset(&Addr, 0, sizeof(Addr));
      Addr.sun_family = AF_UNIX;
      std::memcpy(Addr.sun_path, Sock.c_str(), Sock.size());
      bool Up = ::connect(Fd, (const sockaddr *)&Addr, sizeof(Addr)) == 0;
      ::close(Fd);
      if (Up)
        return true;
      // A daemon that refused to start (e.g. the cache lock) never binds;
      // notice its exit instead of spinning out the whole timeout. The
      // status is kept for reap().
      if (::waitpid(Pid, &ExitStatus, WNOHANG) == Pid) {
        Exited = true;
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    return false;
  }

  /// Signals the daemon and reaps it; returns the wait status (-1 on error).
  int stop(int Sig = SIGTERM) {
    if (Pid < 0)
      return -1;
    if (!Exited)
      ::kill(Pid, Sig);
    return reap();
  }

  int reap() {
    if (!Exited && ::waitpid(Pid, &ExitStatus, 0) != Pid)
      ExitStatus = -1;
    Exited = false;
    Pid = -1;
    return ExitStatus;
  }

  ~Daemon() {
    if (Pid > 0 && !Exited) {
      ::kill(Pid, SIGKILL);
      ::waitpid(Pid, nullptr, 0);
    }
  }

private:
  int ExitStatus = -1;
  bool Exited = false;
};

/// One round-trip, with the response parsed.
ServiceResponse roundTrip(const Daemon &D, const ServiceRequest &Req) {
  std::string Reply, Err;
  ServiceResponse Resp;
  if (!serviceRoundTrip(D.Sock, Req.serializeToString(), Reply, &Err)) {
    Resp.Error = "transport: " + Err;
    return Resp;
  }
  EXPECT_TRUE(Resp.parse(Reply, &Err)) << Err;
  return Resp;
}

/// Runs the standalone xgcc binary, capturing stdout only (stderr dropped).
std::string runStandalone(const std::string &Args) {
  std::string Cmd = std::string(MC_XGCC_BINARY) + " " + Args + " 2>/dev/null";
  std::FILE *Pipe = popen(Cmd.c_str(), "r");
  std::string Out;
  if (!Pipe)
    return Out;
  char Buf[4096];
  size_t N;
  while ((N = fread(Buf, 1, sizeof(Buf), Pipe)) > 0)
    Out.append(Buf, N);
  pclose(Pipe);
  return Out;
}

class ServiceTest : public ::testing::Test {
protected:
  fs::path Dir;

  void SetUp() override {
    const auto *Info = ::testing::UnitTest::GetInstance()->current_test_info();
    Dir = fs::path(::testing::TempDir()) /
          (std::string("mc_svc_") + Info->name());
    std::error_code EC;
    fs::remove_all(Dir, EC);
    fs::create_directories(Dir, EC);
  }

  void TearDown() override {
    std::error_code EC;
    fs::remove_all(Dir, EC);
  }
};

const char *BuggySource = "void kfree(void *p);\n"
                          "int use_after(int *p) { kfree(p); return *p; }\n"
                          "int fine(int *p) { return p ? *p : 0; }\n";

ServiceRequest basicRequest(const std::string &File, unsigned Jobs = 1) {
  ServiceRequest Req;
  Req.Id = "t-" + std::to_string(Jobs);
  Req.Files = {File};
  Req.Checkers = {"free"};
  Req.Jobs = Jobs;
  return Req;
}

//===----------------------------------------------------------------------===//
// Byte identity with standalone xgcc
//===----------------------------------------------------------------------===//

TEST_F(ServiceTest, ResponsesByteIdenticalToStandaloneColdAndWarm) {
  std::string Src = writeTemp(Dir, "buggy.c", BuggySource);
  Daemon D;
  ASSERT_TRUE(D.start(Dir, "ident"));

  // Cold at jobs 1, warm at jobs 8: one daemon, one cache, two requests.
  ServiceResponse Cold = roundTrip(D, basicRequest(Src, 1));
  ASSERT_EQ(Cold.Status, ServiceStatus::Ok) << Cold.Error;
  ServiceResponse Warm = roundTrip(D, basicRequest(Src, 8));
  ASSERT_EQ(Warm.Status, ServiceStatus::Ok) << Warm.Error;
  EXPECT_EQ(Cold.Output, Warm.Output);
  EXPECT_NE(Cold.Output.find("1 report(s)"), std::string::npos);

  // Standalone runs (no cache dir — the daemon holds this one's lock).
  std::string Standalone1 = runStandalone("--checker free --jobs 1 " + Src);
  std::string Standalone8 = runStandalone("--checker free --jobs 8 " + Src);
  EXPECT_EQ(Cold.Output, Standalone1);
  EXPECT_EQ(Cold.Output, Standalone8);

  // The warm request replayed from the stores, not by re-analysis.
  RunManifest Man;
  std::string Err;
  ASSERT_TRUE(parseRunManifest(Warm.Manifest, Man, &Err)) << Err;
  EXPECT_GT(Man.Metrics.value("cache.summary.hits"), 0u);

  EXPECT_EQ(D.stop(), 0) << "drain must exit 0";
}

TEST_F(ServiceTest, JsonFormatAndExplainMatchStandalone) {
  std::string Src = writeTemp(Dir, "buggy.c", BuggySource);
  Daemon D;
  ASSERT_TRUE(D.start(Dir, "json"));

  ServiceRequest Req = basicRequest(Src, 2);
  Req.Format = "json";
  ServiceResponse Resp = roundTrip(D, Req);
  ASSERT_EQ(Resp.Status, ServiceStatus::Ok) << Resp.Error;
  EXPECT_EQ(Resp.Output,
            runStandalone("--checker free --jobs 2 --format json " + Src));

  ServiceRequest Explain = basicRequest(Src, 2);
  Explain.ExplainTopN = 2;
  ServiceResponse ExplainResp = roundTrip(D, Explain);
  ASSERT_EQ(ExplainResp.Status, ServiceStatus::Ok) << ExplainResp.Error;
  EXPECT_EQ(ExplainResp.Output,
            runStandalone("--checker free --jobs 2 --explain=2 " + Src));

  EXPECT_EQ(D.stop(), 0);
}

/// \p Err without UBSan's "runtime error" lines. A sanitizer build reports
/// from whichever process runs the code, so a served run's reports land in
/// the daemon's log while a standalone run's land in its own stderr.
std::string withoutSanitizerReports(const std::string &Err) {
  std::string Out;
  size_t Start = 0;
  while (Start < Err.size()) {
    size_t End = Err.find('\n', Start);
    End = End == std::string::npos ? Err.size() : End + 1;
    std::string_view Line(Err.data() + Start, End - Start);
    if (Line.find(": runtime error: ") == std::string_view::npos)
      Out.append(Line);
    Start = End;
  }
  return Out;
}

/// One xgcc invocation with stdout, stderr and the exit code kept apart.
struct CliRun {
  std::string Out;
  std::string Err;
  int Code = -1;
};

CliRun runXgcc(const std::string &Args, const fs::path &Dir) {
  std::string ErrPath = (Dir / "xgcc.stderr").string();
  std::string Cmd = std::string(MC_XGCC_BINARY) + " " + Args + " 2>" + ErrPath;
  CliRun R;
  std::FILE *Pipe = popen(Cmd.c_str(), "r");
  if (!Pipe)
    return R;
  char Buf[4096];
  size_t N;
  while ((N = fread(Buf, 1, sizeof(Buf), Pipe)) > 0)
    R.Out.append(Buf, N);
  int Status = pclose(Pipe);
  R.Code = WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
  if (std::FILE *F = std::fopen(ErrPath.c_str(), "r")) {
    while ((N = fread(Buf, 1, sizeof(Buf), F)) > 0)
      R.Err.append(Buf, N);
    std::fclose(F);
  }
  R.Err = withoutSanitizerReports(R.Err);
  return R;
}

std::string replaceAll(std::string S, const std::string &From,
                       const std::string &To) {
  for (size_t At = S.find(From); At != std::string::npos;
       At = S.find(From, At + To.size()))
    S.replace(At, From.size(), To);
  return S;
}

TEST_F(ServiceTest, XgccServerFlagRoundTrips) {
  std::string Src = writeTemp(Dir, "buggy.c", BuggySource);
  std::string Missing = (Dir / "missing.c").string();
  Daemon D;
  ASSERT_TRUE(D.start(Dir, "cli"));

  // Each invocation runs standalone and through --server. "@BL@" names a
  // baseline store per mode, so both classify against the same history.
  const std::vector<std::string> Cases = {
      "--checker free --jobs 1 " + Src,
      "--checker nosuch " + Src,
      "--checker free --rank bogus " + Src,
      "--checker free --fail-on error " + Src + " " + Missing,
      "--checker free --baseline @BL@ " + Src,
      "--checker free --baseline @BL@ --suppress-known " + Src,
      "--checker free --format json --explain=2 " + Src,
      "--checker free --checker free " + Src,
  };
  std::vector<CliRun> Locals;
  for (const std::string &Case : Cases) {
    SCOPED_TRACE(Case);
    CliRun Local =
        runXgcc(replaceAll(Case, "@BL@", (Dir / "bl-local").string()), Dir);
    CliRun Served = runXgcc("--server " + D.Sock + " " +
                                replaceAll(Case, "@BL@",
                                           (Dir / "bl-served").string()),
                            Dir);
    EXPECT_EQ(Served.Out, Local.Out);
    EXPECT_EQ(Served.Code, Local.Code);
    // A request the daemon refuses gains the documented "server: " prefix;
    // every other byte of stderr is the standalone run's.
    EXPECT_EQ(replaceAll(Served.Err, "xgcc: server: ", "xgcc: "), Local.Err);
    Locals.push_back(std::move(Local));
  }
  // The table covers what it claims: a clean run, two refused requests, a
  // partial run that --fail-on turns into exit 1, the baseline pair, and a
  // repeated checker that warns and runs once.
  EXPECT_NE(Locals[0].Out.find("1 report(s)"), std::string::npos);
  EXPECT_EQ(Locals[1].Code, 2);
  EXPECT_NE(Locals[1].Err.find("unknown builtin checker 'nosuch'"),
            std::string::npos);
  EXPECT_EQ(Locals[2].Code, 2);
  EXPECT_EQ(Locals[3].Code, 1);
  EXPECT_NE(Locals[3].Err.find("continuing despite parse errors"),
            std::string::npos);
  EXPECT_NE(Locals[4].Out.find("baseline: 1 new"), std::string::npos);
  EXPECT_NE(Locals[5].Out.find("0 report(s)"), std::string::npos);
  EXPECT_NE(Locals[6].Out.find("\"rank\": 1"), std::string::npos);
  EXPECT_EQ(Locals[7].Code, 0);
  EXPECT_NE(Locals[7].Out.find("1 report(s)"), std::string::npos);
  EXPECT_NE(Locals[7].Err.find("duplicate checker 'free_checker' ignored"),
            std::string::npos);

  EXPECT_EQ(D.stop(), 0);
}

//===----------------------------------------------------------------------===//
// Admission control and deadlines
//===----------------------------------------------------------------------===//

TEST_F(ServiceTest, OverloadedWhenQueueIsFull) {
  std::string Src = writeTemp(Dir, "buggy.c", BuggySource);
  Daemon D;
  ASSERT_TRUE(D.start(Dir, "load", {"--max-queue", "1", "--allow-inject"}));

  // One slow request occupies the executor; concurrent fast ones fight for
  // the single queue slot.
  ServiceRequest Slow = basicRequest(Src, 1);
  Slow.Id = "slow";
  Slow.InjectKnobs.SlowMs = 800;
  std::thread SlowThread([&] {
    ServiceResponse R = roundTrip(D, Slow);
    EXPECT_EQ(R.Status, ServiceStatus::Ok) << R.Error;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  unsigned Overloaded = 0, Completed = 0;
  std::vector<std::thread> Threads;
  std::vector<ServiceResponse> Resps(5);
  for (unsigned I = 0; I != 5; ++I)
    Threads.emplace_back([&, I] {
      ServiceRequest Req = basicRequest(Src, 1);
      Req.Id = "flood-" + std::to_string(I);
      Resps[I] = roundTrip(D, Req);
    });
  for (std::thread &T : Threads)
    T.join();
  SlowThread.join();
  for (const ServiceResponse &R : Resps) {
    if (R.Status == ServiceStatus::Overloaded) {
      ++Overloaded;
      EXPECT_NE(R.Error.find("queue"), std::string::npos);
    } else if (R.Status == ServiceStatus::Ok ||
               R.Status == ServiceStatus::Incomplete) {
      ++Completed;
    }
  }
  EXPECT_GE(Overloaded, 1u) << "bounded admission must reject typed";
  EXPECT_GE(Completed, 1u) << "the queue slot must still serve someone";

  EXPECT_EQ(D.stop(), 0);
}

TEST_F(ServiceTest, DeadlineExpiredInQueueIsRetriable) {
  std::string Src = writeTemp(Dir, "buggy.c", BuggySource);
  Daemon D;
  ASSERT_TRUE(D.start(Dir, "ddl", {"--allow-inject"}));

  ServiceRequest Slow = basicRequest(Src, 1);
  Slow.Id = "slow";
  Slow.InjectKnobs.SlowMs = 600;
  std::thread SlowThread([&] { roundTrip(D, Slow); });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));

  // Queued behind 600 ms of work with a 50 ms budget: answered retriable
  // without burning analysis time.
  ServiceRequest Doomed = basicRequest(Src, 1);
  Doomed.Id = "doomed";
  Doomed.DeadlineMs = 50;
  ServiceResponse R = roundTrip(D, Doomed);
  SlowThread.join();
  EXPECT_EQ(R.Status, ServiceStatus::Retriable);
  EXPECT_NE(R.Error.find("deadline"), std::string::npos);

  EXPECT_EQ(D.stop(), 0);
}

//===----------------------------------------------------------------------===//
// Graceful drain
//===----------------------------------------------------------------------===//

TEST_F(ServiceTest, SigtermMidRequestAnswersThenExitsZero) {
  std::string Src = writeTemp(Dir, "buggy.c", BuggySource);
  Daemon D;
  ASSERT_TRUE(D.start(Dir, "drain", {"--allow-inject"}));

  ServiceRequest Slow = basicRequest(Src, 1);
  Slow.InjectKnobs.SlowMs = 700;
  ServiceResponse InFlight;
  std::thread Client([&] { InFlight = roundTrip(D, Slow); });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  // SIGTERM while the request runs: it must still be answered, and the
  // daemon must exit 0 (clean drain), not die with the signal.
  int Status = D.stop(SIGTERM);
  Client.join();
  EXPECT_EQ(InFlight.Status, ServiceStatus::Ok) << InFlight.Error;
  ASSERT_TRUE(WIFEXITED(Status)) << "daemon must exit, not be killed";
  EXPECT_EQ(WEXITSTATUS(Status), 0);
}

//===----------------------------------------------------------------------===//
// Cross-request quarantine with exponential backoff
//===----------------------------------------------------------------------===//

const char *FaultySource = "void bad_call(void *p);\n"
                           "void inject_fault(void *p);\n"
                           "int f(int *p) { inject_fault(p); bad_call(p); "
                           "return *p; }\n";
const char *HarmlessSource = "void bad_call(void *p);\n"
                             "int g(int *p) { bad_call(p); return *p; }\n";

bool hasServiceExclusion(const ServiceResponse &R, unsigned *RemainingOut) {
  RunManifest Man;
  std::string Err;
  if (!parseRunManifest(R.Manifest, Man, &Err)) {
    ADD_FAILURE() << "manifest unparsable: " << Err;
    return false;
  }
  for (const RootIncident &Inc : Man.Incidents)
    if (Inc.Root == "<service>" && Inc.Checker == "fault_injector") {
      EXPECT_TRUE(Inc.Quarantined);
      EXPECT_TRUE(Inc.Fault);
      if (RemainingOut)
        *RemainingOut =
            unsigned(std::strtoul(Inc.Reason.c_str() +
                                      std::strlen("service quarantine: "
                                                  "re-probe after "),
                                  nullptr, 10));
      return true;
    }
  return false;
}

bool hasRealFault(const ServiceResponse &R) {
  RunManifest Man;
  std::string Err;
  if (!parseRunManifest(R.Manifest, Man, &Err))
    return false;
  for (const RootIncident &Inc : Man.Incidents)
    if (Inc.Root != "<service>" && Inc.Checker == "fault_injector" &&
        Inc.Fault)
      return true;
  return false;
}

TEST_F(ServiceTest, QuarantinePersistsAcrossRequestsWithBackoff) {
  std::string Faulty = writeTemp(Dir, "faulty.c", FaultySource);
  std::string Harmless = writeTemp(Dir, "harmless.c", HarmlessSource);
  Daemon D;
  ASSERT_TRUE(D.start(Dir, "quar", {"--allow-inject"}));

  auto Poison = [&](const std::string &File, const char *Id) {
    ServiceRequest Req = basicRequest(File, 1);
    Req.Id = Id;
    Req.InjectKnobs.PoisonChecker = true;
    return roundTrip(D, Req);
  };

  // Request 1: the poisoned checker faults — a real incident, and the
  // service quarantines it for 2 requests (the initial backoff).
  ServiceResponse R1 = Poison(Faulty, "q1");
  EXPECT_EQ(R1.Status, ServiceStatus::Incomplete) << R1.Error;
  EXPECT_TRUE(hasRealFault(R1));
  EXPECT_FALSE(hasServiceExclusion(R1, nullptr));

  // Requests 2-3: excluded with a synthetic incident; the sentence counts
  // down (2, then 1).
  unsigned Remaining = 0;
  ServiceResponse R2 = Poison(Faulty, "q2");
  EXPECT_FALSE(hasRealFault(R2));
  ASSERT_TRUE(hasServiceExclusion(R2, &Remaining));
  EXPECT_EQ(Remaining, 2u);
  ServiceResponse R3 = Poison(Faulty, "q3");
  ASSERT_TRUE(hasServiceExclusion(R3, &Remaining));
  EXPECT_EQ(Remaining, 1u);

  // Request 4: sentence served — the checker is re-probed, faults again,
  // and the backoff doubles: the next exclusion says 4.
  ServiceResponse R4 = Poison(Faulty, "q4");
  EXPECT_TRUE(hasRealFault(R4));
  EXPECT_FALSE(hasServiceExclusion(R4, nullptr));
  ServiceResponse R5 = Poison(Faulty, "q5");
  ASSERT_TRUE(hasServiceExclusion(R5, &Remaining));
  EXPECT_EQ(Remaining, 4u);

  // Serve the doubled sentence with harmless traffic, then probe against a
  // source that cannot trip the injector: a clean probe lifts the
  // quarantine and resets the ladder.
  for (int I = 0; I != 3; ++I) {
    ServiceRequest Req = basicRequest(Harmless, 1);
    Req.Id = "tick-" + std::to_string(I);
    ServiceResponse R = roundTrip(D, Req);
    EXPECT_TRUE(R.Status == ServiceStatus::Ok ||
                R.Status == ServiceStatus::Incomplete)
        << R.Error;
  }
  ServiceResponse CleanProbe = Poison(Harmless, "probe");
  EXPECT_FALSE(hasRealFault(CleanProbe));
  EXPECT_FALSE(hasServiceExclusion(CleanProbe, nullptr));
  // Ladder reset: the next fault is back to the initial 2-request sentence.
  ServiceResponse R6 = Poison(Faulty, "q6");
  EXPECT_TRUE(hasRealFault(R6));
  ServiceResponse R7 = Poison(Faulty, "q7");
  ASSERT_TRUE(hasServiceExclusion(R7, &Remaining));
  EXPECT_EQ(Remaining, 2u);

  EXPECT_EQ(D.stop(), 0);
}

//===----------------------------------------------------------------------===//
// Crash-journal recovery
//===----------------------------------------------------------------------===//

TEST_F(ServiceTest, RestartAfterKillDiagnosesTheKillerRequest) {
  std::string Src = writeTemp(Dir, "buggy.c", BuggySource);
  Daemon D;
  ASSERT_TRUE(D.start(Dir, "crash", {"--allow-inject"}));

  ServiceRequest Killer = basicRequest(Src, 1);
  Killer.Id = "killer";
  Killer.InjectKnobs.Die = true;
  std::string Reply, Err;
  EXPECT_FALSE(serviceRoundTrip(D.Sock, Killer.serializeToString(), Reply,
                                &Err))
      << "the daemon died mid-request; no response can arrive";
  int Status = D.reap();
  ASSERT_TRUE(WIFEXITED(Status));
  EXPECT_EQ(WEXITSTATUS(Status), 86) << "the injected _exit code";

  // The journal still holds the open entry.
  EXPECT_FALSE(fs::is_empty(fs::path(D.CacheDir) / "journal"));

  // Restart over the same store: the resent request (same fingerprint,
  // fresh id) is answered retriable with the crash diagnosis — before the
  // inject knob can kill the daemon again.
  Daemon D2;
  ASSERT_TRUE(D2.start(Dir, "crash2", {"--allow-inject"}));
  ServiceRequest Resend = Killer;
  Resend.Id = "resend";
  ServiceResponse R = roundTrip(D2, Resend);
  EXPECT_EQ(R.Status, ServiceStatus::Retriable);
  EXPECT_NE(R.Error.find("died mid-flight"), std::string::npos);
  EXPECT_EQ(R.Id, "resend");

  // Absolved: the journal entry is gone, and an innocent request works.
  EXPECT_TRUE(fs::is_empty(fs::path(D2.CacheDir) / "journal"));
  ServiceResponse Normal = roundTrip(D2, basicRequest(Src, 1));
  EXPECT_EQ(Normal.Status, ServiceStatus::Ok) << Normal.Error;

  EXPECT_EQ(D2.stop(), 0);
}

//===----------------------------------------------------------------------===//
// Error taxonomy
//===----------------------------------------------------------------------===//

TEST_F(ServiceTest, BadRequestsGetTypedErrors) {
  std::string Src = writeTemp(Dir, "buggy.c", BuggySource);
  Daemon D;
  ASSERT_TRUE(D.start(Dir, "err"));

  // Malformed JSON.
  std::string Reply, Err;
  ASSERT_TRUE(serviceRoundTrip(D.Sock, "{not json", Reply, &Err)) << Err;
  ServiceResponse R;
  ASSERT_TRUE(R.parse(Reply, &Err)) << Err;
  EXPECT_EQ(R.Status, ServiceStatus::Error);
  EXPECT_NE(R.Error.find("malformed"), std::string::npos);

  // Unknown checker: the request is bad, resending it will not help.
  ServiceRequest Bad = basicRequest(Src, 1);
  Bad.Checkers = {"no_such_checker"};
  ServiceResponse BadResp = roundTrip(D, Bad);
  EXPECT_EQ(BadResp.Status, ServiceStatus::Error);
  EXPECT_NE(BadResp.Error.find("unknown builtin checker"), std::string::npos);
  EXPECT_EQ(BadResp.ExitCode, 2u);

  // A second daemon on the same cache directory must refuse to start (the
  // lock satellite, daemon-side).
  Daemon D2;
  EXPECT_FALSE(D2.start(Dir, "err2"));
  int Status = D2.reap();
  ASSERT_TRUE(WIFEXITED(Status));
  EXPECT_EQ(WEXITSTATUS(Status), 1);

  EXPECT_EQ(D.stop(), 0);
}

//===----------------------------------------------------------------------===//
// Status RPC (mc.service-status.v1)
//===----------------------------------------------------------------------===//

TEST(ServiceProtocol, PeekSchemaRoutesLines) {
  ServiceRequest Req;
  EXPECT_EQ(peekServiceSchema(Req.serializeToString()),
            kServiceRequestSchema);
  ServiceStatusRequest St;
  EXPECT_EQ(peekServiceSchema(St.serializeToString()),
            kServiceStatusRequestSchema);
  EXPECT_EQ(peekServiceSchema("not json"), "");
  EXPECT_EQ(peekServiceSchema("{\"id\": \"no schema here\"}"), "");
  // Peeking never requires the rest of the object to be well-formed for the
  // *target* schema, only for JSON: routing happens before validation.
  EXPECT_EQ(peekServiceSchema(
                "{\"future\": [1, 2], \"schema\": \"mc.something.v9\"}"),
            "mc.something.v9");
}

TEST(ServiceProtocol, StatusRequestRoundTripIsIdentity) {
  ServiceStatusRequest R;
  R.Id = "status-\"quoted\"-id";
  std::string Line = R.serializeToString();
  EXPECT_EQ(Line.find('\n'), std::string::npos);
  ServiceStatusRequest Parsed;
  std::string Err;
  ASSERT_TRUE(Parsed.parse(Line, &Err)) << Err;
  EXPECT_EQ(Parsed, R);
  EXPECT_EQ(Parsed.serializeToString(), Line);
  // A status line is not an analysis request, and vice versa.
  ServiceRequest Analysis;
  EXPECT_FALSE(Analysis.parse(Line, &Err));
}

TEST(ServiceProtocol, StatusReplyRoundTripIsIdentity) {
  ServiceStatusReply R;
  R.Id = "st-1";
  R.UptimeMs = 123456;
  R.Ok = 10;
  R.Incomplete = 3;
  R.Overloaded = 2;
  R.Retriable = 1;
  R.Error = 4;
  R.Total = 20;
  R.PeakQueueDepth = 7;
  R.Quarantine = {{"free", 3, 2}, {"lock", 0, 1}};
  R.Baselines = {"/tmp/base-a", "/tmp/base \"b\""};
  R.CacheCounters = {{"cache.ast.hits", 12}, {"cache.summary.misses", 5}};
  ServiceStatusReply::HistogramEntry H;
  H.Name = "service.e2e_ms.ok";
  Histogram Live;
  Live.record(0);
  Live.record(3);
  Live.record(500);
  H.Snap = Live.snapshot();
  H.P50 = H.Snap.percentile(50);
  H.P95 = H.Snap.percentile(95);
  H.P99 = H.Snap.percentile(99);
  R.Histograms.push_back(H);

  std::string Line = R.serializeToString();
  EXPECT_EQ(Line.find('\n'), std::string::npos);
  ServiceStatusReply Parsed;
  std::string Err;
  ASSERT_TRUE(Parsed.parse(Line, &Err)) << Err;
  EXPECT_EQ(Parsed, R);
  // serialize ∘ parse ∘ serialize is the identity — the schema contract
  // every wire struct in Protocol.h carries.
  EXPECT_EQ(Parsed.serializeToString(), Line);
}

/// One status round-trip against a live daemon, parsed.
ServiceStatusReply statusQuery(const Daemon &D) {
  ServiceStatusRequest Req;
  Req.Id = "st";
  std::string Reply, Err;
  ServiceStatusReply St;
  EXPECT_TRUE(serviceRoundTrip(D.Sock, Req.serializeToString(), Reply, &Err))
      << Err;
  EXPECT_TRUE(St.parse(Reply, &Err)) << Err;
  return St;
}

/// Sums the counts of every histogram in \p St whose name starts with
/// \p Family ("service.e2e_ms." etc).
uint64_t familyTotal(const ServiceStatusReply &St, const std::string &Family) {
  uint64_t N = 0;
  for (const ServiceStatusReply::HistogramEntry &H : St.Histograms)
    if (H.Name.compare(0, Family.size(), Family) == 0)
      N += H.Snap.count();
  return N;
}

TEST_F(ServiceTest, StatusRpcReportsLedgerAndHistograms) {
  std::string Src = writeTemp(Dir, "buggy.c", BuggySource);
  Daemon D;
  ASSERT_TRUE(D.start(Dir, "status"));

  // A fresh daemon: alive (nonzero uptime), nothing served yet.
  ServiceStatusReply Fresh = statusQuery(D);
  EXPECT_EQ(Fresh.Id, "st");
  EXPECT_GE(Fresh.UptimeMs, 1u);
  EXPECT_EQ(Fresh.Total, 0u);
  EXPECT_TRUE(Fresh.Histograms.empty());

  // Serve a mix: 3 ok, 1 error (unknown checker).
  for (int I = 0; I != 3; ++I) {
    ServiceRequest Req = basicRequest(Src, 1);
    Req.Id = "ok-" + std::to_string(I);
    EXPECT_EQ(roundTrip(D, Req).Status, ServiceStatus::Ok);
  }
  ServiceRequest Bad = basicRequest(Src, 1);
  Bad.Checkers = {"no_such_checker"};
  EXPECT_EQ(roundTrip(D, Bad).Status, ServiceStatus::Error);

  ServiceStatusReply St = statusQuery(D);
  EXPECT_EQ(St.Ok, 3u);
  EXPECT_EQ(St.Error, 1u);
  EXPECT_EQ(St.Total, 4u);
  EXPECT_GE(St.UptimeMs, Fresh.UptimeMs);
  EXPECT_GE(St.PeakQueueDepth, 1u);
  // Status queries are not requests: the ledger counted exactly the four.
  // Every request records into all three latency families, so each family's
  // totals equal requests served — the consistency invariant the ISSUE pins.
  EXPECT_EQ(familyTotal(St, "service.e2e_ms."), St.Total);
  EXPECT_EQ(familyTotal(St, "service.queue_ms."), St.Total);
  EXPECT_EQ(familyTotal(St, "service.run_ms."), St.Total);
  // Warm traffic flowed through the shared cache and shows in the counters.
  uint64_t AstTraffic = 0;
  for (const auto &[Name, Value] : St.CacheCounters)
    if (Name == "cache.ast.hits" || Name == "cache.ast.misses")
      AstTraffic += Value;
  EXPECT_GE(AstTraffic, 3u);

  EXPECT_EQ(D.stop(), 0);
}

TEST_F(ServiceTest, StatusRpcSeesQuarantineTable) {
  std::string Faulty = writeTemp(Dir, "faulty.c", FaultySource);
  Daemon D;
  ASSERT_TRUE(D.start(Dir, "statq", {"--allow-inject"}));

  ServiceRequest Req = basicRequest(Faulty, 1);
  Req.Id = "poison";
  Req.InjectKnobs.PoisonChecker = true;
  ServiceResponse R = roundTrip(D, Req);
  EXPECT_TRUE(R.Status == ServiceStatus::Ok ||
              R.Status == ServiceStatus::Incomplete)
      << R.Error;

  ServiceStatusReply St = statusQuery(D);
  ASSERT_EQ(St.Quarantine.size(), 1u);
  EXPECT_EQ(St.Quarantine[0].Checker, "fault_injector");
  EXPECT_EQ(St.Quarantine[0].Remaining, 2u); // The initial backoff sentence.
  EXPECT_EQ(St.Quarantine[0].Faults, 1u);

  EXPECT_EQ(D.stop(), 0);
}

//===----------------------------------------------------------------------===//
// Event log and flight recorder
//===----------------------------------------------------------------------===//

std::vector<std::string> fileLines(const std::string &Path) {
  std::vector<std::string> Out;
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return Out;
  std::string All;
  char Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    All.append(Buf, N);
  std::fclose(F);
  size_t Pos = 0, NL;
  while ((NL = All.find('\n', Pos)) != std::string::npos) {
    Out.push_back(All.substr(Pos, NL - Pos));
    Pos = NL + 1;
  }
  return Out;
}

bool anyLineContains(const std::vector<std::string> &Lines,
                     const std::string &A, const std::string &B = "") {
  for (const std::string &L : Lines)
    if (L.find(A) != std::string::npos &&
        (B.empty() || L.find(B) != std::string::npos))
      return true;
  return false;
}

TEST_F(ServiceTest, SlowRequestLeavesFlightRecorderCaptureAndEventTrail) {
  std::string Src = writeTemp(Dir, "buggy.c", BuggySource);
  std::string EventPath = (Dir / "events.jsonl").string();
  Daemon D;
  ASSERT_TRUE(D.start(Dir, "flight",
                      {"--allow-inject", "--slow-request-ms", "500",
                       "--log-file", EventPath}));

  // Fast request: no capture (generous threshold so a loaded CI machine
  // cannot push an honest tiny-file request over it).
  EXPECT_EQ(roundTrip(D, basicRequest(Src, 1)).Status, ServiceStatus::Ok);
  fs::path FlightDir = fs::path(D.CacheDir) / "flightrec";
  EXPECT_TRUE(!fs::exists(FlightDir) || fs::is_empty(FlightDir));

  // Injected-slow request: crosses --slow-request-ms, must be captured.
  ServiceRequest Slow = basicRequest(Src, 1);
  Slow.Id = "slowpoke";
  Slow.InjectKnobs.SlowMs = 800;
  EXPECT_EQ(roundTrip(D, Slow).Status, ServiceStatus::Ok);

  // Exactly one capture: request + manifest + trace under flightrec/.
  std::vector<std::string> Bases;
  for (const auto &E : fs::directory_iterator(FlightDir)) {
    std::string Name = E.path().filename().string();
    if (Name.size() > 13 && Name.substr(Name.size() - 13) == ".request.json")
      Bases.push_back(Name.substr(0, Name.size() - 13));
  }
  ASSERT_EQ(Bases.size(), 1u) << "expected exactly one capture";
  std::string Base = Bases[0];
  EXPECT_EQ(Base.compare(0, 4, "cap-"), 0);
  EXPECT_TRUE(fs::exists(FlightDir / (Base + ".manifest.json")));
  EXPECT_TRUE(fs::exists(FlightDir / (Base + ".trace.json")));
  // The captured request is the raw wire line: it re-parses.
  auto ReqLines = fileLines((FlightDir / (Base + ".request.json")).string());
  ASSERT_EQ(ReqLines.size(), 1u);
  ServiceRequest Recovered;
  std::string Err;
  ASSERT_TRUE(Recovered.parse(ReqLines[0], &Err)) << Err;
  EXPECT_EQ(Recovered.Id, "slowpoke");

  EXPECT_EQ(D.stop(), 0);

  // The event log tells the same story: admit + complete for both requests,
  // the slow one's completion referencing the capture by name.
  auto Events = fileLines(EventPath);
  EXPECT_TRUE(anyLineContains(Events, "\"event\": \"start\""));
  EXPECT_TRUE(anyLineContains(Events, "\"event\": \"admit\"",
                              "\"id\": \"slowpoke\""));
  EXPECT_TRUE(anyLineContains(Events, "\"event\": \"complete\"",
                              "\"flightrec\": \"" + Base + "\""));
  // Sequence numbers are monotonically increasing from 1.
  uint64_t Prev = 0;
  for (const std::string &L : Events) {
    size_t P = L.find("\"seq\": ");
    ASSERT_NE(P, std::string::npos) << L;
    uint64_t Seq = std::strtoull(L.c_str() + P + 7, nullptr, 10);
    EXPECT_EQ(Seq, Prev + 1) << L;
    Prev = Seq;
  }
  // Every event line carries the schema tag.
  for (const std::string &L : Events)
    EXPECT_NE(L.find("\"schema\": \"mc.service-event.v1\""),
              std::string::npos);
}

TEST_F(ServiceTest, ErrorTerminalsAreCapturedAndTheRingIsBounded) {
  std::string Src = writeTemp(Dir, "buggy.c", BuggySource);
  Daemon D;
  ASSERT_TRUE(D.start(Dir, "ring", {"--flightrec-max", "2"}));

  // Error terminals capture regardless of --slow-request-ms (not given).
  for (int I = 0; I != 4; ++I) {
    ServiceRequest Bad = basicRequest(Src, 1);
    Bad.Id = "bad-" + std::to_string(I);
    Bad.Checkers = {"no_such_checker"};
    EXPECT_EQ(roundTrip(D, Bad).Status, ServiceStatus::Error);
  }

  // The ring kept only the 2 newest capture groups.
  fs::path FlightDir = fs::path(D.CacheDir) / "flightrec";
  std::set<std::string> Groups;
  for (const auto &E : fs::directory_iterator(FlightDir)) {
    std::string Name = E.path().filename().string();
    ASSERT_GE(Name.size(), 11u);
    Groups.insert(Name.substr(0, 11));
  }
  EXPECT_EQ(Groups.size(), 2u);
  // And they are the *newest* two: sequences 3 and 4.
  EXPECT_TRUE(Groups.count("cap-000003-"));
  EXPECT_TRUE(Groups.count("cap-000004-"));

  EXPECT_EQ(D.stop(), 0);
}

TEST_F(ServiceTest, DrainWritesSummaryEvent) {
  std::string Src = writeTemp(Dir, "buggy.c", BuggySource);
  std::string EventPath = (Dir / "events.jsonl").string();
  Daemon D;
  ASSERT_TRUE(D.start(Dir, "drainlog", {"--log-file", EventPath}));
  EXPECT_EQ(roundTrip(D, basicRequest(Src, 1)).Status, ServiceStatus::Ok);
  EXPECT_EQ(D.stop(SIGTERM), 0);

  auto Events = fileLines(EventPath);
  ASSERT_FALSE(Events.empty());
  // The last event of a clean drain is the life summary.
  const std::string &Last = Events.back();
  EXPECT_NE(Last.find("\"event\": \"drain\""), std::string::npos);
  EXPECT_NE(Last.find("\"ok\": 1"), std::string::npos);
  EXPECT_NE(Last.find("\"total\": 1"), std::string::npos);
  EXPECT_NE(Last.find("\"peak_queue_depth\": 1"), std::string::npos);
  EXPECT_NE(Last.find("\"uptime_ms\": "), std::string::npos);
}

TEST_F(ServiceTest, ObservabilityNeverPerturbsResponseBytes) {
  // The determinism gate: report and manifest bytes must be identical with
  // the full observability surface on vs off, at jobs 1 and 8.
  std::string Src = writeTemp(Dir, "buggy.c", BuggySource);
  fs::path PlainDir = Dir / "plain", LoudDir = Dir / "loud";
  std::error_code EC;
  fs::create_directories(PlainDir, EC);
  fs::create_directories(LoudDir, EC);

  Daemon Plain, Loud;
  ASSERT_TRUE(Plain.start(PlainDir, "plain", {"--allow-inject"}));
  ASSERT_TRUE(Loud.start(LoudDir, "loud",
                         {"--allow-inject", "--log-file",
                          (LoudDir / "ev.jsonl").string(), "--slow-request-ms",
                          "50", "--flightrec-max", "4"}));

  for (unsigned Jobs : {1u, 8u}) {
    ServiceResponse A = roundTrip(Plain, basicRequest(Src, Jobs));
    ServiceResponse B = roundTrip(Loud, basicRequest(Src, Jobs));
    ASSERT_EQ(A.Status, ServiceStatus::Ok) << A.Error;
    ASSERT_EQ(B.Status, ServiceStatus::Ok) << B.Error;
    EXPECT_EQ(A.Output, B.Output) << "jobs=" << Jobs;
    EXPECT_EQ(A.Manifest, B.Manifest) << "jobs=" << Jobs;
  }
  // An injected-slow request crosses Loud's threshold, so its flight
  // recorder runs on the exact request whose bytes must still match the
  // plain daemon's.
  ServiceRequest SlowA = basicRequest(Src, 1), SlowB = basicRequest(Src, 1);
  SlowA.InjectKnobs.SlowMs = SlowB.InjectKnobs.SlowMs = 100;
  ServiceResponse A = roundTrip(Plain, SlowA);
  ServiceResponse B = roundTrip(Loud, SlowB);
  ASSERT_EQ(A.Status, ServiceStatus::Ok) << A.Error;
  ASSERT_EQ(B.Status, ServiceStatus::Ok) << B.Error;
  EXPECT_EQ(A.Output, B.Output);
  EXPECT_EQ(A.Manifest, B.Manifest);
  EXPECT_FALSE(fs::is_empty(fs::path(Loud.CacheDir) / "flightrec"));

  EXPECT_EQ(Plain.stop(), 0);
  EXPECT_EQ(Loud.stop(), 0);
}

} // namespace
