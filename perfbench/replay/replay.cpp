//===- perfbench/replay/replay.cpp - Traced in-process workload replay ----===//
//
// Part of the metal/xgcc reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Replays one benchmark workload in-process, through the same public calls
// xgcc and xgccd make, and records a span around every call into the layers'
// public entry points. The spans come from this file alone: the link wraps
// each entry point (ld --wrap; the symbols are listed in wrapped.txt), so
// calls the libraries make into one another, on any thread, pass through
// the wrappers here. Nothing in the program changes.
//
// Usage (run with the corpus directory as the working directory):
//   replay PLAN TRACE_OUT OPS_OUT
//
// PLAN is a tab-separated op list written by perfbench/run.py:
//   files  F...                          the corpus, in command-line order
//   run       OP TRACED                  uncached whole-corpus run, --jobs 4
//   cached    OP TRACED CACHE BASELINE   --cache-dir/--baseline run
//   edit      FILE SOURCE                copy SOURCE over FILE (untimed)
//   fpp       OP EVERY                   FPP on/off probe on every EVERY-th root
//   serve     SOCKET CACHE               start an in-process xgccd server
//   request   OP TRACED JOBS F...        one wire request (mc.service-request.v1)
//   stop                                 drain and join the server
//
// Spans are kept in memory and written once at exit as Chrome trace-event
// JSON (the format --trace-out writes) with args {id, parent, op}; OPS_OUT
// gets one JSON line per op: wall and CPU time, reports, baseline delta and
// the metrics snapshot, which perfbench/run.py checks and reduces.
//
//===----------------------------------------------------------------------===//

#include "driver/Tool.h"
#include "lifecycle/BaselineStore.h"
#include "service/Client.h"
#include "service/Protocol.h"
#include "service/Server.h"
#include "support/RawOstream.h"
#include "wrapped.h"

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <deque>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace mc;

namespace {

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

uint64_t nowNs() {
  return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count());
}

struct SpanRec {
  const char *Name;
  uint64_t Start, End, Id, Parent, Op, Bytes;
  uint32_t Tid;
};

std::atomic<bool> Tracing{false};
std::atomic<uint64_t> CurOp{0};
std::atomic<uint64_t> NextId{1};
/// Innermost open span of the main thread: the parent of a span opened on a
/// thread with no open span of its own (pool workers, the server's threads).
std::atomic<uint64_t> MainTop{0};
std::thread::id MainThread;

std::mutex BufMu;
std::deque<std::vector<SpanRec>> Buffers; // One per thread; stable addresses.

struct ThreadState {
  std::vector<SpanRec> *Buf = nullptr;
  std::vector<uint64_t> Stack;
  uint32_t Tid = 0;
};
thread_local ThreadState TS;

class Span {
public:
  explicit Span(const char *Name) {
    if (!Tracing.load(std::memory_order_relaxed))
      return;
    Active = true;
    Main = std::this_thread::get_id() == MainThread;
    Rec.Name = Name;
    Rec.Id = NextId.fetch_add(1);
    Rec.Op = CurOp.load();
    Rec.Parent = !TS.Stack.empty() ? TS.Stack.back()
                                   : (Main ? 0 : MainTop.load());
    Rec.Bytes = 0;
    TS.Stack.push_back(Rec.Id);
    if (Main)
      MainTop.store(Rec.Id);
    Rec.Start = nowNs();
  }
  ~Span() {
    if (!Active)
      return;
    Rec.End = nowNs();
    TS.Stack.pop_back();
    if (Main)
      MainTop.store(TS.Stack.empty() ? 0 : TS.Stack.back());
    if (!TS.Buf) {
      std::lock_guard<std::mutex> L(BufMu);
      Buffers.emplace_back();
      TS.Buf = &Buffers.back();
      TS.Tid = uint32_t(Buffers.size());
    }
    Rec.Tid = TS.Tid;
    TS.Buf->push_back(Rec);
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;
  void setBytes(uint64_t B) { Rec.Bytes = B; }

private:
  SpanRec Rec{};
  bool Active = false;
  bool Main = false;
};

void writeJsonString(std::ostream &OS, const std::string &S) {
  OS << '"';
  for (char C : S) {
    if (C == '"' || C == '\\')
      OS << '\\' << C;
    else if ((unsigned char)C < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      OS << Buf;
    } else
      OS << C;
  }
  OS << '"';
}

void exportTrace(const std::string &Path) {
  uint64_t Base = UINT64_MAX;
  for (const auto &B : Buffers)
    for (const SpanRec &S : B)
      Base = std::min(Base, S.Start);
  std::ofstream OS(Path);
  OS << "{\"traceEvents\":[";
  bool First = true;
  char Buf[256];
  for (const auto &B : Buffers)
    for (const SpanRec &S : B) {
      std::snprintf(Buf, sizeof(Buf),
                    "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                    "\"dur\":%.3f,\"pid\":1,\"tid\":%u,\"args\":{\"id\":\"%llu\","
                    "\"parent\":\"%llu\",\"op\":\"%llu\",\"bytes\":\"%llu\"}}",
                    First ? "" : ",", S.Name, double(S.Start - Base) / 1000.0,
                    double(S.End - S.Start) / 1000.0, S.Tid,
                    (unsigned long long)S.Id, (unsigned long long)S.Parent,
                    (unsigned long long)S.Op, (unsigned long long)S.Bytes);
      OS << Buf;
      First = false;
    }
  OS << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

} // namespace

//===----------------------------------------------------------------------===//
// Wrapped entry points. Each WRAP(sym) defines __wrap_<sym>, which the link
// substitutes for every reference to <sym>; REAL(sym) names the original.
// CMakeLists.txt passes -Wl,--wrap=<sym> for every line of wrapped.txt.
//===----------------------------------------------------------------------===//

#define REAL(sym) asm("__real_" sym)
#define WRAP(sym) asm("__wrap_" sym)

std::string realPreprocess(Preprocessor *, unsigned) REAL(SYM_PREPROCESS);
std::string wrapPreprocess(Preprocessor *, unsigned) WRAP(SYM_PREPROCESS);
std::string wrapPreprocess(Preprocessor *P, unsigned FileID) {
  Span S("cfront.preprocess");
  std::string Out = realPreprocess(P, FileID);
  S.setBytes(Out.size());
  return Out;
}

uint64_t realTokHash(const SourceManager &, unsigned) REAL(SYM_TOKHASH);
uint64_t wrapTokHash(const SourceManager &, unsigned) WRAP(SYM_TOKHASH);
uint64_t wrapTokHash(const SourceManager &SM, unsigned FileID) {
  Span S("cfront.hash");
  return realTokHash(SM, FileID);
}

bool realParse(Parser *) REAL(SYM_PARSE);
bool wrapParse(Parser *) WRAP(SYM_PARSE);
bool wrapParse(Parser *P) {
  Span S("cfront.parse");
  return realParse(P);
}

bool realReadMast(const std::string &, ASTContext &, unsigned,
                  std::vector<Decl *> &, std::vector<FunctionDecl *> &,
                  std::string *) REAL(SYM_READMAST);
bool wrapReadMast(const std::string &, ASTContext &, unsigned,
                  std::vector<Decl *> &, std::vector<FunctionDecl *> &,
                  std::string *) WRAP(SYM_READMAST);
bool wrapReadMast(const std::string &Image, ASTContext &Ctx, unsigned FileID,
                  std::vector<Decl *> &Top, std::vector<FunctionDecl *> &Fns,
                  std::string *Err) {
  Span S("store.ast_decode");
  S.setBytes(Image.size());
  return realReadMast(Image, Ctx, FileID, Top, Fns, Err);
}

bool realCacheLoad(AnalysisCache *, AnalysisCache::Kind, uint64_t,
                   std::string &) REAL(SYM_CACHELOAD);
bool wrapCacheLoad(AnalysisCache *, AnalysisCache::Kind, uint64_t,
                   std::string &) WRAP(SYM_CACHELOAD);
bool wrapCacheLoad(AnalysisCache *C, AnalysisCache::Kind K, uint64_t Key,
                   std::string &Out) {
  Span S(K == AnalysisCache::Kind::Ast ? "store.ast_load"
                                       : "store.summary_probe");
  bool Hit = realCacheLoad(C, K, Key, Out);
  S.setBytes(Hit ? Out.size() : 0);
  return Hit;
}

void realCacheStore(AnalysisCache *, AnalysisCache::Kind, uint64_t,
                    const std::string &) REAL(SYM_CACHESTORE);
void wrapCacheStore(AnalysisCache *, AnalysisCache::Kind, uint64_t,
                    const std::string &) WRAP(SYM_CACHESTORE);
void wrapCacheStore(AnalysisCache *C, AnalysisCache::Kind K, uint64_t Key,
                    const std::string &Payload) {
  Span S("store.record");
  S.setBytes(Payload.size());
  realCacheStore(C, K, Key, Payload);
}

void realCgBuild(CallGraph *, const ASTContext &) REAL(SYM_CGBUILD);
void wrapCgBuild(CallGraph *, const ASTContext &) WRAP(SYM_CGBUILD);
void wrapCgBuild(CallGraph *CG, const ASTContext &Ctx) {
  Span S("cfg.build");
  realCgBuild(CG, Ctx);
}

std::unique_ptr<MetalChecker> realMakeChecker(const std::string &,
                                              SourceManager &,
                                              DiagnosticEngine &)
    REAL(SYM_MAKECHECKER);
std::unique_ptr<MetalChecker> wrapMakeChecker(const std::string &,
                                              SourceManager &,
                                              DiagnosticEngine &)
    WRAP(SYM_MAKECHECKER);
std::unique_ptr<MetalChecker> wrapMakeChecker(const std::string &Name,
                                              SourceManager &SM,
                                              DiagnosticEngine &D) {
  Span S("metal.compile");
  return realMakeChecker(Name, SM, D);
}

void realBeginChecker(Engine *, Checker &) REAL(SYM_BEGINCHECKER);
void wrapBeginChecker(Engine *, Checker &) WRAP(SYM_BEGINCHECKER);
void wrapBeginChecker(Engine *E, Checker &C) {
  Span S("engine.begin_checker");
  realBeginChecker(E, C);
}

RootOutcome realAnalyzeRoot(Engine *, Checker &, const FunctionDecl *)
    REAL(SYM_ANALYZEROOT);
RootOutcome wrapAnalyzeRoot(Engine *, Checker &, const FunctionDecl *)
    WRAP(SYM_ANALYZEROOT);
RootOutcome wrapAnalyzeRoot(Engine *E, Checker &C, const FunctionDecl *Root) {
  Span S("engine.analyze_root");
  return realAnalyzeRoot(E, C, Root);
}

bool realAddSources(XgccTool *, const std::vector<std::string> &, unsigned)
    REAL(SYM_ADDSOURCES);
bool wrapAddSources(XgccTool *, const std::vector<std::string> &, unsigned)
    WRAP(SYM_ADDSOURCES);
bool wrapAddSources(XgccTool *T, const std::vector<std::string> &Paths,
                    unsigned Jobs) {
  Span S("driver.add_sources");
  return realAddSources(T, Paths, Jobs);
}

void realToolRun(XgccTool *, const EngineOptions &) REAL(SYM_TOOLRUN);
void wrapToolRun(XgccTool *, const EngineOptions &) WRAP(SYM_TOOLRUN);
void wrapToolRun(XgccTool *T, const EngineOptions &Opts) {
  Span S("driver.run");
  realToolRun(T, Opts);
}

void realFinishCache(XgccTool *) REAL(SYM_FINISHCACHE);
void wrapFinishCache(XgccTool *) WRAP(SYM_FINISHCACHE);
void wrapFinishCache(XgccTool *T) {
  Span S("store.finish");
  realFinishCache(T);
}

void realToolDtor(XgccTool *) REAL(SYM_TOOLDTOR);
void wrapToolDtor(XgccTool *) WRAP(SYM_TOOLDTOR);
void wrapToolDtor(XgccTool *T) {
  Span S("driver.teardown");
  realToolDtor(T);
}

std::vector<size_t> realRanked(const ReportManager *, RankPolicy)
    REAL(SYM_RANKED);
std::vector<size_t> wrapRanked(const ReportManager *, RankPolicy)
    WRAP(SYM_RANKED);
std::vector<size_t> wrapRanked(const ReportManager *RM, RankPolicy P) {
  Span S("report.rank");
  return realRanked(RM, P);
}

void realPrint(const ReportManager *, raw_ostream &, RankPolicy)
    REAL(SYM_PRINT);
void wrapPrint(const ReportManager *, raw_ostream &, RankPolicy)
    WRAP(SYM_PRINT);
void wrapPrint(const ReportManager *RM, raw_ostream &OS, RankPolicy P) {
  Span S("report.render");
  realPrint(RM, OS, P);
}

void realPrintJson(const ReportManager *, raw_ostream &, RankPolicy)
    REAL(SYM_PRINTJSON);
void wrapPrintJson(const ReportManager *, raw_ostream &, RankPolicy)
    WRAP(SYM_PRINTJSON);
void wrapPrintJson(const ReportManager *RM, raw_ostream &OS, RankPolicy P) {
  Span S("report.render");
  realPrintJson(RM, OS, P);
}

bool realBlOpen(BaselineStore *, const std::string &, std::string *)
    REAL(SYM_BLOPEN);
bool wrapBlOpen(BaselineStore *, const std::string &, std::string *)
    WRAP(SYM_BLOPEN);
bool wrapBlOpen(BaselineStore *B, const std::string &Dir, std::string *Err) {
  Span S("lifecycle.open");
  return realBlOpen(B, Dir, Err);
}

BaselineDelta realBlRecord(BaselineStore *, ReportManager &, bool)
    REAL(SYM_BLRECORD);
BaselineDelta wrapBlRecord(BaselineStore *, ReportManager &, bool)
    WRAP(SYM_BLRECORD);
BaselineDelta wrapBlRecord(BaselineStore *B, ReportManager &RM, bool SK) {
  Span S("lifecycle.classify");
  return realBlRecord(B, RM, SK);
}

bool realBlSave(const BaselineStore *, std::string *) REAL(SYM_BLSAVE);
bool wrapBlSave(const BaselineStore *, std::string *) WRAP(SYM_BLSAVE);
bool wrapBlSave(const BaselineStore *B, std::string *Err) {
  Span S("lifecycle.save");
  return realBlSave(B, Err);
}

namespace {

//===----------------------------------------------------------------------===//
// Ops
//===----------------------------------------------------------------------===//

std::vector<std::string> splitTabs(const std::string &Line) {
  std::vector<std::string> Out;
  std::string Cur;
  std::istringstream IS(Line);
  while (std::getline(IS, Cur, '\t'))
    Out.push_back(Cur);
  return Out;
}

uint64_t cpuNs() {
  struct rusage RU;
  getrusage(RUSAGE_SELF, &RU);
  auto Ns = [](const timeval &T) {
    return uint64_t(T.tv_sec) * 1000000000ull + uint64_t(T.tv_usec) * 1000ull;
  };
  return Ns(RU.ru_utime) + Ns(RU.ru_stime);
}

struct OpResult {
  std::string Kind;
  uint64_t Op = 0;
  bool Traced = false;
  uint64_t WallNs = 0, CpuNs = 0;
  std::string ReportsJson = "[]";
  std::string Extra; ///< Further "key": value pairs, comma-led.
  MetricsSnapshot Metrics;
};

void writeOp(std::ostream &OS, const OpResult &R) {
  OS << "{\"op\": " << R.Op << ", \"kind\": \"" << R.Kind
     << "\", \"traced\": " << (R.Traced ? 1 : 0) << ", \"wall_ns\": "
     << R.WallNs << ", \"cpu_ns\": " << R.CpuNs
     << ", \"reports\": " << R.ReportsJson << R.Extra << ", \"metrics\": {";
  bool First = true;
  for (const auto &[Name, Value] : R.Metrics) {
    OS << (First ? "" : ", ");
    writeJsonString(OS, Name);
    OS << ": " << Value;
    First = false;
  }
  OS << "}}\n";
}

std::string reportsJson(const ReportManager &RM) {
  std::ostringstream OS;
  OS << "[";
  bool First = true;
  for (const ErrorReport &R : RM.reports()) {
    OS << (First ? "" : ", ") << "[";
    writeJsonString(OS, R.File);
    OS << ", " << R.Line << ", ";
    writeJsonString(OS, R.CheckerName);
    OS << ", ";
    writeJsonString(OS, R.Message);
    OS << "]";
    First = false;
  }
  OS << "]";
  return OS.str();
}

/// The CLI's default suite, in the CLI's order (path_kill first).
std::vector<std::string> suite() {
  std::vector<std::string> Names = builtinCheckerNames();
  std::stable_sort(Names.begin(), Names.end(),
                   [](const std::string &A, const std::string &B) {
                     return (A == "path_kill") > (B == "path_kill");
                   });
  return Names;
}

/// One xgcc invocation, as xgcc_main.cpp sequences it: pass 1, checkers,
/// run, cache bookkeeping, baseline classification, rendering.
void toolOp(OpResult &R, const std::vector<std::string> &Files,
            const std::string &CacheDir, const std::string &BaselineDir) {
  std::string Diag;
  raw_string_ostream DiagOS(Diag);
  XgccTool Tool(&DiagOS);
  if (!CacheDir.empty())
    Tool.setCacheDir(CacheDir);
  EngineOptions Opts;
  Opts.Jobs = 4;
  // Per-checker callout time is measured in the traced run only.
  Opts.Reporting.ProfileTopN = R.Traced ? 5 : 0;
  Tool.addSourceFiles(Files, Opts.Jobs);
  for (const std::string &Name : suite())
    Tool.addBuiltinChecker(Name);
  Tool.run(Opts);
  Tool.finishCache();
  std::ostringstream Extra;
  if (!BaselineDir.empty()) {
    BaselineStore Store;
    std::string Err;
    if (!Store.open(BaselineDir, &Err)) {
      errs() << "replay: cannot open baseline: " << Err << '\n';
      std::exit(1);
    }
    BaselineDelta D = Store.recordRun(Tool.reports(), false);
    if (!Store.save(&Err)) {
      errs() << "replay: cannot write baseline: " << Err << '\n';
      std::exit(1);
    }
    Extra << ", \"delta\": [" << D.NewCount << ", " << D.KnownCount << ", "
          << D.FixedCount << "], \"entries\": " << Store.entries().size();
  }
  // print() ranks internally, out of the wrapper's reach; one explicit
  // ranked() call gives report.rank its own span.
  (void)Tool.reports().ranked(RankPolicy::Generic);
  std::string Out;
  raw_string_ostream OS(Out);
  Tool.reports().print(OS, RankPolicy::Generic);
  OS.flush();
  Extra << ", \"cfg_blocks\": " << Tool.callGraph().numCFGBlocks()
        << ", \"cfg_roots\": " << Tool.callGraph().roots().size();
  R.Extra = Extra.str();
  R.ReportsJson = reportsJson(Tool.reports());
  R.Metrics = Tool.metrics();
}

/// Times every EVERY-th root of every checker in isolated engines with FPP on
/// and off, untraced; reports the on-minus-off time over the (root, checker)
/// pairs where FPP pruned nothing, so both settings walked the same paths.
void fppProbe(OpResult &R, const std::vector<std::string> &Files,
              unsigned Every) {
  std::string Diag;
  raw_string_ostream DiagOS(Diag);
  XgccTool Tool(&DiagOS);
  Tool.addSourceFiles(Files, 4);
  for (const std::string &Name : suite())
    Tool.addBuiltinChecker(Name);
  Tool.finalize();
  const auto &Roots = Tool.callGraph().roots();
  uint64_t OnNs = 0, OffNs = 0, Pairs = 0, Sampled = 0;
  for (size_t I = 0; I < Roots.size(); I += Every) {
    for (auto &C : Tool.checkers()) {
      uint64_t Ns[2] = {0, 0}, Pruned = 0;
      for (int Fpp = 1; Fpp >= 0; --Fpp) {
        EngineOptions Opts;
        Opts.EnableFalsePathPruning = Fpp;
        ReportManager Sink;
        Engine E(Tool.context(), Tool.sourceManager(), Tool.callGraph(), Sink,
                 Opts);
        E.beginChecker(*C);
        uint64_t T0 = nowNs();
        E.analyzeRoot(*C, Roots[I]);
        Ns[Fpp] = nowNs() - T0;
        if (Fpp)
          Pruned = E.metrics().snapshot().value("engine.paths.pruned");
      }
      ++Sampled;
      if (Pruned)
        continue;
      OnNs += Ns[1];
      OffNs += Ns[0];
      ++Pairs;
    }
  }
  std::ostringstream Extra;
  Extra << ", \"fpp_on_ns\": " << OnNs << ", \"fpp_off_ns\": " << OffNs
        << ", \"fpp_pairs\": " << Pairs << ", \"fpp_sampled\": " << Sampled;
  R.Extra = Extra.str();
}

bool waitForSocket(const std::string &Path) {
  for (int I = 0; I < 30000; ++I) {
    int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un A{};
    A.sun_family = AF_UNIX;
    std::snprintf(A.sun_path, sizeof(A.sun_path), "%s", Path.c_str());
    bool Ok = ::connect(Fd, reinterpret_cast<sockaddr *>(&A), sizeof(A)) == 0;
    ::close(Fd);
    if (Ok)
      return true;
    ::usleep(1000);
  }
  return false;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc != 4) {
    std::fprintf(stderr, "usage: replay PLAN TRACE_OUT OPS_OUT\n");
    return 2;
  }
  std::signal(SIGPIPE, SIG_IGN);
  MainThread = std::this_thread::get_id();
  std::ifstream Plan(Argv[1]);
  std::ofstream Ops(Argv[3]);
  if (!Plan || !Ops) {
    std::fprintf(stderr, "replay: cannot open plan or output\n");
    return 2;
  }
  std::vector<std::string> Files;
  std::unique_ptr<ServiceServer> Server;
  std::thread ServerThread;
  std::string Socket;
  std::string Line;
  while (std::getline(Plan, Line)) {
    std::vector<std::string> F = splitTabs(Line);
    if (F.empty())
      continue;
    const std::string &Cmd = F[0];
    if (Cmd == "files") {
      Files.assign(F.begin() + 1, F.end());
      continue;
    }
    if (Cmd == "edit") {
      std::string Text;
      if (!readFileBytes(F[2], Text) || !writeFileBytes(F[1], Text)) {
        std::fprintf(stderr, "replay: edit of %s failed\n", F[1].c_str());
        return 1;
      }
      continue;
    }
    if (Cmd == "serve") {
      ServiceConfig Cfg;
      Cfg.SocketPath = Socket = F[1];
      Cfg.CacheDir = F[2];
      Cfg.DefaultJobs = 4;
      Server = std::make_unique<ServiceServer>(Cfg);
      if (!Server->start())
        return 1;
      ServerThread = std::thread([&] { Server->serve(); });
      if (!waitForSocket(Socket))
        return 1;
      continue;
    }
    if (Cmd == "stop") {
      Server->requestStop();
      ServerThread.join();
      Server.reset();
      continue;
    }

    OpResult R;
    R.Kind = Cmd;
    R.Op = std::stoull(F[1]);
    R.Traced = Cmd != "fpp" && F[2] == "1";
    CurOp.store(R.Op);
    Tracing.store(R.Traced);
    uint64_t Cpu0 = cpuNs();
    uint64_t T0 = nowNs();
    {
      Span OpSpan("op");
      if (Cmd == "run") {
        toolOp(R, Files, "", "");
      } else if (Cmd == "cached") {
        toolOp(R, Files, F[3], F[4]);
      } else if (Cmd == "fpp") {
        fppProbe(R, Files, unsigned(std::stoul(F[2])));
      } else if (Cmd == "request") {
        ServiceRequest Req;
        Req.Id = "replay-" + F[1];
        Req.Files.assign(F.begin() + 4, F.end());
        Req.Jobs = unsigned(std::stoul(F[3]));
        Req.Format = "json";
        std::string Reply, Err;
        bool Ok;
        {
          Span S("service.round_trip");
          Ok = serviceRoundTrip(Socket, Req.serializeToString(), Reply, &Err);
        }
        ServiceResponse Resp;
        if (!Ok || !Resp.parse(Reply, &Err)) {
          std::fprintf(stderr, "replay: request failed: %s\n", Err.c_str());
          return 1;
        }
        std::ostringstream Extra;
        Extra << ", \"status\": \"" << serviceStatusName(Resp.Status)
              << "\", \"queue_ms\": " << Resp.QueueMs
              << ", \"run_ms\": " << Resp.RunMs << ", \"output\": ";
        writeJsonString(Extra, Resp.Output);
        Extra << ", \"manifest\": ";
        writeJsonString(Extra, Resp.Manifest);
        R.Extra = Extra.str();
      } else {
        std::fprintf(stderr, "replay: unknown op '%s'\n", Cmd.c_str());
        return 2;
      }
    }
    R.WallNs = nowNs() - T0;
    R.CpuNs = cpuNs() - Cpu0;
    Tracing.store(false);
    writeOp(Ops, R);
  }
  if (Server) {
    Server->requestStop();
    ServerThread.join();
  }
  exportTrace(Argv[2]);
  return 0;
}
