//===- service/Server.cpp - The xgccd analysis service --------------------===//
//
// Part of the metal/xgcc reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/Server.h"

#include "checkers/FaultInjector.h"
#include "driver/Tool.h"
#include "lifecycle/BaselineStore.h"
#include "support/EventLog.h"
#include "support/Histogram.h"
#include "support/RawOstream.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <memory>
#include <mutex>
#include <thread>

#include <cerrno>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace mc;
namespace fs = std::filesystem;

//===----------------------------------------------------------------------===//
// RequestJournal
//===----------------------------------------------------------------------===//

static std::string hex16(uint64_t V) {
  char Buf[17];
  static const char Digits[] = "0123456789abcdef";
  for (int I = 15; I >= 0; --I) {
    Buf[I] = Digits[V & 0xf];
    V >>= 4;
  }
  Buf[16] = '\0';
  return Buf;
}

RequestJournal::RequestJournal(const std::string &CacheDir)
    : Dir(CacheDir + "/journal") {
  std::error_code EC;
  fs::create_directories(Dir, EC);
}

std::string RequestJournal::pathFor(uint64_t Fp) const {
  return Dir + "/req-" + hex16(Fp) + ".j";
}

void RequestJournal::begin(uint64_t Fp, const std::string &RawLine) {
  // Plain stdio on purpose: the cache's writeFileBytes path carries the
  // FaultInjector's fs knob, and a disk-fault test aimed at the store must
  // not eat the journal entry instead.
  std::FILE *F = std::fopen(pathFor(Fp).c_str(), "wb");
  if (!F)
    return;
  std::fwrite(RawLine.data(), 1, RawLine.size(), F);
  std::fclose(F);
}

void RequestJournal::end(uint64_t Fp) {
  std::error_code EC;
  fs::remove(pathFor(Fp), EC);
}

void RequestJournal::absolve(uint64_t Fp) { end(Fp); }

std::set<uint64_t> RequestJournal::recoverSuspects() const {
  std::set<uint64_t> Out;
  std::error_code EC;
  fs::directory_iterator It(Dir, EC), End;
  for (; !EC && It != End; It.increment(EC)) {
    std::string Name = It->path().filename().string();
    // req-<16 hex>.j
    if (Name.size() != 4 + 16 + 2 || Name.compare(0, 4, "req-") != 0 ||
        Name.compare(20, 2, ".j") != 0)
      continue;
    uint64_t Fp = 0;
    bool Valid = true;
    for (size_t I = 4; I != 20; ++I) {
      char C = Name[I];
      Fp <<= 4;
      if (C >= '0' && C <= '9')
        Fp |= uint64_t(C - '0');
      else if (C >= 'a' && C <= 'f')
        Fp |= uint64_t(C - 'a' + 10);
      else {
        Valid = false;
        break;
      }
    }
    if (Valid)
      Out.insert(Fp);
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// ServiceServer
//===----------------------------------------------------------------------===//

namespace {

/// Plain-stdio whole-file write, like the journal: the FaultInjector's fs
/// knobs aim at the store's write path and must not eat flight-recorder
/// evidence. Best effort — capture I/O failure degrades diagnosis, never
/// requests.
void writeFileStdio(const std::string &Path, std::string_view Bytes) {
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  if (!F)
    return;
  std::fwrite(Bytes.data(), 1, Bytes.size(), F);
  std::fclose(F);
}

bool sendAll(int Fd, std::string_view Bytes) {
  while (!Bytes.empty()) {
    ssize_t N = ::send(Fd, Bytes.data(), Bytes.size(), MSG_NOSIGNAL);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Bytes.remove_prefix(size_t(N));
  }
  return true;
}

} // namespace

struct ServiceServer::Impl {
  explicit Impl(const ServiceConfig &C)
      : Cfg(C), Log(C.Log ? *C.Log : errs()), Journal(C.CacheDir),
        Quarantine(C.QuarantineCleanRequests, C.QuarantineMaxBackoff) {}

  ServiceConfig Cfg;
  raw_ostream &Log;

  /// The resident warm state: one cache (and its directory lock), one pool.
  std::unique_ptr<AnalysisCache> Cache;
  std::unique_ptr<ThreadPool> Pool;

  RequestJournal Journal;
  /// Executor-thread-only state (analysis is serialized, so neither needs a
  /// lock): the cross-request quarantine and the crash suspects recovered
  /// from the journal at startup.
  QuarantineTable Quarantine;
  std::set<uint64_t> Suspects;
  /// Resident baseline stores, one per requested directory (executor-thread-
  /// only). Kept warm across requests like the caches; every recordRun still
  /// saves to disk, so standalone triage sees each run as it lands.
  std::map<std::string, std::unique_ptr<BaselineStore>> Baselines;

  int ListenFd = -1;
  int WakeR = -1, WakeW = -1;

  /// One admitted request: the connection thread parks on CV until the
  /// executor fills Resp and flips Done.
  struct Ticket {
    ServiceRequest Req;
    std::string RawLine;
    std::chrono::steady_clock::time_point AdmitTime;
    std::mutex Mu;
    std::condition_variable CV;
    bool Done = false;
    ServiceResponse Resp;
    /// Flight-recorder capture base name ("" = not captured). Set by the
    /// executor before Done flips; the connection thread references it in
    /// the completion event.
    std::string Capture;
  };

  std::mutex QueueMu;
  std::condition_variable QueueCV;
  std::deque<std::shared_ptr<Ticket>> Queue; ///< Guarded by QueueMu.
  bool Draining = false;                     ///< Guarded by QueueMu.

  std::mutex ConnMu;
  std::vector<std::thread> ConnThreads; ///< Guarded by ConnMu.
  std::set<int> ConnFds;                ///< Guarded by ConnMu.

  std::thread Executor;

  //===--------------------------------------------------------------------===//
  // Operational telemetry (docs/OBSERVABILITY.md)
  //===--------------------------------------------------------------------===//

  std::chrono::steady_clock::time_point StartTime;

  /// Requests answered, indexed by ServiceStatus. Bumped on connection
  /// threads as each response leaves dispatchLine; read by the status RPC.
  std::atomic<uint64_t> StatusCounts[5] = {};
  /// High-water mark of the admission queue depth.
  std::atomic<uint64_t> PeakQueue{0};

  /// The latency histograms: service.{queue_ms,run_ms,e2e_ms}.<status>.
  /// Lock-free recording from connection threads; every request records
  /// into all three families, so each family's totals equal requests served.
  HistogramRegistry Hist;

  /// The structured event log (--log-file; disabled emit() is a no-op).
  EventLog Events;

  /// Flight recorder state (<cache-dir>/flightrec). CaptureSeq is
  /// executor-thread-only, like the rest of the analysis state.
  std::string FlightDir;
  uint64_t CaptureSeq = 0;

  /// Executor state published for the status RPC, which runs on connection
  /// threads and must not touch executor-owned structures. The executor
  /// refreshes this after every processed ticket.
  std::mutex PubMu;
  std::vector<ServiceStatusReply::QuarantineEntry> PubQuarantine;
  std::vector<std::string> PubBaselines;
  MetricsSnapshot PubTotals; ///< Cumulative per-request metrics (cache.* etc).

  bool start();
  int serve();
  void handleConnection(int Fd);
  ServiceResponse dispatchLine(const std::string &Line);
  ServiceResponse admitAndRun(const std::string &Line, std::string &CaptureRef,
                              bool &Shed);
  std::string handleStatus(const std::string &Line);
  void executorLoop();
  void processTicket(Ticket &T);
  void runTicket(Ticket &T, TraceCollector &TC);
  void maybeCapture(Ticket &T, TraceCollector &TC);
  void pruneFlightRec();
  void publishExecutorState();
  uint64_t uptimeMs() const {
    using namespace std::chrono;
    uint64_t Up = uint64_t(
        duration_cast<milliseconds>(steady_clock::now() - StartTime).count());
    return Up ? Up : 1; // A live daemon has nonzero uptime, by fiat.
  }
  void execute(const ServiceRequest &Req, ServiceResponse &Resp,
               uint64_t RemainingMs, std::vector<std::string> &Faulted,
               std::vector<std::string> &Probed, TraceCollector *TC);
};

bool ServiceServer::Impl::start() {
  StartTime = std::chrono::steady_clock::now();
  if (Cfg.CacheDir.empty()) {
    Log << "xgccd: --cache-dir is required (the warm stores are the point)\n";
    return false;
  }
  if (!Cfg.LogFile.empty()) {
    std::string Err;
    if (!Events.open(Cfg.LogFile, Cfg.LogMaxBytes, &Err)) {
      Log << "xgccd: cannot open --log-file '" << Cfg.LogFile << "': " << Err
          << '\n';
      return false;
    }
  }
  Cache = std::make_unique<AnalysisCache>(Cfg.CacheDir);
  if (!Cache->usable()) {
    if (Cache->lockConflict())
      Log << "xgccd: cache directory '" << Cfg.CacheDir
          << "' is locked by process " << Cache->lockHolderPid()
          << "; refusing to start\n";
    else
      Log << "xgccd: cannot open cache directory '" << Cfg.CacheDir << "'\n";
    return false;
  }

  Suspects = Journal.recoverSuspects();
  if (!Suspects.empty())
    Log << "xgccd: " << Suspects.size()
        << " request(s) found mid-flight in the journal — the previous "
           "process died inside them; their resends will be answered "
           "retriable once\n";

  // The flight-recorder ring lives beside the stores; captures from an
  // earlier life keep their slots, so the sequence resumes past them.
  FlightDir = Cfg.CacheDir + "/flightrec";
  {
    std::error_code EC;
    fs::create_directories(FlightDir, EC);
    fs::directory_iterator It(FlightDir, EC), End;
    for (; !EC && It != End; It.increment(EC)) {
      std::string Name = It->path().filename().string();
      // cap-<6 digits>-...
      if (Name.size() < 10 || Name.compare(0, 4, "cap-") != 0)
        continue;
      uint64_t Seq = 0;
      bool Valid = true;
      for (size_t I = 4; I != 10; ++I) {
        if (Name[I] < '0' || Name[I] > '9') {
          Valid = false;
          break;
        }
        Seq = Seq * 10 + uint64_t(Name[I] - '0');
      }
      if (Valid && Seq > CaptureSeq)
        CaptureSeq = Seq;
    }
  }

  Pool = std::make_unique<ThreadPool>(0);

  sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  if (Cfg.SocketPath.empty() ||
      Cfg.SocketPath.size() >= sizeof(Addr.sun_path)) {
    Log << "xgccd: bad socket path '" << Cfg.SocketPath << "'\n";
    return false;
  }
  Addr.sun_family = AF_UNIX;
  std::memcpy(Addr.sun_path, Cfg.SocketPath.c_str(), Cfg.SocketPath.size());

  ListenFd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (ListenFd < 0) {
    Log << "xgccd: socket: " << std::strerror(errno) << '\n';
    return false;
  }
  // The cache lock (held above) already guarantees we are the only daemon on
  // this store, so a leftover socket file is stale by construction.
  ::unlink(Cfg.SocketPath.c_str());
  if (::bind(ListenFd, (const sockaddr *)&Addr, sizeof(Addr)) != 0 ||
      ::listen(ListenFd, 64) != 0) {
    Log << "xgccd: cannot listen on '" << Cfg.SocketPath
        << "': " << std::strerror(errno) << '\n';
    ::close(ListenFd);
    ListenFd = -1;
    return false;
  }

  int Pipe[2];
  if (::pipe2(Pipe, O_CLOEXEC) != 0) {
    Log << "xgccd: pipe2: " << std::strerror(errno) << '\n';
    return false;
  }
  WakeR = Pipe[0];
  WakeW = Pipe[1];

  Log << "xgccd: listening on " << Cfg.SocketPath << " (cache "
      << Cfg.CacheDir << ", max queue " << Cfg.MaxQueue << ")\n";
  Events.emit(ServiceEvent("start")
                  .str("socket", Cfg.SocketPath)
                  .str("cache_dir", Cfg.CacheDir)
                  .num("pid", uint64_t(::getpid()))
                  .num("max_queue", Cfg.MaxQueue)
                  .num("slow_request_ms", Cfg.SlowRequestMs));
  return true;
}

int ServiceServer::Impl::serve() {
  Executor = std::thread([this] { executorLoop(); });

  for (;;) {
    pollfd P[2] = {{ListenFd, POLLIN, 0}, {WakeR, POLLIN, 0}};
    int R = ::poll(P, 2, -1);
    if (R < 0) {
      if (errno == EINTR)
        continue;
      Log << "xgccd: poll: " << std::strerror(errno) << '\n';
      break;
    }
    if (P[1].revents)
      break; // requestStop(): begin the drain.
    if (P[0].revents & (POLLERR | POLLHUP))
      break;
    if (P[0].revents & POLLIN) {
      int Fd = ::accept4(ListenFd, nullptr, nullptr, SOCK_CLOEXEC);
      if (Fd < 0)
        continue;
      std::lock_guard<std::mutex> L(ConnMu);
      ConnFds.insert(Fd);
      ConnThreads.emplace_back([this, Fd] { handleConnection(Fd); });
    }
  }

  // Drain, in dependency order: (1) stop admission — close the listen
  // socket and flip Draining so in-flight connections get `retriable`;
  // (2) let the executor answer everything already admitted; (3) unblock
  // idle readers and join the connection threads; (4) flush the stores.
  Log << "xgccd: draining\n";
  {
    std::lock_guard<std::mutex> L(QueueMu);
    Draining = true;
  }
  QueueCV.notify_all();
  ::close(ListenFd);
  ListenFd = -1;

  Executor.join();

  {
    std::lock_guard<std::mutex> L(ConnMu);
    // SHUT_RD, not RDWR: unblock idle readers parked in recv() while letting
    // a thread that just got its ticket answered finish *writing* the
    // response — a drain must never eat an answered request's bytes.
    for (int Fd : ConnFds)
      ::shutdown(Fd, SHUT_RD);
  }
  std::vector<std::thread> Threads;
  {
    std::lock_guard<std::mutex> L(ConnMu);
    Threads.swap(ConnThreads);
  }
  for (std::thread &T : Threads)
    T.join();

  if (Cfg.CacheMaxMB)
    Cache->evictToLimit(Cfg.CacheMaxMB * 1024ull * 1024ull);
  Cache.reset(); // Releases the directory lock.
  ::unlink(Cfg.SocketPath.c_str());

  // The drain summary: one final structured event (and a human line) with
  // the whole life's ledger — uptime, requests by status, peak queue depth.
  uint64_t Ok = StatusCounts[size_t(ServiceStatus::Ok)].load();
  uint64_t Inc = StatusCounts[size_t(ServiceStatus::Incomplete)].load();
  uint64_t Over = StatusCounts[size_t(ServiceStatus::Overloaded)].load();
  uint64_t Retry = StatusCounts[size_t(ServiceStatus::Retriable)].load();
  uint64_t Err = StatusCounts[size_t(ServiceStatus::Error)].load();
  uint64_t Total = Ok + Inc + Over + Retry + Err;
  Log << "xgccd: served " << Total << " request(s) (" << Ok << " ok, " << Inc
      << " incomplete, " << Over << " overloaded, " << Retry << " retriable, "
      << Err << " error), peak queue depth " << PeakQueue.load() << '\n';
  Events.emit(ServiceEvent("drain")
                  .num("uptime_ms", uptimeMs())
                  .num("ok", Ok)
                  .num("incomplete", Inc)
                  .num("overloaded", Over)
                  .num("retriable", Retry)
                  .num("error", Err)
                  .num("total", Total)
                  .num("peak_queue_depth", PeakQueue.load()));
  Events.close();
  Log << "xgccd: drained cleanly\n";
  return 0;
}

void ServiceServer::Impl::handleConnection(int Fd) {
  std::string Buf;
  bool Open = true;
  while (Open) {
    size_t NL;
    while ((NL = Buf.find('\n')) == std::string::npos) {
      char Tmp[4096];
      ssize_t N = ::recv(Fd, Tmp, sizeof(Tmp), 0);
      if (N <= 0) {
        Open = false;
        break;
      }
      Buf.append(Tmp, size_t(N));
    }
    if (!Open)
      break;
    std::string Line = Buf.substr(0, NL);
    Buf.erase(0, NL + 1);
    if (Line.empty())
      continue;
    // Status queries are answered right here on the connection thread —
    // never through the worker queue — so a saturated (or wedged) executor
    // cannot make the daemon unobservable.
    std::string Out;
    if (peekServiceSchema(Line) == kServiceStatusRequestSchema)
      Out = handleStatus(Line);
    else
      Out = dispatchLine(Line).serializeToString();
    Out += '\n';
    if (!sendAll(Fd, Out))
      break;
  }
  std::lock_guard<std::mutex> L(ConnMu);
  ConnFds.erase(Fd);
  ::close(Fd);
}

ServiceResponse ServiceServer::Impl::dispatchLine(const std::string &Line) {
  using namespace std::chrono;
  auto Entry = steady_clock::now();
  std::string CaptureRef;
  bool Shed = false;
  ServiceResponse Resp = admitAndRun(Line, CaptureRef, Shed);
  uint64_t E2eMs = uint64_t(
      duration_cast<milliseconds>(steady_clock::now() - Entry).count());

  // Every terminal response records into all three latency families, tagged
  // by status — so each family's totals equal requests served, and shed
  // traffic is visible in the distributions, not just the counters.
  const char *St = serviceStatusName(Resp.Status);
  Hist.record(std::string("service.queue_ms.") + St, Resp.QueueMs);
  Hist.record(std::string("service.run_ms.") + St, Resp.RunMs);
  Hist.record(std::string("service.e2e_ms.") + St, E2eMs);
  StatusCounts[size_t(Resp.Status)].fetch_add(1, std::memory_order_relaxed);

  if (!Shed) {
    ServiceEvent E("complete");
    E.str("id", Resp.Id)
        .str("status", St)
        .num("queue_ms", Resp.QueueMs)
        .num("run_ms", Resp.RunMs)
        .num("e2e_ms", E2eMs)
        .num("exit_code", Resp.ExitCode);
    if (!CaptureRef.empty())
      E.str("flightrec", CaptureRef);
    if (!Resp.Error.empty())
      E.str("error", Resp.Error);
    Events.emit(E);
  }
  return Resp;
}

ServiceResponse ServiceServer::Impl::admitAndRun(const std::string &Line,
                                                 std::string &CaptureRef,
                                                 bool &Shed) {
  ServiceResponse Resp;
  std::string Err;
  ServiceRequest Req;
  if (!Req.parse(Line, &Err)) {
    Resp.Status = ServiceStatus::Error;
    Resp.Error = "malformed request: " + Err;
    return Resp;
  }

  auto T = std::make_shared<Ticket>();
  T->Req = std::move(Req);
  T->RawLine = Line;
  T->AdmitTime = std::chrono::steady_clock::now();
  uint64_t Depth = 0;
  {
    std::lock_guard<std::mutex> L(QueueMu);
    if (Draining) {
      Resp.Id = T->Req.Id;
      Resp.Status = ServiceStatus::Retriable;
      Resp.Error = "server is draining";
      Shed = true;
      Events.emit(ServiceEvent("shed")
                      .str("id", Resp.Id)
                      .str("reason", "draining")
                      .num("queue_depth", Queue.size()));
      return Resp;
    }
    if (Queue.size() >= Cfg.MaxQueue) {
      Resp.Id = T->Req.Id;
      Resp.Status = ServiceStatus::Overloaded;
      Resp.Error = "admission queue is full (" +
                   std::to_string(Queue.size()) + " request(s) admitted)";
      Shed = true;
      Events.emit(ServiceEvent("shed")
                      .str("id", Resp.Id)
                      .str("reason", "queue-full")
                      .num("queue_depth", Queue.size()));
      return Resp;
    }
    Queue.push_back(T);
    Depth = Queue.size();
  }
  QueueCV.notify_one();

  // Peak-depth high-water mark (relaxed CAS max; ties/races favor larger).
  uint64_t Cur = PeakQueue.load(std::memory_order_relaxed);
  while (Depth > Cur && !PeakQueue.compare_exchange_weak(
                            Cur, Depth, std::memory_order_relaxed))
    ;
  Events.emit(ServiceEvent("admit")
                  .str("id", T->Req.Id)
                  .num("queue_depth", Depth));

  std::unique_lock<std::mutex> L(T->Mu);
  T->CV.wait(L, [&] { return T->Done; });
  CaptureRef = T->Capture;
  return T->Resp;
}

/// The status RPC: answered right here on the connection thread, never
/// entering the worker queue — a wedged executor cannot make the daemon
/// unobservable. Everything read is either atomic (counts, peak depth,
/// histogram cells) or published under PubMu by the executor.
std::string ServiceServer::Impl::handleStatus(const std::string &Line) {
  ServiceStatusRequest Req;
  std::string Err;
  if (!Req.parse(Line, &Err)) {
    ServiceResponse Resp;
    Resp.Status = ServiceStatus::Error;
    Resp.Error = "malformed status request: " + Err;
    return Resp.serializeToString();
  }

  ServiceStatusReply Reply;
  Reply.Id = Req.Id;
  Reply.UptimeMs = uptimeMs();
  Reply.Ok = StatusCounts[size_t(ServiceStatus::Ok)].load(
      std::memory_order_relaxed);
  Reply.Incomplete = StatusCounts[size_t(ServiceStatus::Incomplete)].load(
      std::memory_order_relaxed);
  Reply.Overloaded = StatusCounts[size_t(ServiceStatus::Overloaded)].load(
      std::memory_order_relaxed);
  Reply.Retriable = StatusCounts[size_t(ServiceStatus::Retriable)].load(
      std::memory_order_relaxed);
  Reply.Error = StatusCounts[size_t(ServiceStatus::Error)].load(
      std::memory_order_relaxed);
  Reply.Total = Reply.Ok + Reply.Incomplete + Reply.Overloaded +
                Reply.Retriable + Reply.Error;
  Reply.PeakQueueDepth = PeakQueue.load(std::memory_order_relaxed);

  {
    std::lock_guard<std::mutex> L(PubMu);
    Reply.Quarantine = PubQuarantine;
    Reply.Baselines = PubBaselines;
    for (const auto &[Name, Value] : PubTotals)
      if (Name.compare(0, 6, "cache.") == 0)
        Reply.CacheCounters.emplace_back(Name, Value);
  }

  for (auto &[Name, Snap] : Hist.snapshotAll()) {
    ServiceStatusReply::HistogramEntry E;
    E.Name = Name;
    E.P50 = Snap.percentile(50);
    E.P95 = Snap.percentile(95);
    E.P99 = Snap.percentile(99);
    E.Snap = Snap;
    Reply.Histograms.push_back(std::move(E));
  }
  return Reply.serializeToString();
}

void ServiceServer::Impl::executorLoop() {
  for (;;) {
    std::shared_ptr<Ticket> T;
    {
      std::unique_lock<std::mutex> L(QueueMu);
      QueueCV.wait(L, [&] { return Draining || !Queue.empty(); });
      if (Queue.empty())
        return; // Draining and nothing admitted: done.
      T = Queue.front();
      Queue.pop_front();
    }
    processTicket(*T);
    {
      std::lock_guard<std::mutex> L(T->Mu);
      T->Done = true;
    }
    T->CV.notify_one();
  }
}

void ServiceServer::Impl::processTicket(Ticket &T) {
  // Traces are collected for every daemon run: the tracing contract (PR4)
  // is that collection never changes a report byte, and the collector is
  // cheap until exported — which happens only when the flight recorder
  // decides this request is worth keeping.
  TraceCollector TC(/*Enabled=*/true);
  runTicket(T, TC);
  maybeCapture(T, TC);
  publishExecutorState();
}

void ServiceServer::Impl::runTicket(Ticket &T, TraceCollector &TC) {
  using namespace std::chrono;
  const ServiceRequest &Req = T.Req;
  ServiceResponse &Resp = T.Resp;
  auto Start = steady_clock::now();
  Resp.Id = Req.Id;
  Resp.QueueMs = uint64_t(duration_cast<milliseconds>(Start - T.AdmitTime).count());

  // The deadline covers queue wait + run as one budget. A request that
  // already blew it gets answered without burning any analysis time.
  uint64_t EffDeadlineMs =
      Req.DeadlineMs ? Req.DeadlineMs : Cfg.DefaultDeadlineMs;
  if (EffDeadlineMs && Resp.QueueMs >= EffDeadlineMs) {
    Resp.Status = ServiceStatus::Retriable;
    Resp.Error = "deadline (" + std::to_string(EffDeadlineMs) +
                 " ms) expired while queued";
    return;
  }

  // Crash recovery: if a previous process died while running this exact
  // work (same fingerprint), say so once instead of crash-looping silently.
  uint64_t Fp = Req.fingerprint();
  if (Suspects.count(Fp)) {
    Suspects.erase(Fp);
    Journal.absolve(Fp);
    Resp.Status = ServiceStatus::Retriable;
    Resp.Error = "a previous attempt at this request died mid-flight "
                 "(crash-journal hit); resend to run it again";
    Log << "xgccd: request " << hex16(Fp)
        << " matches a crash-journal suspect; answered retriable\n";
    Events.emit(ServiceEvent("fault")
                    .str("kind", "crash-journal")
                    .str("id", Resp.Id)
                    .str("fingerprint", hex16(Fp)));
    return;
  }

  Journal.begin(Fp, T.RawLine);

  // Service-level fault injection (tests only; requires --allow-inject).
  if (Req.InjectKnobs.SlowMs || Req.InjectKnobs.Die ||
      Req.InjectKnobs.PoisonChecker) {
    if (!Cfg.AllowInject) {
      Log << "xgccd: request " << hex16(Fp)
          << " carries inject knobs; ignored (started without "
             "--allow-inject)\n";
    } else {
      if (Req.InjectKnobs.SlowMs)
        std::this_thread::sleep_for(milliseconds(Req.InjectKnobs.SlowMs));
      if (Req.InjectKnobs.Die)
        ::_exit(86); // Simulated crash: the journal entry stays behind.
    }
  }

  std::vector<std::string> Faulted, Probed;
  uint64_t RemainingMs = EffDeadlineMs ? EffDeadlineMs - Resp.QueueMs : 0;
  execute(Req, Resp, RemainingMs, Faulted, Probed, &TC);

  Journal.end(Fp);
  Resp.RunMs =
      uint64_t(duration_cast<milliseconds>(steady_clock::now() - Start).count());

  // Quarantine bookkeeping, only for requests that actually analyzed.
  // Completed-request time advances first so a checker quarantined *by this
  // request* still serves its full sentence.
  if (Resp.Status == ServiceStatus::Ok ||
      Resp.Status == ServiceStatus::Incomplete) {
    Quarantine.noteCompletedRequest();
    for (const std::string &Name : Probed)
      if (std::find(Faulted.begin(), Faulted.end(), Name) == Faulted.end()) {
        Quarantine.noteCleanProbe(Name);
        Log << "xgccd: checker '" << Name << "' ran clean on probation; "
            << "quarantine lifted\n";
        Events.emit(ServiceEvent("quarantine")
                        .str("action", "lifted")
                        .str("checker", Name)
                        .str("id", Resp.Id));
      }
    for (const std::string &Name : Faulted) {
      Quarantine.noteFault(Name);
      Log << "xgccd: checker '" << Name << "' faulted; quarantined for "
          << Quarantine.remaining(Name) << " request(s)\n";
      Events.emit(ServiceEvent("fault")
                      .str("kind", "checker")
                      .str("checker", Name)
                      .str("id", Resp.Id));
      Events.emit(ServiceEvent("quarantine")
                      .str("action", "imposed")
                      .str("checker", Name)
                      .num("remaining", Quarantine.remaining(Name))
                      .num("faults", Quarantine.faultCount(Name))
                      .str("id", Resp.Id));
    }
  }
}

/// The flight recorder: a completed request that terminated `retriable` or
/// `error`, or whose queue+run time met --slow-request-ms, leaves its
/// evidence under <cache-dir>/flightrec/ — the raw request line, the run
/// manifest, and the execution trace — in a bounded ring of captures.
void ServiceServer::Impl::maybeCapture(Ticket &T, TraceCollector &TC) {
  if (FlightDir.empty())
    return;
  const ServiceResponse &Resp = T.Resp;
  bool Bad = Resp.Status == ServiceStatus::Retriable ||
             Resp.Status == ServiceStatus::Error;
  bool Slow =
      Cfg.SlowRequestMs && Resp.QueueMs + Resp.RunMs >= Cfg.SlowRequestMs;
  if (!Bad && !Slow)
    return;

  char SeqBuf[16];
  std::snprintf(SeqBuf, sizeof(SeqBuf), "%06llu",
                (unsigned long long)++CaptureSeq);
  std::string Base =
      std::string("cap-") + SeqBuf + "-" + hex16(T.Req.fingerprint());
  std::string Stem = FlightDir + "/" + Base;

  // The raw request line is always there; manifest and trace only when the
  // request actually ran (early-return paths have neither).
  writeFileStdio(Stem + ".request.json", T.RawLine + "\n");
  if (!Resp.Manifest.empty())
    writeFileStdio(Stem + ".manifest.json", Resp.Manifest);
  if (TC.eventCount()) {
    std::string TraceBuf;
    raw_string_ostream TOS(TraceBuf);
    TC.exportChromeJson(TOS, /*IncludeTimes=*/true);
    writeFileStdio(Stem + ".trace.json", TraceBuf);
  }

  T.Capture = Base;
  Log << "xgccd: flight recorder captured request " << Resp.Id << " as "
      << Base << " (" << (Bad ? serviceStatusName(Resp.Status) : "slow")
      << ")\n";
  pruneFlightRec();
}

/// Keeps the newest Cfg.FlightRecMax captures: cap-NNNNNN names sort
/// lexicographically by sequence, so pruning is a sorted scan dropping the
/// oldest capture groups (every file sharing a cap-NNNNNN- prefix).
void ServiceServer::Impl::pruneFlightRec() {
  std::set<std::string> Groups;
  std::vector<std::string> Files;
  std::error_code EC;
  fs::directory_iterator It(FlightDir, EC), End;
  for (; !EC && It != End; It.increment(EC)) {
    std::string Name = It->path().filename().string();
    if (Name.size() < 11 || Name.compare(0, 4, "cap-") != 0)
      continue;
    Files.push_back(Name);
    Groups.insert(Name.substr(0, 11)); // "cap-NNNNNN-" → group by sequence.
  }
  if (Groups.size() <= Cfg.FlightRecMax)
    return;
  size_t Drop = Groups.size() - Cfg.FlightRecMax;
  std::set<std::string> Doomed;
  for (const std::string &G : Groups) {
    if (!Drop)
      break;
    Doomed.insert(G);
    --Drop;
  }
  for (const std::string &F : Files)
    if (Doomed.count(F.substr(0, 11)))
      fs::remove(FlightDir + "/" + F, EC);
}

/// Republishes the executor-owned state the status RPC needs — quarantine
/// table, resident baseline directories — so connection threads can answer
/// without touching executor structures. Called after every ticket.
void ServiceServer::Impl::publishExecutorState() {
  std::vector<ServiceStatusReply::QuarantineEntry> Q;
  for (const QuarantineTable::EntrySnapshot &E : Quarantine.snapshotEntries())
    Q.push_back({E.Checker, E.Remaining, E.Faults});
  std::vector<std::string> B;
  for (const auto &[Dir, Store] : Baselines)
    B.push_back(Dir);
  std::lock_guard<std::mutex> L(PubMu);
  PubQuarantine = std::move(Q);
  PubBaselines = std::move(B);
}

void ServiceServer::Impl::execute(const ServiceRequest &Req,
                                  ServiceResponse &Resp, uint64_t RemainingMs,
                                  std::vector<std::string> &Faulted,
                                  std::vector<std::string> &Probed,
                                  TraceCollector *TC) {
  // The daemon's policy reaches the shared pipeline as data: its default
  // jobs, what the request deadline left after queueing, the quarantine
  // skip set, the injected checker and the resident baseline stores.
  RunHost Host;
  Host.WantManifest = true;
  Host.DefaultJobs = Cfg.DefaultJobs;
  Host.DeadlineClampMs = RemainingMs;
  for (const std::string &Name : Quarantine.blockedCheckers())
    Host.SkipCheckers[Name] = "xgccd: checker '" + Name +
                              "' is quarantined; re-probe in " +
                              std::to_string(Quarantine.remaining(Name)) +
                              " request(s)\n";
  if (Cfg.AllowInject && Req.InjectKnobs.PoisonChecker)
    Host.ExtraCheckers.push_back(std::make_unique<FaultInjectorChecker>(
        FaultInjectorChecker::Mode::Fault));
  Host.Baselines = &Baselines;

  raw_string_ostream LogOS(Resp.Log);
  XgccTool Tool(&LogOS);
  Tool.setSharedCache(Cache.get());
  Tool.setWorkerPool(Pool.get());
  Tool.setTrace(TC);
  raw_string_ostream OutOS(Resp.Output);
  RunResult Run = runRequest(Tool, Req, Host, OutOS);
  Resp.ExitCode = Run.ExitCode;
  if (!Run.Error.empty()) {
    Resp.Status = ServiceStatus::Error;
    Resp.Error = std::move(Run.Error);
    return;
  }

  // Fold this request's metrics into the daemon's cumulative totals (the
  // status RPC surfaces the cache.* slice). Tool.metrics() is already the
  // per-request delta against the shared cache's baseline.
  {
    MetricsSnapshot ReqMetrics = Tool.metrics();
    std::lock_guard<std::mutex> PL(PubMu);
    PubTotals.merge(ReqMetrics);
  }

  for (const std::string &Name : Run.Checkers)
    if (Quarantine.onProbation(Name))
      Probed.push_back(Name);
  RunManifest &Man = *Run.Manifest;
  // Collect this run's checker faults *before* appending the synthetic
  // exclusion incidents (those carry Fault too, but describe old news).
  for (const RootIncident &Inc : Man.Incidents)
    if (Inc.Fault &&
        std::find(Faulted.begin(), Faulted.end(), Inc.Checker) == Faulted.end())
      Faulted.push_back(Inc.Checker);
  for (const std::string &Name : Run.Skipped) {
    RootIncident Inc;
    Inc.Root = "<service>";
    Inc.Checker = Name;
    Inc.Quarantined = true;
    Inc.Fault = true;
    Inc.Reason = "service quarantine: re-probe after " +
                 std::to_string(Quarantine.remaining(Name)) +
                 " clean request(s)";
    Man.Incidents.push_back(std::move(Inc));
  }
  raw_string_ostream MOS(Resp.Manifest);
  Man.writeJson(MOS);
  Resp.Status = (!Run.ParseOk || !Man.Incidents.empty())
                    ? ServiceStatus::Incomplete
                    : ServiceStatus::Ok;
}

//===----------------------------------------------------------------------===//
// Public surface
//===----------------------------------------------------------------------===//

ServiceServer::ServiceServer(const ServiceConfig &Cfg) : M(new Impl(Cfg)) {}

ServiceServer::~ServiceServer() {
  if (M->ListenFd >= 0)
    ::close(M->ListenFd);
  if (M->WakeR >= 0)
    ::close(M->WakeR);
  if (M->WakeW >= 0)
    ::close(M->WakeW);
  delete M;
}

bool ServiceServer::start() { return M->start(); }

int ServiceServer::serve() { return M->serve(); }

void ServiceServer::requestStop() {
  // Async-signal-safe: one write to the wake pipe; serve() does the rest.
  if (M->WakeW >= 0) {
    char C = 'q';
    [[maybe_unused]] ssize_t N = ::write(M->WakeW, &C, 1);
  }
}
