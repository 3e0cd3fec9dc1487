//===- service/Server.h - The xgccd analysis service ------------*- C++ -*-===//
//
// Part of the metal/xgcc reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// xgccd: a long-lived analysis server over the warm stores. One process
/// keeps the expensive state resident — the AnalysisCache (AST + summary
/// stores), a shared ThreadPool — and replays `xgcc` runs against it on
/// demand, one `mc.service-request.v1` line in, one `mc.service-response.v1`
/// line out, over a Unix-domain stream socket. Each request runs through
/// the CLI's own pipeline (runRequest, driver/Pipeline.h); the daemon only
/// adds its policy around it, as data.
///
/// The robustness contract (docs/SERVICE.md):
///  - Bounded admission: at most MaxQueue requests queued; the next one gets
///    a typed `overloaded` response instead of unbounded latency.
///  - Request deadlines: queue wait + run share one budget; a request whose
///    deadline expired before it started is answered `retriable` without
///    burning analysis time, and the remaining budget clamps the per-root
///    deadline once it runs (the existing degradation ladder takes over
///    from there — deadline pressure degrades, it never corrupts).
///  - Request-level fault boundary: checker faults surface as manifest
///    incidents in the response, exactly as standalone xgcc reports them;
///    the daemon never dies for a checker bug.
///  - Cross-request quarantine: a checker that *faulted* (not merely blew a
///    budget) is excluded from subsequent requests and re-probed after N
///    clean requests, N doubling on every re-fault (exponential backoff).
///  - Graceful drain: SIGTERM/SIGINT stop admission; everything already
///    admitted is answered (still subject to its own deadline), caches are
///    flushed, and the process exits 0.
///  - Crash recovery: a journal entry marks every request from start to
///    finish; a request found still open on restart answers its resend with
///    a diagnosed `retriable` once, so a crash-triggering input cannot
///    crash-loop the daemon silently.
///
/// Determinism: responses embed the exact bytes a standalone run would
/// print. Analysis executes on one executor thread (the shared cache is
/// single-threaded by design); parallelism lives inside the run, on the
/// resident pool, where partitioning is derived from the request's jobs
/// value — so the bytes never depend on the pool's worker count.
///
//===----------------------------------------------------------------------===//

#ifndef MC_SERVICE_SERVER_H
#define MC_SERVICE_SERVER_H

#include "service/Protocol.h"

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace mc {

class raw_ostream;

/// Server-side configuration (the xgccd command line).
struct ServiceConfig {
  std::string SocketPath; ///< Unix-domain socket path to bind.
  std::string CacheDir;   ///< Warm-store root; required (also holds journal/).
  unsigned MaxQueue = 16; ///< Admitted-but-unstarted bound; beyond → overloaded.
  unsigned DefaultJobs = 0;       ///< For requests with jobs == 0 (0 = auto).
  uint64_t DefaultDeadlineMs = 0; ///< For requests with deadline_ms == 0
                                  ///< (0 = no deadline).
  uint64_t CacheMaxMB = 0;        ///< Size policy applied at drain (0 = off).
  bool AllowInject = false;       ///< Honor requests' inject block (tests).
  /// First re-probe distance: a faulted checker sits out this many completed
  /// requests; each re-fault doubles the distance up to
  /// QuarantineMaxBackoff.
  unsigned QuarantineCleanRequests = 2;
  unsigned QuarantineMaxBackoff = 64;
  raw_ostream *Log = nullptr; ///< Server log (null = errs()).

  /// --log-file: structured JSONL event log path ("" = off). One
  /// mc.service-event.v1 object per admission/completion/shed/quarantine/
  /// fault/drain, monotonic sequence numbers, size-capped rotation
  /// (docs/OBSERVABILITY.md).
  std::string LogFile;
  uint64_t LogMaxBytes = 0; ///< Event-log rotation cap (0 = 4 MiB default).
  /// --slow-request-ms: a completed request whose queue+run time meets this
  /// threshold is captured by the flight recorder (0 = slow capture off;
  /// `retriable`/`error` terminals are captured regardless).
  uint64_t SlowRequestMs = 0;
  /// --flightrec-max: bounded ring of flight-recorder captures kept under
  /// <cache-dir>/flightrec/ (oldest evicted beyond this).
  unsigned FlightRecMax = 16;
};

/// The cross-request checker quarantine with exponential-backoff re-probe.
/// Pure bookkeeping (no clock, no I/O) so tests can drive it directly.
/// Time is measured in *completed requests*, the only monotonic clock a
/// request stream has.
class QuarantineTable {
public:
  QuarantineTable(unsigned InitialBackoff, unsigned MaxBackoff)
      : Initial(InitialBackoff ? InitialBackoff : 1),
        Max(MaxBackoff ? MaxBackoff : 1) {}

  /// Is \p Checker currently excluded from requests?
  bool blocked(const std::string &Checker) const {
    auto It = Table.find(Checker);
    return It != Table.end() && It->second.Remaining > 0;
  }

  /// How many more completed requests until \p Checker is re-probed
  /// (0 = eligible now or never quarantined).
  unsigned remaining(const std::string &Checker) const {
    auto It = Table.find(Checker);
    return It == Table.end() ? 0 : It->second.Remaining;
  }

  /// \p Checker faulted in the request that just completed: quarantine it
  /// for Initial << (faults-1) requests, capped at Max.
  void noteFault(const std::string &Checker) {
    Entry &E = Table[Checker];
    ++E.Faults;
    unsigned Shift = E.Faults - 1;
    uint64_t Backoff = Shift >= 32 ? Max : uint64_t(Initial) << Shift;
    E.Remaining = unsigned(Backoff > Max ? Max : Backoff);
  }

  /// \p Checker ran clean while on probation (Remaining had reached 0):
  /// absolved — the next fault starts the backoff ladder over.
  void noteCleanProbe(const std::string &Checker) { Table.erase(Checker); }

  /// One request completed: every blocked checker is one request closer to
  /// its re-probe. Call this *before* recording the completed request's own
  /// faults, so a just-quarantined checker serves its full sentence.
  void noteCompletedRequest() {
    for (auto &[Name, E] : Table)
      if (E.Remaining > 0)
        --E.Remaining;
  }

  /// Names currently blocked, sorted (deterministic exclusion lists).
  std::vector<std::string> blockedCheckers() const {
    std::vector<std::string> Out;
    for (const auto &[Name, E] : Table)
      if (E.Remaining > 0)
        Out.push_back(Name);
    return Out;
  }

  /// Is \p Checker on probation (quarantined at some point, sentence served,
  /// awaiting its clean probe)?
  bool onProbation(const std::string &Checker) const {
    auto It = Table.find(Checker);
    return It != Table.end() && It->second.Remaining == 0;
  }

  unsigned faultCount(const std::string &Checker) const {
    auto It = Table.find(Checker);
    return It == Table.end() ? 0 : It->second.Faults;
  }

  /// Every tracked entry — blocked *and* on probation — sorted by checker
  /// name (the status RPC's view of the table).
  struct EntrySnapshot {
    std::string Checker;
    unsigned Remaining;
    unsigned Faults;
  };
  std::vector<EntrySnapshot> snapshotEntries() const {
    std::vector<EntrySnapshot> Out;
    for (const auto &[Name, E] : Table)
      Out.push_back({Name, E.Remaining, E.Faults});
    return Out;
  }

private:
  struct Entry {
    unsigned Faults = 0;    ///< Lifetime fault count (backoff exponent).
    unsigned Remaining = 0; ///< Completed requests left to sit out.
  };
  std::map<std::string, Entry> Table;
  unsigned Initial;
  unsigned Max;
};

/// The crash-recovery journal: one file per in-flight request under
/// `<cache-dir>/journal/req-<fingerprint-hex>.j`, holding the raw request
/// line. begin() writes it, end() unlinks it; a file that survives to the
/// next startup names a request the previous process died inside.
class RequestJournal {
public:
  /// \p CacheDir is the warm-store root; the journal lives beside the
  /// stores so one --cache-dir flag configures both.
  explicit RequestJournal(const std::string &CacheDir);

  /// Marks \p Fp in flight (persists \p RawLine for post-mortems). Best
  /// effort: journal I/O failure degrades crash *diagnosis*, never requests.
  void begin(uint64_t Fp, const std::string &RawLine);
  /// Marks \p Fp completed.
  void end(uint64_t Fp);

  /// Fingerprints left open by a previous process (call once at startup).
  std::set<uint64_t> recoverSuspects() const;
  /// Clears \p Fp's suspicion (the diagnosed `retriable` was delivered).
  void absolve(uint64_t Fp);

  /// The journal file path for \p Fp (exposed for tests).
  std::string pathFor(uint64_t Fp) const;

private:
  std::string Dir; ///< <cache-dir>/journal
};

/// The server. Lifecycle: construct, start() (bind + recover), serve()
/// (blocks until requestStop()), destructor cleans up.
class ServiceServer {
public:
  explicit ServiceServer(const ServiceConfig &Cfg);
  ~ServiceServer();
  ServiceServer(const ServiceServer &) = delete;
  ServiceServer &operator=(const ServiceServer &) = delete;

  /// Opens the cache (hard failure if another process holds its lock),
  /// recovers crash suspects from the journal, binds and listens on the
  /// socket. False (with a diagnostic on the log) on any failure.
  bool start();

  /// Accept/execute loop; returns the process exit code (0 on a clean
  /// drain). Call requestStop() — async-signal-safe — to initiate drain.
  int serve();

  /// Initiates graceful drain: stop admitting, answer everything admitted,
  /// flush the cache, make serve() return. Safe from a signal handler.
  void requestStop();

private:
  struct Impl;
  Impl *M; ///< Pimpl: keeps <sys/socket.h> etc. out of the header.
};

} // namespace mc

#endif // MC_SERVICE_SERVER_H
