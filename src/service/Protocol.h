//===- service/Protocol.h - xgccd wire schema -------------------*- C++ -*-===//
//
// Part of the metal/xgcc reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The xgccd request/response wire schema: newline-delimited JSON, one
/// `mc.service-request.v1` object per line in, one `mc.service-response.v1`
/// object per line out. The response embeds the exact bytes a standalone
/// `xgcc` run would have printed for the same request (`output`) plus the
/// run's `mc.run-manifest.v1` manifest (as an escaped JSON string, so the
/// response itself stays single-line). See docs/SERVICE.md for the schema
/// and the status taxonomy.
///
/// Both sides read with support/Json.h's JsonReader, the manifest's reader
/// too: objects, arrays, strings, unsigned integers and booleans; unknown
/// keys skip, so the schema can grow additively.
///
//===----------------------------------------------------------------------===//

#ifndef MC_SERVICE_PROTOCOL_H
#define MC_SERVICE_PROTOCOL_H

#include "driver/Pipeline.h"
#include "support/Histogram.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mc {

class raw_ostream;

/// Schema identifiers; bump on breaking changes.
inline constexpr const char *kServiceRequestSchema = "mc.service-request.v1";
inline constexpr const char *kServiceResponseSchema = "mc.service-response.v1";
inline constexpr const char *kServiceStatusRequestSchema =
    "mc.service-status.v1";
inline constexpr const char *kServiceStatusReplySchema =
    "mc.service-status-reply.v1";

/// The `schema` value of one wire line, or "" when the line is not an object
/// carrying one. This is how the server routes a line to the right parser
/// without attempting (and diagnosing) every schema in turn.
std::string peekServiceSchema(std::string_view Line);

/// Terminal status of one request. The taxonomy is the robustness contract:
/// a client can branch on status alone without parsing diagnostics.
enum class ServiceStatus {
  Ok,         ///< Analysis ran to completion with full fidelity.
  Incomplete, ///< Analysis ran, but parsing failed or roots were
              ///< degraded/quarantined — partial results, explicit trailer.
  Overloaded, ///< Bounded admission rejected the request (queue full).
              ///< Typed so load balancers can back off without string
              ///< matching.
  Retriable,  ///< Nothing ran: the server is draining, the deadline expired
              ///< in queue, or a previous attempt at this exact request died
              ///< mid-flight (crash-journal recovery). Safe to resend.
  Error,      ///< The request itself is bad (malformed JSON, unknown
              ///< checker, unreadable file). Resending verbatim will fail
              ///< again.
};

const char *serviceStatusName(ServiceStatus S);
/// Parses a status spelling; false on an unknown value.
bool parseServiceStatus(std::string_view Spelling, ServiceStatus &Out);

/// One analysis request: the RunRequest that `xgcc` would run locally, plus
/// the service-only fields — a correlation id, a request-level deadline,
/// and the fault-injection block tests use to exercise every degradation
/// path deterministically. The daemon hands the RunRequest half to the same
/// runRequest() pipeline the CLI calls.
struct ServiceRequest : RunRequest {
  /// Client-chosen correlation id, echoed verbatim in the response.
  std::string Id;
  /// Request-level wall-clock deadline in ms, covering queue wait + run
  /// (0 = the server's default). Enforced cooperatively: the remaining
  /// budget clamps the per-root deadline when the request starts.
  uint64_t DeadlineMs = 0;

  /// Service-level FaultInjector knobs. Ignored (with a log line) unless the
  /// server runs with --allow-inject.
  struct Inject {
    uint64_t SlowMs = 0;       ///< Sleep before analyzing (a slow request).
    bool Die = false;          ///< _exit() mid-request (crash-journal test).
    bool PoisonChecker = false; ///< Register a fault_injector checker in
                                ///< Fault mode (quarantine/backoff test).

    friend bool operator==(const Inject &, const Inject &) = default;
  };
  Inject InjectKnobs;

  /// Canonical single-line serialization. serialize → parse → serialize is
  /// byte-stable, which is what makes fingerprint() well-defined.
  void serialize(raw_ostream &OS) const;
  std::string serializeToString() const;
  /// Parses one request line. False (with \p Err set when non-null) on
  /// malformed input or a schema mismatch.
  bool parse(std::string_view Line, std::string *Err = nullptr);

  /// Identity of the *work*, independent of the correlation id: the FNV-1a
  /// hash of the canonical serialization with Id cleared. The crash journal
  /// keys on this, so a resent request is recognized after a restart even
  /// though the client picked a fresh id. It hashes the file paths, not
  /// their content — content change detection is the cache's job.
  uint64_t fingerprint() const;

  friend bool operator==(const ServiceRequest &,
                         const ServiceRequest &) = default;
};

/// One response line.
struct ServiceResponse {
  std::string Id; ///< Echo of the request id.
  ServiceStatus Status = ServiceStatus::Error;
  /// The exact stdout bytes a standalone `xgcc` run of the same request
  /// would print (reports + count + optional --explain rendering, or the
  /// JSON report array). Byte-identical at any jobs count — the determinism
  /// contract extended across the wire. Empty when nothing ran.
  std::string Output;
  /// The request's private diagnostic stream (what standalone xgcc would
  /// have sent to stderr), plus service-side notes (quarantine exclusions).
  std::string Log;
  /// The run's mc.run-manifest.v1 JSON text, escaped into a string so the
  /// response stays one line. Parse with parseRunManifest. Empty when
  /// nothing ran.
  std::string Manifest;
  /// Human-readable reason for overloaded/retriable/error.
  std::string Error;
  /// The exit code a standalone run of the same request returns
  /// (RunResult::ExitCode), errors included.
  unsigned ExitCode = 0;
  uint64_t QueueMs = 0; ///< Admission-to-execution wait.
  uint64_t RunMs = 0;   ///< Execution wall clock.

  void serialize(raw_ostream &OS) const;
  std::string serializeToString() const;
  bool parse(std::string_view Line, std::string *Err = nullptr);

  friend bool operator==(const ServiceResponse &,
                         const ServiceResponse &) = default;
};

/// The status RPC request (`mc.service-status.v1`): ask a live daemon what
/// it is doing. Answered on the connection thread, without entering the
/// worker queue — a wedged executor cannot make the daemon unobservable.
struct ServiceStatusRequest {
  /// Client-chosen correlation id, echoed verbatim in the reply.
  std::string Id;

  void serialize(raw_ostream &OS) const;
  std::string serializeToString() const;
  bool parse(std::string_view Line, std::string *Err = nullptr);

  friend bool operator==(const ServiceStatusRequest &,
                         const ServiceStatusRequest &) = default;
};

/// The status RPC reply (`mc.service-status-reply.v1`). Everything a load
/// balancer, a dashboard, or an operator mid-incident wants from a running
/// daemon: uptime, the request ledger by terminal status, queue pressure,
/// quarantine state, resident warm state, and the latency distributions.
/// See docs/SERVICE.md ("Status RPC") for the schema.
struct ServiceStatusReply {
  std::string Id;       ///< Echo of the request id.
  uint64_t UptimeMs = 0; ///< Since start(); a live daemon reports >= 1.

  /// Requests answered so far, by terminal status (status queries
  /// themselves are not requests and are not counted).
  uint64_t Ok = 0;
  uint64_t Incomplete = 0;
  uint64_t Overloaded = 0;
  uint64_t Retriable = 0;
  uint64_t Error = 0;
  uint64_t Total = 0;

  /// High-water mark of the admission queue depth.
  uint64_t PeakQueueDepth = 0;

  /// The cross-request quarantine table, sorted by checker name.
  struct QuarantineEntry {
    std::string Checker;
    uint64_t Remaining = 0; ///< Completed requests until re-probe.
    uint64_t Faults = 0;    ///< Lifetime fault count (backoff exponent).

    friend bool operator==(const QuarantineEntry &,
                           const QuarantineEntry &) = default;
  };
  std::vector<QuarantineEntry> Quarantine;

  /// Resident baseline store directories, sorted.
  std::vector<std::string> Baselines;

  /// Cumulative cache counters (the `cache.*` dotted names) summed over
  /// every request served, sorted by name.
  std::vector<std::pair<std::string, uint64_t>> CacheCounters;

  /// The latency histograms: `service.{queue_ms,run_ms,e2e_ms}.<status>`,
  /// sorted by name. Every request records into all three families, so each
  /// family's counts sum to Total. Percentiles are precomputed bucket upper
  /// bounds (serialize∘parse∘serialize stays the identity).
  struct HistogramEntry {
    std::string Name;
    uint64_t P50 = 0;
    uint64_t P95 = 0;
    uint64_t P99 = 0;
    HistogramSnapshot Snap;

    friend bool operator==(const HistogramEntry &,
                           const HistogramEntry &) = default;
  };
  std::vector<HistogramEntry> Histograms;

  void serialize(raw_ostream &OS) const;
  std::string serializeToString() const;
  bool parse(std::string_view Line, std::string *Err = nullptr);

  friend bool operator==(const ServiceStatusReply &,
                         const ServiceStatusReply &) = default;
};

} // namespace mc

#endif // MC_SERVICE_PROTOCOL_H
