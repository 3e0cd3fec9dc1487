//===- driver/Pipeline.h - One run, from request to exit code ---*- C++ -*-===//
//
// Part of the metal/xgcc reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The xgcc driver as one function. runRequest() takes a RunRequest (what
/// to analyze, with which checkers and engine knobs, and how to present the
/// reports) and an XgccTool the caller has already set up (cache, worker
/// pool, trace collector, diagnostic stream). It does everything that
/// decides the run's bytes: checker selection, pass 1, the analysis,
/// history and baseline classification, stdout, the manifest and the exit
/// code. `xgcc` calls it for a local run and xgccd for every served request,
/// so a served run prints what a local run prints. What the two callers add
/// around a run reaches it as data in RunHost, never as a flag that says
/// who is calling.
///
//===----------------------------------------------------------------------===//

#ifndef MC_DRIVER_PIPELINE_H
#define MC_DRIVER_PIPELINE_H

#include "engine/RunManifest.h"

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace mc {

class BaselineStore;
class Checker;
class XgccTool;

/// The analysis half of a request. `xgcc` fills one from its flags, and an
/// `mc.service-request.v1` line carries one on the wire (ServiceRequest).
struct RunRequest {
  /// C sources and .mast images, in command-line order. A served request
  /// resolves them against the *server's* cwd.
  std::vector<std::string> Files;
  /// Builtin checker names; empty (with no metal) = the full builtin suite.
  std::vector<std::string> Checkers;
  /// Metal checkers: (name, source text). Inline rather than by path so a
  /// served request is self-contained.
  std::vector<std::pair<std::string, std::string>> Metal;
  /// -I include directories, in order.
  std::vector<std::string> IncludeDirs;
  /// -D macro definitions: (name, value); value "1" for bare -DNAME.
  std::vector<std::pair<std::string, std::string>> Defines;
  /// Worker threads (0 = the host's default). Never changes a report byte.
  unsigned Jobs = 0;
  std::string Rank = "generic"; ///< generic | statistical | combined.
  std::string Format = "text";  ///< text | json.
  unsigned ExplainTopN = 0;     ///< --explain[=N]; 0 = off.
  bool KeepGoing = false;       ///< --keep-going.
  /// --baseline DIR: the report-lifecycle store ("" = no baseline).
  std::string Baseline;
  bool SuppressKnown = false; ///< --suppress-known.

  /// The engine options a request may set; the rest keep their
  /// EngineOptions defaults.
  struct EngineKnobs {
    bool BlockCache = true;
    bool FunctionSummaries = true;
    bool FalsePathPruning = true;
    bool DispatchIndex = true;
    bool Interprocedural = true;
    uint64_t RootDeadlineMs = 0;
    uint64_t RootPathBudget = 0;
    uint64_t MaxActiveStates = 0; ///< 0 = keep the engine default.
    std::string FailOn = "never"; ///< never | error | degraded.

    friend bool operator==(const EngineKnobs &, const EngineKnobs &) = default;
  };
  EngineKnobs Options;

  friend bool operator==(const RunRequest &, const RunRequest &) = default;
};

/// What the caller of runRequest() decides around a request. A local run
/// sets the artifacts; a long-lived host sets the policy.
struct RunHost {
  /// Artifacts only a local run has: files on the caller's disk, and stdout
  /// sections a served response has no slot for.
  bool ShowGroups = false;       ///< --groups
  std::string HistoryPath;       ///< --history
  std::string UpdateHistoryPath; ///< --update-history
  bool ShowStats = false;        ///< --stats
  unsigned ProfileTopN = 0;      ///< --profile
  std::string StatsJsonPath;     ///< --stats-json ("-" = stdout)
  /// --trace-out: exports the collector attached to the tool.
  std::string TraceOutPath;
  /// Build RunResult::Manifest even without --stats-json.
  bool WantManifest = false;

  /// Worker threads for a request that asks for 0 (0 = one per hardware
  /// thread).
  unsigned DefaultJobs = 0;
  /// Caps the per-root deadline (0 = no cap): what a request's own deadline
  /// left after it waited in a queue.
  uint64_t DeadlineClampMs = 0;
  /// Checkers to leave out, each with the diagnostic line that says why.
  std::map<std::string, std::string> SkipCheckers;
  /// Registered after the requested checkers, unless skipped.
  std::vector<std::unique_ptr<Checker>> ExtraCheckers;
  /// Baseline stores kept open across runs, by directory; classification
  /// still happens per run. Null: the run opens the request's store for
  /// itself.
  std::map<std::string, std::unique_ptr<BaselineStore>> *Baselines = nullptr;
};

struct RunResult {
  /// What xgcc exits with: 2 for a bad request, 1 when a store or artifact
  /// could not be read or written or --fail-on tripped, else 0.
  unsigned ExitCode = 0;
  /// Why the run stopped before printing its reports ("" = it ran).
  std::string Error;
  bool ParseOk = true;
  /// The checkers that ran, in order.
  std::vector<std::string> Checkers;
  /// The checkers RunHost::SkipCheckers left out.
  std::vector<std::string> Skipped;
  /// Built when RunHost::WantManifest or --stats-json asked for it.
  std::optional<RunManifest> Manifest;
};

/// Pass 1: applies -I/-D and --keep-going, then reads Req.Files in order.
/// Consecutive C sources go through the parallel front end as one batch
/// with \p Jobs workers; a .mast image loads at its position, so
/// declaration order follows the command line. False (with a diagnostic)
/// when any input failed.
bool loadInputs(XgccTool &Tool, const RunRequest &Req, unsigned Jobs);

/// Runs \p Req on \p Tool and prints its stdout to \p Out. Takes
/// \p Host's extra checkers.
RunResult runRequest(XgccTool &Tool, const RunRequest &Req, RunHost &Host,
                     raw_ostream &Out);

} // namespace mc

#endif // MC_DRIVER_PIPELINE_H
