//===- driver/Tool.h - End-to-end xgcc facade -------------------*- C++ -*-===//
//
// Part of the metal/xgcc reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The whole pipeline behind one object: preprocess + parse C sources (or
/// load serialized .mast images — the paper's two-pass architecture), build
/// the call graph and CFGs, compile metal checkers, execute them with the
/// engine, and rank the resulting reports. Examples, tests and benches all
/// drive the system through this facade.
///
//===----------------------------------------------------------------------===//

#ifndef MC_DRIVER_TOOL_H
#define MC_DRIVER_TOOL_H

#include "cfg/CallGraph.h"
#include "cfront/Parser.h"
#include "cfront/Preprocessor.h"
#include "cfront/Serialize.h"
#include "checkers/BuiltinCheckers.h"
#include "engine/Engine.h"
#include "engine/RunManifest.h"
#include "report/History.h"
#include "report/ReportManager.h"
#include "store/Cache.h"

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

namespace mc {

class ThreadPool;
class TraceCollector;

/// One-stop pipeline driver.
class XgccTool {
public:
  /// \p DiagOS receives every diagnostic this tool emits (null = errs()).
  /// The service hands each request's tool a private stream so one request's
  /// noise never bleeds into another's response.
  explicit XgccTool(raw_ostream *DiagOS = nullptr);
  ~XgccTool();
  XgccTool(const XgccTool &) = delete;
  XgccTool &operator=(const XgccTool &) = delete;

  //===--------------------------------------------------------------------===//
  // Inputs (pass 1)
  //===--------------------------------------------------------------------===//

  /// Preprocesses and parses \p Text as translation unit \p Name. Returns
  /// false when the parse reported errors.
  bool addSource(const std::string &Name, const std::string &Text);
  /// Batch pass 1: preprocesses and parses \p Paths with \p Jobs worker
  /// threads (0 = one per hardware thread). Each translation unit gets a
  /// snapshot of the preprocessor's -D/-I state and a private parser/arena;
  /// results are spliced into the context in input order, so file ids,
  /// declaration order and diagnostics are identical for every job count
  /// (including 1). Returns false when any unit failed.
  bool addSourceFiles(const std::vector<std::string> &Paths,
                      unsigned Jobs = 0);
  /// Loads a serialized AST image produced by emitMast().
  bool addMastFile(const std::string &Path);
  /// Serializes everything parsed so far (the paper's pass-1 output).
  bool emitMast(const std::string &Path) const;

  Preprocessor &preprocessor() { return *PP; }

  /// Builds the call graph and CFGs. Called automatically by run().
  void finalize();
  bool finalized() const { return Finalized; }

  //===--------------------------------------------------------------------===//
  // Checkers
  //===--------------------------------------------------------------------===//

  /// Registers \p C. A checker whose name is already registered (e.g. the
  /// same --metal file given twice) is dropped with a warning; returns
  /// whether \p C was added.
  bool addChecker(std::unique_ptr<Checker> C);
  /// Compiles metal source text into a checker. False on parse errors.
  bool addMetalChecker(const std::string &Source, const std::string &Name);
  /// Adds one of the stock checkers by name (see builtinCheckerNames()).
  bool addBuiltinChecker(const std::string &Name);
  std::vector<std::unique_ptr<Checker>> &checkers() { return Checkers; }

  //===--------------------------------------------------------------------===//
  // Execution
  //===--------------------------------------------------------------------===//

  /// Runs every added checker over the whole source base, in registration
  /// order. For each checker the callgraph roots are cut into shards
  /// (min(Opts.Jobs, roots) contiguous ranges; one root each in a cached
  /// run), every shard is analyzed by a fresh engine on one pool, and the
  /// per-root outcomes are merged back in root order, so the output is
  /// byte-identical at any job count (see docs/INTERNALS.md "Threading
  /// model"). Annotations a checker leaves seed the later checkers of the
  /// same run.
  void run(const EngineOptions &Opts = EngineOptions());

  /// Keep-going mode (--keep-going): a translation unit that fails to parse
  /// is dropped with a diagnostic instead of being spliced in partially, and
  /// the units that parsed are still analyzed.
  void setKeepGoing(bool KG) { KeepGoing = KG; }

  /// Runs pass-1 and analysis fan-out on \p Pool instead of constructing a
  /// private ThreadPool per addSourceFiles() and run() call. The pool's
  /// worker count is free to differ from the request's --jobs: shards are
  /// derived from the options, so report bytes never depend on who executes
  /// them. Pass null to return to private pools. Not owned; must be idle
  /// whenever this tool runs.
  void setWorkerPool(ThreadPool *Pool) { SharedPool = Pool; }

  //===--------------------------------------------------------------------===//
  // Incremental caching (--cache-dir)
  //===--------------------------------------------------------------------===//

  /// Enables the on-disk incremental layer rooted at \p Dir: pass 1 loads
  /// unchanged TUs from the AST store instead of re-parsing, and run()
  /// replays unchanged (checker, root) results from the summary store
  /// instead of re-analyzing. A cached run gives every root it analyzes a
  /// shard of its own, so a root's result depends only on what its summary
  /// key hashes, and warm and cold reports are byte-identical at any --jobs
  /// count.
  void setCacheDir(const std::string &Dir);
  /// Borrows an already-open cache owned by someone longer-lived (the xgccd
  /// server keeps one store resident across requests). Replay semantics are
  /// identical to setCacheDir; the differences are ownership and accounting:
  /// finishCache() leaves the size policy to the owner, and metrics() folds
  /// in only the counter *delta* this tool caused since attach, so a
  /// per-request manifest never re-reports the daemon's lifetime traffic.
  void setSharedCache(AnalysisCache *Shared);
  /// --cache-verify: on every summary-store hit, also recompute the root
  /// live and compare; mismatches are diagnosed, counted under
  /// cache.verify.mismatch, and resolved in favour of the fresh result.
  void setCacheVerify(bool V) { CacheVerify = V; }
  /// --cache-max-mb: size budget applied by finishCache() (0 = unlimited).
  void setCacheMaxMB(uint64_t MB) { CacheMaxMB = MB; }
  /// End-of-run cache bookkeeping: applies the size policy and records the
  /// cache.bytes gauge. Idempotent; a no-op without a cache.
  void finishCache();
  AnalysisCache *cache() { return Cache; }

  //===--------------------------------------------------------------------===//
  // Results and plumbing access
  //===--------------------------------------------------------------------===//

  ReportManager &reports() { return Reports; }
  /// Everything counted over every run() call on this tool, by dotted name:
  /// the engine counters summed over the shard engines (long gone by then),
  /// per-checker attribution, checker-registered custom counters and this
  /// tool's cache traffic. Read one counter as
  /// metrics().value("engine.points.visited").
  MetricsSnapshot metrics() const;
  /// The unified run manifest for this tool's accumulated work: effective
  /// options, metrics snapshot, incident stream, report count.
  RunManifest manifest(const EngineOptions &Opts, bool ParseOk = true) const;
  /// Attaches a trace collector; every engine this tool constructs from now
  /// on records spans into it. Pass null to detach. The collector must
  /// outlive the runs it observes.
  void setTrace(TraceCollector *T) { Trace = T; }
  TraceCollector *trace() const { return Trace; }
  ASTContext &context() { return Ctx; }
  SourceManager &sourceManager() { return SM; }
  DiagnosticEngine &diags() { return Diags; }
  /// The stream diagnostics go to (the constructor's \p DiagOS).
  raw_ostream &diagOS() { return DiagOS; }
  const CallGraph &callGraph() const { return CG; }

private:
  /// What fault containment did about one aborted root.
  struct RootRecord {
    bool Aborted = false;
    bool Quarantined = false;
    bool Fault = false;   ///< The abort was a checker fault, not a budget.
    unsigned Stage = 0;   ///< Ladder stage that succeeded (degraded only).
    unsigned Retries = 0; ///< Ladder stages attempted.
    std::string Reason;   ///< The triggering abort's reason.
  };
  /// Walks the degradation ladder for a root whose analysis aborted with
  /// \p Outcome: sacrificial engines with progressively cheaper options
  /// retry it, and the first stage that completes replaces \p Outcome. A
  /// checker fault quarantines immediately — retrying cheaper would
  /// re-execute the same bug.
  RootRecord containAbortedRoot(Checker &C, const FunctionDecl *Root,
                                const EngineOptions &BaseOpts,
                                MetricsSnapshot &ExtraStats,
                                RootOutcome &Outcome);
  /// Records \p Rec as a RootIncident (deterministic: callers invoke this in
  /// serial root order at any job count) and bumps the outcome counters.
  void noteRootOutcome(Checker &C, const FunctionDecl *Root,
                       const RootRecord &Rec);

  /// One root's dealings with the summary store in a cached run.
  struct RootProbe {
    uint64_t Key = 0;
    bool Cacheable = false; ///< Key covers everything the root depends on.
    bool Hit = false;       ///< Cached holds a resolvable stored artifact.
    bool FreshOk = false;   ///< Fresh holds a storable artifact.
    std::set<const FunctionDecl *> Closure;
    RootArtifact Cached, Fresh;
  };
  /// Runs one checker: probe the summary store (cached runs), cut the roots
  /// to analyze into shards, analyze each shard in a fresh engine on
  /// \p Pool, merge in root order, and record fresh artifacts (cached runs).
  void runShards(Checker &C, const EngineOptions &Opts, ThreadPool &Pool,
                 unsigned CheckerIndex, uint64_t SuiteFp);
  /// Derives every root's summary key and loads what the store holds.
  std::vector<RootProbe> probeRoots(const Checker &C, const EngineOptions &Opts,
                                    unsigned CheckerIndex, uint64_t SuiteFp);
  /// Fills \p P.Fresh from the outcome \p O of the root \p E just analyzed,
  /// while the engine (and its function summaries) are still alive.
  void buildArtifact(Engine &E, const RootOutcome &O, RootProbe &P) const;
  /// Replays \p P's stored artifact into the results when it hit (and,
  /// under --cache-verify, matches the fresh one); false otherwise.
  bool replayCached(const Checker &C, const FunctionDecl *Root, RootProbe &P);
  /// Content hash of \p Fn: its name folded with its TU's token-stream
  /// hash, file id and path. False when the function did not come through
  /// a hashed pass-1 path (roots reaching it are then uncacheable).
  bool functionContentHash(const FunctionDecl *Fn, uint64_t &HashOut) const;
  /// Folds \p Root's transitive-callee closure into \p Hash (content hashes
  /// of defined functions in deterministic DFS call order, names of
  /// undefined externs) and collects the closure's defined functions.
  /// False when any closure member is unhashable.
  bool mixClosure(const FunctionDecl *Root, uint64_t &Hash,
                  std::set<const FunctionDecl *> &ClosureOut) const;

  raw_ostream &DiagOS;
  SourceManager SM;
  DiagnosticEngine Diags;
  ASTContext Ctx;
  std::unique_ptr<Preprocessor> PP;
  CallGraph CG;
  ReportManager Reports;
  std::vector<std::unique_ptr<Checker>> Checkers;
  /// Composition state within one run(): the annotations merged from the
  /// checkers run so far, which every root of the next checker reads.
  AnnotationMap Annotations;
  /// Counters of every shard and ladder engine this tool has run.
  MetricsSnapshot Accumulated;
  /// Optional trace collector, threaded into every engine (shard and
  /// sacrificial-ladder) this tool builds. Not owned.
  TraceCollector *Trace = nullptr;
  bool Finalized = false;
  bool KeepGoing = false;

  /// The incremental layer (null = caching off). Either owned (setCacheDir)
  /// or borrowed from a longer-lived holder (setSharedCache); all cached-mode
  /// logic goes through the raw pointer and never cares which.
  std::unique_ptr<AnalysisCache> OwnedCache;
  AnalysisCache *Cache = nullptr;
  /// Makes \p C the cache in use (null = none): detaches the old one from
  /// this tool's diagnostic stream and attaches the new one, so the store's
  /// notes land in the log of the run that caused them.
  void attachCache(AnalysisCache *C);
  /// Counter values at setSharedCache time; metrics() reports the delta for
  /// borrowed caches so request manifests stay per-request.
  MetricsSnapshot CacheBaseline;
  /// Fan-out pool on loan from the host (null = build a private pool per
  /// addSourceFiles() and run() call).
  ThreadPool *SharedPool = nullptr;
  bool CacheVerify = false;
  uint64_t CacheMaxMB = 0;
  bool CacheFinished = false;
  /// Pass-1 bookkeeping for summary keys: expanded-buffer file id → token
  /// stream hash / source path, for TUs that came through addSourceFiles.
  /// Functions from other ingestion paths have no entry and make any root
  /// whose closure reaches them uncacheable.
  std::map<unsigned, uint64_t> TUTokenHash;
  std::map<unsigned, std::string> TUPathByFile;
  /// Stable (function, pre-order ordinal) statement identities for artifact
  /// annotations; built lazily on the first cached run().
  NodeIndex NodeIdx;
  bool NodeIdxBuilt = false;
};

} // namespace mc

#endif // MC_DRIVER_TOOL_H
