//===- engine/Engine.h - The xgcc analysis engine ---------------*- C++ -*-===//
//
// Part of the metal/xgcc reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The analysis engine of Sections 5 and 6: a depth-first, one-execution-
/// path-at-a-time traversal of the supergraph that executes a checker at
/// every program point; block-level state caching; suffix and function
/// summaries with the relax pass; context-sensitive, top-down
/// interprocedural analysis with refine/restore at call boundaries
/// (Table 2); and the transparent supporting analyses of Section 8 (killing
/// redefined variables, synonyms, false-path pruning).
///
//===----------------------------------------------------------------------===//

#ifndef MC_ENGINE_ENGINE_H
#define MC_ENGINE_ENGINE_H

#include "cfg/CallGraph.h"
#include "engine/Summaries.h"
#include "fpp/ValueTracker.h"
#include "metal/Checker.h"
#include "report/ReportManager.h"
#include "support/Allocator.h"
#include "support/Metrics.h"

#include <atomic>
#include <cstdint>
#include <map>
#include <span>
#include <unordered_map>
#include <unordered_set>

namespace mc {

class TraceCollector;
class TraceBuffer;

/// Exit-code policy for runs with incidents (--fail-on).
enum class FailPolicy {
  Never,    ///< Always exit 0; partial results never look like crashes.
  Error,    ///< Nonzero when any root was quarantined or parsing failed.
  Degraded, ///< Error policy, plus nonzero when any root was degraded.
};

/// The CLI spelling of \p P ("never"/"error"/"degraded").
const char *failPolicyName(FailPolicy P);
/// Parses a CLI spelling; returns false (leaving \p Out untouched) on an
/// unknown value.
bool parseFailPolicy(std::string_view Spelling, FailPolicy &Out);

/// The reporting/robustness option block: everything that shapes *what the
/// run reports and how it degrades*, as opposed to the analysis semantics
/// toggles on EngineOptions itself. The CLI parses --stats, --stats-json,
/// --trace-out, --profile, --deadline-ms and --fail-on into this one
/// sub-struct; it is serialized into the run manifest as the "reporting"
/// object. A pure value (no callbacks, no streams) so EngineOptions stays
/// comparable and round-trips through the manifest.
struct ReportingOptions {
  /// Print the one-line engine counter summary after the reports (--stats).
  bool ShowStats = false;
  /// Write the run manifest JSON here; "-" = stdout, "" = off (--stats-json).
  std::string StatsJsonPath;
  /// Write a Chrome trace-event JSON file here; "" = off (--trace-out).
  std::string TraceOutPath;
  /// Print the top-N per-checker attribution report; 0 = off (--profile).
  /// Also enables checker-callout wall-clock timing, which is otherwise
  /// never measured (no clock reads on the default hot path).
  unsigned ProfileTopN = 0;
  /// Wall-clock budget per root in milliseconds, checked cooperatively at
  /// block granularity via an atomic flag; 0 = no deadline (--deadline-ms).
  /// A root that blows it walks the degradation ladder (see
  /// degradedOptions).
  uint64_t RootDeadlineMs = 0;
  /// Exit-code policy when roots were degraded/quarantined (--fail-on).
  FailPolicy FailOn = FailPolicy::Never;
  /// Render the top-N ranked reports with their witness paths after the
  /// report list; 0 = off (--explain[=N], bare --explain means 3).
  unsigned ExplainTopN = 0;
  /// Journal witness steps into per-path state and copy them into emitted
  /// reports (and the manifest's "witnesses" array). --explain turns this
  /// on; off is free — reports and --stats stay byte-identical.
  bool CaptureWitness = false;

  friend bool operator==(const ReportingOptions &,
                         const ReportingOptions &) = default;
};

/// Engine feature toggles; the benches flip these to measure each
/// mechanism's contribution.
struct EngineOptions {
  bool EnableBlockCache = true;       ///< Section 5.2 block summaries.
  /// Section 6.2 function summaries: a call whose state the callee's summary
  /// covers replays it instead of walking the callee. Off (--no-summaries),
  /// every call walks the callee; block caches are per activation either
  /// way.
  bool EnableFunctionSummaries = true;
  bool EnableFalsePathPruning = true; ///< Section 8 FPP.
  bool EnableAutoKill = true;         ///< Section 8 killing (AND checker knob).
  bool EnableSynonyms = true;         ///< Section 8 synonyms (AND checker knob).
  bool Interprocedural = true;        ///< Follow calls at all.
  /// Compiled pattern-dispatch index + per-block applicable-transition memo
  /// (--no-dispatch-index falls back to trying every transition everywhere).
  bool EnableDispatchIndex = true;
  /// Safety valves for cache-off configurations: a function analysis stops
  /// exploring after this many completed paths, and a single path aborts
  /// after this many blocks (without caching, loops never converge). The
  /// path length counts blocks across every frame of the DFS — callers'
  /// blocks too — because each one holds stack: the default keeps the
  /// deepest cache-off walk inside a 6 MiB stack.
  uint64_t MaxPathsPerFunction = 1u << 20;
  unsigned MaxPathLength = 2048;
  unsigned MaxCallDepth = 64;
  /// Fault-containment valves. Unlike the truncating valves above (which
  /// quietly stop exploring and keep the partial result), these abort the
  /// whole root: its buffered reports are discarded and the driver walks the
  /// degradation ladder (see degradedOptions). RootPathBudget is a hard cap
  /// on paths explored per root across all frames (0 = unlimited).
  /// MaxActiveStates aborts when a runaway checker grows per-path state
  /// without bound. The per-root wall-clock deadline lives on
  /// Reporting.RootDeadlineMs with the rest of the robustness block.
  uint64_t RootPathBudget = 0;
  uint64_t MaxActiveStates = 1u << 16;
  /// The reporting/robustness block (--stats/--stats-json/--trace-out/
  /// --profile/--deadline-ms/--fail-on).
  ReportingOptions Reporting;
  /// Worker threads for root-function analysis and pass-1 parsing; 0 = one
  /// per hardware thread. An uncached run cuts each checker's roots into
  /// min(Jobs, roots) contiguous shards, so 1 is one shard; each shard owns
  /// a private Engine (caches, stats) and shards share only what stays
  /// immutable while they run: the AST/CFG/call graph and the earlier
  /// checkers' annotations. See docs/INTERNALS.md "Threading model".
  unsigned Jobs = 1;

  friend bool operator==(const EngineOptions &,
                         const EngineOptions &) = default;
};

/// Why analyzeRoot abandoned a root. The library builds with
/// -fno-exceptions, so faults are cooperative: the engine's budget valves
/// and AnalysisContext::raiseFault set an abort latch that the traversal
/// polls at block granularity.
enum class RootAbortKind {
  None,         ///< Root completed (possibly truncated by the soft valves).
  Deadline,     ///< ReportingOptions::RootDeadlineMs elapsed.
  PathBudget,   ///< EngineOptions::RootPathBudget exceeded.
  StateLimit,   ///< EngineOptions::MaxActiveStates exceeded.
  CheckerFault, ///< The checker raised a fault via raiseFault().
};

/// Checker-composition state (Section 3.2): the annotations checkers wrote
/// on AST nodes, key to value per node.
using AnnotationMap =
    std::map<const Stmt *, std::map<std::string, std::string>>;

/// Everything one analyzeRoot() call produced. On abort the root's reports
/// and annotations are empty and the summaries it touched were erased, so
/// the caller can retry with cheaper options or quarantine the root.
struct RootOutcome {
  RootAbortKind Kind = RootAbortKind::None;
  std::string Reason;
  /// The root's reports and rule counters, in the order it emitted them.
  ReportManager Reports;
  /// The annotations the root wrote.
  AnnotationMap Annotations;
  bool aborted() const { return Kind != RootAbortKind::None; }
};

/// The degradation ladder: a root that blows a budget is retried with
/// progressively cheaper options. Stage 1 turns interprocedural analysis
/// off; stage 2 also halves the path budgets; stage 3 is an
/// intraprocedural-only skim that truncates instead of aborting, so it
/// always terminates with some result (unless the checker itself faults or
/// the deadline fires even on the skim).
constexpr unsigned kDegradationStages = 3;
EngineOptions degradedOptions(const EngineOptions &Base, unsigned Stage);

/// The xgcc engine. One Engine runs one checker at a time over one source
/// base: beginChecker, then analyzeRoot per root. Across roots it keeps only
/// function summaries (none for a checker that reads its own annotations);
/// each root's reports and annotations come back in its RootOutcome, and the
/// caller merges them.
class Engine {
public:
  /// \p Trace may be null (tracing off) or a shared collector; the engine
  /// records one buffer per root analysis attempt on the root's lane, so the
  /// merged stream is deterministic at any --jobs count. The collector is a
  /// constructor dependency rather than an option: EngineOptions stays a
  /// pure, comparable value that round-trips through the run manifest.
  /// \p Earlier holds the annotations of the checkers that ran before this
  /// engine's (null = none): every root reads them, none writes them, and
  /// they must stay unchanged while the engine lives.
  Engine(ASTContext &Ctx, const SourceManager &SM, const CallGraph &CG,
         EngineOptions Opts = EngineOptions(), TraceCollector *Trace = nullptr,
         const AnnotationMap *Earlier = nullptr);
  /// The signature perfbench's traced replay builds engines with. The
  /// manager receives nothing: reports come back in each RootOutcome.
  Engine(ASTContext &Ctx, const SourceManager &SM, const CallGraph &CG,
         ReportManager &, EngineOptions Opts = EngineOptions(),
         TraceCollector *Trace = nullptr)
      : Engine(Ctx, SM, CG, Opts, Trace) {}
  ~Engine();
  Engine(const Engine &) = delete;
  Engine &operator=(const Engine &) = delete;

  /// Applies \p C to the whole source base: a top-down DFS from every
  /// callgraph root (Section 6, step 3), dropping the roots' outcomes.
  /// XgccTool::run shards the roots instead; a direct call keeps this
  /// engine, and its block summaries, for introspection (Figure 5).
  void run(Checker &C);

  /// Prepares the engine for a fresh run of \p C: clears the function
  /// summaries and the may-fire bytes, which a new checker invalidates, and
  /// keeps the point lists. Call it before analyzeRoot with a new checker.
  /// XgccTool::run calls this once per shard engine, then drives
  /// analyzeRoot over the shard's roots.
  void beginChecker(Checker &C);

  /// Applies \p C starting from a single root and returns what it produced.
  /// The root sees the earlier checkers' annotations plus its own writes,
  /// never another root's. Acts as the fault boundary: on abort the outcome
  /// carries no reports or annotations and every function summary the root
  /// touched is erased, so an aborted root leaves the engine exactly as if
  /// it had been skipped.
  RootOutcome analyzeRoot(Checker &C, const FunctionDecl *Root);

  /// The engine's live metrics registry: the well-known counters plus
  /// per-checker attribution and any checker-registered custom counters.
  /// Snapshot it (metrics().snapshot()) to read a counter by dotted name or
  /// to aggregate across engines.
  const MetricsRegistry &metrics() const { return Metrics; }

  /// Block summary of \p B in \p Fn for the running checker (Figure 5
  /// output), or null when \p Fn has no summary or the walk never entered
  /// \p B. The entry block answers from the function summary, merged over
  /// every activation; any other block from the last activation that
  /// finished. The traversal itself never reads these interior blocks.
  const BlockSummary *blockSummary(const FunctionDecl *Fn,
                                   const BasicBlock *B) const;

  /// The function summary of \p Fn for the running checker: its entry
  /// block's Reached set and edges, merged over every activation (empty
  /// under --no-summaries). Null when no call or activation materialized
  /// one. The incremental cache digests these (functionSummaryDigest) so
  /// --cache-verify can cross-check warm replays against a fresh analysis;
  /// an aborted root erases the summary of every function it walked, so a
  /// ladder-degraded root can never leak a partial summary into a digest.
  const BlockSummary *functionSummary(const FunctionDecl *Fn) const;

  /// Internal point descriptor (public so implementation helpers can name
  /// it; not part of the stable API).
  struct PointInfo;

private:
  class ACtxImpl;
  friend class ACtxImpl;
  struct PathState;
  struct FrameCtx;
  struct RestoreInfo;

  /// Everything the engine keeps per function, found with one lookup per
  /// activation: the function summary, the last walk's block summaries, the
  /// point lists and the may-fire bytes. The per-block tables are indexed by
  /// BasicBlock::id().
  struct FnRecord {
    const CFG *G = nullptr; ///< Null for a function without a body.
    /// Every block's points in execution order, flattened: block B's run
    /// from PointBegin[B->id()] to PointBegin[B->id() + 1]. Built at the
    /// function's first activation; the same for every checker.
    std::vector<PointInfo> Points;
    std::vector<uint32_t> PointBegin;
    /// Per block, for the running checker: 0 = not asked yet, 1 = no point
    /// can fire any transition, 2 = some point may.
    std::vector<uint8_t> MayFire;
    /// The function summary: the entry block's summary merged over every
    /// finished activation (Section 6.2). Calls replay it.
    BlockSummary Summary;
    /// A call or an activation materialized the summary (the functions a
    /// root's cache artifact records digests for).
    bool Materialized = false;
    /// The block summaries of the last activation that finished, published
    /// for blockSummary only.
    FunctionSummaries LastWalk;
    /// The activation on the DFS stack, if any: a recursive call replays
    /// its partial summary.
    FunctionSummaries *Live = nullptr;
  };
  FnRecord &recordOf(const FunctionDecl *Fn);
  /// Erases \p R's function summary and published walk.
  static void dropSummary(FnRecord &R);

  std::span<const PointInfo> pointsOf(const FnRecord &R,
                                      const BasicBlock *B) const;

  void traverseBlock(FrameCtx &Frame, const BasicBlock *B, PathState PS);
  void processPoints(FrameCtx &Frame, const BasicBlock *B,
                     TupleSpan EntrySnapshot, size_t Idx,
                     PathState PS);
  void finishBlock(FrameCtx &Frame, const BasicBlock *B,
                   TupleSpan EntrySnapshot, PathState PS);
  void followCall(FrameCtx &Frame, const BasicBlock *B,
                  TupleSpan EntrySnapshot, size_t NextIdx, PathState PS,
                  const CallExpr *CE, const FunctionDecl *Callee,
                  FnRecord &CalleeRec);
  std::vector<PathState> analyzeFunction(const FunctionDecl *Fn, FnRecord &Rec,
                                         PathState PS, unsigned Depth);
  std::vector<SMInstance> replaySummary(const BlockSummary &Summary,
                                        const SMInstance &Refined,
                                        bool PartialOk);

  /// Section 8 transparent analyses at an assignment-shaped point. \p Depth
  /// tags witness rebind steps with the call-chain level.
  void handleAssignment(PathState &PS, ValueTracker &VT, const Expr *LHS,
                        const Expr *RHS, const Stmt *TopStmt, bool Compound,
                        unsigned Depth);
  void handlePoint(FrameCtx &Frame, const BasicBlock *B, PathState &PS,
                   const PointInfo &PI, bool &Matched);

  /// Table 2 refine/restore.
  PathState refine(const PathState &PS, const CallExpr *CE,
                   const FunctionDecl *Caller, const FunctionDecl *Callee,
                   RestoreInfo &RI);
  PathState restore(const PathState &CallerPS, SMInstance ExitSM,
                    const RestoreInfo &RI, const FunctionDecl *Callee);

  void endOfPath(PathState &PS, const FunctionDecl *Root);

  /// Records one checker-relevant event on \p PS: always into the shape
  /// trail, since fingerprints must not depend on capture, and into the
  /// witness journal only under capture, so an uncaptured run builds no
  /// journal strings.
  void noteStep(PathState &PS, WitnessStep::Kind K, SourceLoc Loc,
                unsigned Depth, std::string_view Object, std::string_view From,
                std::string_view To) const;

  /// The value of annotation \p Key on \p Node as the current root sees it:
  /// its own write, else the earlier checkers'; null when absent.
  const std::string *annotation(const Stmt *Node,
                                const std::string &Key) const;

  /// Latches the abort kind if a hard budget (deadline, root path budget)
  /// tripped; returns whether the current root is aborting. Cheap enough for
  /// the per-block hot path: two flag compares and a counter compare.
  bool rootAborted();

  ASTContext &Ctx;
  const SourceManager &SM;
  const CallGraph &CG;
  EngineOptions Opts;

  /// The live counter store. Engine-private on the hot path; increments go
  /// through cached cell pointers (one relaxed fetch_add each).
  MetricsRegistry Metrics;
  /// Cached cells for the well-known counters, one field per
  /// MC_ENGINE_METRICS row (registered once in the constructor).
  struct Counters {
#define MC_METRIC_FIELD(Field, DottedName, StatsKey)                           \
  std::atomic<uint64_t> *Field = nullptr;
    MC_ENGINE_METRICS(MC_METRIC_FIELD)
#undef MC_METRIC_FIELD
  };
  Counters Ctr;
  static void bump(std::atomic<uint64_t> *Cell, uint64_t Delta = 1) {
    Cell->fetch_add(Delta, std::memory_order_relaxed);
  }
  /// Cached per-checker attribution cells (checker.<name>.*), refreshed
  /// whenever the running checker changes.
  struct CheckerCells {
    std::atomic<uint64_t> *Tried = nullptr;
    std::atomic<uint64_t> *Fired = nullptr;
    std::atomic<uint64_t> *States = nullptr;
    std::atomic<uint64_t> *Faults = nullptr;
    std::atomic<uint64_t> *Reports = nullptr;
    std::atomic<uint64_t> *CalloutNs = nullptr;
    /// Witness steps copied into emitted reports; registered only when
    /// capture is on so a capture-off metrics snapshot is unchanged.
    std::atomic<uint64_t> *WitnessSteps = nullptr;
  };
  CheckerCells CkC;
  const Checker *CellsChecker = nullptr;
  void refreshCheckerCells(const Checker &Ck);
  /// Time checker callouts only when a profile was requested — no clock
  /// reads on the default hot path.
  bool ProfileTiming = false;
  /// Witness journaling gate (ReportingOptions::CaptureWitness, cached):
  /// every capture site tests this one bool, so the disabled path costs a
  /// predictable branch and nothing else.
  bool WitnessOn = false;

  /// Optional span collector (null = tracing off; spans become no-ops).
  TraceCollector *Trace = nullptr;
  /// Root → lane for deterministic trace merging (lane 0 is the tool; root
  /// N in call-graph root order gets lane 1+N). Built lazily on first use.
  /// Hashed: probed by key only, lanes come from call-graph root order.
  std::unordered_map<const FunctionDecl *, uint64_t> RootLanes;
  uint64_t laneOf(const FunctionDecl *Root);

  Checker *CurChecker = nullptr;
  /// The annotations of the checkers before this engine's (see the
  /// constructor).
  const AnnotationMap *Earlier;
  /// The outcome of the root in flight: its reports and annotation writes
  /// land here (null between roots).
  RootOutcome *RootOut = nullptr;
  /// Hashed: probed by key, and iterated only to reset every record, so
  /// order cannot reach report bytes. Node-based, so a FnRecord stays put
  /// while the traversal holds it.
  std::unordered_map<const FunctionDecl *, FnRecord> Records;
  /// Per-root bump arena for traversal transients (entry-tuple snapshots,
  /// backtrace spans). Frames take mark/rewind scopes so growth is bounded
  /// by the live DFS path; analyzeRoot records the telemetry and resets it
  /// wholesale at root end — aborted roots leak nothing by construction.
  BumpPtrAllocator RootArena;
  // The lookup caches below are never iterated (single-key probes
  // only), so hashed containers are safe: no engine decision, and hence no
  // report byte, depends on their order.
  /// Synthesized DeclRefExprs for formals and declared locals.
  std::unordered_map<const VarDecl *, const Expr *> DeclRefCache;
  /// Printed text of branch conditions, memoized per Expr: the always-on
  /// shape trail mixes condition text at every live branch, and re-printing
  /// the tree each time would put an allocation on the hot path.
  std::unordered_map<const Expr *, std::string> CondTextCache;
  const std::string &condText(const Expr *E);
  /// Params + block-scope locals per function (scope tests for Table 2).
  std::unordered_map<const FunctionDecl *, std::unordered_set<const VarDecl *>>
      FnLocalsCache;
  const std::unordered_set<const VarDecl *> &localsOf(const FunctionDecl *Fn);
  /// Per-block dispatch memo for CurChecker (FnRecord::MayFire): false = no
  /// point in the block can fire any of the checker's transitions, so
  /// checkPoint is skipped for the whole block on every path through it.
  bool blockMayFire(FnRecord &R, const BasicBlock *B);
  unsigned SynonymGroupCounter = 0;

  /// Blocks on the current DFS path, summed over every frame: the count
  /// MaxPathLength bounds.
  unsigned PathBlocks = 0;

  /// Per-root fault-containment state (reset by analyzeRoot).
  RootAbortKind AbortKind = RootAbortKind::None;
  std::string AbortReason;
  uint64_t RootPathsBase = 0;      ///< paths-explored counter at root entry.
  std::atomic<bool> DeadlineExpired{false};
  bool DeadlineArmed = false;
  /// Functions whose summaries the current root walked; erased on abort (a
  /// partially-relaxed summary must not be replayed).
  std::vector<FnRecord *> TouchedThisRoot;
};

} // namespace mc

#endif // MC_ENGINE_ENGINE_H
