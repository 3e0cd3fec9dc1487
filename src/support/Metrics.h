//===- support/Metrics.h - Named counter/timer registry ---------*- C++ -*-===//
//
// Part of the metal/xgcc reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The observability layer's metrics registry: named, monotonically
/// increasing counters (timers are counters holding nanoseconds) that the
/// engine, the dispatch index, the fault ladder and individual checkers all
/// register into. Names are stable dotted paths — `<subsystem>.<noun>.<event>`
/// (engine.points.visited, index.blocks.skipped, checker.<name>.faults) — so
/// every output surface (--stats, --stats-json, BENCH_JSON) speaks the same
/// vocabulary.
///
/// Concurrency model: registration takes a mutex and hands back a stable
/// `std::atomic<uint64_t> *` cell; the hot path is exactly one relaxed
/// fetch_add through a cached cell pointer. Aggregation happens on
/// MetricsSnapshot values (plain name→value maps) merged by name, so the
/// total never depends on worker interleaving. Code reads a counter by its
/// dotted name (`snapshot().value("engine.points.visited")`); there is no
/// typed copy of the counters to keep in step.
///
//===----------------------------------------------------------------------===//

#ifndef MC_SUPPORT_METRICS_H
#define MC_SUPPORT_METRICS_H

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mc {

/// A point-in-time, name-sorted view of a registry (or a sum of several).
/// Copyable and comparable — this is the aggregation currency: workers'
/// registries are snapshotted after the barrier and merged by name.
class MetricsSnapshot {
public:
  /// Adds \p Delta to \p Name's value, creating the entry at 0 first.
  void add(std::string_view Name, uint64_t Delta = 1);

  /// Sums \p O into this snapshot by name. Summation is commutative and
  /// associative, so merge order never changes the result.
  void merge(const MetricsSnapshot &O);

  /// The value of \p Name; 0 when it was never recorded.
  uint64_t value(std::string_view Name) const;

  bool empty() const { return Values.empty(); }
  size_t size() const { return Values.size(); }

  /// Name-sorted iteration (deterministic output order everywhere).
  using const_iterator =
      std::vector<std::pair<std::string, uint64_t>>::const_iterator;
  const_iterator begin() const { return Values.begin(); }
  const_iterator end() const { return Values.end(); }

  friend bool operator==(const MetricsSnapshot &,
                         const MetricsSnapshot &) = default;

private:
  /// Sorted by name; add() keeps the invariant.
  std::vector<std::pair<std::string, uint64_t>> Values;
};

/// The live registry. One per Engine (worker-private on the analysis hot
/// path) and safe to share: registration is mutex-guarded and increments are
/// atomic, so checkers running on several workers may bump the same cell.
class MetricsRegistry {
public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry &) = delete;
  MetricsRegistry &operator=(const MetricsRegistry &) = delete;

  /// Registers (or finds) the counter \p Name and returns its cell. The
  /// pointer is stable for the registry's lifetime — cache it and increment
  /// with fetch_add(1, std::memory_order_relaxed) on hot paths.
  std::atomic<uint64_t> *counter(std::string_view Name);

  /// Convenience increment for cold paths (one map lookup per call).
  void add(std::string_view Name, uint64_t Delta = 1) {
    counter(Name)->fetch_add(Delta, std::memory_order_relaxed);
  }

  /// The current value of \p Name; 0 when it was never registered.
  uint64_t value(std::string_view Name) const;

  size_t size() const;

  /// Point-in-time copy of every counter, sorted by name.
  MetricsSnapshot snapshot() const;

private:
  mutable std::mutex Mu;
  /// Stable cell storage: deque growth never moves existing elements.
  std::deque<std::atomic<uint64_t>> Cells;
  std::map<std::string, std::atomic<uint64_t> *, std::less<>> Index;
};

/// RAII timer adding elapsed nanoseconds into \p Cell on destruction; a null
/// cell makes the whole object a no-op (no clock reads), which is how
/// profile-only timing stays off the default hot path.
class ScopedTimerNs {
public:
  explicit ScopedTimerNs(std::atomic<uint64_t> *Cell);
  ~ScopedTimerNs();
  ScopedTimerNs(const ScopedTimerNs &) = delete;
  ScopedTimerNs &operator=(const ScopedTimerNs &) = delete;

private:
  std::atomic<uint64_t> *Cell;
  uint64_t StartNs = 0;
};

/// The engine's well-known counters, in --stats line order. Columns: the
/// Engine's cached-cell field, dotted registry name, --stats key ("" = not
/// printed on the --stats line). The dotted names are API: --stats-json,
/// BENCH_JSON's "metrics" object and trajectory tooling key on them.
///
/// What some rows count: engine.roots.analyzed, every analyzeRoot() call
/// (each ladder retry is a fresh attempt); index.*, the dispatch index's
/// consultations, candidates that ran full matching, transitions skipped
/// without matching, and blocks whose dispatch the per-block memo skipped;
/// engine.deadline.hits and engine.state_limit.hits, hard aborts;
/// ladder.*, roots that ended degraded or quarantined and the retries run;
/// arena.*, bytes handed out and high-water slabs, summed over roots.
#define MC_ENGINE_METRICS(X)                                                   \
  X(PointsVisited, "engine.points.visited", "points")                          \
  X(BlocksVisited, "engine.blocks.visited", "blocks")                          \
  X(PathsExplored, "engine.paths.explored", "paths")                           \
  X(BlockCacheHits, "engine.cache.block_hits", "cache-hits")                   \
  X(FunctionCacheHits, "engine.cache.function_hits", "fn-hits")                \
  X(FunctionAnalyses, "engine.functions.analyzed", "fn-analyses")              \
  X(CallsFollowed, "engine.calls.followed", "")                                \
  X(PathsPruned, "engine.paths.pruned", "pruned")                              \
  X(KillsApplied, "engine.kills.applied", "kills")                             \
  X(SynonymsCreated, "engine.synonyms.created", "synonyms")                    \
  X(PathLimitHits, "engine.paths.limit_hits", "")                              \
  X(RootsAnalyzed, "engine.roots.analyzed", "")                                \
  X(IndexPointLookups, "index.points.lookups", "index-lookups")                \
  X(IndexCandidatesTried, "index.candidates.tried", "index-tried")             \
  X(IndexTransitionsSkipped, "index.transitions.skipped", "index-skipped")     \
  X(IndexBlocksSkipped, "index.blocks.skipped", "index-blocks-skipped")        \
  X(DeadlineHits, "engine.deadline.hits", "deadline-hits")                     \
  X(StateLimitHits, "engine.state_limit.hits", "state-limit-hits")             \
  X(RootsDegraded, "ladder.roots.degraded", "roots-degraded")                  \
  X(RootsQuarantined, "ladder.roots.quarantined", "roots-quarantined")         \
  X(DegradationRetries, "ladder.retries", "degradation-retries")               \
  X(ArenaBytes, "arena.bytes", "arena-bytes")                                  \
  X(ArenaSlabs, "arena.slabs", "arena-slabs")

/// Incremental-cache counters (src/store). Deliberately NOT rows of
/// MC_ENGINE_METRICS: the --stats line is a byte-stable surface and cache
/// traffic must not perturb it. They reach the run manifest and BENCH_JSON
/// through the snapshot merge like any other dotted name.
inline constexpr const char *kCacheAstHits = "cache.ast.hits";
inline constexpr const char *kCacheAstMisses = "cache.ast.misses";
inline constexpr const char *kCacheSummaryHits = "cache.summary.hits";
inline constexpr const char *kCacheSummaryMisses = "cache.summary.misses";
/// Payload bytes read from + written to the store this run.
inline constexpr const char *kCacheBytes = "cache.bytes";
/// Entries dropped because their header or checksum failed to validate.
inline constexpr const char *kCacheEvictionsCorrupt = "cache.evictions.corrupt";
/// Store writes abandoned because the temp file could not be written or
/// renamed (short write, ENOSPC, permissions). The temp file is unlinked.
inline constexpr const char *kCacheWriteFailures = "cache.write.failures";
/// Entries dropped by the --cache-max-mb size policy.
inline constexpr const char *kCacheEvictionsSize = "cache.evictions.size";
/// --cache-verify: recomputations performed / mismatches caught.
inline constexpr const char *kCacheVerifyChecks = "cache.verify.checks";
inline constexpr const char *kCacheVerifyMismatch = "cache.verify.mismatch";

} // namespace mc

#endif // MC_SUPPORT_METRICS_H
