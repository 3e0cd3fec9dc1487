//===- store/Cache.h - On-disk incremental analysis caches ------*- C++ -*-===//
//
// Part of the metal/xgcc reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `--cache-dir` incremental layer: two content-addressed on-disk stores
/// that turn a re-run over a mostly-unchanged corpus into a warm replay.
///
///  * The **AST store** keys a per-TU serialized image (cfront's writeMastTU
///    form) by the hash of the TU's post-preprocess token stream, so pass 1
///    deserializes unchanged TUs instead of re-parsing them.
///
///  * The **summary store** keys one *root artifact* per (checker, root): the
///    per-root report buffer, rule counters, annotation delta and per-function
///    summary digests an isolated analysis of that root produced. The key
///    folds the root's body hash, its transitive-callee closure, the checker
///    suite fingerprint and the engine-config fingerprint, so an unchanged
///    root replays its recorded results instead of descending.
///
/// Keys hash content — token text, byte offsets, symbol text — never interned
/// ids or pointers, so a warm run is byte-identical to a cold one at any
/// `--jobs` count: the determinism contract extended across process
/// boundaries.
///
/// Every cache file carries a versioned header with a payload checksum; any
/// malformed, truncated or version-skewed entry degrades to a miss with a
/// one-line diagnostic and a `cache.evictions.corrupt` bump — never a crash,
/// never a wrong report.
///
//===----------------------------------------------------------------------===//

#ifndef MC_STORE_CACHE_H
#define MC_STORE_CACHE_H

#include "report/ErrorReport.h"
#include "report/ReportManager.h"
#include "support/Hash.h"
#include "support/Metrics.h"

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

namespace mc {

class FunctionDecl;
class Stmt;
class raw_ostream;

/// Bump this when any on-disk encoding changes (cache file header, artifact
/// payload grammar, per-TU image grammar, or a hashing scheme). Old entries
/// then read as version-mismatched and silently miss.
/// v2: ErrorReport gained the stable Fingerprint field.
inline constexpr uint8_t kCacheFormatVersion = 2;

//===----------------------------------------------------------------------===//
// Stable statement identity
//===----------------------------------------------------------------------===//

/// Bidirectional map between statement nodes and their stable cross-run
/// identity `(function name, pre-order ordinal)`. Checker-composition
/// annotations key raw `Stmt *`s; the summary store serializes them through
/// this index. Built once per run over the defined functions' bodies.
class NodeIndex {
public:
  /// Indexes every statement of \p Fn's body in pre-order. No-op when the
  /// function is undefined.
  void addFunction(const FunctionDecl *Fn);

  struct NodeId {
    const FunctionDecl *Fn = nullptr;
    uint32_t Ordinal = 0;
  };

  /// Identity of \p S, or a null-Fn id when \p S is not inside any indexed
  /// body (such annotations make their artifact uncacheable).
  NodeId idOf(const Stmt *S) const {
    auto It = ToId.find(S);
    return It == ToId.end() ? NodeId{} : It->second;
  }

  /// Inverse lookup; null when the (function, ordinal) pair does not exist
  /// in this run's ASTs (a stale artifact — the caller treats it as a miss).
  const Stmt *nodeOf(const std::string &Fn, uint32_t Ordinal) const;

private:
  std::unordered_map<const Stmt *, NodeId> ToId;
  std::map<std::string, std::vector<const Stmt *>, std::less<>> ByFunction;
};

//===----------------------------------------------------------------------===//
// Root artifacts (summary-store payloads)
//===----------------------------------------------------------------------===//

/// Everything an isolated, clean analysis of one (checker, root) pair
/// produced: replaying it is byte-equivalent to re-analyzing the root.
struct RootArtifact {
  /// The per-root report buffer, in add() order (merge() replays them, so
  /// cross-root dedup still picks the same winners a cold run would).
  std::vector<ErrorReport> Reports;
  /// Per-rule example/counterexample counters this root contributed.
  std::map<std::string, RuleStats> Rules;

  /// One checker-composition annotation written (or overwritten) by this
  /// root, keyed by stable node identity.
  struct Annot {
    std::string Fn;
    uint32_t Ordinal = 0;
    std::string Key;
    std::string Value;
  };
  std::vector<Annot> Annots;

  /// Digest of each function summary the analysis materialized (the
  /// engine/Summaries.h canonical text form). --cache-verify cross-checks
  /// these against a fresh recomputation.
  struct Digest {
    std::string Fn;
    uint64_t Value = 0;
  };
  std::vector<Digest> Digests;

  /// Binary payload encoding (store file body). Self-contained: carries its
  /// own counts; corruption is caught by the file-level checksum first and
  /// by structural validation here second.
  std::string serialize() const;
  bool parse(const std::string &Payload, std::string *Err);
};

//===----------------------------------------------------------------------===//
// The on-disk store
//===----------------------------------------------------------------------===//

/// One cache directory holding both stores. File format:
///
///   "MCC1" kind(1) version(1) reserved(2) checksum(8 LE) payload...
///
/// where checksum = FNV-1a of the payload bytes. Writes go through a
/// temporary file + rename so a crashed run never leaves a half-written
/// entry under a valid name.
class AnalysisCache {
public:
  enum class Kind : char { Ast = 'A', Summary = 'S' };

  /// Opens (creating if needed) \p Dir and takes the directory's `lock` file
  /// (flock, non-blocking). On any failure — including another live process
  /// holding the lock — the cache is unusable: every load misses and every
  /// store is dropped, with one diagnostic on \p DiagOS (null means errs(),
  /// as for setDiagOS). The lock keeps a daemon and a concurrent CLI run
  /// from interleaving temp-file writes into one store.
  explicit AnalysisCache(std::string Dir, raw_ostream *DiagOS = nullptr);

  /// Releases the directory lock. The lock file itself stays behind (its pid
  /// payload is only advisory; unlinking would race a waiter's open()).
  ~AnalysisCache();

  AnalysisCache(const AnalysisCache &) = delete;
  AnalysisCache &operator=(const AnalysisCache &) = delete;

  bool usable() const { return Usable; }
  const std::string &dir() const { return Dir; }

  /// True when construction failed specifically because another holder owns
  /// the directory lock. \c lockHolderPid() is that holder's advertised pid
  /// (0 when it could not be read) — a daemon refuses to start on this.
  bool lockConflict() const { return LockConflict; }
  long lockHolderPid() const { return LockHolderPid; }

  /// Loads the entry for \p Key. Returns false on absence or on any header,
  /// version or checksum failure (corrupt entries are unlinked and counted
  /// under cache.evictions.corrupt). Counts misses per kind; the *caller*
  /// counts the hit once payload-level validation also passed, so hit
  /// counters never include entries that were loaded but unusable.
  bool load(Kind K, uint64_t Key, std::string &PayloadOut);

  /// Unlinks \p Key's entry and counts it under cache.evictions.corrupt —
  /// for payload-level validation failures the caller discovers after a
  /// checksum-clean load().
  void dropEntry(Kind K, uint64_t Key);

  /// Stores \p Payload under \p Key. I/O failures are diagnosed once and
  /// otherwise ignored — the cache is an accelerator, never a correctness
  /// dependency.
  void store(Kind K, uint64_t Key, const std::string &Payload);

  /// Deletes oldest entries (by mtime) until the directory holds at most
  /// \p MaxBytes. Counts deletions under cache.evictions.size.
  void evictToLimit(uint64_t MaxBytes);

  /// Total bytes currently resident in the directory.
  uint64_t diskBytes() const;

  /// Sends the notes load() and store() print (a corrupt entry dropped, the
  /// first failed write) to \p OS; null means errs(). XgccTool attaches its
  /// diagnostic stream and detaches it when the tool goes, since a borrowed
  /// cache outlives its tool. Each attach re-arms the write-failure note, so
  /// every run whose writes fail says so in its own log.
  void setDiagOS(raw_ostream *OS) {
    DiagOS = OS;
    WarnedWriteFailure = false;
  }

  /// The counters this cache accumulated (cache.ast.*, cache.summary.*,
  /// cache.evictions.*, cache.bytes). The driver folds them into the run's
  /// metrics snapshot — deliberately outside MC_ENGINE_METRICS so the
  /// --stats line stays byte-stable.
  const MetricsSnapshot &counters() const { return Counters; }
  /// Extra counter bump for cache-adjacent events the driver owns
  /// (--cache-verify checks/mismatches).
  void bump(std::string_view Name, uint64_t Delta = 1) {
    Counters.add(Name, Delta);
  }

private:
  std::string entryPath(Kind K, uint64_t Key) const;
  void acquireLock();
  raw_ostream &diag();

  std::string Dir;
  bool Usable = false;
  bool WarnedWriteFailure = false;
  bool LockConflict = false;
  long LockHolderPid = 0;
  int LockFd = -1;
  MetricsSnapshot Counters;
  raw_ostream *DiagOS = nullptr;
};

} // namespace mc

#endif // MC_STORE_CACHE_H
