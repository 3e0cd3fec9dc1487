//===- engine/Summaries.h - Block/suffix/function summaries -----*- C++ -*-===//
//
// Part of the metal/xgcc reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The dynamic-programming caches of Sections 5.2 and 6.2. Each basic block
/// accumulates a *block summary*: the set of state tuples that reached it
/// (the cache consulted by cache_misses) plus the transition and add edges
/// describing how the block transforms each tuple. The backwards `relax`
/// pass chains block summaries into *suffix summaries* (edges from a block
/// to the function exit); the entry block's suffix summary is the function
/// summary replayed at interprocedural cache hits.
///
/// Container discipline: `Reached` is membership-only, so it hashes, and
/// the engine asks "is every tuple of this state already in Reached?" by
/// walking the state's tuples. `Edges`/`SuffixEdges` stay ordered because
/// their iteration order (tuple text order) reaches report bytes through
/// replay and relax.
///
//===----------------------------------------------------------------------===//

#ifndef MC_ENGINE_SUMMARIES_H
#define MC_ENGINE_SUMMARIES_H

#include "cfg/CFG.h"
#include "metal/State.h"

#include <functional>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace mc {

/// A transition or add edge. Add edges have From.Value == StateUnknown:
/// "the edge only applies when we know nothing about t at the entry"
/// (Section 5.2).
struct SummaryEdge {
  StateTuple From;
  StateTuple To;
  /// The tree of the To tuple, needed to materialize instances at replay.
  const Expr *ToTree = nullptr;
  /// For add edges: the analysis fact that started tracking inside the
  /// callee (VarState::FactKey), so a replayed instance groups and renders
  /// exactly like its inline-analyzed twin. Metadata, like ToTree: not part
  /// of edge identity.
  uint32_t FactKey = 0;

  bool isAdd() const { return From.Value == StateUnknown; }
  /// Global-only edges relate placeholder tuples; relax uses them to match
  /// the initial state of add edges.
  bool isGlobalOnly() const { return From.isPlaceholder(); }

  bool operator<(const SummaryEdge &RHS) const {
    if (From != RHS.From)
      return From < RHS.From;
    return To < RHS.To;
  }
  bool operator==(const SummaryEdge &RHS) const {
    return From == RHS.From && To == RHS.To;
  }
};

/// Per-block cache + effect edges + suffix edges.
struct BlockSummary {
  /// Tuples that have reached this block (the cache_misses cache).
  /// Membership tests only — hashed, not ordered.
  std::unordered_set<StateTuple, StateTupleHash> Reached;
  /// How the block transforms each entering tuple (includes identity and
  /// the global-only edge). Ordered: iteration reaches report bytes.
  std::set<SummaryEdge> Edges;
  /// Edges from this block's entry to the function exit. Ordered likewise.
  std::set<SummaryEdge> SuffixEdges;

  /// ToTree lookup for replay (keyed by tree-key symbol). Write-mostly.
  std::unordered_map<uint32_t, const Expr *> Trees;

  void addEdge(const SummaryEdge &E) {
    Edges.insert(E);
    if (E.ToTree)
      Trees[E.To.TreeKey] = E.ToTree;
  }
  void addSuffixEdge(const SummaryEdge &E) {
    SuffixEdges.insert(E);
    if (E.ToTree)
      Trees[E.To.TreeKey] = E.ToTree;
  }
};

/// Summary store for one (checker, function) pair.
class FunctionSummaries {
public:
  BlockSummary &of(const BasicBlock *B) { return Blocks[B]; }
  const BlockSummary *find(const BasicBlock *B) const {
    auto It = Blocks.find(B);
    return It == Blocks.end() ? nullptr : &It->second;
  }

  /// The entry block's Reached set records every tuple that entered the
  /// function; the interprocedural cache hit test checks against it.
  const std::unordered_set<StateTuple, StateTupleHash> &entryTuples(
      const CFG &G) {
    return of(G.entry()).Reached;
  }
  /// The function summary: the entry block's suffix edges.
  const std::set<SummaryEdge> &functionEdges(const CFG &G) {
    return of(G.entry()).SuffixEdges;
  }
  const BlockSummary &entrySummary(const CFG &G) { return of(G.entry()); }

  /// Records whether a tree key denotes a function-local object (local keys
  /// never enter suffix/function summaries — Figure 5's note about q).
  /// Probe-only: hashed.
  std::unordered_map<uint32_t, bool> LocalKeys;

private:
  std::unordered_map<const BasicBlock *, BlockSummary> Blocks;
};

/// One backtrace element: a block and the tuples the current path carried
/// into it. The tuples are an arena span owned by the traversal frame that
/// pushed the entry (they outlive the entry — backtraces pop before their
/// frame returns), so pushing a backtrace entry never heap-allocates.
struct BacktraceEntry {
  const BasicBlock *Block;
  TupleSpan Entry;
};

/// The relax pass of Figure 6: walks the backtrace backwards, combining
/// each block's summary edges with the suffix edges of the subsequent
/// block. Suffix edges ending in stop are omitted, as are edges whose tree
/// fails \p KeepTree (local variables never escape — Figure 5's note on q).
void relaxSuffixSummaries(const std::vector<BacktraceEntry> &Backtrace,
                          FunctionSummaries &FS,
                          const std::function<bool(uint32_t)> &KeepTree);

/// FNV-1a digest of the interprocedural content of \p FS for the function
/// with CFG \p G: the entry block's Reached set and its suffix edges (the
/// function summary), rendered as text in tuple text order. Symbols enter as
/// their text, never their ids, so the digest is the same whatever order
/// symbols were interned in. ToTree pointers are left out: they name AST
/// nodes of one process. The summary store records one digest per function
/// a root's analysis materialized, and `--cache-verify` compares them.
uint64_t functionSummaryDigest(FunctionSummaries &FS, const CFG &G);

} // namespace mc

#endif // MC_ENGINE_SUMMARIES_H
