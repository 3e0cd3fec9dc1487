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
/// Lifetimes: block summaries belong to one activation of a function. Each
/// activation walks a FunctionSummaries of its own, a vector indexed by
/// BasicBlock::id(), so a second call of a function never hits the first
/// call's interior caches. Only the entry block (its Reached set and edges,
/// the function summary) outlives the activation: the engine merges it into
/// the function's record, which answers later calls by replay.
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

  /// Adds everything \p Other holds. An edge already present keeps its
  /// metadata (ToTree, FactKey), as a repeated insert would.
  void merge(const BlockSummary &Other) {
    Reached.insert(Other.Reached.begin(), Other.Reached.end());
    Edges.insert(Other.Edges.begin(), Other.Edges.end());
    SuffixEdges.insert(Other.SuffixEdges.begin(), Other.SuffixEdges.end());
  }
};

/// The block summaries of one function activation, indexed by
/// BasicBlock::id(). A block the activation never entered has an empty
/// summary.
class FunctionSummaries {
public:
  FunctionSummaries() = default;
  explicit FunctionSummaries(const CFG &G) : Blocks(G.numBlocks()) {}

  BlockSummary &of(const BasicBlock *B) { return Blocks[B->id()]; }
  /// The summary of \p B, or null when the activation never entered it.
  const BlockSummary *find(const BasicBlock *B) const {
    if (B->id() >= Blocks.size() || Blocks[B->id()].Reached.empty())
      return nullptr;
    return &Blocks[B->id()];
  }

  /// Records whether a tree key denotes a function-local object (local keys
  /// never enter suffix/function summaries — Figure 5's note about q).
  /// Probe-only: hashed.
  std::unordered_map<uint32_t, bool> LocalKeys;
  /// False for a tree key recorded as function-local: its edges stay out of
  /// suffix summaries.
  bool keepsTree(uint32_t Key) const {
    auto It = LocalKeys.find(Key);
    return It == LocalKeys.end() || !It->second;
  }

private:
  std::vector<BlockSummary> Blocks;
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
/// is function-local (FunctionSummaries::keepsTree; local variables never
/// escape — Figure 5's note on q).
void relaxSuffixSummaries(const std::vector<BacktraceEntry> &Backtrace,
                          FunctionSummaries &FS);

/// FNV-1a digest of a function summary (\p Summary, the entry block's
/// summary merged over a run's activations): its Reached set and its suffix
/// edges, rendered as text in tuple text order. Symbols enter as their text,
/// never their ids, so the digest is the same whatever order symbols were
/// interned in. ToTree pointers are left out: they name AST nodes of one
/// process. The summary store records one digest per function a root's
/// analysis materialized, and `--cache-verify` compares them.
uint64_t functionSummaryDigest(const BlockSummary &Summary);

} // namespace mc

#endif // MC_ENGINE_SUMMARIES_H
