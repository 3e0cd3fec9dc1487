//===- metal/State.h - Extension state model --------------------*- C++ -*-===//
//
// Part of the metal/xgcc reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The extension state model of Sections 3 and 5.1. An extension's state is
/// an `SMInstance`: one global state value plus a list of variable-specific
/// instances (`VarState`), each attaching a state value and an arbitrary
/// data value to a program tree. Viewed from the engine, the state is a set
/// of state tuples `(gstate, v : tree -> value)`; `StateTuple` is that
/// canonical, comparable form used by block summaries and caches.
///
/// Tree keys, data values and fact keys are interned symbols: 32-bit ids
/// into the process-wide `support/Interner` table (0 = the empty string).
/// This makes `VarState` and `StateTuple` flat, trivially-copyable structs
/// — forking a `PathState` at a branch is a memcpy, and tuple equality is
/// a handful of integer compares. Ordering comparisons (`operator<`) fall
/// back to the interned text so every ordered container iterates in the
/// same byte order as the historical string representation; report output
/// is therefore independent of interning order (and of worker count).
///
//===----------------------------------------------------------------------===//

#ifndef MC_METAL_STATE_H
#define MC_METAL_STATE_H

#include "cfront/AST.h"
#include "cfront/ASTUtils.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

namespace mc {

class BumpPtrAllocator;

/// Interns \p S into the global symbol table, returning its id. The empty
/// string maps to 0 without touching the table.
uint32_t symbolize(std::string_view S);

/// The stable text of symbol \p Sym; 0 yields "".
std::string_view symbolText(uint32_t Sym);

/// Id of an already-interned string; 0 when it was never interned (or is
/// empty). Use for probe-only paths so misses don't grow the table.
uint32_t lookupSymbol(std::string_view S);

/// Lexicographic comparison of two symbols by their text (NOT by id — ids
/// are assigned in first-intern order, which varies with worker schedule).
bool symbolTextLess(uint32_t A, uint32_t B);

/// Comparator for ordered containers keyed by symbol whose iteration order
/// reaches report bytes: iterates in text order, matching the historical
/// string-keyed containers byte for byte.
struct SymbolTextLess {
  bool operator()(uint32_t A, uint32_t B) const { return symbolTextLess(A, B); }
};

/// State values are small integers interned per checker.
/// Two values are reserved for every checker.
enum ReservedState : int {
  /// The sink state: an instance transitioned here is deleted (Section 2.1).
  StateStop = 0,
  /// The "know nothing about this tree" marker used as the source of add
  /// edges (Section 5.2). Never stored in a live instance.
  StateUnknown = -1,
};

/// A variable-specific instance: one state machine's variable component.
/// Trivially copyable — all text fields are interned symbols.
struct VarState {
  /// The program object carrying the state — "can be any tree in the code".
  const Expr *Tree = nullptr;
  /// Canonical identity of Tree (interned exprKey); equivalence across path
  /// copies.
  uint32_t TreeKey = 0;
  /// Interned state value (> 0 for live states).
  int Value = StateStop;
  /// Extension-managed data value, an interned symbol (the paper's
  /// "C structure of arbitrary size"); participates in tuple identity.
  uint32_t Data = 0;
  /// Creation point: an instance cannot trigger a transition at the
  /// statement that created it (Section 3.2).
  const Stmt *CreatedAt = nullptr;
  /// Synonym group id; instances in one group mirror transitions
  /// (Section 8, "Synonyms"). 0 = no group.
  unsigned SynonymGroup = 0;
  /// Length of the assignment chain that produced this instance (degree of
  /// indirection, used by ranking criterion 3).
  unsigned IndirectionDepth = 0;
  /// File-scope variables are temporarily inactivated while the analysis is
  /// in another file (Section 6.1).
  bool Inactive = false;
  /// Where the property being tracked started (for ranking's distance).
  SourceLoc OriginLoc;
  /// The analysis fact that started tracking (e.g. the freeing function's
  /// name, interned); errors sharing a fact are grouped for ranking
  /// (Section 9). Metadata only: not part of tuple identity.
  uint32_t FactKey = 0;
  /// Set when the instance crossed a function boundary (ranking criterion 4).
  bool Interprocedural = false;
  /// Number of conditionals traversed while this instance was live.
  unsigned CondsCrossed = 0;

  bool live() const { return Value != StateStop; }
};

/// An extension's full state: the paper's `sm_instance` structure.
struct SMInstance {
  int GState = 0;
  std::string GData;
  std::vector<VarState> ActiveVars;

  /// Removes stopped instances.
  void sweepStopped() {
    std::erase_if(ActiveVars, [](const VarState &VS) { return !VS.live(); });
  }

  /// Finds the live instance attached to a tree whose key symbol is
  /// \p KeySym. 0 never matches (no instance has an empty key).
  VarState *findByKey(uint32_t KeySym) {
    if (!KeySym)
      return nullptr;
    for (VarState &VS : ActiveVars)
      if (VS.live() && VS.TreeKey == KeySym)
        return &VS;
    return nullptr;
  }
  const VarState *findByKey(uint32_t KeySym) const {
    return const_cast<SMInstance *>(this)->findByKey(KeySym);
  }

  /// Text-keyed lookup: probes the symbol table without interning, so a key
  /// that was never tracked anywhere stays out of the table.
  VarState *findByKey(std::string_view Key) {
    return findByKey(lookupSymbol(Key));
  }
  const VarState *findByKey(std::string_view Key) const {
    return const_cast<SMInstance *>(this)->findByKey(Key);
  }
};

/// One comparable state tuple `(gstate, v : tree -> value)` (Section 5.2).
/// The placeholder tuple `(gstate, <>)` has TreeKey 0. 16 flat bytes;
/// equality is integer compares, ordering falls back to symbol text so
/// ordered sets iterate exactly as the string representation did.
struct StateTuple {
  int GState = 0;
  uint32_t TreeKey = 0; ///< 0 = the placeholder "<>".
  int Value = StateStop;
  uint32_t Data = 0;

  bool isPlaceholder() const { return TreeKey == 0; }

  friend bool operator==(const StateTuple &, const StateTuple &) = default;
  bool operator<(const StateTuple &RHS) const;
};

/// Hash over the flat fields; symbols are canonical, so equal tuples hash
/// equal regardless of interning order.
struct StateTupleHash {
  size_t operator()(const StateTuple &T) const {
    uint64_t H = uint64_t(uint32_t(T.GState)) * 0x9e3779b97f4a7c15ull;
    H ^= (uint64_t(T.TreeKey) << 32 | T.Data) * 0xff51afd7ed558ccdull;
    H ^= uint64_t(uint32_t(T.Value)) * 0xc4ceb9fe1a85ec53ull;
    return size_t(H ^ (H >> 29));
  }
};

/// A borrowed, contiguous run of tuples (typically arena-allocated for the
/// lifetime of one traversal frame).
struct TupleSpan {
  const StateTuple *Tuples = nullptr;
  uint32_t Count = 0;

  const StateTuple *begin() const { return Tuples; }
  const StateTuple *end() const { return Tuples + Count; }
  size_t size() const { return Count; }
  bool empty() const { return Count == 0; }
  const StateTuple &operator[](size_t I) const { return Tuples[I]; }
  const StateTuple &front() const { return Tuples[0]; }
};

/// Decomposes \p SM into its set of state tuples. When there are no live
/// variable-specific instances the set is the single placeholder tuple, so
/// the state always contains at least one tuple (Section 5.3).
std::vector<StateTuple> tuplesOf(const SMInstance &SM);

/// As above, but the tuples live in \p Arena (freed wholesale with it):
/// the block-traversal hot path uses this to avoid a heap vector per visit.
TupleSpan tuplesOf(const SMInstance &SM, BumpPtrAllocator &Arena);

/// The identity of a state for dedup (exit states, replayed summary
/// partitions): its tuples as a multiset, so two equal tuples count twice,
/// plus the text of the path annotation it carries. The tuples are sorted
/// by their flat fields, a total order because symbols are canonical.
struct StateKey {
  std::vector<StateTuple> Tuples;
  std::string Annotation;

  /// Makes this the key of the state with tuples \p State (see tuplesOf)
  /// on a path annotated \p Annot, reusing the storage it already has.
  void assign(TupleSpan State, std::string_view Annot);

  friend bool operator==(const StateKey &, const StateKey &) = default;
};

/// The keys of the states one dedup site has kept. Hashed and never
/// iterated: dedup decides which states survive, never their order, so
/// nothing about a key can reach report bytes.
class StateKeySet {
public:
  /// Adds the key of the state with tuples \p State on a path annotated
  /// \p Annotation. Returns false, without allocating, when an equal key is
  /// already in the set.
  bool insert(TupleSpan State, std::string_view Annotation = {});

private:
  struct Hash {
    size_t operator()(const StateKey &K) const;
  };
  std::unordered_set<StateKey, Hash> Keys;
  StateKey Probe; ///< Rebuilt in place by every insert.
};

/// Renders a tuple in the paper's notation, e.g. "(start, v:p->freed)".
std::string tupleStr(const StateTuple &T,
                     const std::function<std::string(int)> &StateName,
                     std::string_view VarName = "v");

} // namespace mc

#endif // MC_METAL_STATE_H
