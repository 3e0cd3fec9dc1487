//===- fpp/CongruenceClosure.h - Congruence closure over terms --*- C++ -*-===//
//
// Part of the metal/xgcc reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Congruence closure in the Downey-Sethi-Tarjan style (the paper cites [8])
/// over a small term language: constants, versioned variables, and binary
/// applications. Tracks equalities (union-find with congruence propagation),
/// disequalities, and strict/non-strict orderings between classes, deriving
/// "as many equalities and non-equalities as possible" (Section 8, step 4).
///
//===----------------------------------------------------------------------===//

#ifndef MC_FPP_CONGRUENCECLOSURE_H
#define MC_FPP_CONGRUENCECLOSURE_H

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace mc {

/// Three-valued logic for branch evaluation.
enum class Tri { False, True, Unknown };

/// A term id; 0 is invalid.
using TermId = unsigned;

/// Union-find with congruence propagation plus ordering relations.
///
/// Backtrackable: every mutation — new terms and their hash-cons entries,
/// links, use/disequality/ordering list growth, the contradiction flag — is
/// logged on an undo trail. The engine takes mark() at a path split and
/// undo()es back to it when the branch is done, instead of copying the
/// closure; that is sound because the DFS is strictly nested. After
/// undo(M), every query answers exactly as it did when M was taken.
class CongruenceClosure {
public:
  /// A point on the undo trail.
  using Mark = size_t;
  Mark mark() const { return Trail.size(); }
  /// Reverts every mutation made since \p M was taken.
  void undo(Mark M);

  /// Returns the term for integer constant \p V.
  TermId constant(long long V);
  /// Returns the term for a named variable version (e.g. "x#3"). Interns the
  /// name; kept for tests and ad-hoc callers.
  TermId variable(const std::string &Name);
  /// Returns the term for version \p Version of the declaration identified
  /// by \p DeclKey. This is the engine's hot path: the key is the exact
  /// (pointer, version) pair — no name string is ever materialized, and
  /// exact-equality keying means two distinct declarations can never be
  /// conflated the way a hashed-and-packed key could.
  TermId variable(const void *DeclKey, unsigned Version);
  /// Returns the hash-consed application term Op(A, B); \p Op is an interned
  /// operator symbol (see symbolize() in metal/State.h).
  TermId apply(uint32_t Op, TermId A, TermId B);
  /// String-op convenience (tests): interns \p Op and forwards.
  TermId apply(const std::string &Op, TermId A, TermId B);

  /// Asserts A == B. Returns false on contradiction (two distinct constants
  /// merged, or a recorded disequality/strict ordering violated).
  bool merge(TermId A, TermId B);
  /// Asserts A != B. Returns false when A and B are already equal.
  bool addDisequal(TermId A, TermId B);
  /// Asserts A < B (\p Strict) or A <= B. Returns false on contradiction.
  bool addLess(TermId A, TermId B, bool Strict);

  /// Queries. All respect derived facts (constants, transitivity).
  Tri equal(TermId A, TermId B) const;
  Tri less(TermId A, TermId B, bool Strict) const;

  /// The constant value of A's class, if known.
  std::optional<long long> constantOf(TermId A) const;

  /// Representative of A's class.
  TermId find(TermId A) const;

  bool contradictory() const { return Contradiction; }

private:
  struct Node {
    TermId Parent = 0;
    unsigned Rank = 0;
    std::optional<long long> Const;
    /// The lists below are kept at class representatives: a union appends
    /// the absorbed class's lists to the surviving rep's, and leaves the
    /// absorbed rep's own lists untouched so undo only has to truncate.
    /// Application terms that mention this class (congruence worklist).
    std::vector<TermId> Uses;
    /// Terms recorded unequal to this class (each disequality is listed at
    /// both ends).
    std::vector<TermId> Diseqs;
    /// Ordering edges out of this class: (greater term, strict).
    std::vector<std::pair<TermId, bool>> Less;
    /// For application terms: the signature pieces (the argument classes
    /// when the term was created). Op is an interned operator symbol.
    bool IsApp = false;
    uint32_t Op = 0;
    TermId Arg0 = 0, Arg1 = 0;
  };

  /// Canonical application signature Op(find(A), find(B)). Replaces the old
  /// "op(a,b)" string keys: building one is three stores, not a snprintf.
  struct AppKey {
    uint32_t Op = 0;
    TermId A = 0, B = 0;
    friend bool operator==(const AppKey &, const AppKey &) = default;
  };
  struct AppKeyHash {
    size_t operator()(const AppKey &K) const {
      uint64_t H = uint64_t(K.Op) * 0x9e3779b97f4a7c15ULL;
      H ^= uint64_t(K.A) * 0xff51afd7ed558ccdULL;
      H ^= uint64_t(K.B) * 0xc4ceb9fe1a85ec53ULL;
      return size_t(H ^ (H >> 32));
    }
  };
  /// Exact (declaration pointer, version) pair; named variables use a null
  /// pointer and the interned name. Hashing is only for bucket placement —
  /// equality is exact, so collisions can never merge variables.
  using VarKey = std::pair<const void *, unsigned>;
  struct VarKeyHash {
    size_t operator()(const VarKey &K) const {
      uint64_t H = uint64_t(reinterpret_cast<uintptr_t>(K.first)) *
                   0x9e3779b97f4a7c15ULL;
      H ^= uint64_t(K.second) * 0xff51afd7ed558ccdULL;
      return size_t(H ^ (H >> 32));
    }
  };

  /// One logged mutation. undo() pops entries in reverse, so each is undone
  /// against exactly the state it was made in.
  struct Undo {
    enum Kind : uint8_t {
      NewConstant, ///< Nodes.back() is a constant term.
      NewVariable, ///< Nodes.back() is the variable VarTrail.back().
      NewApp,      ///< Nodes.back() is an application term.
      Signature,   ///< AppSignatures gained app term Node's signature.
      Link,        ///< Node was linked under its parent.
      Diseq,       ///< Node's Diseqs grew by one.
      Less,        ///< Node's Less grew by one.
      Contradiction,
    };
    Kind K;
    /// Link: whether the parent's class already had a constant.
    bool HadConst = false;
    TermId Node = 0;
    /// Link: the parent's rank and list lengths before the link.
    unsigned Rank = 0;
    uint32_t NumUses = 0, NumDiseqs = 0, NumLess = 0;
  };

  TermId fresh(Undo::Kind K);
  bool contradict();
  bool unionClasses(TermId A, TermId B);
  /// Re-canonicalizes application signatures after a union.
  bool recongruence(TermId MergedRep);
  /// True when an ordering path A -> B exists using recorded edges;
  /// \p NeedStrict requires at least one strict edge on the path.
  bool orderedPath(TermId A, TermId B, bool NeedStrict) const;

  std::vector<Node> Nodes{1}; // index 0 unused
  std::unordered_map<long long, TermId> Constants;
  std::unordered_map<VarKey, TermId, VarKeyHash> Variables;
  std::unordered_map<AppKey, TermId, AppKeyHash> AppSignatures;
  bool Contradiction = false;
  std::vector<Undo> Trail;
  /// The keys of NewVariable entries, popped in step with them.
  std::vector<VarKey> VarTrail;
  /// orderedPath's working storage: per-node visit bits (all zero between
  /// calls) and its work stack. Mutable, so even const queries must not run
  /// concurrently on one closure; each engine's trackers are its own.
  mutable std::vector<uint8_t> Seen;
  mutable std::vector<TermId> Visited;
  mutable std::vector<std::pair<TermId, bool>> Stack;
};

} // namespace mc

#endif // MC_FPP_CONGRUENCECLOSURE_H
