//===- fpp/ValueTracker.h - Path-sensitive value tracking -------*- C++ -*-===//
//
// Part of the metal/xgcc reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The false-path-pruning analysis of Section 8: tracks assignments and
/// comparisons along the current path, renaming variables at each assignment
/// so definitions are not confused, evaluates expressions from known values,
/// places =/==/!= related variables into congruence classes, and evaluates
/// branch conditions to prune infeasible paths. Deliberately imprecise —
/// "most paths are executable and most data dependencies are simple."
///
/// Backtrackable: mark() before a path split and undo() back to the mark
/// when the branch is done (TrackerScope does both), so one tracker serves a
/// whole function activation without a copy at any fork.
///
//===----------------------------------------------------------------------===//

#ifndef MC_FPP_VALUETRACKER_H
#define MC_FPP_VALUETRACKER_H

#include "cfront/AST.h"
#include "fpp/CongruenceClosure.h"

#include <unordered_map>
#include <vector>

namespace mc {

/// Tracks variable values along one execution path.
class ValueTracker {
public:
  /// A point to undo back to: the closure's trail and the rename log.
  struct Mark {
    CongruenceClosure::Mark Facts = 0;
    size_t Renames = 0;
  };
  Mark mark() const { return Mark{CC.mark(), Renamed.size()}; }
  /// Forgets every fact, term and rename learned since \p M was taken.
  void undo(Mark M);

  /// Records the assignment `LHS = RHS` (or a DeclStmt initializer). Only
  /// plain variable LHSes are tracked; anything else havocs conservatively.
  void assign(const Expr *LHS, const Expr *RHS);

  /// Forgets everything known about the variable in \p LHS (compound
  /// assignments, ++/--, address-taken escapes).
  void havoc(const Expr *LHS);

  /// Assumes the branch condition \p Cond has outcome \p IsTrue. Returns
  /// false when the assumption contradicts known facts (the edge is
  /// infeasible).
  bool assume(const Expr *Cond, bool IsTrue);

  /// Evaluates \p Cond under the current facts.
  Tri evaluate(const Expr *Cond) const;

  /// Evaluates A == B (switch-case edges compare the controlling expression
  /// against a case label).
  Tri compareEq(const Expr *A, const Expr *B) const;
  /// Assumes A == B (or A != B when \p IsTrue is false). Returns false on
  /// contradiction.
  bool assumeEq(const Expr *A, const Expr *B, bool IsTrue);

  /// The known constant value of \p E, if any.
  std::optional<long long> constantValue(const Expr *E) const;

  /// Witness-capture hook: when the most recent assign() was a clean plain
  /// variable-to-variable copy (`x = y`), From holds the source DeclRef.
  /// Anything else — constants, arithmetic, havocs — invalidates the note.
  /// The engine consults this to journal synonym rebindings the checker
  /// layer does not see; it carries the Expr (not a key string) so the
  /// common no-witness path never allocates.
  struct RebindNote {
    const Expr *From = nullptr;
    bool Valid = false;
  };
  RebindNote lastRebind() const { return Rebind; }

private:
  /// Maps an expression to a term; 0 when untrackable.
  TermId termOf(const Expr *E) const;
  TermId currentVar(const Decl *D) const;
  TermId freshVersion(const Decl *D);

  /// Decomposes a comparison; returns false when not a comparison shape.
  struct Comparison {
    TermId L = 0, R = 0;
    BinaryOperator::Opcode Op = BinaryOperator::EQ;
  };
  bool decompose(const Expr *Cond, Comparison &C) const;
  bool assumeComparison(const Comparison &C, bool IsTrue);
  Tri evalComparison(const Comparison &C) const;

  // Mutable from logically-const term construction (hash-consing grows the
  // closure without changing observable facts).
  mutable CongruenceClosure CC;
  /// The current version of each renamed declaration (absent = 0).
  std::unordered_map<const Decl *, unsigned> Versions;
  /// One entry per freshVersion(), popped by undo().
  std::vector<const Decl *> Renamed;
  /// Describes the most recent assign() only; undo() leaves it alone.
  RebindNote Rebind;
};

/// Undoes, on destruction, everything \p VT learned since construction. The
/// engine opens one per branch at every path split; the DFS is strictly
/// nested, the same fact BumpScope relies on.
class TrackerScope {
public:
  explicit TrackerScope(ValueTracker &VT) : VT(VT), M(VT.mark()) {}
  ~TrackerScope() { VT.undo(M); }
  TrackerScope(const TrackerScope &) = delete;
  TrackerScope &operator=(const TrackerScope &) = delete;

private:
  ValueTracker &VT;
  ValueTracker::Mark M;
};

} // namespace mc

#endif // MC_FPP_VALUETRACKER_H
