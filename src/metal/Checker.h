//===- metal/Checker.h - The checker (extension) interface ------*- C++ -*-===//
//
// Part of the metal/xgcc reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The extension interface the engine executes. Checkers come in two
/// flavours with identical standing: MetalChecker interprets a parsed metal
/// program (Sections 2-4), and native checkers subclass Checker directly
/// (the "C code" escape hatch taken to its logical end). The engine requires
/// only determinism and per-instance independence (Section 5.1).
///
//===----------------------------------------------------------------------===//

#ifndef MC_METAL_CHECKER_H
#define MC_METAL_CHECKER_H

#include "metal/AnalysisContext.h"

#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace mc {

class DispatchIndex;

/// Base class for all checkers.
class Checker {
public:
  virtual ~Checker();

  /// The checker's name (the `sm <name>;` header in metal).
  virtual std::string_view name() const = 0;

  /// Called at every program point (expression node or statement tree) in
  /// execution order. The checker inspects/mutates state through \p ACtx.
  /// MUST be deterministic: the same point in the same state tuple must
  /// always produce the same transformation (Section 5.1).
  virtual void checkPoint(const Stmt *Point, AnalysisContext &ACtx) = 0;

  /// Called when an instance permanently leaves scope or a root path ends —
  /// the `$end_of_path$` pattern (Section 3.2). \p VS is null for
  /// program-termination (whole-path) end.
  virtual void checkEndOfPath(VarState *VS, AnalysisContext &ACtx);

  /// The checker's compiled pattern-dispatch index, or null when it has
  /// declared no syntactic triggers. The engine uses it to skip blocks none
  /// of whose points could fire a transition; soundness contract: if
  /// mayMatch() rejects every point of a block, checkPoint() must be a no-op
  /// throughout the block. Must be immutable once analysis starts (the
  /// instance is shared across worker engines).
  virtual const DispatchIndex *dispatchIndex() const { return nullptr; }

  //===--------------------------------------------------------------------===//
  // Engine behaviour knobs (Section 8 analyses run "transparently unless a
  // checker requests otherwise"; Table 2 lets the extension writer pick
  // by-value vs by-reference restore).
  //===--------------------------------------------------------------------===//

  /// Kill instances whose tree mentions a redefined variable.
  virtual bool enableAutoKill() const { return true; }
  /// Mirror state across assignment synonyms.
  virtual bool enableSynonyms() const { return true; }
  /// Restore argument state from the callee on return (by-reference rows of
  /// Table 2); false keeps the caller's state unchanged (by-value).
  virtual bool restoreArgsByReference() const { return true; }
  /// Whether the checker reads an annotation key it also writes (metal: an
  /// annotate(K) action and an mc_annotated(K) callout). Such a checker
  /// sees its own root's writes, so the engine keeps none of its summaries
  /// from one root to the next: a summary replays a walk under the
  /// annotations of the root that built it.
  virtual bool readsOwnAnnotations() const { return false; }

  //===--------------------------------------------------------------------===//
  // State-name interning
  //===--------------------------------------------------------------------===//

  /// Interns \p Name, returning its id (>0). "stop" is StateStop.
  int internState(std::string_view Name);
  /// Id for an already-interned name; StateStop when unknown.
  int stateId(std::string_view Name) const;
  /// Printable name of \p Id ("stop", "unknown" for the reserved values).
  std::string stateName(int Id) const;

  /// The global state the analysis starts in (the first state the checker
  /// interned, by convention "start").
  virtual int initialGlobalState() const;

  //===--------------------------------------------------------------------===//
  // Identity fingerprint (incremental summary-store keys)
  //===--------------------------------------------------------------------===//

  /// A stable content fingerprint of this checker: summary-store keys embed
  /// it so cached per-root results invalidate when the checker changes. The
  /// default is a hash of the checker's name — correct for built-in native
  /// checkers, whose behaviour only changes with the binary (the store also
  /// keys on the format version). Factories that compile checkers from
  /// source must salt with the source text (compileMetalChecker does).
  uint64_t fingerprint() const;

  /// Mixes \p Salt into the fingerprint. Call before analysis starts.
  void setFingerprintSalt(uint64_t Salt) { FingerprintSalt = Salt; }

private:
  uint64_t FingerprintSalt = 0;


  /// One checker instance is shared by every worker-engine in a sharded run;
  /// interning at analysis time (e.g. metal set_global) must be synchronized.
  mutable std::mutex StateMu;
  std::vector<std::string> StateNames; ///< Index 0 unused ("stop").
  std::map<std::string, int, std::less<>> StateIds;
};

} // namespace mc

#endif // MC_METAL_CHECKER_H
