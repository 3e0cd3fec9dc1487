//===- metal/AnalysisContext.h - Engine services for checkers ---*- C++ -*-===//
//
// Part of the metal/xgcc reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The interface the engine presents to an executing checker — the paper's
/// "xgcc internal interface" that C code actions use (Section 3.2). It
/// exposes the current sm_instance for inspection/mutation and the services
/// actions rely on: error reporting, statistical counters, AST annotations
/// (checker composition), path kills, and path-specific transitions.
///
//===----------------------------------------------------------------------===//

#ifndef MC_METAL_ANALYSISCONTEXT_H
#define MC_METAL_ANALYSISCONTEXT_H

#include "metal/State.h"

#include <cstdint>
#include <string>
#include <string_view>

namespace mc {

class FunctionDecl;
class SourceManager;

/// A path-specific effect requested at a branch condition (Section 3.2):
/// when the engine follows the true (false) edge it sets the state attached
/// to TreeKey to TrueValue (FalseValue), creating the instance if needed and
/// deleting it when the value is StateStop.
struct PathSpecificEffect {
  const Expr *Tree = nullptr;
  uint32_t TreeKey = 0; ///< Interned exprKey of Tree.
  int TrueValue = StateStop;
  int FalseValue = StateStop;
};

/// Everything a checker attaches to one report, gathered at one site: every
/// ranking input — grouping fact, statistical rule, severity override —
/// lands on named fields with chaining setters, and the engine derives the
/// stable fingerprint, witness journal and distance criteria from the same
/// AnalysisContext::report() call.
struct ReportBuilder {
  /// The human-readable violation message (required).
  std::string Message;
  /// The tracked object the violation is about; null for global-state
  /// violations (anchors the report at the current point instead).
  const VarState *Instance = nullptr;
  /// Groups errors computed from a common analysis fact (Section 9).
  std::string GroupKey;
  /// The statistical rule this violation counts against. Empty defaults to
  /// GroupKey.
  std::string RuleKey;
  /// Severity override (SECURITY / ERROR / MINOR). Empty means "use the
  /// path annotation", i.e. whatever annotatePath() set.
  std::string Annotation;

  ReportBuilder &message(std::string M) {
    Message = std::move(M);
    return *this;
  }
  ReportBuilder &instance(const VarState *I) {
    Instance = I;
    return *this;
  }
  ReportBuilder &group(std::string G) {
    GroupKey = std::move(G);
    return *this;
  }
  ReportBuilder &rule(std::string R) {
    RuleKey = std::move(R);
    return *this;
  }
  ReportBuilder &annotation(std::string A) {
    Annotation = std::move(A);
    return *this;
  }
};

/// Engine services available to a checker at a program point.
class AnalysisContext {
public:
  virtual ~AnalysisContext() = default;

  //===--------------------------------------------------------------------===//
  // State access
  //===--------------------------------------------------------------------===//

  /// The extension's current state; checkers may mutate it directly.
  /// Mutations are private to the current path (the engine copies state at
  /// splits and reverts on backtrack).
  virtual SMInstance &state() = 0;

  /// Creates a variable-specific instance attached to \p Tree with state
  /// \p Value, recording the creation point so the new instance cannot
  /// trigger a transition at the statement that created it.
  virtual VarState &createInstance(const Expr *Tree, int Value) = 0;

  /// Sets the state value of \p VS; StateStop deletes the instance (and is
  /// mirrored to its synonyms).
  virtual void transition(VarState &VS, int Value) = 0;

  /// True when \p VS was created at the current statement (such instances
  /// must not trigger transitions here — Section 3.2).
  virtual bool justCreated(const VarState &VS) const = 0;

  /// Registers a path-specific effect; only meaningful while the current
  /// point sits inside a branch condition (see atBranchCondition()). When it
  /// does not, the engine forks the state instead, exploring both outcomes.
  virtual void pathSpecific(const PathSpecificEffect &Effect) = 0;

  /// Records that a transition executed at the current point. Calls matched
  /// by the extension are not treated as callsites (Figure 5's note about
  /// kfree), so the engine will not follow a call the checker matched.
  virtual void markTransition() = 0;

  //===--------------------------------------------------------------------===//
  // Reporting and ranking inputs
  //===--------------------------------------------------------------------===//

  /// Emits a rule-violation report anchored at the current point: the single
  /// reporting entry point. The engine attaches the ranking criteria, the
  /// witness journal, and the stable fingerprint here — one site, every
  /// surface.
  virtual void report(const ReportBuilder &B) = 0;

  /// Statistical ranking counters (Section 9): a successful check of rule
  /// \p RuleKey.
  virtual void countExample(const std::string &RuleKey) = 0;
  /// A violation of rule \p RuleKey.
  virtual void countViolation(const std::string &RuleKey) = 0;

  /// Attaches ranking annotations (SECURITY / ERROR / MINOR) to everything
  /// reported on the current path from here on.
  virtual void annotatePath(const std::string &Tag) = 0;

  //===--------------------------------------------------------------------===//
  // Composition (Section 3.2) and traversal control
  //===--------------------------------------------------------------------===//

  /// Annotates an AST node for later checkers (composition).
  virtual void annotate(const Stmt *Node, const std::string &Key,
                        const std::string &Value) = 0;
  /// Reads an annotation left by an earlier checker; null when absent.
  virtual const std::string *annotation(const Stmt *Node,
                                        const std::string &Key) const = 0;

  /// Stops traversing the current path (the path-kill composition idiom:
  /// paths dominated by panic() report nothing).
  virtual void killPath() = 0;

  /// Signals an unrecoverable checker fault. The library builds with
  /// -fno-exceptions, so a checker that detects it has gone wrong (corrupt
  /// state, impossible invariant) raises the fault cooperatively: the engine
  /// abandons the current root, discards its partial reports, and quarantines
  /// it — the fault never crosses the root boundary. Defaulted to a no-op so
  /// tests' mock contexts need not care.
  virtual void raiseFault(const std::string & /*Reason*/) {}

  //===--------------------------------------------------------------------===//
  // Dispatch-index services
  //===--------------------------------------------------------------------===//

  /// Whether the checker may consult its compiled dispatch index here
  /// (EngineOptions::EnableDispatchIndex; --no-dispatch-index forces the
  /// naive try-every-transition loop). Defaulted so tests' mock contexts
  /// need not care.
  virtual bool dispatchIndexEnabled() const { return true; }

  /// Telemetry: one index consultation narrowed \p Total point-matchable
  /// transitions down to \p Tried candidates.
  virtual void noteDispatchLookup(uint64_t /*Total*/, uint64_t /*Tried*/) {}

  //===--------------------------------------------------------------------===//
  // Observability services
  //===--------------------------------------------------------------------===//

  /// Adds \p Delta to the named counter on the engine's metrics registry.
  /// Checkers use it to publish domain counters into --stats-json/--profile
  /// output; names should follow the `checker.<name>.<noun>[.<event>]`
  /// convention (see DESIGN.md "Observability"). Defaulted to a no-op so
  /// tests' mock contexts need not care, and so counting never changes
  /// analysis behavior.
  virtual void countMetric(std::string_view /*DottedName*/,
                           uint64_t /*Delta*/ = 1) {}

  /// Witness capture: records that a state-machine transition fired at the
  /// current point, for the path journal behind --explain and the manifest's
  /// witnesses array. \p Object is the tracked object's key ("" for the
  /// global state), \p From/\p To printable state names ("" From means a
  /// fresh instance). Defaulted to a no-op: capture is an observability
  /// concern, disabled-by-default, and must never change analysis behavior.
  virtual void noteTransition(std::string_view /*Object*/,
                              std::string_view /*From*/,
                              std::string_view /*To*/) {}

  //===--------------------------------------------------------------------===//
  // Environment
  //===--------------------------------------------------------------------===//

  /// The function being analysed.
  virtual const FunctionDecl *currentFunction() const = 0;
  /// The top-level statement tree containing the current point.
  virtual const Stmt *currentTopStmt() const = 0;
  /// True when the current point is inside the controlling expression of a
  /// conditional branch.
  virtual bool atBranchCondition() const = 0;
  /// The controlling expression of the current block's branch, or null.
  virtual const Expr *branchCondition() const = 0;
  /// Source manager for location rendering inside messages.
  virtual const SourceManager &sourceManager() const = 0;
};

} // namespace mc

#endif // MC_METAL_ANALYSISCONTEXT_H
