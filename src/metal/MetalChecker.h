//===- metal/MetalChecker.h - Interpreter for metal checkers ----*- C++ -*-===//
//
// Part of the metal/xgcc reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes a parsed metal program as a Checker. At each program point it
/// looks for executable transitions: global-state transitions can create new
/// state machines (add edges); variable-specific transitions are triggered
/// per live instance with the state variable pre-bound to that instance's
/// tree (Section 3.2).
///
//===----------------------------------------------------------------------===//

#ifndef MC_METAL_METALCHECKER_H
#define MC_METAL_METALCHECKER_H

#include "metal/Checker.h"
#include "metal/DispatchIndex.h"
#include "metal/MetalParser.h"

namespace mc {

/// An interpreted metal checker.
class MetalChecker : public Checker {
public:
  explicit MetalChecker(std::unique_ptr<CheckerSpec> Spec);

  std::string_view name() const override { return Spec->Name; }
  void checkPoint(const Stmt *Point, AnalysisContext &ACtx) override;
  void checkEndOfPath(VarState *VS, AnalysisContext &ACtx) override;
  const DispatchIndex *dispatchIndex() const override { return &Index; }
  bool readsOwnAnnotations() const override { return ReadsOwnAnnotations; }

  const CheckerSpec &spec() const { return *Spec; }

  /// Renders the compiled state machine (used by the Figure 1/3 benches).
  std::string describe() const;

private:
  struct CompiledTransition {
    const MetalTransition *T;
    int DestValue = StateStop;      ///< For non-path-specific.
    int TrueValue = StateStop, FalseValue = StateStop;
  };
  struct CompiledBlock {
    bool IsVarState;
    int StateValue;
    std::vector<CompiledTransition> Transitions;
  };

  void execute(const CompiledTransition &CT, const Stmt *Point, Bindings &B,
               VarState *Instance, AnalysisContext &ACtx);
  void runActions(const std::vector<MetalAction> &Actions, const Stmt *Point,
                  const Bindings &B, VarState *Instance,
                  AnalysisContext &ACtx);
  std::string resolveArgText(const CalloutArg &Arg, const Bindings &B) const;

  std::unique_ptr<CheckerSpec> Spec;
  std::vector<CompiledBlock> Blocks;
  int InitialState = StateStop;
  /// Built in the constructor, read-only afterwards (shared across workers).
  DispatchIndex Index;
  /// Number of transitions matchable at points (i.e. not $end_of_path$).
  size_t PointTransitions = 0;
  /// Some transition's pattern reads a key one of its actions writes.
  bool ReadsOwnAnnotations = false;
};

} // namespace mc

#endif // MC_METAL_METALCHECKER_H
