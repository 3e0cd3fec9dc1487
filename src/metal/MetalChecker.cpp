//===- metal/MetalChecker.cpp - Interpreter for metal checkers ---------------===//
//
// Part of the metal/xgcc reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "metal/MetalChecker.h"

#include "cfront/ASTPrinter.h"
#include "support/StringUtils.h"

#include <cstdlib>
#include <set>

using namespace mc;

MetalChecker::MetalChecker(std::unique_ptr<CheckerSpec> SpecIn)
    : Spec(std::move(SpecIn)) {
  // Intern the initial global state first so initialGlobalState() is right:
  // the first block in the text defines the starting state (Section 2.1).
  for (const MetalStateBlock &MB : Spec->Blocks)
    if (!MB.IsVarState) {
      InitialState = internState(MB.StateName);
      break;
    }
  for (const MetalStateBlock &MB : Spec->Blocks) {
    CompiledBlock CB;
    CB.IsVarState = MB.IsVarState;
    CB.StateValue = internState(MB.StateName);
    for (const MetalTransition &T : MB.Transitions) {
      CompiledTransition CT;
      CT.T = &T;
      if (T.PathSpecific) {
        CT.TrueValue = internState(T.TrueDest.State);
        CT.FalseValue = internState(T.FalseDest.State);
      } else {
        CT.DestValue = internState(T.Normal.State);
      }
      CB.Transitions.push_back(CT);
    }
    Blocks.push_back(std::move(CB));
  }
  if (InitialState == StateStop && !Spec->Blocks.empty())
    InitialState = internState("start");

  std::set<std::string> Written;
  for (const MetalStateBlock &MB : Spec->Blocks)
    for (const MetalTransition &T : MB.Transitions)
      for (const MetalAction &A : T.Actions)
        if (A.Fn == "annotate" && !A.Args.empty())
          Written.insert(A.Args[0].Text);
  for (const MetalStateBlock &MB : Spec->Blocks)
    for (const MetalTransition &T : MB.Transitions)
      for (const std::string &Key : Written)
        ReadsOwnAnnotations |= T.Pat->readsAnnotation(Key);

  // Compile the dispatch index: every point-matchable transition is filed
  // under its pattern's discriminator. $end_of_path$-mentioning transitions
  // never match at points (checkEndOfPath owns them), so they are left out
  // entirely. Immutable from here on.
  for (size_t BI = 0; BI != Blocks.size(); ++BI)
    for (size_t TI = 0; TI != Blocks[BI].Transitions.size(); ++TI) {
      const MetalTransition &T = *Blocks[BI].Transitions[TI].T;
      if (T.Pat->mentionsEndOfPath())
        continue;
      Index.add(uint32_t(BI), uint32_t(TI), *T.Pat);
      ++PointTransitions;
    }
  Index.seal();
}

std::string MetalChecker::resolveArgText(const CalloutArg &Arg,
                                         const Bindings &B) const {
  switch (Arg.Kind) {
  case CalloutArg::String:
    return Arg.Text;
  case CalloutArg::Int:
    return std::to_string(Arg.IntValue);
  case CalloutArg::Hole: {
    auto It = B.find(Arg.Text);
    return It == B.end() ? "<" + Arg.Text + ">" : printExpr(It->second);
  }
  }
  return {};
}

void MetalChecker::runActions(const std::vector<MetalAction> &Actions,
                              const Stmt *Point, const Bindings &B,
                              VarState *Instance, AnalysisContext &ACtx) {
  for (const MetalAction &A : Actions) {
    if (A.Fn == "err" || A.Fn == "warn" || A.Fn == "note") {
      if (A.Args.empty())
        continue;
      // printf-lite: each %s consumes the next argument.
      std::string Fmt = A.Args[0].Kind == CalloutArg::String
                            ? A.Args[0].Text
                            : resolveArgText(A.Args[0], B);
      std::string Msg;
      size_t ArgIdx = 1;
      for (size_t I = 0; I != Fmt.size(); ++I) {
        if (Fmt[I] == '%' && I + 1 < Fmt.size() && Fmt[I + 1] == 's') {
          Msg += ArgIdx < A.Args.size() ? resolveArgText(A.Args[ArgIdx], B)
                                        : "%s";
          ++ArgIdx;
          ++I;
          continue;
        }
        Msg += Fmt[I];
      }
      ACtx.report(
          ReportBuilder()
              .message(std::move(Msg))
              .instance(Instance)
              .group(Instance ? std::string(symbolText(Instance->FactKey))
                              : std::string()));
      continue;
    }
    if (A.Fn == "set_global") {
      if (!A.Args.empty())
        ACtx.state().GState = internState(A.Args[0].Text);
      continue;
    }
    if (A.Fn == "count_example" || A.Fn == "count_violation") {
      std::string Key;
      for (const CalloutArg &Arg : A.Args)
        Key += resolveArgText(Arg, B);
      if (A.Fn == "count_example")
        ACtx.countExample(Key);
      else
        ACtx.countViolation(Key);
      continue;
    }
    if (A.Fn == "annotate") {
      if (!A.Args.empty() && Point)
        ACtx.annotate(Point, A.Args[0].Text,
                      A.Args.size() > 1 ? resolveArgText(A.Args[1], B) : "1");
      continue;
    }
    if (A.Fn == "path_annotate") {
      if (!A.Args.empty())
        ACtx.annotatePath(A.Args[0].Text);
      continue;
    }
    if (A.Fn == "kill_path") {
      ACtx.killPath();
      continue;
    }
    if (A.Fn == "data_set" || A.Fn == "data_inc" || A.Fn == "data_dec") {
      if (!Instance)
        continue;
      std::string Text(symbolText(Instance->Data));
      long long D = Text.empty() ? 0 : std::strtoll(Text.c_str(), nullptr, 10);
      if (A.Fn == "data_set")
        D = A.Args.empty() ? 0 : A.Args[0].IntValue;
      else if (A.Fn == "data_inc")
        D += 1;
      else
        D -= 1;
      Instance->Data = symbolize(std::to_string(D));
      continue;
    }
    // Unknown action names are ignored (forward compatibility), matching
    // the "do not limit what extensions express" spirit.
  }
}

void MetalChecker::execute(const CompiledTransition &CT, const Stmt *Point,
                           Bindings &B, VarState *Instance,
                           AnalysisContext &ACtx) {
  const MetalTransition &T = *CT.T;
  ACtx.markTransition();

  if (T.PathSpecific) {
    const Expr *Tree = nullptr;
    if (Instance) {
      Tree = Instance->Tree;
    } else if (!Spec->StateVarName.empty()) {
      auto It = B.find(Spec->StateVarName);
      if (It != B.end())
        Tree = It->second;
    }
    if (Tree)
      ACtx.pathSpecific(PathSpecificEffect{Tree, symbolize(exprKey(Tree)),
                                           CT.TrueValue, CT.FalseValue});
    runActions(T.Actions, Point, B, Instance, ACtx);
    return;
  }

  if (T.Normal.IsVarState) {
    if (Instance) {
      // Capture identity before transition(): StateStop may sweep the
      // instance (and its synonyms) out from under us.
      std::string Obj(symbolText(Instance->TreeKey));
      int Old = Instance->Value;
      ACtx.transition(*Instance, CT.DestValue);
      ACtx.noteTransition(Obj, stateName(Old), stateName(CT.DestValue));
    } else {
      // A creation transition: attach state to the tree the state variable
      // matched — but only when we know nothing about that tree yet (the
      // add-edge precondition of Section 5.2). When an instance already
      // exists, the event belongs to that instance's own transitions, so
      // the creation rule (actions included) does not fire.
      auto It = B.find(Spec->StateVarName);
      if (It == B.end())
        return;
      std::string Key = exprKey(It->second);
      if (ACtx.state().findByKey(Key))
        return;
      if (CT.DestValue != StateStop) {
        // Actions run against the new instance (e.g. data_set to initialize
        // a recursion counter).
        VarState &New = ACtx.createInstance(It->second, CT.DestValue);
        // Remember the analysis fact behind the tracking: errors that share
        // it are grouped (e.g. all errors from one freeing function).
        if (const auto *CE = dyn_cast_or_null<CallExpr>(Point))
          New.FactKey = symbolize(CE->calleeName());
        ACtx.noteTransition(symbolText(New.TreeKey), "",
                            stateName(CT.DestValue));
        runActions(T.Actions, Point, B, &New, ACtx);
        return;
      }
      // Creation straight to stop: no instance materializes, but the firing
      // is still the path's terminal fact — journal it so a rule that errs
      // at the match site does not produce a witness-less report.
      ACtx.noteTransition(Key, "", stateName(CT.DestValue));
    }
  } else {
    int Old = ACtx.state().GState;
    ACtx.state().GState = CT.DestValue;
    ACtx.noteTransition("", stateName(Old), stateName(CT.DestValue));
  }
  runActions(T.Actions, Point, B, Instance, ACtx);
}

void MetalChecker::checkPoint(const Stmt *Point, AnalysisContext &ACtx) {
  SMInstance &SM = ACtx.state();

  // Dispatch: with the index enabled, only transitions whose discriminator
  // admits this point's (kind, callee) run full structural matching. The
  // candidate list is sorted by packed (block, transition) ref, i.e. exactly
  // declaration order, so the plan below is identical to the naive loop's.
  // Per-thread buffers: one MetalChecker serves all worker engines.
  static thread_local DispatchIndex::CandidateList Cands;
  static thread_local std::vector<uint32_t> TryList;
  const bool UseIndex = ACtx.dispatchIndexEnabled();
  size_t Cursor = 0;
  if (UseIndex) {
    Index.lookup(Point, Cands);
    ACtx.noteDispatchLookup(PointTransitions, Cands.size());
    if (Cands.empty())
      return;
  }

  // Plan first, then apply: transitions must not observe each other's
  // effects within one point (the independence requirement).
  struct Planned {
    const CompiledTransition *CT;
    Bindings B;
    uint32_t InstanceKey = 0; ///< 0 for global-sourced transitions.
  };
  std::vector<Planned> Plan;

  for (size_t BI = 0; BI != Blocks.size(); ++BI) {
    const CompiledBlock &CB = Blocks[BI];
    TryList.clear();
    if (UseIndex) {
      while (Cursor != Cands.size() &&
             DispatchIndex::blockOf(Cands[Cursor]) == BI)
        TryList.push_back(DispatchIndex::transOf(Cands[Cursor++]));
    } else {
      for (uint32_t TI = 0; TI != CB.Transitions.size(); ++TI)
        if (!CB.Transitions[TI].T->Pat->mentionsEndOfPath())
          TryList.push_back(TI);
    }
    if (TryList.empty())
      continue;
    if (!CB.IsVarState) {
      if (CB.StateValue != SM.GState)
        continue;
      for (uint32_t TI : TryList) {
        const CompiledTransition &CT = CB.Transitions[TI];
        Bindings B;
        CalloutEnv Env{Point, &B, &ACtx, nullptr};
        if (CT.T->Pat->match(Point, B, Env))
          Plan.push_back(Planned{&CT, std::move(B), 0});
      }
      continue;
    }
    for (VarState &VS : SM.ActiveVars) {
      if (!VS.live() || VS.Inactive || VS.Value != CB.StateValue)
        continue;
      if (ACtx.justCreated(VS))
        continue; // No transition at the creating statement (Section 3.2).
      for (uint32_t TI : TryList) {
        const CompiledTransition &CT = CB.Transitions[TI];
        Bindings B;
        if (!Spec->StateVarName.empty())
          B.emplace(Spec->StateVarName, VS.Tree);
        CalloutEnv Env{Point, &B, &ACtx, &VS};
        if (CT.T->Pat->match(Point, B, Env)) {
          Plan.push_back(Planned{&CT, std::move(B), VS.TreeKey});
          break; // First matching transition per instance wins.
        }
      }
    }
  }

  for (Planned &P : Plan) {
    VarState *Instance = P.InstanceKey ? SM.findByKey(P.InstanceKey) : nullptr;
    if (P.InstanceKey && !Instance)
      continue; // A previous transition stopped it.
    execute(*P.CT, Point, P.B, Instance, ACtx);
  }
}

void MetalChecker::checkEndOfPath(VarState *VS, AnalysisContext &ACtx) {
  for (const CompiledBlock &CB : Blocks) {
    for (const CompiledTransition &CT : CB.Transitions) {
      if (!CT.T->Pat->mentionsEndOfPath())
        continue;
      if (CB.IsVarState) {
        if (!VS || VS->Value != CB.StateValue)
          continue;
        Bindings B;
        if (!Spec->StateVarName.empty())
          B.emplace(Spec->StateVarName, VS->Tree);
        execute(CT, nullptr, B, VS, ACtx);
      } else if (!VS && CB.StateValue == ACtx.state().GState) {
        Bindings B;
        execute(CT, nullptr, B, nullptr, ACtx);
      }
    }
  }
}

std::string MetalChecker::describe() const {
  std::string Out = "sm " + Spec->Name + ";\n";
  if (!Spec->StateVarName.empty())
    Out += "  state variable: " + Spec->StateVarName + "\n";
  for (const auto &[Name, H] : Spec->Holes.Holes) {
    const char *Kind = "";
    switch (H.Kind) {
    case HoleExpr::CType: Kind = "C type"; break;
    case HoleExpr::AnyExpr: Kind = "any expr"; break;
    case HoleExpr::AnyScalar: Kind = "any scalar"; break;
    case HoleExpr::AnyPointer: Kind = "any pointer"; break;
    case HoleExpr::AnyArguments: Kind = "any arguments"; break;
    case HoleExpr::AnyFnCall: Kind = "any fn_call"; break;
    }
    Out += "  decl " + std::string(Kind) + " " + Name + ";\n";
  }
  for (const MetalStateBlock &MB : Spec->Blocks) {
    Out += "  state ";
    if (MB.IsVarState)
      Out += Spec->StateVarName + ".";
    Out += MB.StateName + ": " + std::to_string(MB.Transitions.size()) +
           " transition(s)\n";
    for (const MetalTransition &T : MB.Transitions) {
      Out += "    ==> ";
      if (T.PathSpecific) {
        Out += "{true=" + (T.TrueDest.IsVarState ? Spec->StateVarName + "." : "") +
               T.TrueDest.State + ", false=" +
               (T.FalseDest.IsVarState ? Spec->StateVarName + "." : "") +
               T.FalseDest.State + "}";
      } else {
        Out += (T.Normal.IsVarState ? Spec->StateVarName + "." : "") +
               T.Normal.State;
      }
      if (!T.Actions.empty())
        Out += formatString(" (+%zu action(s))", T.Actions.size());
      Out += '\n';
    }
  }
  return Out;
}
