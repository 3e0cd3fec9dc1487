//===- metal/Pattern.cpp - Metal patterns and matching -----------------------===//
//
// Part of the metal/xgcc reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "metal/Pattern.h"

#include "cfront/ASTUtils.h"
#include "metal/AnalysisContext.h"
#include "metal/State.h"

#include <cstdlib>

using namespace mc;

const Expr *mc::stripCasts(const Expr *E) {
  while (const auto *CE = dyn_cast_or_null<CastExpr>(E))
    E = CE->sub();
  return E;
}

namespace {

/// Checks whether \p Target can fill hole \p H (Table 1), ignoring binding
/// consistency (handled by the caller).
bool holeAccepts(const HoleExpr *H, const Expr *Target) {
  const Type *Ty = Target->type();
  switch (H->holeKind()) {
  case HoleExpr::AnyExpr:
    return true;
  case HoleExpr::AnyScalar:
    return Ty && Ty->isScalar();
  case HoleExpr::AnyPointer:
    return Ty && (Ty->isPointer() || Ty->isArray());
  case HoleExpr::AnyFnCall:
    return isa<CallExpr>(Target);
  case HoleExpr::AnyArguments:
    // Argument-list holes are only legal in argument position; a stray one
    // matches nothing.
    return false;
  case HoleExpr::CType:
    return typesCompatible(H->type(), Ty);
  }
  return false;
}

/// Binds hole \p H to \p Target, enforcing that repeated holes contain
/// equivalent ASTs (Section 4).
bool bindHole(const HoleExpr *H, const Expr *Target, Bindings &B) {
  const Expr *Stripped = stripCasts(Target);
  auto It = B.find(H->holeName());
  if (It != B.end())
    return exprEquivalent(It->second, Stripped);
  if (!holeAccepts(H, Target))
    return false;
  B.emplace(std::string(H->holeName()), Stripped);
  return true;
}

bool unifyExpr(const Expr *P, const Expr *T, Bindings &B);

bool unifyArgs(const CallExpr *PC, const CallExpr *TC, Bindings &B) {
  std::span<const Expr *const> PArgs = PC->args();
  std::span<const Expr *const> TArgs = TC->args();
  // A trailing `any_arguments` hole swallows the rest of the argument list;
  // bind it to the whole call so actions can render it.
  bool TrailingArgsHole =
      !PArgs.empty() && isa<HoleExpr>(PArgs.back()) &&
      cast<HoleExpr>(PArgs.back())->holeKind() == HoleExpr::AnyArguments;
  size_t Fixed = TrailingArgsHole ? PArgs.size() - 1 : PArgs.size();
  if (TrailingArgsHole ? TArgs.size() < Fixed : TArgs.size() != Fixed)
    return false;
  for (size_t I = 0; I != Fixed; ++I)
    if (!unifyExpr(PArgs[I], TArgs[I], B))
      return false;
  if (TrailingArgsHole) {
    const auto *H = cast<HoleExpr>(PArgs.back());
    auto It = B.find(H->holeName());
    if (It != B.end())
      return exprEquivalent(It->second, TC);
    B.emplace(std::string(H->holeName()), TC);
  }
  return true;
}

bool unifyExpr(const Expr *P, const Expr *T, Bindings &B) {
  if (!P || !T)
    return P == T;
  if (const auto *H = dyn_cast<HoleExpr>(P))
    return bindHole(H, T, B);
  if (P->kind() != T->kind())
    return false;
  switch (P->kind()) {
  case Stmt::SK_IntegerLiteral:
    return cast<IntegerLiteral>(P)->value() == cast<IntegerLiteral>(T)->value();
  case Stmt::SK_FloatLiteral:
    return cast<FloatLiteral>(P)->value() == cast<FloatLiteral>(T)->value();
  case Stmt::SK_CharLiteral:
    return cast<CharLiteral>(P)->value() == cast<CharLiteral>(T)->value();
  case Stmt::SK_StringLiteral:
    return cast<StringLiteral>(P)->value() == cast<StringLiteral>(T)->value();
  case Stmt::SK_DeclRef:
    // Pattern identifiers refer to "legal names in the scope of the code
    // base being checked" — they match by spelling.
    return cast<DeclRefExpr>(P)->name() == cast<DeclRefExpr>(T)->name();
  case Stmt::SK_Unary: {
    const auto *UP = cast<UnaryOperator>(P);
    const auto *UT = cast<UnaryOperator>(T);
    return UP->opcode() == UT->opcode() && unifyExpr(UP->sub(), UT->sub(), B);
  }
  case Stmt::SK_Binary: {
    const auto *BP = cast<BinaryOperator>(P);
    const auto *BT = cast<BinaryOperator>(T);
    return BP->opcode() == BT->opcode() &&
           unifyExpr(BP->lhs(), BT->lhs(), B) &&
           unifyExpr(BP->rhs(), BT->rhs(), B);
  }
  case Stmt::SK_ArraySubscript: {
    const auto *SP = cast<ArraySubscriptExpr>(P);
    const auto *ST = cast<ArraySubscriptExpr>(T);
    return unifyExpr(SP->base(), ST->base(), B) &&
           unifyExpr(SP->index(), ST->index(), B);
  }
  case Stmt::SK_Member: {
    const auto *MP = cast<MemberExpr>(P);
    const auto *MT = cast<MemberExpr>(T);
    return MP->isArrow() == MT->isArrow() && MP->member() == MT->member() &&
           unifyExpr(MP->base(), MT->base(), B);
  }
  case Stmt::SK_Call: {
    const auto *CP = cast<CallExpr>(P);
    const auto *CT = cast<CallExpr>(T);
    // `fn(args)` with fn : any_fn_call binds fn to the whole call.
    if (const auto *H = dyn_cast<HoleExpr>(CP->callee())) {
      if (H->holeKind() == HoleExpr::AnyFnCall) {
        auto It = B.find(H->holeName());
        if (It != B.end() && !exprEquivalent(It->second, CT))
          return false;
        Bindings Saved = B;
        B.emplace(std::string(H->holeName()), CT);
        if (unifyArgs(CP, CT, B))
          return true;
        B = std::move(Saved);
        return false;
      }
    }
    return unifyExpr(CP->callee(), CT->callee(), B) && unifyArgs(CP, CT, B);
  }
  case Stmt::SK_Cast: {
    const auto *CP = cast<CastExpr>(P);
    const auto *CT = cast<CastExpr>(T);
    return CP->type() == CT->type() && unifyExpr(CP->sub(), CT->sub(), B);
  }
  case Stmt::SK_Sizeof: {
    const auto *SP = cast<SizeofExpr>(P);
    const auto *ST = cast<SizeofExpr>(T);
    if (SP->argType())
      return SP->argType() == ST->argType();
    return ST->argExpr() && unifyExpr(SP->argExpr(), ST->argExpr(), B);
  }
  case Stmt::SK_Conditional: {
    const auto *CP = cast<ConditionalExpr>(P);
    const auto *CT = cast<ConditionalExpr>(T);
    return unifyExpr(CP->cond(), CT->cond(), B) &&
           unifyExpr(CP->thenExpr(), CT->thenExpr(), B) &&
           unifyExpr(CP->elseExpr(), CT->elseExpr(), B);
  }
  default:
    return false;
  }
}

bool unifyStmt(const Stmt *P, const Stmt *T, Bindings &B) {
  if (!P || !T)
    return P == T;
  const auto *PE = dyn_cast<Expr>(P);
  const auto *TE = dyn_cast<Expr>(T);
  if (PE || TE)
    return PE && TE && unifyExpr(PE, TE, B);
  if (P->kind() != T->kind())
    return false;
  switch (P->kind()) {
  case Stmt::SK_Return:
    return unifyStmt(cast<ReturnStmt>(P)->value(),
                     cast<ReturnStmt>(T)->value(), B);
  case Stmt::SK_Break:
  case Stmt::SK_Continue:
  case Stmt::SK_Null:
    return true;
  case Stmt::SK_Goto:
    return cast<GotoStmt>(P)->label() == cast<GotoStmt>(T)->label();
  case Stmt::SK_Decl: {
    // Declaration patterns match by declared type shape, one decl at a time.
    const auto *DP = cast<DeclStmt>(P);
    const auto *DT = cast<DeclStmt>(T);
    if (DP->decls().size() != DT->decls().size())
      return false;
    for (size_t I = 0; I != DP->decls().size(); ++I)
      if (!typesCompatible(DP->decls()[I]->type(), DT->decls()[I]->type()))
        return false;
    return true;
  }
  case Stmt::SK_If: {
    const auto *IP = cast<IfStmt>(P);
    const auto *IT = cast<IfStmt>(T);
    return unifyExpr(IP->cond(), IT->cond(), B) &&
           unifyStmt(IP->thenStmt(), IT->thenStmt(), B) &&
           unifyStmt(IP->elseStmt(), IT->elseStmt(), B);
  }
  case Stmt::SK_While: {
    const auto *WP = cast<WhileStmt>(P);
    const auto *WT = cast<WhileStmt>(T);
    return unifyExpr(WP->cond(), WT->cond(), B) &&
           unifyStmt(WP->body(), WT->body(), B);
  }
  case Stmt::SK_Compound: {
    const auto *CP = cast<CompoundStmt>(P);
    const auto *CT = cast<CompoundStmt>(T);
    if (CP->body().size() != CT->body().size())
      return false;
    for (size_t I = 0; I != CP->body().size(); ++I)
      if (!unifyStmt(CP->body()[I], CT->body()[I], B))
        return false;
    return true;
  }
  default:
    return false;
  }
}

} // namespace

bool mc::unifyPattern(const Stmt *PatternTree, const Stmt *Target,
                      Bindings &B) {
  return unifyStmt(PatternTree, Target, B);
}

//===----------------------------------------------------------------------===//
// Pattern
//===----------------------------------------------------------------------===//

std::unique_ptr<Pattern> Pattern::makeBase(const Stmt *Tree) {
  auto P = std::unique_ptr<Pattern>(new Pattern());
  P->Kind = Base;
  P->Tree = Tree;
  return P;
}

std::unique_ptr<Pattern> Pattern::makeAnd(std::unique_ptr<Pattern> L,
                                          std::unique_ptr<Pattern> R) {
  auto P = std::unique_ptr<Pattern>(new Pattern());
  P->Kind = And;
  P->LHS = std::move(L);
  P->RHS = std::move(R);
  return P;
}

std::unique_ptr<Pattern> Pattern::makeOr(std::unique_ptr<Pattern> L,
                                         std::unique_ptr<Pattern> R) {
  auto P = std::unique_ptr<Pattern>(new Pattern());
  P->Kind = Or;
  P->LHS = std::move(L);
  P->RHS = std::move(R);
  return P;
}

std::unique_ptr<Pattern> Pattern::makeCallout(std::string Name,
                                              std::vector<CalloutArg> Args) {
  auto P = std::unique_ptr<Pattern>(new Pattern());
  P->Kind = Callout;
  P->CalloutName = std::move(Name);
  P->Args = std::move(Args);
  return P;
}

std::unique_ptr<Pattern> Pattern::makeEndOfPath() {
  auto P = std::unique_ptr<Pattern>(new Pattern());
  P->Kind = EndOfPath;
  return P;
}

bool Pattern::mentionsEndOfPath() const {
  switch (Kind) {
  case EndOfPath:
    return true;
  case And:
  case Or:
    return LHS->mentionsEndOfPath() || RHS->mentionsEndOfPath();
  default:
    return false;
  }
}

bool Pattern::readsAnnotation(const std::string &Key) const {
  switch (Kind) {
  case Callout:
    return CalloutName == "mc_annotated" && !Args.empty() &&
           Args[0].Kind == CalloutArg::String && Args[0].Text == Key;
  case And:
  case Or:
    return LHS->readsAnnotation(Key) || RHS->readsAnnotation(Key);
  default:
    return false;
  }
}

bool Pattern::match(const Stmt *Point, Bindings &B,
                    const CalloutEnv &Env) const {
  switch (Kind) {
  case Base:
    return unifyPattern(Tree, Point, B);
  case And: {
    Bindings Saved = B;
    if (LHS->match(Point, B, Env) && RHS->match(Point, B, Env))
      return true;
    B = std::move(Saved);
    return false;
  }
  case Or: {
    Bindings Saved = B;
    if (LHS->match(Point, B, Env))
      return true;
    B = Saved;
    if (RHS->match(Point, B, Env))
      return true;
    B = std::move(Saved);
    return false;
  }
  case Callout: {
    const CalloutFn *Fn = CalloutRegistry::global().find(CalloutName);
    if (!Fn)
      return false;
    CalloutEnv E = Env;
    E.Point = Point;
    E.B = &B;
    return (*Fn)(E, Args);
  }
  case EndOfPath:
    return false; // Recognised by the engine, never by point matching.
  }
  return false;
}

//===----------------------------------------------------------------------===//
// Builtin callout library
//===----------------------------------------------------------------------===//

namespace {

const Expr *resolveArg(const CalloutEnv &Env, const CalloutArg &Arg) {
  if (Arg.Kind != CalloutArg::Hole || !Env.B)
    return nullptr;
  auto It = Env.B->find(Arg.Text);
  return It == Env.B->end() ? nullptr : It->second;
}

} // namespace

void mc::registerBuiltinCallouts(CalloutRegistry &Registry) {
  Registry.add("mc_true", [](const CalloutEnv &, const auto &) {
    return true;
  });
  Registry.add("mc_false", [](const CalloutEnv &, const auto &) {
    return false;
  });
  Registry.add("mc_is_call_to",
               [](const CalloutEnv &Env, const std::vector<CalloutArg> &Args) {
                 if (Args.size() != 2 || Args[1].Kind != CalloutArg::String)
                   return false;
                 const Expr *E = resolveArg(Env, Args[0]);
                 if (!E)
                   E = dyn_cast_or_null<Expr>(Env.Point);
                 const auto *CE = dyn_cast_or_null<CallExpr>(E);
                 return CE && CE->calleeName() == Args[1].Text;
               });
  Registry.add("mc_annotated",
               [](const CalloutEnv &Env, const std::vector<CalloutArg> &Args) {
                 if (Args.empty() || Args[0].Kind != CalloutArg::String ||
                     !Env.ACtx || !Env.Point)
                   return false;
                 return Env.ACtx->annotation(Env.Point, Args[0].Text) !=
                        nullptr;
               });
  Registry.add("mc_in_function",
               [](const CalloutEnv &Env, const std::vector<CalloutArg> &Args) {
                 if (Args.empty() || Args[0].Kind != CalloutArg::String ||
                     !Env.ACtx || !Env.ACtx->currentFunction())
                   return false;
                 return Env.ACtx->currentFunction()->name() == Args[0].Text;
               });
  // Data-value counter comparisons (recursive-lock style checkers store a
  // decimal counter in the instance's data value).
  auto DataCmp = [](bool Ge) {
    return [Ge](const CalloutEnv &Env, const std::vector<CalloutArg> &Args) {
      if (Args.empty() || !Env.Instance)
        return false;
      long long N = Args.back().Kind == CalloutArg::Int ? Args.back().IntValue
                                                        : 0;
      std::string Text(symbolText(Env.Instance->Data));
      long long D = Text.empty() ? 0 : std::strtoll(Text.c_str(), nullptr, 10);
      return Ge ? D >= N : D <= N;
    };
  };
  Registry.add("mc_data_ge", DataCmp(true));
  Registry.add("mc_data_le", DataCmp(false));
  Registry.add("mc_is_branch_condition",
               [](const CalloutEnv &Env, const std::vector<CalloutArg> &) {
                 return Env.ACtx && Env.Point &&
                        Env.ACtx->branchCondition() == Env.Point;
               });
  Registry.add("mc_is_null_constant",
               [](const CalloutEnv &Env, const std::vector<CalloutArg> &Args) {
                 if (Args.empty())
                   return false;
                 const Expr *E = stripCasts(resolveArg(Env, Args[0]));
                 const auto *IL = dyn_cast_or_null<IntegerLiteral>(E);
                 return IL && IL->value() == 0;
               });
}

CalloutRegistry &CalloutRegistry::global() {
  static CalloutRegistry *Registry = [] {
    auto *R = new CalloutRegistry();
    registerBuiltinCallouts(*R);
    return R;
  }();
  return *Registry;
}
