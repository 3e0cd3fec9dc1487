//===- fpp/ValueTracker.cpp - Path-sensitive value tracking ------------------===//
//
// Part of the metal/xgcc reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "fpp/ValueTracker.h"

#include "metal/Pattern.h" // stripCasts
#include "metal/State.h"   // symbolize

using namespace mc;

void ValueTracker::undo(Mark M) {
  CC.undo(M.Facts);
  while (Renamed.size() > M.Renames) {
    auto It = Versions.find(Renamed.back());
    if (--It->second == 0)
      Versions.erase(It);
    Renamed.pop_back();
  }
}

TermId ValueTracker::currentVar(const Decl *D) const {
  auto It = Versions.find(D);
  unsigned V = It == Versions.end() ? 0 : It->second;
  // Decl-keyed lookup: no per-call name@version string is ever built.
  return CC.variable(D, V);
}

TermId ValueTracker::freshVersion(const Decl *D) {
  ++Versions[D];
  Renamed.push_back(D);
  return currentVar(D);
}

TermId ValueTracker::termOf(const Expr *E) const {
  E = stripCasts(E);
  if (!E)
    return 0;
  switch (E->kind()) {
  case Stmt::SK_IntegerLiteral:
    return CC.constant((long long)cast<IntegerLiteral>(E)->value());
  case Stmt::SK_CharLiteral:
    return CC.constant(cast<CharLiteral>(E)->value());
  case Stmt::SK_DeclRef: {
    const Decl *D = cast<DeclRefExpr>(E)->decl();
    if (const auto *EC = dyn_cast<EnumConstantDecl>(D))
      return CC.constant(EC->value());
    if (isa<VarDecl>(D))
      return currentVar(D);
    return 0;
  }
  case Stmt::SK_Unary: {
    const auto *UO = cast<UnaryOperator>(E);
    if (UO->opcode() == UnaryOperator::Minus) {
      TermId S = termOf(UO->sub());
      if (!S)
        return 0;
      if (auto C = CC.constantOf(S))
        return CC.constant(-*C);
      static const uint32_t NegOp = symbolize("neg");
      return CC.apply(NegOp, S, S);
    }
    if (UO->opcode() == UnaryOperator::LNot) {
      TermId S = termOf(UO->sub());
      if (!S)
        return 0;
      if (auto C = CC.constantOf(S))
        return CC.constant(*C == 0 ? 1 : 0);
      static const uint32_t LNotOp = symbolize("lnot");
      return CC.apply(LNotOp, S, S);
    }
    return 0;
  }
  case Stmt::SK_Binary: {
    const auto *BO = cast<BinaryOperator>(E);
    switch (BO->opcode()) {
    case BinaryOperator::Add:
    case BinaryOperator::Sub:
    case BinaryOperator::Mul:
    case BinaryOperator::And:
    case BinaryOperator::Or:
    case BinaryOperator::Xor: {
      TermId L = termOf(BO->lhs());
      TermId R = termOf(BO->rhs());
      if (!L || !R)
        return 0;
      auto CL = CC.constantOf(L), CR = CC.constantOf(R);
      if (CL && CR) {
        long long V = 0;
        switch (BO->opcode()) {
        case BinaryOperator::Add: V = *CL + *CR; break;
        case BinaryOperator::Sub: V = *CL - *CR; break;
        case BinaryOperator::Mul: V = *CL * *CR; break;
        case BinaryOperator::And: V = *CL & *CR; break;
        case BinaryOperator::Or: V = *CL | *CR; break;
        case BinaryOperator::Xor: V = *CL ^ *CR; break;
        default: break;
        }
        return CC.constant(V);
      }
      return CC.apply(symbolize(BinaryOperator::opcodeText(BO->opcode())), L,
                      R);
    }
    case BinaryOperator::Assign:
      // `(x = e)` as a value: the value is e's (the engine records the
      // assignment separately).
      return termOf(BO->rhs());
    case BinaryOperator::Comma:
      return termOf(BO->rhs());
    default:
      return 0;
    }
  }
  default:
    return 0;
  }
}

void ValueTracker::assign(const Expr *LHS, const Expr *RHS) {
  Rebind = RebindNote{};
  LHS = stripCasts(LHS);
  const auto *DRE = dyn_cast_or_null<DeclRefExpr>(LHS);
  if (!DRE) {
    havoc(LHS);
    return;
  }
  // Evaluate the RHS before renaming (it may mention the old LHS version).
  TermId RHSTerm = RHS ? termOf(RHS) : 0;
  TermId NewVar = freshVersion(DRE->decl());
  if (RHSTerm)
    CC.merge(NewVar, RHSTerm);
  // Clean variable-to-variable copy: leave a rebind note for the witness
  // journal. Only plain DeclRef sources count — the note names a source
  // object the checker might be tracking under its canonical key.
  if (const Expr *Src = stripCasts(RHS))
    if (const auto *SrcDRE = dyn_cast<DeclRefExpr>(Src))
      if (isa<VarDecl>(SrcDRE->decl()))
        Rebind = RebindNote{Src, true};
}

void ValueTracker::havoc(const Expr *LHS) {
  Rebind = RebindNote{};
  LHS = stripCasts(LHS);
  if (const auto *DRE = dyn_cast_or_null<DeclRefExpr>(LHS))
    freshVersion(DRE->decl());
}

bool ValueTracker::decompose(const Expr *Cond, Comparison &C) const {
  Cond = stripCasts(Cond);
  if (!Cond)
    return false;
  if (const auto *BO = dyn_cast<BinaryOperator>(Cond)) {
    if (BO->isComparison()) {
      C.L = termOf(BO->lhs());
      C.R = termOf(BO->rhs());
      C.Op = BO->opcode();
      return C.L && C.R;
    }
  }
  return false;
}

bool ValueTracker::assumeComparison(const Comparison &C, bool IsTrue) {
  BinaryOperator::Opcode Op = C.Op;
  // Negate the operator when assuming the false branch.
  if (!IsTrue) {
    switch (Op) {
    case BinaryOperator::EQ: Op = BinaryOperator::NE; break;
    case BinaryOperator::NE: Op = BinaryOperator::EQ; break;
    case BinaryOperator::LT: Op = BinaryOperator::GE; break;
    case BinaryOperator::GE: Op = BinaryOperator::LT; break;
    case BinaryOperator::GT: Op = BinaryOperator::LE; break;
    case BinaryOperator::LE: Op = BinaryOperator::GT; break;
    default: return true;
    }
  }
  switch (Op) {
  case BinaryOperator::EQ: return CC.merge(C.L, C.R);
  case BinaryOperator::NE: return CC.addDisequal(C.L, C.R);
  case BinaryOperator::LT: return CC.addLess(C.L, C.R, true);
  case BinaryOperator::LE: return CC.addLess(C.L, C.R, false);
  case BinaryOperator::GT: return CC.addLess(C.R, C.L, true);
  case BinaryOperator::GE: return CC.addLess(C.R, C.L, false);
  default: return true;
  }
}

Tri ValueTracker::evalComparison(const Comparison &C) const {
  switch (C.Op) {
  case BinaryOperator::EQ: return CC.equal(C.L, C.R);
  case BinaryOperator::NE: {
    Tri T = CC.equal(C.L, C.R);
    if (T == Tri::True) return Tri::False;
    if (T == Tri::False) return Tri::True;
    return Tri::Unknown;
  }
  case BinaryOperator::LT: return CC.less(C.L, C.R, true);
  case BinaryOperator::LE: return CC.less(C.L, C.R, false);
  case BinaryOperator::GT: return CC.less(C.R, C.L, true);
  case BinaryOperator::GE: return CC.less(C.R, C.L, false);
  default: return Tri::Unknown;
  }
}

bool ValueTracker::assume(const Expr *Cond, bool IsTrue) {
  Cond = stripCasts(Cond);
  if (!Cond)
    return true;
  // `!e` flips the branch sense.
  if (const auto *UO = dyn_cast<UnaryOperator>(Cond))
    if (UO->opcode() == UnaryOperator::LNot)
      return assume(UO->sub(), !IsTrue);
  // `(x = e)` as a condition: the truth of x's new value.
  if (const auto *BO = dyn_cast<BinaryOperator>(Cond)) {
    if (BO->opcode() == BinaryOperator::Assign)
      return assume(BO->lhs(), IsTrue);
    if (BO->opcode() == BinaryOperator::LAnd && IsTrue)
      return assume(BO->lhs(), true) && assume(BO->rhs(), true);
    if (BO->opcode() == BinaryOperator::LOr && !IsTrue)
      return assume(BO->lhs(), false) && assume(BO->rhs(), false);
    if (BO->isComparison()) {
      Comparison C;
      if (decompose(Cond, C))
        return assumeComparison(C, IsTrue);
      return true;
    }
  }
  // Bare expression: truthiness (e != 0).
  TermId T = termOf(Cond);
  if (!T)
    return true;
  TermId Zero = CC.constant(0);
  return IsTrue ? CC.addDisequal(T, Zero) : CC.merge(T, Zero);
}

Tri ValueTracker::evaluate(const Expr *Cond) const {
  Cond = stripCasts(Cond);
  if (!Cond)
    return Tri::Unknown;
  if (const auto *UO = dyn_cast<UnaryOperator>(Cond)) {
    if (UO->opcode() == UnaryOperator::LNot) {
      Tri T = evaluate(UO->sub());
      if (T == Tri::True) return Tri::False;
      if (T == Tri::False) return Tri::True;
      return Tri::Unknown;
    }
  }
  if (const auto *BO = dyn_cast<BinaryOperator>(Cond)) {
    if (BO->opcode() == BinaryOperator::Assign)
      return evaluate(BO->lhs());
    if (BO->opcode() == BinaryOperator::LAnd) {
      Tri L = evaluate(BO->lhs());
      Tri R = evaluate(BO->rhs());
      if (L == Tri::False || R == Tri::False) return Tri::False;
      if (L == Tri::True && R == Tri::True) return Tri::True;
      return Tri::Unknown;
    }
    if (BO->opcode() == BinaryOperator::LOr) {
      Tri L = evaluate(BO->lhs());
      Tri R = evaluate(BO->rhs());
      if (L == Tri::True || R == Tri::True) return Tri::True;
      if (L == Tri::False && R == Tri::False) return Tri::False;
      return Tri::Unknown;
    }
    if (BO->isComparison()) {
      Comparison C;
      if (decompose(Cond, C))
        return evalComparison(C);
      return Tri::Unknown;
    }
  }
  TermId T = termOf(Cond);
  if (!T)
    return Tri::Unknown;
  if (auto CV = CC.constantOf(T))
    return *CV != 0 ? Tri::True : Tri::False;
  Tri Eq = CC.equal(T, CC.constant(0));
  if (Eq == Tri::True)
    return Tri::False;
  if (Eq == Tri::False)
    return Tri::True;
  return Tri::Unknown;
}

Tri ValueTracker::compareEq(const Expr *A, const Expr *B) const {
  TermId TA = termOf(A), TB = termOf(B);
  if (!TA || !TB)
    return Tri::Unknown;
  return CC.equal(TA, TB);
}

bool ValueTracker::assumeEq(const Expr *A, const Expr *B, bool IsTrue) {
  TermId TA = termOf(A), TB = termOf(B);
  if (!TA || !TB)
    return true;
  return IsTrue ? CC.merge(TA, TB) : CC.addDisequal(TA, TB);
}

std::optional<long long> ValueTracker::constantValue(const Expr *E) const {
  TermId T = termOf(E);
  return T ? CC.constantOf(T) : std::nullopt;
}
