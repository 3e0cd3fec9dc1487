//===- tests/astutils_test.cpp - AST utility + type tests --------------------===//
//
// Part of the metal/xgcc reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "cfront/ASTPrinter.h"
#include "cfront/ASTUtils.h"
#include "cfront/Parser.h"

#include <gtest/gtest.h>

using namespace mc;

namespace {

/// Parses an expression in a context where the named int/ptr variables are
/// declared, and returns it.
struct ExprLab {
  SourceManager SM;
  DiagnosticEngine Diags{SM};
  ASTContext Ctx;

  unsigned Counter = 0;

  const Expr *parse(const std::string &Text) {
    std::string Name = "probe" + std::to_string(Counter++);
    std::string Src = "int x; int y; int *p; int *q; int a[10]; int i;\n"
                      "struct s { int f; int g; } obj; struct s *sp;\n"
                      "int call(int v);\n"
                      "int " + Name + "(void) { return " + Text + "; }";
    unsigned ID = SM.addBuffer("t.c", Src);
    Parser P(Ctx, SM, Diags, ID);
    EXPECT_TRUE(P.parseTranslationUnit()) << Text;
    const FunctionDecl *F = Ctx.findFunction(Name);
    const auto *Ret = cast<ReturnStmt>(F->body()->body()[0]);
    return Ret->value();
  }
};

//===----------------------------------------------------------------------===//
// Equivalence + keys
//===----------------------------------------------------------------------===//

struct EquivCase {
  const char *A;
  const char *B;
  bool Equal;
};

// Names each case by its text. Without this, gtest prints the struct as raw
// bytes, pointers included, and the discovered test names change with every
// build.
void PrintTo(const EquivCase &C, std::ostream *OS) {
  *OS << ::testing::PrintToString(C.A) << (C.Equal ? " == " : " != ")
      << ::testing::PrintToString(C.B);
}

class ExprEquivTest : public ::testing::TestWithParam<EquivCase> {};

TEST_P(ExprEquivTest, Equivalence) {
  ExprLab LabA, LabB;
  const Expr *A = LabA.parse(GetParam().A);
  const Expr *B = LabB.parse(GetParam().B); // different context on purpose
  EXPECT_EQ(exprEquivalent(A, B), GetParam().Equal)
      << GetParam().A << " vs " << GetParam().B;
  if (GetParam().Equal) {
    EXPECT_EQ(exprKey(A), exprKey(B));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Pairs, ExprEquivTest,
    ::testing::Values(
        EquivCase{"x", "x", true}, EquivCase{"x", "y", false},
        EquivCase{"a[i]", "a[i]", true}, EquivCase{"a[i]", "a[x]", false},
        EquivCase{"*p", "*p", true}, EquivCase{"*p", "*q", false},
        EquivCase{"obj.f", "obj.f", true}, EquivCase{"obj.f", "obj.g", false},
        EquivCase{"sp->f", "sp->f", true}, EquivCase{"sp->f", "obj.f", false},
        EquivCase{"x + y", "x + y", true}, EquivCase{"x + y", "y + x", false},
        EquivCase{"call(x)", "call(x)", true},
        EquivCase{"call(x)", "call(y)", false},
        EquivCase{"1", "1", true}, EquivCase{"1", "2", false},
        EquivCase{"x ? y : i", "x ? y : i", true}));

TEST(ASTUtils, ExprReferencesDecl) {
  ExprLab Lab;
  const Expr *E = Lab.parse("a[i] + x");
  const Decl *IDecl = nullptr;
  for (const Decl *D : Lab.Ctx.topLevelDecls())
    if (D->name() == "i")
      IDecl = D;
  ASSERT_NE(IDecl, nullptr);
  EXPECT_TRUE(exprReferencesDecl(E, IDecl));
  const Decl *QDecl = nullptr;
  for (const Decl *D : Lab.Ctx.topLevelDecls())
    if (D->name() == "q")
      QDecl = D;
  EXPECT_FALSE(exprReferencesDecl(E, QDecl));
}

TEST(ASTUtils, ExprContains) {
  ExprLab Lab;
  const Expr *Hay = Lab.parse("call(a[i] + 1)");
  const Expr *Needle = Lab.parse("a[i]");
  EXPECT_TRUE(exprContains(Hay, Needle));
  const Expr *Other = Lab.parse("a[x]");
  EXPECT_FALSE(exprContains(Hay, Other));
}

TEST(ASTUtils, LValueShapes) {
  ExprLab Lab;
  EXPECT_TRUE(isLValueShape(Lab.parse("x")));
  EXPECT_TRUE(isLValueShape(Lab.parse("*p")));
  EXPECT_TRUE(isLValueShape(Lab.parse("a[i]")));
  EXPECT_TRUE(isLValueShape(Lab.parse("sp->f")));
  EXPECT_FALSE(isLValueShape(Lab.parse("x + 1")));
  EXPECT_FALSE(isLValueShape(Lab.parse("call(x)")));
  EXPECT_FALSE(isLValueShape(Lab.parse("1")));
}

//===----------------------------------------------------------------------===//
// Execution order
//===----------------------------------------------------------------------===//

TEST(ExecutionOrder, AssignmentVisitsRHSThenLHSThenAssign) {
  ExprLab Lab;
  const Expr *E = Lab.parse("x = y");
  std::vector<std::string> Order;
  forEachPointExecutionOrder(E, [&](const Expr *P) {
    Order.push_back(printExpr(P));
  });
  ASSERT_EQ(Order.size(), 3u);
  EXPECT_EQ(Order[0], "y");
  EXPECT_EQ(Order[1], "x");
  EXPECT_EQ(Order[2], "x = y");
}

TEST(ExecutionOrder, CallVisitsArgsBeforeCall) {
  ExprLab Lab;
  const Expr *E = Lab.parse("call(x + 1)");
  std::vector<std::string> Order;
  forEachPointExecutionOrder(E, [&](const Expr *P) {
    Order.push_back(printExpr(P));
  });
  // x, 1, x+1, call, call(x+1)
  ASSERT_EQ(Order.size(), 5u);
  EXPECT_EQ(Order[2], "x + 1");
  EXPECT_EQ(Order.back(), "call(x + 1)");
}

TEST(ExecutionOrder, NestedAssignment) {
  ExprLab Lab;
  const Expr *E = Lab.parse("x = y = i");
  std::vector<std::string> Order;
  forEachPointExecutionOrder(E, [&](const Expr *P) {
    Order.push_back(printExpr(P));
  });
  // i, y, y = i, x, x = (y = i)
  ASSERT_EQ(Order.size(), 5u);
  EXPECT_EQ(Order[0], "i");
  EXPECT_EQ(Order[2], "y = i");
  EXPECT_EQ(Order.back(), "x = (y = i)");
}

//===----------------------------------------------------------------------===//
// Printer round-trips
//===----------------------------------------------------------------------===//

struct PrintCase {
  const char *In;
  const char *Out;
};

void PrintTo(const PrintCase &C, std::ostream *OS) {
  *OS << ::testing::PrintToString(C.In) << " -> "
      << ::testing::PrintToString(C.Out);
}

class PrinterTest : public ::testing::TestWithParam<PrintCase> {};

TEST_P(PrinterTest, PrintsCanonically) {
  ExprLab Lab;
  EXPECT_EQ(printExpr(Lab.parse(GetParam().In)), GetParam().Out);
}

INSTANTIATE_TEST_SUITE_P(
    Exprs, PrinterTest,
    ::testing::Values(
        PrintCase{"x", "x"}, PrintCase{"*p", "*p"},
        PrintCase{"a[i]", "a[i]"}, PrintCase{"sp->f", "sp->f"},
        PrintCase{"obj.f", "obj.f"},
        PrintCase{"- x", "-x"}, PrintCase{"!x", "!x"},
        PrintCase{"x++", "x++"},
        PrintCase{"x * (y + i)", "x * (y + i)"},
        PrintCase{"call(x, y)", "call(x, y)"},
        PrintCase{"x ? y : i", "x ? y : i"},
        PrintCase{"sizeof(int)", "sizeof(int)"}));

TEST(Printer, StatementForms) {
  ExprLab Lab;
  std::string Src = "int v; int f(void) { if (v) return 1; while (v) v--; return 0; }";
  unsigned ID = Lab.SM.addBuffer("s.c", Src);
  Parser P(Lab.Ctx, Lab.SM, Lab.Diags, ID);
  ASSERT_TRUE(P.parseTranslationUnit());
  const FunctionDecl *F = Lab.Ctx.findFunction("f");
  std::string Text = printStmt(F->body());
  EXPECT_NE(Text.find("if (v)"), std::string::npos);
  EXPECT_NE(Text.find("while (v)"), std::string::npos);
  EXPECT_NE(Text.find("return 0;"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Types
//===----------------------------------------------------------------------===//

TEST(Types, UniquingGivesPointerEquality) {
  TypeContext TC;
  EXPECT_EQ(TC.pointerTo(TC.intTy()), TC.pointerTo(TC.intTy()));
  EXPECT_EQ(TC.arrayOf(TC.charTy(), 4), TC.arrayOf(TC.charTy(), 4));
  EXPECT_NE(TC.arrayOf(TC.charTy(), 4), TC.arrayOf(TC.charTy(), 5));
  EXPECT_EQ(TC.functionTy(TC.intTy(), {TC.intTy()}, false),
            TC.functionTy(TC.intTy(), {TC.intTy()}, false));
  EXPECT_NE(TC.functionTy(TC.intTy(), {TC.intTy()}, false),
            TC.functionTy(TC.intTy(), {TC.intTy()}, true));
}

TEST(Types, RecordsByTag) {
  TypeContext TC;
  RecordType *A = TC.record("foo", false);
  EXPECT_EQ(TC.record("foo", false), A);
  EXPECT_EQ(TC.findRecord("foo"), A);
  EXPECT_EQ(TC.findRecord("bar"), nullptr);
  EXPECT_FALSE(A->isComplete());
  A->setFields({{"x", TC.intTy()}});
  EXPECT_TRUE(A->isComplete());
}

TEST(Types, Predicates) {
  TypeContext TC;
  EXPECT_TRUE(TC.intTy()->isScalar());
  EXPECT_TRUE(TC.intTy()->isInteger());
  EXPECT_FALSE(TC.voidTy()->isScalar());
  EXPECT_TRUE(TC.doubleTy()->isFloating());
  EXPECT_TRUE(TC.charPtrTy()->isPointer());
  EXPECT_TRUE(TC.enumTy("e")->isScalar());
  EXPECT_EQ(TC.pointerTo(TC.intTy())->pointeeOrElement(), TC.intTy());
}

TEST(Types, CompatibilityCrossContext) {
  TypeContext A, B;
  // Integers inter-convert.
  EXPECT_TRUE(typesCompatible(A.intTy(), B.builtin(BuiltinType::Long)));
  // Records compare by tag across contexts.
  EXPECT_TRUE(typesCompatible(A.record("s", false), B.record("s", false)));
  EXPECT_FALSE(typesCompatible(A.record("s", false), B.record("t", false)));
  TypeContext C; // fresh context: "s" here is a union
  EXPECT_FALSE(typesCompatible(A.record("s", false), C.record("s", true)));
  // void* matches any pointer.
  EXPECT_TRUE(typesCompatible(A.pointerTo(A.voidTy()),
                              B.pointerTo(B.record("s", false))));
  // Pointee-compatible pointers match across contexts.
  EXPECT_TRUE(typesCompatible(A.pointerTo(A.intTy()), B.pointerTo(B.intTy())));
  // Pointer vs int do not.
  EXPECT_FALSE(typesCompatible(A.pointerTo(A.intTy()), B.intTy()));
}

TEST(Types, PrintedForms) {
  TypeContext TC;
  EXPECT_EQ(TC.intTy()->str(), "int");
  EXPECT_EQ(TC.pointerTo(TC.charTy())->str(), "char *");
  EXPECT_EQ(TC.record("buf", false)->str(), "struct buf");
  EXPECT_EQ(TC.enumTy("color")->str(), "enum color");
  EXPECT_EQ(TC.functionTy(TC.voidTy(), {TC.intTy()}, false)->str(),
            "void (int)");
}

} // namespace
