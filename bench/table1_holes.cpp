//===- bench/table1_holes.cpp - Table 1: hole types ----------------------------===//
//
// Part of the metal/xgcc reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Table 1 lists the hole meta-types and what each matches. This binary
// sweeps every hole type over a family of target expressions and prints the
// resulting match matrix — the executable form of the table.
//
//===----------------------------------------------------------------------===//

#include "BenchJson.h"
#include "cfront/Parser.h"
#include "metal/Pattern.h"
#include "support/RawOstream.h"

using namespace mc;
using namespace mc::bench;

namespace {

struct Target {
  const char *Label;
  const char *Text;
};

const Target Targets[] = {
    {"int variable", "x"},
    {"double value", "d"},
    {"int pointer", "ip"},
    {"struct pointer", "bp"},
    {"array (decays)", "arr"},
    {"function call", "foo(x, x)"},
    {"int literal", "42"},
};

struct Row {
  const char *Label;
  HoleExpr::HoleKind Kind;
};

const Row Rows[] = {
    {"any expr", HoleExpr::AnyExpr},
    {"any scalar", HoleExpr::AnyScalar},
    {"any pointer", HoleExpr::AnyPointer},
    {"any fn call", HoleExpr::AnyFnCall},
    {"char * (C type)", HoleExpr::CType},
};

} // namespace

int main(int argc, char **argv) {
  (void)smokeMode(argc, argv); // already tiny; flag accepted for uniformity
  BenchTimer Timer;
  raw_ostream &OS = outs();
  OS << "==== Table 1: hole types and what they match ====\n\n";

  SourceManager SM;
  DiagnosticEngine Diags(SM);
  ASTContext TargetCtx, PatternCtx;

  // Parse the target expressions.
  std::vector<const Expr *> Parsed;
  {
    std::string Src = "struct buf { int len; };\n"
                      "int x; double d; int *ip; struct buf *bp; int arr[4];\n"
                      "char *cp;\n"
                      "int foo(int a, int b);\n";
    unsigned N = 0;
    for (const Target &T : Targets)
      Src += "int probe" + std::to_string(N++) + "(void) { return (int)(" +
             std::string(T.Text) + "); }\n";
    unsigned ID = SM.addBuffer("targets.c", Src);
    Parser P(TargetCtx, SM, Diags, ID);
    if (!P.parseTranslationUnit())
      return 1;
    for (unsigned I = 0; I < N; ++I) {
      const auto *Ret = cast<ReturnStmt>(
          TargetCtx.findFunction("probe" + std::to_string(I))->body()->body()[0]);
      Parsed.push_back(cast<CastExpr>(Ret->value())->sub());
    }
  }

  // The C-typed hole needs a declared type (char *).
  const Type *CharPtr = nullptr;
  {
    unsigned ID = SM.addBuffer("ty", "char *");
    Parser P(PatternCtx, SM, Diags, ID);
    CharPtr = P.parseTypeOnly();
  }

  // Header.
  OS.padToColumn("hole type", 18);
  for (const Target &T : Targets)
    OS.padToColumn(T.Label, 16);
  OS << '\n';

  bool TableHolds = true;
  for (const Row &R : Rows) {
    OS.padToColumn(R.Label, 18);
    PatternHoles Holes;
    Holes.Holes["h"] = {R.Kind, R.Kind == HoleExpr::CType ? CharPtr : nullptr};
    // The pattern is the bare hole.
    unsigned ID = SM.addBuffer("pat", "h");
    Parser P(PatternCtx, SM, Diags, ID);
    const Expr *Pat = P.parsePatternExpr(Holes);
    for (size_t I = 0; I < Parsed.size(); ++I) {
      Bindings B;
      bool Match = unifyPattern(Pat, Parsed[I], B);
      OS.padToColumn(Match ? "match" : "-", 16);
    }
    OS << '\n';
  }

  // The any-arguments row is special: it matches whole argument lists.
  {
    OS.padToColumn("any arguments", 18);
    PatternHoles Holes;
    Holes.Holes["args"] = {HoleExpr::AnyArguments, nullptr};
    unsigned ID = SM.addBuffer("pat", "foo(args)");
    Parser P(PatternCtx, SM, Diags, ID);
    const Expr *Pat = P.parsePatternExpr(Holes);
    for (size_t I = 0; I < Parsed.size(); ++I) {
      Bindings B;
      bool Match = unifyPattern(Pat, Parsed[I], B);
      OS.padToColumn(Match ? "match" : "-", 16);
      // Only the call target should match.
      TableHolds &= Match == (std::string(Targets[I].Label) == "function call");
    }
    OS << '\n';
  }

  OS << "\n(any expr matches every column; any pointer matches the pointer\n"
        " and array columns; the C-typed hole matches only char *.)\n";
  OS << (TableHolds ? "\nTABLE 1 REPRODUCED\n" : "\nMISMATCH\n");

  BenchJson("table1_holes")
      .num("wall_ms", Timer.ms())
      .num("stmts_per_s", 0)
      .flag("ok", TableHolds)
      .emit(OS);
  return TableHolds ? 0 : 1;
}
