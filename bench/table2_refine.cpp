//===- bench/table2_refine.cpp - Table 2: refine/restore rules -----------------===//
//
// Part of the metal/xgcc reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Table 2 gives the refine/restore rules that retarget state across call
// boundaries. Each row becomes an executable scenario: the callee frees
// through the given shape, the caller dereferences afterwards, and the bug
// is only found when the row's rule transports the state both ways.
//
//===----------------------------------------------------------------------===//

#include "BenchJson.h"
#include "driver/Tool.h"
#include "support/RawOstream.h"

using namespace mc;
using namespace mc::bench;

namespace {

struct RowCase {
  const char *Row;
  const char *Source;
  const char *ExpectMessageFragment;
};

const RowCase Rows[] = {
    {"xa / xf : state(xa)",
     "void kfree(void *p);\n"
     "void callee(int *xf) { kfree(xf); }\n"
     "int caller(int *xa) { callee(xa); return *xa; }",
     "using xa after free!"},
    {"&xa / xf : state(xa) via *xf",
     "void kfree(void *p);\n"
     "void callee(int **xf) { kfree(*xf); }\n"
     "int caller(int *xa) { callee(&xa); return *xa; }",
     "using xa after free!"},
    {"xa / xf : state(xa.field) [via pointer]",
     "void kfree(void *p);\n"
     "struct s { int *field; };\n"
     "void callee(struct s *xf) { kfree(xf->field); }\n"
     "int caller(struct s *xa) { callee(xa); return *xa->field; }",
     "using xa->field after free!"},
    {"xa / xf : state(xa->field)",
     "void kfree(void *p);\n"
     "struct s { int *field; };\n"
     "int caller2(struct s *xa);\n"
     "void callee(struct s *xf) { kfree(xf->field); }\n"
     "int caller(struct s *xa) { callee(xa); return caller2(xa); }\n"
     "int caller2(struct s *xa) { return *xa->field; }",
     "after free!"},
    {"xa / xf : state(*xa)",
     "void kfree(void *p);\n"
     "void callee(int **xf) { kfree(*xf); }\n"
     "int caller(int **xa) { callee(xa); return **xa; }",
     "using *xa after free!"},
};

} // namespace

int main(int argc, char **argv) {
  (void)smokeMode(argc, argv); // already tiny; flag accepted for uniformity
  BenchTimer Timer;
  MetricsSnapshot Agg;
  raw_ostream &OS = outs();
  OS << "==== Table 2: refine/restore across call boundaries ====\n\n";
  OS.padToColumn("row", 40);
  OS << "result\n";

  bool AllOk = true;
  for (const RowCase &Row : Rows) {
    XgccTool Tool;
    if (!Tool.addSource("row.c", Row.Source)) {
      OS.padToColumn(Row.Row, 40);
      OS << "PARSE ERROR\n";
      AllOk = false;
      continue;
    }
    Tool.addBuiltinChecker("free");
    Tool.run();
    bool Found = false;
    for (const ErrorReport &R : Tool.reports().reports())
      Found |= R.Message.find(Row.ExpectMessageFragment) != std::string::npos;
    OS.padToColumn(Row.Row, 40);
    OS << (Found ? "state transported (bug found)" : "MISSED") << '\n';
    AllOk &= Found;
    Agg.merge(Tool.metrics());
  }

  // The by-value restore policy: with restoreArgsByReference() == false the
  // caller's view of a plain argument is unchanged by the call.
  {
    class ByValueFree : public MetalChecker {
      using MetalChecker::MetalChecker;
      bool restoreArgsByReference() const override { return false; }
    };
    SourceManager SM;
    DiagnosticEngine Diags(SM, &errs());
    auto Spec = parseMetal(builtinCheckerSource("free"), "<free>", SM, Diags);
    XgccTool Tool;
    Tool.addSource("t.c", "void kfree(void *p);\n"
                          "void callee(int *xf) { kfree(xf); }\n"
                          "int caller(int *xa) { callee(xa); return *xa; }");
    Tool.addChecker(std::make_unique<ByValueFree>(std::move(Spec)));
    Tool.run();
    bool NoReport = Tool.reports().size() == 0;
    OS.padToColumn("xa / xf by VALUE: state(xa) unchanged", 40);
    OS << (NoReport ? "caller state preserved (no report)" : "UNEXPECTED")
       << '\n';
    AllOk &= NoReport;
    Agg.merge(Tool.metrics());
  }

  OS << '\n' << (AllOk ? "TABLE 2 REPRODUCED\n" : "MISMATCH\n");

  BenchJson("table2_refine")
      .num("wall_ms", Timer.ms())
      .num("stmts_per_s", stmtsPerSec(Agg, Timer.seconds()))
      .engine(Agg)
      .flag("ok", AllOk)
      .emit(OS);
  return AllOk ? 0 : 1;
}
