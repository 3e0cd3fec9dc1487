//===- examples/quickstart.cpp - Five-minute tour ------------------------------===//
//
// Part of the metal/xgcc reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The smallest useful program: compile the paper's Figure 1 free checker,
// run it over the paper's Figure 2 example, and print the ranked reports.
// Also shows the same checker written against the native C++ API.
//
//===----------------------------------------------------------------------===//

#include "checkers/NativeCheckers.h"
#include "driver/Tool.h"
#include "support/RawOstream.h"

using namespace mc;

namespace {

// The paper's Figure 2 example code, with its two seeded bugs.
const char *Figure2 = R"c(
void kfree(void *p);

int contrived(int *p, int *w, int x) {
  int *q;

  if (x) {
    kfree(w);
    q = p;
    p = 0;
  }
  if (!x)
    return *w;  /* safe */
  return *q;    /* using 'q' after free! */
}

int contrived_caller(int *w, int x, int *p) {
  kfree(p);
  contrived(p, w, x);
  return *w;    /* using 'w' after free! */
}
)c";

} // namespace

int main() {
  raw_ostream &OS = outs();

  //===------------------------------------------------------------------===//
  // 1. The metal checker (Figure 1), exactly as the paper writes it.
  //===------------------------------------------------------------------===//
  OS << "=== The Figure 1 free checker (metal) ===\n"
     << builtinCheckerSource("free") << '\n';

  XgccTool Tool;
  if (!Tool.addSource("fig2.c", Figure2)) {
    errs() << "parse error\n";
    return 1;
  }
  Tool.addBuiltinChecker("free");
  Tool.run();

  OS << "=== Reports (generic ranking) ===\n";
  Tool.reports().print(OS, RankPolicy::Generic);

  // Engine counters are read by their dotted names (support/Metrics.h).
  const MetricsSnapshot S = Tool.metrics();
  OS << "\n=== Engine work ===\n";
  OS << "program points visited: " << S.value("engine.points.visited") << '\n';
  OS << "paths explored:         " << S.value("engine.paths.explored") << '\n';
  OS << "false paths pruned:     " << S.value("engine.paths.pruned") << '\n';
  OS << "kills applied:          " << S.value("engine.kills.applied") << '\n';
  OS << "synonyms created:       " << S.value("engine.synonyms.created")
     << '\n';

  //===------------------------------------------------------------------===//
  // 2. The same checker written against the native C++ API.
  //===------------------------------------------------------------------===//
  XgccTool Native;
  Native.addSource("fig2.c", Figure2);
  Native.addChecker(std::make_unique<NativeFreeChecker>());
  Native.run();

  OS << "\n=== Same analysis, native C++ checker ===\n";
  Native.reports().print(OS, RankPolicy::Generic);

  bool Agree = Native.reports().size() == Tool.reports().size();
  OS << (Agree ? "\nmetal and native checkers agree.\n"
               : "\nWARNING: metal and native checkers disagree!\n");
  return Agree ? 0 : 1;
}
