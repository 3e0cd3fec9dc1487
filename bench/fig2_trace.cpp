//===- bench/fig2_trace.cpp - Regenerates the Section 2.2 walkthrough ----------===//
//
// Part of the metal/xgcc reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Figure 2 + Section 2.2: the paper walks the free checker through
// `contrived`/`contrived_caller` in twelve steps and promises exactly two
// errors (lines 12 and 17 in its numbering) with the two infeasible paths
// pruned. This binary replays the run and checks each promise.
//
//===----------------------------------------------------------------------===//

#include "BenchJson.h"
#include "driver/Tool.h"
#include "support/RawOstream.h"

using namespace mc;
using namespace mc::bench;

namespace {

const char *Figure2 = R"c(void kfree(void *p);
int contrived(int *p, int *w, int x) {
  int *q;
  if (x) {
    kfree(w);
    q = p;
    p = 0;
  }
  if (!x)
    return *w;
  return *q;
}
int contrived_caller(int *w, int x, int *p) {
  kfree(p);
  contrived(p, w, x);
  return *w;
}
)c";

} // namespace

int main(int argc, char **argv) {
  (void)smokeMode(argc, argv); // already tiny; flag accepted for uniformity
  BenchTimer Timer;
  raw_ostream &OS = outs();
  OS << "==== Figure 2 / Section 2.2: the free checker walkthrough ====\n\n";
  OS << Figure2 << '\n';

  XgccTool Tool;
  if (!Tool.addSource("fig2.c", Figure2))
    return 1;
  Tool.addBuiltinChecker("free");
  Tool.run();

  OS << "---- reports ----\n";
  Tool.reports().print(OS, RankPolicy::Generic);
  const MetricsSnapshot S = Tool.metrics();
  const uint64_t Pruned = S.value("engine.paths.pruned");
  const uint64_t Paths = S.value("engine.paths.explored");
  OS << "\n---- paper claims vs measured ----\n";

  bool TwoErrors = Tool.reports().size() == 2;
  OS << "exactly two errors (lines 12 & 17 in the paper):  "
     << (TwoErrors ? "yes" : "NO") << " (" << Tool.reports().size() << ")\n";

  bool QError = false, WError = false;
  for (const ErrorReport &R : Tool.reports().reports()) {
    QError |= R.Message == "using q after free!";
    WError |= R.Message == "using w after free!";
  }
  OS << "step 9 (dereference of q flagged):                 "
     << (QError ? "yes" : "NO") << '\n';
  OS << "step 12 (w flagged back in the caller):            "
     << (WError ? "yes" : "NO") << '\n';
  OS << "steps 8+10 (two infeasible paths pruned):          "
     << (Pruned >= 2 ? "yes" : "NO") << " (" << Pruned << ")\n";
  OS << "step 7 (p killed at `p = 0`):                      "
     << (S.value("engine.kills.applied") >= 1 ? "yes" : "NO") << '\n';
  OS << "step 6 (synonym instance created for q):           "
     << (S.value("engine.synonyms.created") >= 1 ? "yes" : "NO") << '\n';
  OS << "only two executable paths through contrived:       "
     << (Paths <= 4 ? "yes" : "NO") << " (" << Paths
     << " total paths incl. caller)\n";

  bool Ok = TwoErrors && QError && WError && Pruned >= 2;
  OS << '\n' << (Ok ? "FIGURE 2 TRACE REPRODUCED\n" : "MISMATCH\n");

  BenchJson("fig2_trace")
      .num("wall_ms", Timer.ms())
      .num("stmts_per_s", stmtsPerSec(S, Timer.seconds()))
      .engine(S)
      .flag("ok", Ok)
      .emit(OS);
  return Ok ? 0 : 1;
}
