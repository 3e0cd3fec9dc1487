//===- bench/fig5_summaries.cpp - Figure 5: supergraph summaries --------------===//
//
// Part of the metal/xgcc reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Figure 5 shows the supergraph of the Figure 2 example annotated with each
// block's summary (transition + add edges) and suffix summary, in the
// notation (gstate, v:tree->value) --> (gstate', v:tree->value'). This
// binary regenerates that figure from a live run and checks the paper's
// explicit notes: suffix summaries omit q (a local) and omit edges ending
// in stop.
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

std::string edgeStr(const SummaryEdge &E, const Checker &C) {
  auto Name = [&](int Id) { return C.stateName(Id); };
  return tupleStr(E.From, Name, "v") + " --> " + tupleStr(E.To, Name, "v");
}

} // namespace

int main(int argc, char **argv) {
  (void)smokeMode(argc, argv); // already tiny; flag accepted for uniformity
  BenchTimer Timer;
  raw_ostream &OS = outs();
  OS << "==== Figure 5: block and suffix summaries for Figure 2 ====\n\n";

  XgccTool Tool;
  if (!Tool.addSource("fig2.c", Figure2))
    return 1;
  Tool.addBuiltinChecker("free");
  Tool.finalize();
  Checker &C = *Tool.checkers()[0];
  // An engine of our own, not XgccTool::run: the figure is read out of the
  // engine's block summaries after the run, and run() drops its engines.
  Engine Eng(Tool.context(), Tool.sourceManager(), Tool.callGraph());
  Eng.run(C);

  bool SuffixMentionsQ = false, SuffixEndsInStop = false;

  for (const char *FnName : {"contrived_caller", "contrived"}) {
    const FunctionDecl *Fn = Tool.context().findFunction(FnName);
    const CFG *G = Tool.callGraph().cfg(Fn);
    OS << "--- " << FnName << " ---\n";
    for (const auto &B : G->blocks()) {
      const BlockSummary *Sum = Eng.blockSummary(Fn, B.get());
      if (!Sum || (Sum->Edges.empty() && Sum->SuffixEdges.empty()))
        continue;
      const char *Kind = B->blockKind() == BasicBlock::Entry      ? " (entry)"
                         : B->blockKind() == BasicBlock::Exit     ? " (exit)"
                         : B->blockKind() == BasicBlock::CallSite ? " (callsite)"
                                                                  : "";
      OS << "B" << B->id() << Kind << ":\n";
      OS << "  block summary:\n";
      for (const SummaryEdge &E : Sum->Edges)
        OS << "    " << edgeStr(E, C) << '\n';
      OS << "  suffix summary:\n";
      for (const SummaryEdge &E : Sum->SuffixEdges) {
        OS << "    " << edgeStr(E, C) << '\n';
        SuffixMentionsQ |= symbolText(E.To.TreeKey) == "q" || symbolText(E.From.TreeKey) == "q";
        SuffixEndsInStop |=
            !E.To.isPlaceholder() && E.To.Value == StateStop;
      }
    }
    OS << '\n';
  }

  OS << "---- paper claims vs measured ----\n";
  OS << "suffix summaries record nothing about q (local): "
     << (!SuffixMentionsQ ? "yes" : "VIOLATED") << '\n';
  OS << "suffix summaries omit edges ending in stop:      "
     << (!SuffixEndsInStop ? "yes" : "VIOLATED") << '\n';

  // The function summary (entry suffix) of contrived must transport p and w.
  const FunctionDecl *Contrived = Tool.context().findFunction("contrived");
  const BlockSummary *Entry =
      Eng.blockSummary(Contrived, Tool.callGraph().cfg(Contrived)->entry());
  bool SawP = false, SawW = false;
  for (const SummaryEdge &E : Entry->SuffixEdges) {
    SawP |= symbolText(E.To.TreeKey) == "p";
    SawW |= symbolText(E.To.TreeKey) == "w";
  }
  OS << "contrived's function summary carries p and w:    "
     << (SawP && SawW ? "yes" : "MISSING") << '\n';

  bool Ok = !SuffixMentionsQ && !SuffixEndsInStop && SawP && SawW;
  OS << '\n' << (Ok ? "FIGURE 5 REPRODUCED\n" : "MISMATCH\n");

  const MetricsSnapshot S = Eng.metrics().snapshot();
  BenchJson("fig5_summaries")
      .num("wall_ms", Timer.ms())
      .num("stmts_per_s", stmtsPerSec(S, Timer.seconds()))
      .engine(S)
      .flag("ok", Ok)
      .emit(OS);
  return Ok ? 0 : 1;
}
