//===- examples/infer_pairs.cpp - Bugs as deviant behaviour --------------------===//
//
// Part of the metal/xgcc reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The paper's statistical-inference workflow (Sections 3.2 and 9, after
// "Bugs as deviant behavior" [10]): (1) assume functions a and b must be
// paired, (2) count the times they occur together, (3) count the times they
// do not, then rank the violations with the z-statistic so that reliable
// rules surface first.
//
//===----------------------------------------------------------------------===//

#include "checkers/NativeCheckers.h"
#include "driver/Tool.h"
#include "support/RawOstream.h"

using namespace mc;

namespace {

const char *Corpus = R"c(
void spin_lock(int *l);
void spin_unlock(int *l);
int  dma_map(int *buf);
void dma_unmap(int *buf);
void log_event(int *ctx);

/* spin_lock/spin_unlock paired 7 times... */
void w0(int *l) { spin_lock(l); spin_unlock(l); }
void w1(int *l) { spin_lock(l); spin_unlock(l); }
void w2(int *l) { spin_lock(l); spin_unlock(l); }
void w3(int *l) { spin_lock(l); spin_unlock(l); }
void w4(int *l) { spin_lock(l); spin_unlock(l); }
void w5(int *l) { spin_lock(l); spin_unlock(l); }
void w6(int *l) { spin_lock(l); spin_unlock(l); }
/* ...and violated once. */
void w_bug(int *l) { spin_lock(l); }

/* dma_map/dma_unmap paired 4 times, violated once. */
void d0(int *b) { dma_map(b); dma_unmap(b); }
void d1(int *b) { dma_map(b); dma_unmap(b); }
void d2(int *b) { dma_map(b); dma_unmap(b); }
void d3(int *b) { dma_map(b); dma_unmap(b); }
void d_bug(int *b) { dma_map(b); }

/* log_event pairs with nothing: no rule should be inferred. */
void l0(int *c) { log_event(c); }
void l1(int *c) { log_event(c); }
)c";

} // namespace

int main() {
  raw_ostream &OS = outs();
  XgccTool Tool;
  if (!Tool.addSource("corpus.c", Corpus)) {
    errs() << "parse error\n";
    return 1;
  }
  auto Owned = std::make_unique<PairInferenceChecker>();
  PairInferenceChecker &PI = *Owned;
  Tool.addChecker(std::move(Owned));

  // Pass 1: learn which functions travel together.
  PI.setMode(PairInferenceChecker::Mode::Learn);
  Tool.run();

  OS << "=== Learned pair statistics ===\n";
  for (const auto &[Opener, Closers] : PI.pairCounts()) {
    unsigned Opens = PI.openCounts().count(Opener)
                         ? PI.openCounts().at(Opener)
                         : 0;
    for (const auto &[Closer, Count] : Closers)
      OS.printf("  %-12s -> %-12s  paired %u / opened %u  (z = %.2f)\n",
                Opener.c_str(), Closer.c_str(), Count, Opens,
                zStatistic(Opens, Count));
  }

  const auto &Rules = PI.inferRules(/*MinZ=*/1.0);
  OS << "\n=== Inferred must-pair rules (z >= 1.0) ===\n";
  for (const auto &[Opener, Closer] : Rules)
    OS << "  " << Opener << "() must be followed by " << Closer << "()\n";

  // Pass 2: check the inferred rules; rank violations statistically.
  PI.setMode(PairInferenceChecker::Mode::Check);
  Tool.run();

  OS << "\n=== Violations (statistical ranking) ===\n";
  Tool.reports().print(OS, RankPolicy::Statistical);

  bool Ok = Rules.size() == 2 && Tool.reports().size() == 2;
  OS << '\n'
     << (Ok ? "inferred both real rules, flagged both deviants, and "
              "log_event stayed rule-free.\n"
            : "UNEXPECTED inference results!\n");
  return Ok ? 0 : 1;
}
