//===- bench/fig1_free_checker.cpp - Regenerates Figure 1 ---------------------===//
//
// Part of the metal/xgcc reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Figure 1 of the paper is the free checker written in metal. This binary
// prints our rendition of that checker and the state machine it compiles
// to, demonstrating the metal toolchain end to end.
//
//===----------------------------------------------------------------------===//

#include "BenchJson.h"
#include "checkers/BuiltinCheckers.h"
#include "support/RawOstream.h"

using namespace mc;
using namespace mc::bench;

int main(int argc, char **argv) {
  (void)smokeMode(argc, argv); // already tiny; flag accepted for uniformity
  BenchTimer Timer;
  raw_ostream &OS = outs();
  OS << "==== Figure 1: the free checker, in metal ====\n";
  OS << builtinCheckerSource("free") << '\n';

  SourceManager SM;
  DiagnosticEngine Diags(SM, &errs());
  std::unique_ptr<MetalChecker> C = makeBuiltinChecker("free", SM, Diags);
  if (!C)
    return 1;
  OS << "==== Compiled state machine ====\n" << C->describe();
  OS << "\nchecker size: " << C->spec().SourceLines
     << " lines (the paper reports checkers run 10-200 lines)\n";

  BenchJson("fig1_free_checker")
      .num("wall_ms", Timer.ms())
      .num("stmts_per_s", 0)
      .flag("ok", true)
      .emit(OS);
  return 0;
}
