//===- bench/observability.cpp - The observability overhead gate -------------===//
//
// Part of the metal/xgcc reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The observability layer's contract, gated:
//
//  1. Overhead: with a trace collector attached but *disabled* (the
//     production shape: tracing compiled in, --trace-out absent) the
//     analysis pays only relaxed counter increments. Gate: < 2% wall-clock
//     over a run with no collector at all, interleaved best-of so clock
//     drift hits both sides equally. Skipped under --smoke.
//  2. Determinism: reports and the --stats line are byte-identical with
//     observability off, disabled, and fully enabled, at any --jobs; the
//     time-stripped trace export is byte-identical across job counts.
//  3. Attribution: --profile's per-checker counters actually attribute the
//     work (the rule checkers tried transitions; the counters are nonzero).
//  4. Schema: the run manifest round-trips writeJson -> parseRunManifest
//     unchanged.
//
//===----------------------------------------------------------------------===//

#include "BenchJson.h"
#include "WorkloadGen.h"
#include "driver/Tool.h"
#include "support/RawOstream.h"
#include "support/Trace.h"

#include <string>
#include <vector>

using namespace mc;
using namespace mc::bench;

namespace {

constexpr unsigned RulesPerChecker = 16;

/// Same many-rules shape as bench/pattern_dispatch.cpp: checker \p K flags
/// any call of bad_<K>_<J>(v).
std::string ruleChecker(unsigned K) {
  std::string S = "sm rules" + std::to_string(K) + ";\n"
                  "state decl any_pointer v;\n\n"
                  "start:\n";
  for (unsigned J = 0; J != RulesPerChecker; ++J) {
    std::string Fn = "bad_" + std::to_string(K) + "_" + std::to_string(J);
    S += std::string(J ? "| " : "  ") + "{ " + Fn +
         "(v) } ==> v.stop, { err(\"call of " + Fn + "\"); }\n";
  }
  S += ";\n";
  return S;
}

/// Call-heavy corpus with seeded banned calls so every run produces real
/// reports to byte-compare.
std::string dispatchCorpus(unsigned Functions, unsigned StmtsPerFn,
                           unsigned Checkers, uint64_t Seed) {
  Lcg Rng(Seed);
  std::string S = "void bad_call(void *p);\n";
  for (unsigned I = 0; I != 8; ++I)
    S += "int ok" + std::to_string(I) + "(int x);\n";
  for (unsigned K = 0; K != Checkers; ++K)
    for (unsigned J = 0; J != RulesPerChecker; ++J)
      S += "void bad_" + std::to_string(K) + "_" + std::to_string(J) +
           "(void *p);\n";
  for (unsigned F = 0; F != Functions; ++F) {
    S += "int fn" + std::to_string(F) + "(int *p, int a) {\n";
    for (unsigned L = 0; L != StmtsPerFn; ++L)
      S += "  a = ok" + std::to_string(Rng.below(8)) + "(a + " +
           std::to_string(L) + ");\n";
    if (F % 17 == 0) {
      unsigned K = (F / 17) % Checkers;
      unsigned J = (F / 17) % RulesPerChecker;
      S += "  bad_" + std::to_string(K) + "_" + std::to_string(J) + "(p);\n";
    }
    S += "  return a;\n}\n";
  }
  return S;
}

/// How much observability machinery a run carries.
enum class Obs {
  None,     ///< No collector attached at all.
  Disabled, ///< Collector attached but disabled — the production shape.
  Enabled,  ///< Full span recording.
};

struct RunResult {
  double AnalyzeSecs = 0;
  MetricsSnapshot Metrics;
  std::string Rendered;  ///< Ranked report text.
  std::string StatsLine; ///< formatStatsText output.
  std::string TraceJson; ///< Time-stripped export (Obs::Enabled only).
  size_t TraceEvents = 0;
  size_t WitnessCount = 0; ///< Manifest witnesses (capture on only).
  bool ManifestOk = false; ///< writeJson -> parse -> == round-trip held.
};

RunResult runSuite(const std::string &Source,
                   const std::vector<std::string> &CheckerSrcs, Obs Mode,
                   unsigned Jobs, unsigned ProfileTopN = 0,
                   bool CaptureWitness = false) {
  RunResult Res;
  XgccTool Tool;
  if (!Tool.addSource("obs.c", Source)) {
    errs() << "parse error\n";
    return Res;
  }
  for (size_t K = 0; K != CheckerSrcs.size(); ++K)
    Tool.addMetalChecker(CheckerSrcs[K], "rules" + std::to_string(K));
  TraceCollector Trace(Mode == Obs::Enabled);
  if (Mode != Obs::None)
    Tool.setTrace(&Trace);
  EngineOptions Opts;
  Opts.Jobs = Jobs;
  Opts.Reporting.ProfileTopN = ProfileTopN;
  Opts.Reporting.CaptureWitness = CaptureWitness;
  BenchTimer T;
  Tool.run(Opts);
  Res.AnalyzeSecs = T.seconds();
  Res.Metrics = Tool.metrics();
  {
    raw_string_ostream OS(Res.Rendered);
    Tool.reports().print(OS, RankPolicy::Generic);
  }
  {
    raw_string_ostream OS(Res.StatsLine);
    formatStatsText(Res.Metrics, OS);
  }
  if (Mode == Obs::Enabled) {
    raw_string_ostream OS(Res.TraceJson);
    Trace.exportChromeJson(OS, /*IncludeTimes=*/false);
    Res.TraceEvents = Trace.eventCount();
  }
  RunManifest M = Tool.manifest(Opts);
  std::string Json;
  {
    raw_string_ostream OS(Json);
    M.writeJson(OS);
  }
  RunManifest Back;
  Res.ManifestOk = parseRunManifest(Json, Back) && Back == M;
  Res.WitnessCount = M.Witnesses.size();
  return Res;
}

void keepIfBest(RunResult &Best, RunResult Candidate, bool First) {
  if (First || Candidate.AnalyzeSecs < Best.AnalyzeSecs)
    Best = std::move(Candidate);
}

} // namespace

int main(int argc, char **argv) {
  const bool Smoke = smokeMode(argc, argv);
  BenchTimer Timer;
  raw_ostream &OS = outs();
  OS << "==== Observability: free when off, deterministic when on ====\n";

  const unsigned Functions = Smoke ? 60 : 300;
  const unsigned StmtsPerFn = Smoke ? 24 : 40;
  const unsigned Repeats = Smoke ? 1 : 5;
  const unsigned Checkers = 8;

  std::vector<std::string> CheckerSrcs;
  for (unsigned K = 0; K != Checkers; ++K)
    CheckerSrcs.push_back(ruleChecker(K));
  std::string Source = dispatchCorpus(Functions, StmtsPerFn, Checkers, 42);

  bool Ok = true;

  // Part 1: overhead gate, no collector vs attached-but-disabled.
  // Interleaved pairwise after a discarded warmup pair; each side keeps its
  // best time.
  RunResult Base, Idle;
  runSuite(Source, CheckerSrcs, Obs::None, 1);
  runSuite(Source, CheckerSrcs, Obs::Disabled, 1);
  for (unsigned R = 0; R != Repeats; ++R) {
    keepIfBest(Base, runSuite(Source, CheckerSrcs, Obs::None, 1), R == 0);
    keepIfBest(Idle, runSuite(Source, CheckerSrcs, Obs::Disabled, 1), R == 0);
  }
  double OverheadPct =
      Base.AnalyzeSecs > 0
          ? (Idle.AnalyzeSecs - Base.AnalyzeSecs) / Base.AnalyzeSecs * 100.0
          : 0;
  bool SameOutput =
      Base.Rendered == Idle.Rendered && Base.StatsLine == Idle.StatsLine;
  OS.printf("idle overhead: %.2f ms bare -> %.2f ms attached (%+.2f%%), "
            "reports+stats %s\n",
            Base.AnalyzeSecs * 1e3, Idle.AnalyzeSecs * 1e3, OverheadPct,
            SameOutput ? "identical" : "DIFFER");
  Ok &= SameOutput && !Base.Rendered.empty() && Base.ManifestOk &&
        Idle.ManifestOk;
  if (Smoke) {
    OS << "overhead gate skipped (--smoke)\n";
  } else {
    bool Cheap = OverheadPct < 2.0;
    OS.printf("overhead gate (< 2.00%%): %.2f%% %s\n", OverheadPct,
              Cheap ? "PASS" : "FAIL");
    Ok &= Cheap;
  }

  // Part 2: full tracing changes nothing the user sees, and the
  // time-stripped span stream is identical at any job count.
  RunResult On1 = runSuite(Source, CheckerSrcs, Obs::Enabled, 1);
  RunResult On4 = runSuite(Source, CheckerSrcs, Obs::Enabled, 4);
  bool SameReports =
      On1.Rendered == Base.Rendered && On4.Rendered == Base.Rendered;
  bool SameStats =
      On1.StatsLine == Base.StatsLine && On4.StatsLine == Base.StatsLine;
  bool TraceDeterministic =
      !On1.TraceJson.empty() && On1.TraceJson == On4.TraceJson;
  bool TraceShape = On1.TraceEvents > 0 &&
                    On1.TraceJson.compare(0, 16, "{\"traceEvents\":[") == 0;
  OS.printf("tracing on: %zu span(s); reports %s, stats %s, "
            "jobs-1 vs jobs-4 trace %s\n",
            On1.TraceEvents, SameReports ? "identical" : "DIFFER",
            SameStats ? "identical" : "DIFFER",
            TraceDeterministic ? "identical" : "DIFFER");
  Ok &= SameReports && SameStats && TraceDeterministic && TraceShape;

  // Part 3: per-checker attribution. The rule checkers all tried
  // transitions; with --profile armed their callout clocks ran too.
  RunResult Prof = runSuite(Source, CheckerSrcs, Obs::None, 1, 3);
  // Exactly the checkers whose banned calls the corpus seeded (every 17th
  // function targets checker (F/17) % Checkers) must show tried transitions.
  std::vector<bool> Seeded(Checkers, false);
  for (unsigned F = 0; F < Functions; F += 17)
    Seeded[(F / 17) % Checkers] = true;
  bool Attributed = true;
  for (unsigned K = 0; K != Checkers; ++K)
    Attributed &= (Prof.Metrics.value("checker.rules" + std::to_string(K) +
                                      ".transitions.tried") > 0) == Seeded[K];
  std::string Profile;
  {
    raw_string_ostream PS(Profile);
    formatProfileText(Prof.Metrics, 3, PS);
  }
  bool ProfileShape = Profile.find("profile: top 3 of") != std::string::npos;
  OS.printf("attribution: per-checker tried-counters %s, profile report %s\n",
            Attributed ? "nonzero" : "MISSING",
            ProfileShape ? "well-formed" : "MALFORMED");
  Ok &= Attributed && ProfileShape && Prof.ManifestOk;

  // Part 4: witness capture. Turning it on must not change a byte of the
  // report list or the stats line (journals ride inside reports, rendered
  // only by --explain / the manifest), and the journal bookkeeping must stay
  // cheap. Interleaved best-of, same discipline as Part 1.
  RunResult WOff, WOn;
  runSuite(Source, CheckerSrcs, Obs::None, 1, 0, /*CaptureWitness=*/false);
  runSuite(Source, CheckerSrcs, Obs::None, 1, 0, /*CaptureWitness=*/true);
  for (unsigned R = 0; R != Repeats; ++R) {
    keepIfBest(WOff,
               runSuite(Source, CheckerSrcs, Obs::None, 1, 0, false), R == 0);
    keepIfBest(WOn,
               runSuite(Source, CheckerSrcs, Obs::None, 1, 0, true), R == 0);
  }
  double WitnessPct =
      WOff.AnalyzeSecs > 0
          ? (WOn.AnalyzeSecs - WOff.AnalyzeSecs) / WOff.AnalyzeSecs * 100.0
          : 0;
  bool WitnessSame =
      WOff.Rendered == WOn.Rendered && WOff.StatsLine == WOn.StatsLine;
  OS.printf("witness capture: %.2f ms off -> %.2f ms on (%+.2f%%), "
            "%zu witness(es), reports+stats %s\n",
            WOff.AnalyzeSecs * 1e3, WOn.AnalyzeSecs * 1e3, WitnessPct,
            WOn.WitnessCount, WitnessSame ? "identical" : "DIFFER");
  Ok &= WitnessSame && WOn.ManifestOk && WOn.WitnessCount > 0 &&
        WOff.WitnessCount == 0;
  if (Smoke) {
    OS << "witness overhead gate skipped (--smoke)\n";
  } else {
    bool Cheap = WitnessPct < 3.0;
    OS.printf("witness overhead gate (< 3.00%%): %.2f%% %s\n", WitnessPct,
              Cheap ? "PASS" : "FAIL");
    Ok &= Cheap;
  }

  OS << '\n'
     << (Ok ? "OBSERVABILITY IS FREE WHEN OFF AND DETERMINISTIC WHEN ON\n"
            : "MISMATCH\n");

  BenchJson("observability")
      .num("wall_ms", Timer.ms())
      .num("stmts_per_s", stmtsPerSec(On1.Metrics, On1.AnalyzeSecs))
      .num("overhead_pct", OverheadPct)
      .num("witness_overhead_pct", WitnessPct)
      .count("witnesses", WOn.WitnessCount)
      .count("trace_events", On1.TraceEvents)
      .engine(On1.Metrics)
      .flag("ok", Ok)
      .emit(OS);
  return Ok ? 0 : 1;
}
