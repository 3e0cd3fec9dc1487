//===- driver/xgcc_main.cpp - The xgcc command-line tool ---------------------===//
//
// Part of the metal/xgcc reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Usage:
//   xgcc --emit-ast OUT.mast FILE.c...         pass 1: parse and emit ASTs
//   xgcc [options] FILE.c|FILE.mast...         pass 2: analyze
//
// Options:
//   --checker NAME       add a builtin checker (repeatable; default: all)
//   --metal FILE         add a checker written in metal (repeatable)
//   --rank MODE          generic | statistical | combined  (default generic)
//   --format MODE        text | json                       (default text)
//   --groups             also print reports grouped by analysis fact
//   --history FILE       suppress reports recorded in FILE
//   --update-history F   write surviving report keys to F
//   --jobs N             analyze with N worker threads (default: one per
//                        hardware thread; 1 = serial). Reports are merged
//                        deterministically: output is byte-identical for
//                        every N.
//   --no-cache           disable block-level caching
//   --no-dispatch-index  disable the compiled pattern-dispatch index (try
//                        every transition at every statement, as the paper
//                        describes it)
//   --no-summaries       disable function summaries
//   --no-fpp             disable false path pruning
//   --intraprocedural    do not follow calls
//   --keep-going         drop translation units that fail to parse (with a
//                        diagnostic) and analyze the rest
//
// Incremental caching (warm re-runs over a mostly-unchanged corpus):
//   --cache-dir DIR      enable the on-disk incremental layer: unchanged TUs
//                        deserialize instead of re-parsing (AST store) and
//                        unchanged (checker, root) pairs replay their
//                        recorded results (summary store). Keys hash content
//                        only, so warm output is byte-identical to cold at
//                        any --jobs
//   --cache-verify       debug: recompute every summary-store hit live and
//                        compare; mismatches are diagnosed, counted, and
//                        resolved in favour of the fresh result
//   --cache-max-mb N     evict oldest cache entries beyond N MiB at exit
//
// Cross-run report lifecycle (persistent triage; docs/REPORTS.md):
//   --baseline DIR       classify this run's reports against the persistent
//                        baseline store in DIR: each report is tagged new or
//                        known by its stable fingerprint, store entries that
//                        no longer fire are marked fixed, the run is
//                        recorded for `xgcc-triage diff`, and statistical
//                        ranking uses the rule population accumulated across
//                        every recorded run instead of this run alone
//   --suppress-known     with --baseline: drop known reports from the output
//                        (cross-run history suppression, Section 8.3)
//
// Reporting & robustness (one block, one parse path; every flag accepts
// both "--flag V" and "--flag=V" and lands in EngineOptions::Reporting):
//   --stats              print the engine work-counter line
//   --stats-json FILE    write the run manifest (mc.run-manifest.v1):
//                        effective options, full metrics snapshot, incident
//                        stream, report count ("-" = stdout)
//   --trace-out FILE     record hierarchical spans and write Chrome
//                        trace-event JSON (load in chrome://tracing)
//   --profile[=N]        print the top-N checkers by callout time
//                        (default N=5) with per-checker attribution
//   --explain[=N]        capture witness paths and, after the report list,
//                        render the top-N ranked reports (default N=3) with
//                        source-anchored step-by-step provenance traces;
//                        also embeds the witnesses in the run manifest
//   --deadline-ms N      wall-clock budget per root function; a root that
//                        blows it is retried down the degradation ladder
//                        (0 = unlimited, the default)
//   --fail-on MODE       error | degraded | never  (default never): exit
//                        nonzero when roots were quarantined or parsing
//                        failed (error), additionally when any root was
//                        degraded (degraded), or always exit 0 (never)
//
//   --list-checkers      list builtin checkers and exit
//   --server SOCK        send this invocation to the xgccd daemon listening
//                        on Unix socket SOCK instead of analyzing locally;
//                        stdout, stderr and the exit code replay the
//                        daemon's byte-identical response (docs/SERVICE.md)
//   -I DIR               add an include directory
//   -D NAME[=VALUE]      predefine a macro
//
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "driver/Tool.h"
#include "service/Client.h"
#include "service/Protocol.h"
#include "support/OptionParser.h"
#include "support/RawOstream.h"
#include "support/Trace.h"

#include <string>
#include <vector>

#include <unistd.h>

using namespace mc;

namespace {

void printUsage() {
  outs() << "usage: xgcc [options] file.c|file.mast ...\n"
         << "       xgcc --emit-ast out.mast file.c ...\n"
         << "Run 'xgcc --help' for the option list.\n";
}

/// --server: replays \p Req against a running xgccd. The response embeds
/// the bytes a local run would print, so stdout, stderr and the exit code
/// match a local run; only a request error gains the "server: " prefix.
int runServed(const std::string &Sock, const RunRequest &Req) {
  ServiceRequest Wire;
  static_cast<RunRequest &>(Wire) = Req;
  Wire.Id = "cli-" + std::to_string(getpid());
  std::string Reply, Err;
  if (!serviceRoundTrip(Sock, Wire.serializeToString(), Reply, &Err)) {
    errs() << "xgcc: cannot reach server at '" << Sock << "': " << Err << '\n';
    return 3;
  }
  ServiceResponse Resp;
  if (!Resp.parse(Reply, &Err)) {
    errs() << "xgcc: malformed server response: " << Err << '\n';
    return 3;
  }
  errs() << Resp.Log;
  outs() << Resp.Output;
  outs().flush();
  switch (Resp.Status) {
  case ServiceStatus::Ok:
  case ServiceStatus::Incomplete:
    return int(Resp.ExitCode);
  case ServiceStatus::Error:
    errs() << "xgcc: server: " << Resp.Error << '\n';
    return Resp.ExitCode ? int(Resp.ExitCode) : 2;
  case ServiceStatus::Overloaded:
  case ServiceStatus::Retriable:
    errs() << "xgcc: server " << serviceStatusName(Resp.Status) << ": "
           << Resp.Error << '\n';
    return 3;
  }
  return 3;
}

} // namespace

int main(int Argc, char **Argv) {
  RunRequest Req;
  RunHost Host;
  std::vector<std::string> MetalFiles;
  std::string EmitPath, ServerSock, CacheDir;
  bool CacheVerify = false, UsedCacheFlags = false;
  uint64_t CacheMaxMB = 0;

  OptionParser P(Argc, Argv);
  // A count flag's value: false (after the diagnostic) when it is not one.
  auto Count = [](const char *Flag, const char *V, auto &Out,
                  const char *What) {
    if (parseCount(V, Out))
      return true;
    errs() << "xgcc: " << Flag << " expects " << What << '\n';
    return false;
  };
  while (P.next()) {
    const std::string &Arg = P.arg();
    const char *V = nullptr;
    if (P.flag("--help")) {
      printUsage();
      return 0;
    }
    if (P.flag("--list-checkers")) {
      for (const std::string &Name : builtinCheckerNames())
        outs() << Name << '\n';
      return 0;
    }
    if (P.value("--emit-ast", &V)) {
      if (V)
        EmitPath = V;
    } else if (P.value("--checker", &V)) {
      if (V)
        Req.Checkers.push_back(V);
    } else if (P.value("--metal", &V)) {
      if (V)
        MetalFiles.push_back(V);
    } else if (P.value("--rank", &V)) {
      Req.Rank = V ? V : "";
    } else if (P.value("--format", &V)) {
      Req.Format = V ? V : "";
    } else if (P.value("--server", &V)) {
      if (V)
        ServerSock = V;
    } else if (P.value("--history", &V)) {
      if (V)
        Host.HistoryPath = V;
    } else if (P.value("--update-history", &V)) {
      if (V)
        Host.UpdateHistoryPath = V;
    } else if (P.value("--jobs", &V)) {
      if (!Count("--jobs", V, Req.Jobs, "a thread count (0 = auto)"))
        return 2;
    } else if (P.flag("--no-cache")) {
      Req.Options.BlockCache = false;
    } else if (P.flag("--no-dispatch-index")) {
      Req.Options.DispatchIndex = false;
    } else if (P.flag("--no-summaries")) {
      Req.Options.FunctionSummaries = false;
    } else if (P.flag("--no-fpp")) {
      Req.Options.FalsePathPruning = false;
    } else if (P.flag("--intraprocedural")) {
      Req.Options.Interprocedural = false;
    } else if (P.flag("--keep-going")) {
      Req.KeepGoing = true;
    } else if (P.value("--cache-dir", &V)) {
      // Incremental cache block (--cache-dir/--cache-verify/--cache-max-mb).
      if (!V) {
        errs() << "xgcc: --cache-dir expects a directory path\n";
        return 2;
      }
      CacheDir = V;
      UsedCacheFlags = true;
    } else if (P.flag("--cache-verify")) {
      CacheVerify = UsedCacheFlags = true;
    } else if (P.value("--cache-max-mb", &V)) {
      if (!Count("--cache-max-mb", V, CacheMaxMB, "a size in MiB"))
        return 2;
      UsedCacheFlags = true;
    } else if (P.value("--baseline", &V)) {
      // Cross-run lifecycle block (--baseline/--suppress-known).
      if (!V) {
        errs() << "xgcc: --baseline expects a directory path\n";
        return 2;
      }
      Req.Baseline = V;
    } else if (P.flag("--suppress-known")) {
      Req.SuppressKnown = true;
    } else if (P.flag("--stats")) {
      // Reporting & robustness block — every flag lands in the manifest's
      // options.reporting, so it records exactly what the user asked for.
      Host.ShowStats = true;
    } else if (P.optionalValue("--profile", &V)) {
      Host.ProfileTopN = 5;
      if (V && !Count("--profile", V, Host.ProfileTopN, "a checker count"))
        return 2;
    } else if (P.optionalValue("--explain", &V)) {
      // "--explain" alone means top 3; "--explain=N" and "--explain N"
      // (when the next argument is all digits) set N explicitly.
      Req.ExplainTopN = 3;
      if (V && (!parseCount(V, Req.ExplainTopN) || !Req.ExplainTopN)) {
        errs() << "xgcc: --explain expects a positive report count\n";
        printUsage();
        return 2;
      }
    } else if (P.value("--stats-json", &V)) {
      Host.StatsJsonPath = V ? V : "";
    } else if (P.value("--trace-out", &V)) {
      Host.TraceOutPath = V ? V : "";
    } else if (P.value("--deadline-ms", &V)) {
      if (!Count("--deadline-ms", V, Req.Options.RootDeadlineMs,
                 "a count of milliseconds"))
        return 2;
    } else if (P.value("--fail-on", &V)) {
      FailPolicy Unused;
      if (!V || !parseFailPolicy(V, Unused)) {
        errs() << "xgcc: --fail-on expects error|degraded|never\n";
        printUsage();
        return 2;
      }
      Req.Options.FailOn = V;
    } else if (P.flag("--groups")) {
      Host.ShowGroups = true;
    } else if (P.flag("-I")) {
      if (const char *D = P.take())
        Req.IncludeDirs.push_back(D);
    } else if (P.prefixValue("-I", &V)) {
      Req.IncludeDirs.push_back(V);
    } else if (P.flag("-D") || P.prefixValue("-D", &V)) {
      std::string Def;
      if (V)
        Def = V;
      else if (const char *D = P.take())
        Def = D;
      size_t Eq = Def.find('=');
      if (Eq == std::string::npos)
        Req.Defines.emplace_back(Def, "1");
      else
        Req.Defines.emplace_back(Def.substr(0, Eq), Def.substr(Eq + 1));
    } else if (!Arg.empty() && Arg[0] == '-') {
      errs() << "xgcc: unknown option '" << Arg << "'\n";
      printUsage();
      return 2;
    } else {
      Req.Files.push_back(Arg);
    }
  }

  if (Req.Files.empty()) {
    printUsage();
    return 2;
  }
  for (const std::string &Path : MetalFiles) {
    std::string Text;
    if (!readFileBytes(Path, Text)) {
      errs() << "xgcc: cannot open metal file '" << Path << "'\n";
      return 2;
    }
    Req.Metal.emplace_back(Path, std::move(Text));
  }

  if (!ServerSock.empty()) {
    if (!EmitPath.empty() || Host.ShowGroups || !Host.HistoryPath.empty() ||
        !Host.UpdateHistoryPath.empty() || UsedCacheFlags || Host.ShowStats ||
        Host.ProfileTopN || !Host.StatsJsonPath.empty() ||
        !Host.TraceOutPath.empty()) {
      errs() << "xgcc: --emit-ast/--groups/--history/--update-history/"
                "--cache-*/--stats/--stats-json/--profile/--trace-out are "
                "not supported with --server (the daemon owns its cache and "
                "artifacts)\n";
      return 2;
    }
    return runServed(ServerSock, Req);
  }

  XgccTool Tool;
  if (!CacheDir.empty())
    Tool.setCacheDir(CacheDir);
  Tool.setCacheVerify(CacheVerify);
  Tool.setCacheMaxMB(CacheMaxMB);

  if (!EmitPath.empty()) {
    loadInputs(Tool, Req, Req.Jobs);
    if (!Tool.emitMast(EmitPath)) {
      errs() << "xgcc: cannot write '" << EmitPath << "'\n";
      return 1;
    }
    outs() << "wrote AST image to " << EmitPath << '\n';
    return 0;
  }

  // Observability: the collector is attached even when tracing is off — a
  // disabled collector hands the engines null buffers, which is exactly the
  // "compiled in but disabled" path the overhead bench gates.
  TraceCollector Trace(!Host.TraceOutPath.empty());
  Tool.setTrace(&Trace);
  RunResult Run = runRequest(Tool, Req, Host, outs());
  if (!Run.Error.empty())
    errs() << "xgcc: " << Run.Error << '\n';
  return int(Run.ExitCode);
}
