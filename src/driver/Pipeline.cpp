//===- driver/Pipeline.cpp - One run, from request to exit code -----------===//
//
// Part of the metal/xgcc reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"

#include "checkers/BuiltinCheckers.h"
#include "driver/Tool.h"
#include "lifecycle/BaselineStore.h"
#include "report/Witness.h"
#include "support/RawOstream.h"
#include "support/Trace.h"

#include <algorithm>
#include <cassert>

using namespace mc;

namespace {

bool parseRankPolicy(const std::string &Name, RankPolicy &Out) {
  if (Name == "generic")
    Out = RankPolicy::Generic;
  else if (Name == "statistical")
    Out = RankPolicy::Statistical;
  else if (Name == "combined")
    Out = RankPolicy::Combined;
  else
    return false;
  return true;
}

/// The one place request knobs become engine options. False when the
/// --fail-on mode is unknown.
bool engineOptions(const RunRequest &Req, const RunHost &Host,
                   EngineOptions &Opts) {
  const RunRequest::EngineKnobs &K = Req.Options;
  Opts.Jobs = Req.Jobs ? Req.Jobs : Host.DefaultJobs;
  Opts.EnableBlockCache = K.BlockCache;
  // Without the block cache every path is walked to the end; give the
  // per-function budget the headroom that needs.
  if (!K.BlockCache)
    Opts.MaxPathsPerFunction = 1u << 16;
  Opts.EnableFunctionSummaries = K.FunctionSummaries;
  Opts.EnableFalsePathPruning = K.FalsePathPruning;
  Opts.EnableDispatchIndex = K.DispatchIndex;
  Opts.Interprocedural = K.Interprocedural;
  Opts.RootPathBudget = K.RootPathBudget;
  if (K.MaxActiveStates)
    Opts.MaxActiveStates = K.MaxActiveStates;

  ReportingOptions &R = Opts.Reporting;
  R.ShowStats = Host.ShowStats;
  R.StatsJsonPath = Host.StatsJsonPath;
  R.TraceOutPath = Host.TraceOutPath;
  R.ProfileTopN = Host.ProfileTopN;
  R.ExplainTopN = Req.ExplainTopN;
  R.CaptureWitness = Req.ExplainTopN != 0;
  // The engine's degradation ladder enforces whatever the host's clamp
  // leaves of the per-root deadline, root by root.
  R.RootDeadlineMs = K.RootDeadlineMs;
  if (Host.DeadlineClampMs &&
      (!R.RootDeadlineMs || R.RootDeadlineMs > Host.DeadlineClampMs))
    R.RootDeadlineMs = Host.DeadlineClampMs;
  return parseFailPolicy(K.FailOn, R.FailOn);
}

bool endsWith(const std::string &S, std::string_view Suffix) {
  return S.size() >= Suffix.size() &&
         S.compare(S.size() - Suffix.size(), Suffix.size(), Suffix) == 0;
}

RunResult fail(RunResult &Res, unsigned ExitCode, std::string Why) {
  Res.ExitCode = ExitCode;
  Res.Error = std::move(Why);
  return std::move(Res);
}

} // namespace

bool mc::loadInputs(XgccTool &Tool, const RunRequest &Req, unsigned Jobs) {
  Tool.setKeepGoing(Req.KeepGoing);
  for (const std::string &Dir : Req.IncludeDirs)
    Tool.preprocessor().addIncludeDir(Dir);
  for (const auto &[Name, Value] : Req.Defines)
    Tool.preprocessor().define(Name, Value);

  bool Ok = true;
  std::vector<std::string> Batch;
  auto FlushBatch = [&] {
    if (Batch.empty())
      return;
    Ok &= Tool.addSourceFiles(Batch, Jobs);
    Batch.clear();
  };
  for (const std::string &Path : Req.Files) {
    if (endsWith(Path, ".mast")) {
      FlushBatch();
      Ok &= Tool.addMastFile(Path);
    } else {
      Batch.push_back(Path);
    }
  }
  FlushBatch();
  if (!Ok)
    Tool.diagOS() << "xgcc: continuing despite parse errors\n";
  return Ok;
}

RunResult mc::runRequest(XgccTool &Tool, const RunRequest &Req, RunHost &Host,
                         raw_ostream &Out) {
  RunResult Res;
  if (Req.Files.empty())
    return fail(Res, 2, "no input files");
  RankPolicy Policy;
  if (!parseRankPolicy(Req.Rank, Policy))
    return fail(Res, 2, "unknown rank mode '" + Req.Rank + "'");
  if (Req.Format != "text" && Req.Format != "json")
    return fail(Res, 2, "unknown format '" + Req.Format + "'");
  const bool Json = Req.Format == "json";
  EngineOptions Opts;
  if (!engineOptions(Req, Host, Opts))
    return fail(Res, 2, "unknown fail-on mode '" + Req.Options.FailOn + "'");

  // Checker selection: the full builtin suite by default, path_kill first
  // so its annotations gate the others. The host's skip set is checked
  // before a name registers.
  raw_ostream &Diag = Tool.diagOS();
  auto Skipped = [&](const std::string &Name) {
    auto It = Host.SkipCheckers.find(Name);
    if (It == Host.SkipCheckers.end())
      return false;
    Diag << It->second;
    Res.Skipped.push_back(Name);
    return true;
  };
  std::vector<std::string> Names = Req.Checkers;
  if (Names.empty() && Req.Metal.empty())
    Names = builtinCheckerNames();
  std::stable_sort(Names.begin(), Names.end(),
                   [](const std::string &A, const std::string &B) {
                     return (A == "path_kill") > (B == "path_kill");
                   });
  // Compiling and registering are separate steps so that only a bad name or
  // bad metal fails the request: a checker registered twice is dropped by
  // addChecker with a warning, and the run goes on.
  for (const std::string &Name : Names) {
    if (Skipped(Name))
      continue;
    std::unique_ptr<MetalChecker> C =
        makeBuiltinChecker(Name, Tool.sourceManager(), Tool.diags());
    if (!C)
      return fail(Res, 2, "unknown builtin checker '" + Name + "'");
    if (Tool.addChecker(std::move(C)))
      Res.Checkers.push_back(Name);
  }
  for (const auto &[Name, Source] : Req.Metal) {
    if (Skipped(Name))
      continue;
    std::unique_ptr<MetalChecker> C =
        compileMetalChecker(Source, Name, Tool.sourceManager(), Tool.diags());
    if (!C)
      return fail(Res, 2, "errors in metal checker '" + Name + "'");
    if (Tool.addChecker(std::move(C)))
      Res.Checkers.push_back(Name);
  }
  for (std::unique_ptr<Checker> &C : Host.ExtraCheckers) {
    std::string Name(C->name());
    if (Skipped(Name))
      continue;
    Tool.addChecker(std::move(C));
    Res.Checkers.push_back(Name);
  }
  Host.ExtraCheckers.clear();

  Res.ParseOk = loadInputs(Tool, Req, Opts.Jobs);
  Tool.run(Opts);
  // Size-policy eviction and the cache.bytes gauge, before any metrics
  // surface renders.
  Tool.finishCache();
  ReportManager &Reports = Tool.reports();

  // A requested artifact or store that cannot be written is a tool failure:
  // the exit status must say so even under --fail-on never (which only
  // concerns analysis outcomes), or build drivers silently lose it.
  bool WriteFailed = false;
  auto Wrote = [&](bool Ok, const std::string &Path) {
    if (Ok)
      return;
    Diag << "xgcc: cannot write '" << Path << "'\n";
    WriteFailed = true;
  };

  // History-based suppression (Section 8).
  if (!Host.HistoryPath.empty()) {
    HistoryFile History;
    History.load(Host.HistoryPath);
    if (unsigned Dropped = History.apply(Reports))
      Out << "suppressed " << Dropped << " report(s) from history\n";
  }
  if (!Host.UpdateHistoryPath.empty()) {
    HistoryFile Updated;
    for (const ErrorReport &R : Reports.reports())
      Updated.markKey(historyKey(R));
    Wrote(Updated.save(Host.UpdateHistoryPath), Host.UpdateHistoryPath);
  }

  // Cross-run lifecycle (--baseline): classify against the store before any
  // output renders, so the tags and suppressions land in the bytes, and
  // fold the accumulated rule population into statistical ranking.
  BaselineDelta Delta;
  const bool BaselineOn = !Req.Baseline.empty();
  if (BaselineOn) {
    std::unique_ptr<BaselineStore> Own;
    std::unique_ptr<BaselineStore> &Store =
        Host.Baselines ? (*Host.Baselines)[Req.Baseline] : Own;
    std::string Err;
    if (!Store) {
      Store = std::make_unique<BaselineStore>();
      if (!Store->open(Req.Baseline, &Err)) {
        if (Host.Baselines)
          Host.Baselines->erase(Req.Baseline);
        return fail(Res, 1, "cannot open baseline store '" + Req.Baseline +
                                "': " + Err);
      }
    }
    Delta = Store->recordRun(Reports, Req.SuppressKnown);
    if (!Store->save(&Err)) {
      Diag << "xgcc: cannot write baseline store '" << Req.Baseline
           << "': " << Err << '\n';
      WriteFailed = true;
    }
  }

  if (Json) {
    Reports.printJson(Out, Policy);
  } else {
    Reports.print(Out, Policy);
    Out << Reports.size() << " report(s)\n";
    if (BaselineOn)
      Out << "baseline: " << Delta.NewCount << " new, " << Delta.KnownCount
          << " known, " << Delta.FixedCount << " fixed, "
          << Delta.SuppressedCount << " suppressed\n";
    if (Opts.Reporting.ExplainTopN)
      renderExplainText(Out, Reports, Tool.sourceManager(), Policy,
                        Opts.Reporting.ExplainTopN);
    if (Host.ShowGroups) {
      // Section 9: "group all errors that are computed from a common
      // analysis fact" so a wrong fact can be suppressed wholesale.
      Out << "---- groups (by analysis fact) ----\n";
      for (const auto &[Key, Members] : Reports.grouped()) {
        Out << (Key.empty() ? std::string("<ungrouped>") : Key) << ": "
            << Members.size() << " report(s)";
        if (!Key.empty())
          Out.printf(" (z=%.2f)", Reports.ruleZ(Key));
        Out << '\n';
      }
    }
  }
  if (Host.ProfileTopN)
    formatProfileText(Tool.metrics(), Host.ProfileTopN, Out);
  if (Host.ShowStats)
    formatStatsText(Tool.metrics(), Out);

  if (Host.WantManifest || !Host.StatsJsonPath.empty()) {
    RunManifest &Man = Res.Manifest.emplace(Tool.manifest(Opts, Res.ParseOk));
    if (BaselineOn)
      Man.Baseline = {true, Delta.RunOrdinal, Delta.NewCount,
                      Delta.KnownCount, Delta.FixedCount,
                      Delta.SuppressedCount};
    if (!Host.StatsJsonPath.empty()) {
      std::string Buf;
      raw_string_ostream OS(Buf);
      Man.writeJson(OS);
      if (Host.StatsJsonPath == "-")
        Out << Buf;
      else
        Wrote(writeFileBytes(Host.StatsJsonPath, Buf), Host.StatsJsonPath);
    }
  }
  if (!Host.TraceOutPath.empty()) {
    assert(Tool.trace() && "--trace-out needs a collector on the tool");
    std::string Buf;
    raw_string_ostream OS(Buf);
    Tool.trace()->exportChromeJson(OS);
    Wrote(writeFileBytes(Host.TraceOutPath, Buf), Host.TraceOutPath);
  }

  // Exit policy: the default "never" keeps the classic always-0 behavior so
  // partial results never look like tool crashes to build drivers.
  FailPolicy FailOn = Opts.Reporting.FailOn;
  if (WriteFailed ||
      (FailOn != FailPolicy::Never &&
       (Reports.anyQuarantined() || !Res.ParseOk ||
        (FailOn == FailPolicy::Degraded && Reports.anyDegraded()))))
    Res.ExitCode = 1;
  return Res;
}
