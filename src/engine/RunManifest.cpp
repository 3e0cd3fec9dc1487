//===- engine/RunManifest.cpp - The unified run-report schema -------------===//
//
// Part of the metal/xgcc reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "engine/RunManifest.h"

#include "support/Json.h"
#include "support/RawOstream.h"

#include <algorithm>

using namespace mc;

//===----------------------------------------------------------------------===//
// Serialization
//===----------------------------------------------------------------------===//

static void writeReportingJson(raw_ostream &OS, const ReportingOptions &R,
                               const char *Indent) {
  OS << "{\n";
  OS << Indent << "  \"show_stats\": " << R.ShowStats << ",\n";
  OS << Indent << "  \"stats_json\": ";
  writeJsonString(OS, R.StatsJsonPath);
  OS << ",\n";
  OS << Indent << "  \"trace_out\": ";
  writeJsonString(OS, R.TraceOutPath);
  OS << ",\n";
  OS << Indent << "  \"profile_top_n\": " << R.ProfileTopN << ",\n";
  OS << Indent << "  \"explain_top_n\": " << R.ExplainTopN << ",\n";
  OS << Indent << "  \"capture_witness\": " << R.CaptureWitness << ",\n";
  OS << Indent << "  \"deadline_ms\": " << R.RootDeadlineMs << ",\n";
  OS << Indent << "  \"fail_on\": \"" << failPolicyName(R.FailOn) << "\"\n";
  OS << Indent << "}";
}

static void writeOptionsJson(raw_ostream &OS, const EngineOptions &O) {
  OS << "{\n";
  OS << "    \"block_cache\": " << O.EnableBlockCache << ",\n";
  OS << "    \"function_summaries\": " << O.EnableFunctionSummaries << ",\n";
  OS << "    \"false_path_pruning\": " << O.EnableFalsePathPruning << ",\n";
  OS << "    \"auto_kill\": " << O.EnableAutoKill << ",\n";
  OS << "    \"synonyms\": " << O.EnableSynonyms << ",\n";
  OS << "    \"interprocedural\": " << O.Interprocedural << ",\n";
  OS << "    \"dispatch_index\": " << O.EnableDispatchIndex << ",\n";
  OS << "    \"max_paths_per_function\": " << O.MaxPathsPerFunction << ",\n";
  OS << "    \"max_path_length\": " << O.MaxPathLength << ",\n";
  OS << "    \"max_call_depth\": " << O.MaxCallDepth << ",\n";
  OS << "    \"root_path_budget\": " << O.RootPathBudget << ",\n";
  OS << "    \"max_active_states\": " << O.MaxActiveStates << ",\n";
  OS << "    \"jobs\": " << O.Jobs << ",\n";
  OS << "    \"reporting\": ";
  writeReportingJson(OS, O.Reporting, "    ");
  OS << "\n  }";
}

void RunManifest::writeJson(raw_ostream &OS) const {
  OS << "{\n";
  OS << "  \"schema\": ";
  writeJsonString(OS, Schema);
  OS << ",\n  \"tool\": ";
  writeJsonString(OS, Tool);
  OS << ",\n  \"version\": ";
  writeJsonString(OS, Version);
  OS << ",\n  \"parse_ok\": " << ParseOk;
  OS << ",\n  \"report_count\": " << ReportCount;
  OS << ",\n  \"reports\": [";
  for (size_t RI = 0; RI != Reports.size(); ++RI) {
    const ManifestReport &R = Reports[RI];
    OS << (RI ? ",\n    {" : "\n    {");
    OS << "\"checker\": ";
    writeJsonString(OS, R.Checker);
    OS << ", \"file\": ";
    writeJsonString(OS, R.File);
    OS << ", \"line\": " << R.Line;
    OS << ", \"message\": ";
    writeJsonString(OS, R.Message);
    OS << ", \"fingerprint\": ";
    writeJsonString(OS, R.Fingerprint);
    if (!R.Lifecycle.empty()) {
      OS << ", \"lifecycle\": ";
      writeJsonString(OS, R.Lifecycle);
    }
    OS << '}';
  }
  OS << (Reports.empty() ? "]" : "\n  ]");
  if (Baseline.Enabled) {
    OS << ",\n  \"baseline\": {\"run\": " << Baseline.RunOrdinal
       << ", \"new\": " << Baseline.NewCount
       << ", \"known\": " << Baseline.KnownCount
       << ", \"fixed\": " << Baseline.FixedCount
       << ", \"suppressed\": " << Baseline.SuppressedCount << '}';
  }
  OS << ",\n  \"options\": ";
  writeOptionsJson(OS, Options);
  OS << ",\n  \"metrics\": {";
  bool First = true;
  for (const auto &[Name, Value] : Metrics) {
    if (!First)
      OS << ',';
    First = false;
    OS << "\n    ";
    writeJsonString(OS, Name);
    OS << ": " << Value;
  }
  OS << (First ? "},\n" : "\n  },\n");
  OS << "  \"incidents\": ";
  renderIncidentsJson(OS, Incidents);
  OS << ",\n  \"witnesses\": [";
  for (size_t WI = 0; WI != Witnesses.size(); ++WI) {
    const ManifestWitness &W = Witnesses[WI];
    OS << (WI ? ",\n    {\n" : "\n    {\n");
    OS << "      \"checker\": ";
    writeJsonString(OS, W.Checker);
    OS << ",\n      \"file\": ";
    writeJsonString(OS, W.File);
    OS << ",\n      \"line\": " << W.Line;
    OS << ",\n      \"message\": ";
    writeJsonString(OS, W.Message);
    OS << ",\n      \"dropped_steps\": " << W.DroppedSteps;
    OS << ",\n      \"steps\": [";
    for (size_t SI = 0; SI != W.Steps.size(); ++SI) {
      const ManifestWitnessStep &S = W.Steps[SI];
      OS << (SI ? ",\n        {" : "\n        {");
      OS << "\"kind\": ";
      writeJsonString(OS, S.Kind);
      OS << ", \"file\": ";
      writeJsonString(OS, S.File);
      OS << ", \"line\": " << S.Line;
      OS << ", \"depth\": " << S.Depth;
      OS << ", \"object\": ";
      writeJsonString(OS, S.Object);
      OS << ", \"from\": ";
      writeJsonString(OS, S.From);
      OS << ", \"to\": ";
      writeJsonString(OS, S.To);
      OS << '}';
    }
    OS << (W.Steps.empty() ? "]\n    }" : "\n      ]\n    }");
  }
  OS << (Witnesses.empty() ? "]\n}\n" : "\n  ]\n}\n");
}

//===----------------------------------------------------------------------===//
// Parsing
//===----------------------------------------------------------------------===//

namespace {

bool readReporting(JsonReader &R, ReportingOptions &O) {
  return R.readObject([&](const std::string &Key) {
    if (Key == "show_stats")
      return R.readBool(O.ShowStats);
    if (Key == "stats_json")
      return R.readString(O.StatsJsonPath);
    if (Key == "trace_out")
      return R.readString(O.TraceOutPath);
    if (Key == "profile_top_n")
      return R.readUInt(O.ProfileTopN);
    if (Key == "explain_top_n")
      return R.readUInt(O.ExplainTopN);
    if (Key == "capture_witness")
      return R.readBool(O.CaptureWitness);
    if (Key == "deadline_ms")
      return R.readUInt(O.RootDeadlineMs);
    if (Key == "fail_on") {
      std::string S;
      return R.readString(S) &&
             (parseFailPolicy(S, O.FailOn) || R.fail("unknown fail_on value"));
    }
    return R.skipValue();
  });
}

bool readOptions(JsonReader &R, EngineOptions &O) {
  return R.readObject([&](const std::string &Key) {
    if (Key == "block_cache")
      return R.readBool(O.EnableBlockCache);
    if (Key == "function_summaries")
      return R.readBool(O.EnableFunctionSummaries);
    if (Key == "false_path_pruning")
      return R.readBool(O.EnableFalsePathPruning);
    if (Key == "auto_kill")
      return R.readBool(O.EnableAutoKill);
    if (Key == "synonyms")
      return R.readBool(O.EnableSynonyms);
    if (Key == "interprocedural")
      return R.readBool(O.Interprocedural);
    if (Key == "dispatch_index")
      return R.readBool(O.EnableDispatchIndex);
    if (Key == "max_paths_per_function")
      return R.readUInt(O.MaxPathsPerFunction);
    if (Key == "max_path_length")
      return R.readUInt(O.MaxPathLength);
    if (Key == "max_call_depth")
      return R.readUInt(O.MaxCallDepth);
    if (Key == "root_path_budget")
      return R.readUInt(O.RootPathBudget);
    if (Key == "max_active_states")
      return R.readUInt(O.MaxActiveStates);
    if (Key == "jobs")
      return R.readUInt(O.Jobs);
    if (Key == "reporting")
      return readReporting(R, O.Reporting);
    return R.skipValue();
  });
}

bool readIncident(JsonReader &R, RootIncident &Inc) {
  return R.readObject([&](const std::string &Key) {
    if (Key == "root")
      return R.readString(Inc.Root);
    if (Key == "checker")
      return R.readString(Inc.Checker);
    if (Key == "outcome") {
      std::string S;
      if (!R.readString(S))
        return false;
      Inc.Quarantined = S == "quarantined";
      return Inc.Quarantined || S == "degraded" ||
             R.fail("unknown incident outcome");
    }
    if (Key == "fault")
      return R.readBool(Inc.Fault);
    if (Key == "stage")
      return R.readUInt(Inc.Stage);
    if (Key == "reason")
      return R.readString(Inc.Reason);
    return R.skipValue();
  });
}

bool readWitnessStep(JsonReader &R, ManifestWitnessStep &S) {
  return R.readObject([&](const std::string &Key) {
    if (Key == "kind")
      return R.readString(S.Kind);
    if (Key == "file")
      return R.readString(S.File);
    if (Key == "line")
      return R.readUInt(S.Line);
    if (Key == "depth")
      return R.readUInt(S.Depth);
    if (Key == "object")
      return R.readString(S.Object);
    if (Key == "from")
      return R.readString(S.From);
    if (Key == "to")
      return R.readString(S.To);
    return R.skipValue();
  });
}

bool readWitness(JsonReader &R, ManifestWitness &W) {
  return R.readObject([&](const std::string &Key) {
    if (Key == "checker")
      return R.readString(W.Checker);
    if (Key == "file")
      return R.readString(W.File);
    if (Key == "line")
      return R.readUInt(W.Line);
    if (Key == "message")
      return R.readString(W.Message);
    if (Key == "dropped_steps")
      return R.readUInt(W.DroppedSteps);
    if (Key == "steps")
      return R.readArray(
          [&] { return readWitnessStep(R, W.Steps.emplace_back()); });
    return R.skipValue();
  });
}

bool readReport(JsonReader &R, ManifestReport &Rep) {
  return R.readObject([&](const std::string &Key) {
    if (Key == "checker")
      return R.readString(Rep.Checker);
    if (Key == "file")
      return R.readString(Rep.File);
    if (Key == "line")
      return R.readUInt(Rep.Line);
    if (Key == "message")
      return R.readString(Rep.Message);
    if (Key == "fingerprint")
      return R.readString(Rep.Fingerprint);
    if (Key == "lifecycle")
      return R.readString(Rep.Lifecycle);
    return R.skipValue();
  });
}

bool readBaseline(JsonReader &R, ManifestBaseline &B) {
  B.Enabled = true; // The key is only written when a baseline was active.
  return R.readObject([&](const std::string &Key) {
    if (Key == "run")
      return R.readUInt(B.RunOrdinal);
    if (Key == "new")
      return R.readUInt(B.NewCount);
    if (Key == "known")
      return R.readUInt(B.KnownCount);
    if (Key == "fixed")
      return R.readUInt(B.FixedCount);
    if (Key == "suppressed")
      return R.readUInt(B.SuppressedCount);
    return R.skipValue();
  });
}

} // namespace

bool mc::parseRunManifest(std::string_view Text, RunManifest &Out,
                          std::string *Err) {
  JsonReader R(Text, Err);
  RunManifest M;
  bool Ok = R.readObject([&](const std::string &Key) {
    if (Key == "schema")
      return R.readString(M.Schema);
    if (Key == "tool")
      return R.readString(M.Tool);
    if (Key == "version")
      return R.readString(M.Version);
    if (Key == "parse_ok")
      return R.readBool(M.ParseOk);
    if (Key == "report_count")
      return R.readUInt(M.ReportCount);
    if (Key == "reports")
      return R.readArray(
          [&] { return readReport(R, M.Reports.emplace_back()); });
    if (Key == "baseline")
      return readBaseline(R, M.Baseline);
    if (Key == "options")
      return readOptions(R, M.Options);
    if (Key == "metrics")
      return R.readObject([&](const std::string &Name) {
        uint64_t N;
        if (!R.readUInt(N))
          return false;
        M.Metrics.add(Name, N);
        return true;
      });
    if (Key == "incidents")
      return R.readArray(
          [&] { return readIncident(R, M.Incidents.emplace_back()); });
    if (Key == "witnesses")
      return R.readArray(
          [&] { return readWitness(R, M.Witnesses.emplace_back()); });
    return R.skipValue();
  });
  if (!Ok)
    return false;
  if (!R.atEnd())
    return R.fail("trailing content after manifest object");
  Out = std::move(M);
  return true;
}

//===----------------------------------------------------------------------===//
// Text views
//===----------------------------------------------------------------------===//

void mc::formatStatsText(const MetricsSnapshot &M, raw_ostream &OS) {
  bool First = true;
#define MC_METRIC_STAT(Field, DottedName, StatsKey)                            \
  if (*StatsKey) {                                                             \
    if (!First)                                                                \
      OS << ' ';                                                               \
    First = false;                                                             \
    OS << StatsKey << '=' << M.value(DottedName);                              \
  }
  MC_ENGINE_METRICS(MC_METRIC_STAT)
#undef MC_METRIC_STAT
  OS << '\n';
}

void mc::formatProfileText(const MetricsSnapshot &M, unsigned TopN,
                           raw_ostream &OS) {
  // Per-checker attribution lives under "checker.<name>.<suffix>". Checker
  // names may themselves contain dots (metal file paths), so rows are
  // recovered by matching the known suffixes, not by splitting on '.'.
  struct Row {
    std::string Name;
    uint64_t Tried = 0, Fired = 0, States = 0, Faults = 0, Reports = 0;
    uint64_t Witness = 0;
    uint64_t CalloutNs = 0;
  };
  static constexpr struct {
    const char *Suffix;
    uint64_t Row::*Member;
  } Suffixes[] = {
      {".transitions.tried", &Row::Tried},
      {".transitions.fired", &Row::Fired},
      {".states.created", &Row::States},
      {".faults", &Row::Faults},
      {".reports", &Row::Reports},
      {".witness.steps", &Row::Witness},
      {".callout_ns", &Row::CalloutNs},
  };

  std::vector<Row> Rows;
  auto RowOf = [&](std::string_view Name) -> Row & {
    for (Row &R : Rows)
      if (R.Name == Name)
        return R;
    Rows.push_back(Row{std::string(Name)});
    return Rows.back();
  };
  constexpr std::string_view Prefix = "checker.";
  for (const auto &[Name, Value] : M) {
    std::string_view N = Name;
    if (N.substr(0, Prefix.size()) != Prefix)
      continue;
    for (const auto &S : Suffixes) {
      std::string_view Suf = S.Suffix;
      if (N.size() <= Prefix.size() + Suf.size() ||
          N.substr(N.size() - Suf.size()) != Suf)
        continue;
      std::string_view Checker =
          N.substr(Prefix.size(), N.size() - Prefix.size() - Suf.size());
      RowOf(Checker).*(S.Member) = Value;
      break;
    }
  }

  std::sort(Rows.begin(), Rows.end(), [](const Row &A, const Row &B) {
    if (A.CalloutNs != B.CalloutNs)
      return A.CalloutNs > B.CalloutNs;
    if (A.Tried != B.Tried)
      return A.Tried > B.Tried;
    return A.Name < B.Name;
  });

  size_t Shown = std::min<size_t>(TopN, Rows.size());
  OS << "---- profile: top " << (unsigned long long)Shown << " of "
     << (unsigned long long)Rows.size() << " checker(s) by callout time ----\n";
  for (size_t I = 0; I != Shown; ++I) {
    const Row &R = Rows[I];
    OS << "  " << (unsigned long long)(I + 1) << ". ";
    OS.padToColumn(R.Name, 20);
    OS.printf(" callout_ms=%.3f", (double)R.CalloutNs / 1e6);
    OS << " tried=" << R.Tried << " fired=" << R.Fired
       << " states=" << R.States << " reports=" << R.Reports
       << " faults=" << R.Faults << " witness=" << R.Witness << '\n';
  }
}
