//===- report/ReportManager.h - Collection and ranking ----------*- C++ -*-===//
//
// Part of the metal/xgcc reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Collects error reports and statistical counters and produces ranked
/// output (Section 9): severity stratification, the generic criteria
/// (distance, #conditionals, indirection, local-vs-interprocedural),
/// annotation classes, grouping by common analysis fact, and z-statistic
/// ranking of rules for both deviant-behaviour inference and false-positive
/// demotion.
///
//===----------------------------------------------------------------------===//

#ifndef MC_REPORT_REPORTMANAGER_H
#define MC_REPORT_REPORTMANAGER_H

#include "report/ErrorReport.h"

#include <map>
#include <set>
#include <string_view>
#include <vector>

namespace mc {

class raw_ostream;

/// Counters for one statistical rule.
struct RuleStats {
  unsigned Examples = 0;       ///< e: times the rule was followed.
  unsigned Counterexamples = 0; ///< c: times it was violated.

  unsigned total() const { return Examples + Counterexamples; }
};

/// The z-statistic for proportions with null hypothesis p0:
/// z(n, e) = (e/n - p0) / sqrt(p0 (1 - p0) / n).
/// The paper uses p0 = 0.5 ("a rule is obeyed or violated at random").
double zStatistic(unsigned N, unsigned E, double P0 = 0.5);

/// Ranking policies for ranked().
enum class RankPolicy {
  Generic,     ///< Severity class, locality, then distance score.
  Statistical, ///< Severity class, then descending rule z-statistic.
  Combined,    ///< Statistical tie-broken by the generic criteria.
};

/// One root x checker that fault containment degraded or quarantined.
/// Incidents ride with the report stream so partial results are explicit:
/// print() appends an "analysis incomplete" trailer when any exist.
struct RootIncident {
  std::string Root;        ///< Root function name.
  std::string Checker;     ///< Checker that was running.
  bool Quarantined = false; ///< false = degraded (a cheaper stage succeeded).
  bool Fault = false;      ///< Quarantine cause was a checker fault (a bug in
                           ///< the checker), not an exhausted cost budget. The
                           ///< service's cross-request quarantine keys on this.
  unsigned Stage = 0;      ///< Ladder stage that produced the result (1-3).
  std::string Reason;      ///< First abort reason (deadline, fault, ...).

  friend bool operator==(const RootIncident &, const RootIncident &) = default;
};

/// Collects and ranks reports.
class ReportManager {
public:
  /// Adds \p R, deduplicating identical (checker, location, message,
  /// witness-terminal) tuples and keeping the report with the smaller
  /// distance score. The witness key keeps reports about different objects
  /// at one textual site (macro expansions) distinct.
  void add(ErrorReport R);

  void countExample(const std::string &RuleKey) { ++Rules[RuleKey].Examples; }
  void countViolation(const std::string &RuleKey) {
    ++Rules[RuleKey].Counterexamples;
  }

  const std::vector<ErrorReport> &reports() const { return Reports; }
  size_t size() const { return Reports.size(); }
  void clear();

  /// Folds \p O into this manager: replays every report through add() (so
  /// dedup picks the same winners one engine walking every root would have)
  /// and sums the rule counters. XgccTool::run merges per-root buffers in
  /// root order, which reproduces that add() sequence exactly.
  void merge(const ReportManager &O);

  /// Rebuilds a buffer from deserialized state (the summary store's per-root
  /// replay artifacts). The restored buffer is merged like a live per-root
  /// buffer, so the add() replay semantics still decide dedup winners.
  void restore(std::vector<ErrorReport> R,
               std::map<std::string, RuleStats> Ru) {
    Reports = std::move(R);
    Rules = std::move(Ru);
    Incidents.clear();
  }

  /// Records a fault-containment incident. The driver notes incidents in
  /// serial root order at any job count, so the trailer is deterministic.
  void noteIncident(RootIncident I) { Incidents.push_back(std::move(I)); }
  const std::vector<RootIncident> &incidents() const { return Incidents; }
  bool anyQuarantined() const;
  bool anyDegraded() const;

  const std::map<std::string, RuleStats> &rules() const { return Rules; }
  /// z-statistic of \p RuleKey (0 when the rule has no events).
  double ruleZ(const std::string &RuleKey) const;

  /// Returns indices into reports() in rank order under \p Policy.
  std::vector<size_t> ranked(RankPolicy Policy) const;

  /// Groups report indices by GroupKey (Section 9: "group all errors that
  /// are computed from a common analysis fact").
  std::map<std::string, std::vector<size_t>> grouped() const;

  /// Drops every report whose history key is in \p Suppressed (cross-version
  /// false-positive suppression, Section 8). Returns how many were dropped.
  unsigned suppress(const std::set<std::string> &Suppressed);

  /// Drops every report whose stable fingerprint is in \p Suppressed (the
  /// baseline store's `--suppress-known` path and triage-marked
  /// suppressions). Returns how many were dropped.
  unsigned suppressFingerprints(const std::set<uint64_t> &Suppressed);

  /// Attaches lifecycle classes from a baseline diff: fingerprint -> "new" /
  /// "known". print() annotates tagged reports and printJson() emits a
  /// "lifecycle" field; untagged reports render exactly as before, so output
  /// without a baseline is byte-identical to prior releases.
  void setLifecycle(std::map<uint64_t, std::string> Tags) {
    Lifecycle = std::move(Tags);
  }
  const std::map<uint64_t, std::string> &lifecycle() const {
    return Lifecycle;
  }

  /// Installs the accumulated cross-run population for statistical ranking:
  /// ruleZ() adds these counts to the current run's, so z-statistics sharpen
  /// as the baseline store accumulates checks and violations over many runs
  /// (docs/REPORTS.md). Current-run counters via rules() are unaffected.
  void setRulePrior(std::map<std::string, RuleStats> Prior) {
    RulePrior = std::move(Prior);
  }

  /// Pretty-prints the ranked reports, followed by the "analysis incomplete"
  /// trailer when any root was degraded or quarantined (output stays
  /// byte-identical to a fault-free run when there are no incidents).
  void print(raw_ostream &OS, RankPolicy Policy) const;

  /// Emits the ranked reports as a JSON array (machine-readable output for
  /// downstream tooling), followed by an {"analysis_incomplete": ...} object
  /// on its own line when any incidents exist.
  void printJson(raw_ostream &OS, RankPolicy Policy) const;

private:
  std::vector<ErrorReport> Reports;
  std::map<std::string, RuleStats> Rules;
  std::vector<RootIncident> Incidents;
  std::map<uint64_t, std::string> Lifecycle;
  std::map<std::string, RuleStats> RulePrior;
};

/// The history key of a report: fields that are "relatively invariant under
/// edits" — file, function, variable names, and the message (Section 8).
std::string historyKey(const ErrorReport &R);

/// Renders \p Incidents as the JSON array (just the `[...]`) used both by
/// printJson's {"analysis_incomplete": ...} trailer and by the run
/// manifest's "incidents" field — one serializer, two views.
void renderIncidentsJson(raw_ostream &OS,
                         const std::vector<RootIncident> &Incidents);

/// Renders \p Incidents as print()'s human-readable "analysis incomplete"
/// trailer. No-op when the list is empty.
void renderIncidentsText(raw_ostream &OS,
                         const std::vector<RootIncident> &Incidents);

} // namespace mc

#endif // MC_REPORT_REPORTMANAGER_H
