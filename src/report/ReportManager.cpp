//===- report/ReportManager.cpp - Collection and ranking ---------------------===//
//
// Part of the metal/xgcc reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "report/ReportManager.h"

#include "support/Hash.h"
#include "support/Json.h"
#include "support/RawOstream.h"

#include <algorithm>
#include <cmath>

using namespace mc;

double mc::zStatistic(unsigned N, unsigned E, double P0) {
  if (N == 0)
    return 0.0;
  double P = double(E) / double(N);
  return (P - P0) / std::sqrt(P0 * (1.0 - P0) / double(N));
}

void ReportManager::add(ErrorReport R) {
  for (ErrorReport &Existing : Reports) {
    if (Existing.CheckerName == R.CheckerName &&
        Existing.ErrorLoc == R.ErrorLoc && Existing.Message == R.Message &&
        Existing.WitnessKey == R.WitnessKey) {
      // Same error rediscovered along another path; keep the easier-to-
      // inspect variant (smaller distance score, fewer synonyms).
      if (R.distanceScore() < Existing.distanceScore() ||
          (R.distanceScore() == Existing.distanceScore() &&
           R.IndirectionDepth < Existing.IndirectionDepth))
        Existing = std::move(R);
      return;
    }
  }
  Reports.push_back(std::move(R));
}

void ReportManager::clear() {
  Reports.clear();
  Rules.clear();
  Incidents.clear();
  Lifecycle.clear();
  RulePrior.clear();
}

void ReportManager::merge(const ReportManager &O) {
  for (const ErrorReport &R : O.Reports)
    add(R);
  for (const auto &[Key, RS] : O.Rules) {
    RuleStats &Dst = Rules[Key];
    Dst.Examples += RS.Examples;
    Dst.Counterexamples += RS.Counterexamples;
  }
  for (const RootIncident &I : O.Incidents)
    Incidents.push_back(I);
}

bool ReportManager::anyQuarantined() const {
  return std::any_of(Incidents.begin(), Incidents.end(),
                     [](const RootIncident &I) { return I.Quarantined; });
}

bool ReportManager::anyDegraded() const {
  return std::any_of(Incidents.begin(), Incidents.end(),
                     [](const RootIncident &I) { return !I.Quarantined; });
}

double ReportManager::ruleZ(const std::string &RuleKey) const {
  RuleStats RS;
  if (auto It = Rules.find(RuleKey); It != Rules.end())
    RS = It->second;
  if (auto It = RulePrior.find(RuleKey); It != RulePrior.end()) {
    RS.Examples += It->second.Examples;
    RS.Counterexamples += It->second.Counterexamples;
  }
  if (RS.total() == 0)
    return 0.0;
  return zStatistic(RS.total(), RS.Examples);
}

std::vector<size_t> ReportManager::ranked(RankPolicy Policy) const {
  std::vector<size_t> Order(Reports.size());
  for (size_t I = 0; I != Order.size(); ++I)
    Order[I] = I;

  auto GenericLess = [&](size_t A, size_t B) {
    const ErrorReport &RA = Reports[A];
    const ErrorReport &RB = Reports[B];
    // Criterion 4: local errors over interprocedural ones; global errors
    // ordered by the shortest call chain that causes them.
    if (RA.Interprocedural != RB.Interprocedural)
      return !RA.Interprocedural;
    if (RA.Interprocedural && RA.CallChainLength != RB.CallChainLength)
      return RA.CallChainLength < RB.CallChainLength;
    // Criterion 3: direct errors over synonym-mediated ones, then by chain.
    if ((RA.IndirectionDepth == 0) != (RB.IndirectionDepth == 0))
      return RA.IndirectionDepth == 0;
    if (RA.IndirectionDepth != RB.IndirectionDepth)
      return RA.IndirectionDepth < RB.IndirectionDepth;
    // Criteria 1+2: distance with conditionals at 10 lines each.
    if (RA.distanceScore() != RB.distanceScore())
      return RA.distanceScore() < RB.distanceScore();
    return A < B; // Stable fallback.
  };

  std::sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
    const ErrorReport &RA = Reports[A];
    const ErrorReport &RB = Reports[B];
    // Severity classes stratify everything.
    if (RA.severityClass() != RB.severityClass())
      return RA.severityClass() < RB.severityClass();
    switch (Policy) {
    case RankPolicy::Generic:
      return GenericLess(A, B);
    case RankPolicy::Statistical:
    case RankPolicy::Combined: {
      double ZA = RA.RuleKey.empty() ? 0.0 : ruleZ(RA.RuleKey);
      double ZB = RB.RuleKey.empty() ? 0.0 : ruleZ(RB.RuleKey);
      if (ZA != ZB)
        return ZA > ZB; // Higher z first: reliable rules' violations on top.
      if (Policy == RankPolicy::Combined)
        return GenericLess(A, B);
      return A < B;
    }
    }
    return A < B;
  });
  return Order;
}

std::map<std::string, std::vector<size_t>> ReportManager::grouped() const {
  std::map<std::string, std::vector<size_t>> Groups;
  for (size_t I = 0; I != Reports.size(); ++I)
    Groups[Reports[I].GroupKey].push_back(I);
  return Groups;
}

std::string mc::historyKey(const ErrorReport &R) {
  std::string Key = R.CheckerName;
  Key += '|';
  Key += R.File;
  Key += '|';
  Key += R.FunctionName;
  Key += '|';
  Key += R.VariableName;
  Key += '|';
  Key += R.Message;
  return Key;
}

unsigned ReportManager::suppress(const std::set<std::string> &Suppressed) {
  size_t Before = Reports.size();
  std::erase_if(Reports, [&](const ErrorReport &R) {
    return Suppressed.count(historyKey(R)) != 0;
  });
  return Before - Reports.size();
}

unsigned
ReportManager::suppressFingerprints(const std::set<uint64_t> &Suppressed) {
  size_t Before = Reports.size();
  std::erase_if(Reports, [&](const ErrorReport &R) {
    return Suppressed.count(R.Fingerprint) != 0;
  });
  return Before - Reports.size();
}

void mc::renderIncidentsJson(raw_ostream &OS,
                             const std::vector<RootIncident> &Incidents) {
  OS << '[';
  for (size_t I = 0; I != Incidents.size(); ++I) {
    const RootIncident &Inc = Incidents[I];
    if (I)
      OS << ", ";
    OS << "{\"root\": ";
    writeJsonString(OS, Inc.Root);
    OS << ", \"checker\": ";
    writeJsonString(OS, Inc.Checker);
    OS << ", \"outcome\": \""
       << (Inc.Quarantined ? "quarantined" : "degraded") << '"';
    if (Inc.Fault)
      OS << ", \"fault\": true"; // Additive: absent means false.
    if (!Inc.Quarantined)
      OS << ", \"stage\": " << Inc.Stage;
    OS << ", \"reason\": ";
    writeJsonString(OS, Inc.Reason);
    OS << '}';
  }
  OS << ']';
}

void mc::renderIncidentsText(raw_ostream &OS,
                             const std::vector<RootIncident> &Incidents) {
  if (Incidents.empty())
    return;
  size_t Quarantined = 0;
  for (const RootIncident &I : Incidents)
    Quarantined += I.Quarantined;
  OS << "analysis incomplete: " << Quarantined << " root(s) quarantined, "
     << (Incidents.size() - Quarantined) << " root(s) degraded\n";
  for (const RootIncident &I : Incidents) {
    OS << "  " << (I.Quarantined ? "quarantined " : "degraded ") << I.Root
       << " [" << I.Checker << ']';
    if (!I.Quarantined)
      OS << " (stage " << I.Stage << ')';
    OS << ": " << I.Reason << '\n';
  }
}

void ReportManager::printJson(raw_ostream &OS, RankPolicy Policy) const {
  std::vector<size_t> Order = ranked(Policy);
  OS << "[\n";
  for (size_t Rank = 0; Rank != Order.size(); ++Rank) {
    const ErrorReport &R = Reports[Order[Rank]];
    OS << "  {\"rank\": " << (Rank + 1) << ", \"checker\": ";
    writeJsonString(OS, R.CheckerName);
    OS << ", \"file\": ";
    writeJsonString(OS, R.File);
    OS << ", \"line\": " << R.Line << ", \"function\": ";
    writeJsonString(OS, R.FunctionName);
    OS << ", \"message\": ";
    writeJsonString(OS, R.Message);
    if (!R.Annotation.empty()) {
      OS << ", \"class\": ";
      writeJsonString(OS, R.Annotation);
    }
    if (!R.RuleKey.empty()) {
      OS << ", \"rule\": ";
      writeJsonString(OS, R.RuleKey);
      OS.printf(", \"z\": %.4f", ruleZ(R.RuleKey));
    }
    OS << ", \"interprocedural\": " << (R.Interprocedural ? "true" : "false")
       << ", \"distance\": " << R.DistanceLines << ", \"conditionals\": "
       << R.Conditionals;
    std::string Hex;
    appendHex64(R.Fingerprint, Hex);
    OS << ", \"fingerprint\": \"" << Hex << '"';
    if (auto It = Lifecycle.find(R.Fingerprint); It != Lifecycle.end()) {
      OS << ", \"lifecycle\": ";
      writeJsonString(OS, It->second);
    }
    OS << "}";
    if (Rank + 1 != Order.size())
      OS << ',';
    OS << '\n';
  }
  OS << "]\n";
  if (Incidents.empty())
    return;
  OS << "{\"analysis_incomplete\": ";
  renderIncidentsJson(OS, Incidents);
  OS << "}\n";
}

void ReportManager::print(raw_ostream &OS, RankPolicy Policy) const {
  std::vector<size_t> Order = ranked(Policy);
  for (size_t Rank = 0; Rank != Order.size(); ++Rank) {
    const ErrorReport &R = Reports[Order[Rank]];
    OS << '[' << (Rank + 1) << "] ";
    if (!R.Annotation.empty())
      OS << '<' << R.Annotation << "> ";
    OS << R.File << ':' << R.Line << ": in " << R.FunctionName << ": ["
       << R.CheckerName << "] " << R.Message;
    if (R.Interprocedural)
      OS << " (interprocedural, depth " << R.CallChainLength << ')';
    if (!R.RuleKey.empty())
      OS.printf(" {rule %s z=%.2f}", R.RuleKey.c_str(), ruleZ(R.RuleKey));
    if (auto It = Lifecycle.find(R.Fingerprint); It != Lifecycle.end())
      OS << " [" << It->second << ']';
    OS << '\n';
  }
  renderIncidentsText(OS, Incidents);
}
