//===- engine/Summaries.cpp - Block/suffix/function summaries ----------------===//
//
// Part of the metal/xgcc reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "engine/Summaries.h"

#include "support/Hash.h"

#include <algorithm>

using namespace mc;

void mc::relaxSuffixSummaries(const std::vector<BacktraceEntry> &Backtrace,
                              FunctionSummaries &FS) {
  if (Backtrace.size() < 2)
    return;
  for (size_t I = Backtrace.size() - 1; I-- > 0;) {
    BlockSummary &Prev = FS.of(Backtrace[I].Block);
    const BlockSummary &Next = FS.of(Backtrace[I + 1].Block);
    bool Grew = false;
    for (const SummaryEdge &E : Next.SuffixEdges) {
      // Suffix summaries intentionally omit edges that end in stop, and
      // never record local variables (Figure 5).
      if (E.To.Value == StateStop && !E.To.isPlaceholder())
        continue;
      if (!E.To.isPlaceholder() && !FS.keepsTree(E.To.TreeKey))
        continue;
      if (E.isAdd()) {
        // An add edge's start "matches" any global-only edge of the previous
        // block whose end has the same global value (Section 6.2).
        for (const SummaryEdge &P : Prev.Edges) {
          if (!P.isGlobalOnly() || P.To.GState != E.From.GState)
            continue;
          SummaryEdge NewE{
              StateTuple{P.From.GState, E.From.TreeKey, StateUnknown, {}},
              E.To, E.ToTree, E.FactKey};
          if (Prev.SuffixEdges.insert(NewE).second)
            Grew = true;
        }
        continue;
      }
      // A transition suffix edge chains with any block edge (transition or
      // add) whose end tuple equals its start tuple.
      for (const SummaryEdge &P : Prev.Edges) {
        if (P.To != E.From)
          continue;
        // When P is an add edge the composition is still an add edge and the
        // creation fact travels with it; transition edges carry no fact.
        SummaryEdge NewE{P.From, E.To, E.ToTree, P.FactKey};
        if (!NewE.From.isPlaceholder() && !FS.keepsTree(NewE.From.TreeKey) &&
            !NewE.isAdd())
          continue;
        if (Prev.SuffixEdges.insert(NewE).second)
          Grew = true;
      }
    }
    // "The algorithm stops when ... no new edges are propagated."
    if (!Grew)
      break;
  }
}

//===----------------------------------------------------------------------===//
// Summary digests (incremental cache cross-checks)
//===----------------------------------------------------------------------===//

namespace {

// Symbols may contain any byte; the record format is line- and
// tab-delimited, so those two and the escape itself get escaped.
void escapeTo(std::string_view S, std::string &Out) {
  for (char C : S) {
    switch (C) {
    case '\\':
      Out += "\\\\";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\n':
      Out += "\\n";
      break;
    default:
      Out.push_back(C);
    }
  }
}

void tupleTo(const StateTuple &T, std::string &Out) {
  Out += std::to_string(T.GState);
  Out.push_back('\t');
  escapeTo(symbolText(T.TreeKey), Out);
  Out.push_back('\t');
  Out += std::to_string(T.Value);
  Out.push_back('\t');
  escapeTo(symbolText(T.Data), Out);
}

/// The canonical text that functionSummaryDigest hashes.
std::string serializeFunctionSummary(const BlockSummary &Summary) {
  std::string Out = "mc-summary-v1\n";
  std::vector<StateTuple> Entry(Summary.Reached.begin(),
                                Summary.Reached.end());
  std::sort(Entry.begin(), Entry.end());
  for (const StateTuple &T : Entry) {
    Out += "entry\t";
    tupleTo(T, Out);
    Out.push_back('\n');
  }
  for (const SummaryEdge &E : Summary.SuffixEdges) {
    Out += "edge\t";
    tupleTo(E.From, Out);
    Out.push_back('\t');
    tupleTo(E.To, Out);
    Out.push_back('\t');
    escapeTo(symbolText(E.FactKey), Out);
    Out.push_back('\n');
  }
  return Out;
}

} // namespace

uint64_t mc::functionSummaryDigest(const BlockSummary &Summary) {
  return fnv1a64(serializeFunctionSummary(Summary));
}
