//===- metal/State.cpp - Extension state model -------------------------------===//
//
// Part of the metal/xgcc reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "metal/State.h"

#include "support/Allocator.h"
#include "support/Interner.h"

#include <algorithm>
#include <tuple>

using namespace mc;

uint32_t mc::symbolize(std::string_view S) {
  if (S.empty())
    return 0;
  return Interner::global().intern(S);
}

std::string_view mc::symbolText(uint32_t Sym) {
  if (!Sym)
    return {};
  return Interner::global().text(Sym);
}

uint32_t mc::lookupSymbol(std::string_view S) {
  if (S.empty())
    return 0;
  return Interner::global().lookup(S);
}

bool mc::symbolTextLess(uint32_t A, uint32_t B) {
  if (A == B)
    return false;
  return symbolText(A) < symbolText(B);
}

bool StateTuple::operator<(const StateTuple &RHS) const {
  // Field order matches the historical string layout: (GState, TreeKey,
  // Value, Data), with text comparison for the symbol fields so ordered
  // containers keep their pre-interning iteration order.
  if (GState != RHS.GState)
    return GState < RHS.GState;
  if (TreeKey != RHS.TreeKey)
    return symbolText(TreeKey) < symbolText(RHS.TreeKey);
  if (Value != RHS.Value)
    return Value < RHS.Value;
  if (Data != RHS.Data)
    return symbolText(Data) < symbolText(RHS.Data);
  return false;
}

std::vector<StateTuple> mc::tuplesOf(const SMInstance &SM) {
  std::vector<StateTuple> Tuples;
  for (const VarState &VS : SM.ActiveVars) {
    if (!VS.live() || VS.Inactive)
      continue;
    Tuples.push_back(StateTuple{SM.GState, VS.TreeKey, VS.Value, VS.Data});
  }
  if (Tuples.empty())
    Tuples.push_back(StateTuple{SM.GState, 0, StateStop, 0});
  return Tuples;
}

TupleSpan mc::tuplesOf(const SMInstance &SM, BumpPtrAllocator &Arena) {
  uint32_t Live = 0;
  for (const VarState &VS : SM.ActiveVars)
    if (VS.live() && !VS.Inactive)
      ++Live;
  uint32_t N = Live ? Live : 1;
  auto *Tuples = static_cast<StateTuple *>(
      Arena.allocate(sizeof(StateTuple) * N, alignof(StateTuple)));
  if (!Live) {
    Tuples[0] = StateTuple{SM.GState, 0, StateStop, 0};
    return TupleSpan{Tuples, 1};
  }
  uint32_t I = 0;
  for (const VarState &VS : SM.ActiveVars)
    if (VS.live() && !VS.Inactive)
      Tuples[I++] = StateTuple{SM.GState, VS.TreeKey, VS.Value, VS.Data};
  return TupleSpan{Tuples, Live};
}

void StateKey::assign(TupleSpan State, std::string_view Annot) {
  Tuples.assign(State.begin(), State.end());
  // Flat fields: no symbol-table lookups, and a total order because symbol
  // ids are canonical (equal text <=> equal id).
  std::sort(Tuples.begin(), Tuples.end(),
            [](const StateTuple &A, const StateTuple &B) {
              return std::tie(A.GState, A.TreeKey, A.Value, A.Data) <
                     std::tie(B.GState, B.TreeKey, B.Value, B.Data);
            });
  Annotation.assign(Annot);
}

size_t StateKeySet::Hash::operator()(const StateKey &K) const {
  size_t H = std::hash<std::string>()(K.Annotation);
  StateTupleHash TH;
  for (const StateTuple &T : K.Tuples)
    H = (H ^ TH(T)) * 0x100000001b3ull;
  return H;
}

bool StateKeySet::insert(TupleSpan State, std::string_view Annotation) {
  Probe.assign(State, Annotation);
  return Keys.insert(Probe).second;
}

std::string mc::tupleStr(const StateTuple &T,
                         const std::function<std::string(int)> &StateName,
                         std::string_view VarName) {
  std::string Out = "(";
  Out += StateName(T.GState);
  Out += ", ";
  if (T.isPlaceholder()) {
    Out += "<>";
  } else {
    Out.append(VarName);
    Out += ':';
    Out += symbolText(T.TreeKey);
    Out += "->";
    Out += T.Value == StateUnknown ? "unknown" : StateName(T.Value);
  }
  Out += ')';
  return Out;
}
