//===- fpp/CongruenceClosure.cpp - Congruence closure over terms -------------===//
//
// Part of the metal/xgcc reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "fpp/CongruenceClosure.h"

#include "metal/State.h" // symbolize

#include <cassert>

using namespace mc;

void CongruenceClosure::undo(Mark M) {
  assert(M <= Trail.size() && "undo past a mark that was already undone");
  while (Trail.size() > M) {
    const Undo U = Trail.back();
    Trail.pop_back();
    switch (U.K) {
    case Undo::NewConstant:
      Constants.erase(*Nodes.back().Const);
      Nodes.pop_back();
      break;
    case Undo::NewVariable:
      Variables.erase(VarTrail.back());
      VarTrail.pop_back();
      Nodes.pop_back();
      break;
    case Undo::NewApp: {
      const Node &N = Nodes.back();
      AppSignatures.erase(AppKey{N.Op, N.Arg0, N.Arg1});
      Nodes[N.Arg1].Uses.pop_back();
      Nodes[N.Arg0].Uses.pop_back();
      Nodes.pop_back();
      break;
    }
    case Undo::Signature: {
      // Every later mutation is already undone, so the argument classes are
      // the ones the signature was recorded under.
      const Node &N = Nodes[U.Node];
      AppSignatures.erase(AppKey{N.Op, find(N.Arg0), find(N.Arg1)});
      break;
    }
    case Undo::Link: {
      Node &Child = Nodes[U.Node];
      Node &Parent = Nodes[Child.Parent];
      Child.Parent = U.Node;
      Parent.Rank = U.Rank;
      if (!U.HadConst)
        Parent.Const.reset();
      Parent.Uses.resize(U.NumUses);
      Parent.Diseqs.resize(U.NumDiseqs);
      Parent.Less.resize(U.NumLess);
      break;
    }
    case Undo::Diseq:
      Nodes[U.Node].Diseqs.pop_back();
      break;
    case Undo::Less:
      Nodes[U.Node].Less.pop_back();
      break;
    case Undo::Contradiction:
      Contradiction = false;
      break;
    }
  }
}

TermId CongruenceClosure::fresh(Undo::Kind K) {
  Nodes.push_back(Node{});
  Nodes.back().Parent = Nodes.size() - 1;
  Trail.push_back(Undo{K});
  return Nodes.size() - 1;
}

bool CongruenceClosure::contradict() {
  if (!Contradiction) {
    Contradiction = true;
    Trail.push_back(Undo{Undo::Contradiction});
  }
  return false;
}

TermId CongruenceClosure::constant(long long V) {
  auto It = Constants.find(V);
  if (It != Constants.end())
    return It->second;
  TermId T = fresh(Undo::NewConstant);
  Nodes[T].Const = V;
  Constants.emplace(V, T);
  return T;
}

TermId CongruenceClosure::variable(const std::string &Name) {
  return variable(nullptr, symbolize(Name));
}

TermId CongruenceClosure::variable(const void *DeclKey, unsigned Version) {
  VarKey Key{DeclKey, Version};
  auto It = Variables.find(Key);
  if (It != Variables.end())
    return It->second;
  TermId T = fresh(Undo::NewVariable);
  Variables.emplace(Key, T);
  VarTrail.push_back(Key);
  return T;
}

TermId CongruenceClosure::apply(uint32_t Op, TermId A, TermId B) {
  TermId RA = find(A), RB = find(B);
  AppKey Sig{Op, RA, RB};
  auto It = AppSignatures.find(Sig);
  if (It != AppSignatures.end())
    return It->second;
  TermId T = fresh(Undo::NewApp);
  Node &N = Nodes[T];
  N.IsApp = true;
  N.Op = Op;
  N.Arg0 = RA;
  N.Arg1 = RB;
  AppSignatures.emplace(Sig, T);
  Nodes[RA].Uses.push_back(T);
  Nodes[RB].Uses.push_back(T);
  return T;
}

TermId CongruenceClosure::apply(const std::string &Op, TermId A, TermId B) {
  return apply(symbolize(Op), A, B);
}

TermId CongruenceClosure::find(TermId A) const {
  // No path compression: it would be one more mutation to log, and union by
  // rank already bounds the walk by log2 of the class size.
  while (A && Nodes[A].Parent != A)
    A = Nodes[A].Parent;
  return A;
}

std::optional<long long> CongruenceClosure::constantOf(TermId A) const {
  return A ? Nodes[find(A)].Const : std::nullopt;
}

bool CongruenceClosure::unionClasses(TermId A, TermId B) {
  TermId RA = find(A), RB = find(B);
  if (RA == RB)
    return true;
  // Constant conflicts are contradictions.
  if (Nodes[RA].Const && Nodes[RB].Const &&
      *Nodes[RA].Const != *Nodes[RB].Const)
    return contradict();
  // Disequality violations: both classes list every disequality that
  // touches them, so the shorter list suffices.
  TermId Short = RA, Other = RB;
  if (Nodes[RB].Diseqs.size() < Nodes[RA].Diseqs.size())
    std::swap(Short, Other);
  for (TermId D : Nodes[Short].Diseqs)
    if (find(D) == Other)
      return contradict();
  if (Nodes[RA].Rank < Nodes[RB].Rank)
    std::swap(RA, RB);
  Node &Parent = Nodes[RA];
  const Node &Child = Nodes[RB];
  Undo U{Undo::Link, Parent.Const.has_value(), RB, Parent.Rank};
  U.NumUses = Parent.Uses.size();
  U.NumDiseqs = Parent.Diseqs.size();
  U.NumLess = Parent.Less.size();
  Trail.push_back(U);
  Nodes[RB].Parent = RA;
  if (Parent.Rank == Child.Rank)
    ++Parent.Rank;
  if (!Parent.Const)
    Parent.Const = Child.Const;
  Parent.Uses.insert(Parent.Uses.end(), Child.Uses.begin(), Child.Uses.end());
  Parent.Diseqs.insert(Parent.Diseqs.end(), Child.Diseqs.begin(),
                       Child.Diseqs.end());
  Parent.Less.insert(Parent.Less.end(), Child.Less.begin(), Child.Less.end());
  if (!recongruence(RA))
    return false;
  // Before the union there was no strict cycle, so a new one must pass
  // through the merged class (find: recongruence may have merged it again).
  if (orderedPath(RA, RA, /*NeedStrict=*/true))
    return contradict();
  return true;
}

bool CongruenceClosure::recongruence(TermId MergedRep) {
  // Any two application terms whose signatures now coincide must be merged.
  // The use list only grows during nested unions, so walking the prefix
  // that existed on entry sees exactly the terms a copy would.
  for (size_t I = 0, E = Nodes[MergedRep].Uses.size(); I != E; ++I) {
    TermId U = Nodes[MergedRep].Uses[I];
    const Node &NU = Nodes[U];
    if (!NU.IsApp)
      continue;
    AppKey Sig{NU.Op, find(NU.Arg0), find(NU.Arg1)};
    auto It = AppSignatures.find(Sig);
    if (It == AppSignatures.end()) {
      AppSignatures.emplace(Sig, U);
      Trail.push_back(Undo{Undo::Signature, false, U});
      continue;
    }
    if (find(It->second) != find(U))
      if (!unionClasses(It->second, U))
        return false;
  }
  return true;
}

bool CongruenceClosure::merge(TermId A, TermId B) {
  if (!A || !B)
    return true;
  if (!unionClasses(A, B))
    return false;
  return !Contradiction;
}

bool CongruenceClosure::addDisequal(TermId A, TermId B) {
  if (!A || !B)
    return true;
  TermId RA = find(A), RB = find(B);
  if (RA == RB)
    return contradict();
  for (TermId D : Nodes[RA].Diseqs)
    if (find(D) == RB)
      return true; // Already recorded.
  Nodes[RA].Diseqs.push_back(RB);
  Trail.push_back(Undo{Undo::Diseq, false, RA});
  Nodes[RB].Diseqs.push_back(RA);
  Trail.push_back(Undo{Undo::Diseq, false, RB});
  return true;
}

bool CongruenceClosure::orderedPath(TermId A, TermId B, bool NeedStrict) const {
  // DFS over (class, strict-so-far) pairs along the per-class edge lists.
  // Constants contribute implicit edges via comparison at the endpoints only
  // (handled by less()). Seen bit 1: reached without a strict edge; bit 2:
  // reached with one, which subsumes bit 1.
  TermId From = find(A), Target = find(B);
  if (Nodes[From].Less.empty())
    return false;
  if (Seen.size() < Nodes.size())
    Seen.resize(Nodes.size());
  Stack.assign(1, {From, false});
  bool Found = false;
  while (!Found && !Stack.empty()) {
    auto [At, Strict] = Stack.back();
    Stack.pop_back();
    uint8_t Bit = Strict ? 2 : 1;
    if (Seen[At] & (Bit | 2))
      continue;
    if (!Seen[At])
      Visited.push_back(At);
    Seen[At] |= Bit;
    for (const auto &[To, EdgeStrict] : Nodes[At].Less) {
      bool NewStrict = Strict || EdgeStrict;
      TermId Next = find(To);
      if (Next == Target && (NewStrict || !NeedStrict)) {
        Found = true;
        break;
      }
      Stack.push_back({Next, NewStrict});
    }
  }
  for (TermId T : Visited)
    Seen[T] = 0;
  Visited.clear();
  return Found;
}

bool CongruenceClosure::addLess(TermId A, TermId B, bool Strict) {
  if (!A || !B)
    return true;
  TermId RA = find(A), RB = find(B);
  if (RA == RB)
    return Strict ? contradict() : true; // x <= x says nothing.
  auto CA = Nodes[RA].Const, CB = Nodes[RB].Const;
  if (CA && CB) {
    bool Holds = Strict ? *CA < *CB : *CA <= *CB;
    return Holds ? true : contradict();
  }
  for (const auto &[To, EdgeStrict] : Nodes[RA].Less)
    if ((EdgeStrict || !Strict) && find(To) == RB)
      return true; // Already recorded (or implied by a stricter edge).
  Nodes[RA].Less.push_back({RB, Strict});
  Trail.push_back(Undo{Undo::Less, false, RA});
  // There was no strict cycle before, so a new one must use this edge:
  // A -> B closes a strict cycle iff B reaches A, strictly unless the new
  // edge already is.
  if (orderedPath(RB, RA, /*NeedStrict=*/!Strict))
    return contradict();
  return true;
}

Tri CongruenceClosure::equal(TermId A, TermId B) const {
  if (!A || !B)
    return Tri::Unknown;
  TermId RA = find(A), RB = find(B);
  if (RA == RB)
    return Tri::True;
  auto CA = Nodes[RA].Const, CB = Nodes[RB].Const;
  if (CA && CB)
    return *CA == *CB ? Tri::True : Tri::False;
  for (TermId D : Nodes[RA].Diseqs)
    if (find(D) == RB)
      return Tri::False;
  // A strict ordering either way implies disequality.
  if (orderedPath(RA, RB, true) || orderedPath(RB, RA, true))
    return Tri::False;
  return Tri::Unknown;
}

Tri CongruenceClosure::less(TermId A, TermId B, bool Strict) const {
  if (!A || !B)
    return Tri::Unknown;
  TermId RA = find(A), RB = find(B);
  auto CA = Nodes[RA].Const, CB = Nodes[RB].Const;
  if (CA && CB)
    return (Strict ? *CA < *CB : *CA <= *CB) ? Tri::True : Tri::False;
  if (RA == RB)
    return Strict ? Tri::False : Tri::True;
  if (orderedPath(RA, RB, Strict))
    return Tri::True;
  // B <= A refutes A < B; B < A refutes A <= B.
  if (orderedPath(RB, RA, !Strict))
    return Tri::False;
  return Tri::Unknown;
}
