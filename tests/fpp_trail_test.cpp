//===- tests/fpp_trail_test.cpp - Backtracking transparency of FPP ------------===//
//
// Part of the metal/xgcc reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Seeded property tests for false-path pruning's undo trail. Random
// operation sequences run with nested marks; after every undo, each query
// must answer exactly as a copy taken at the mark did, and the contradiction
// flag must agree with a brute-force strict-cycle search. These live in the
// parallel label so the ASan and TSan presets run them too.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "fpp/CongruenceClosure.h"
#include "fpp/ValueTracker.h"

using namespace mc;
using namespace mc::test;

namespace {

/// splitmix64: the only randomness, so a failing seed replays exactly.
struct Rng {
  uint64_t State;
  uint64_t next() {
    uint64_t Z = (State += 0x9e3779b97f4a7c15ULL);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
    return Z ^ (Z >> 31);
  }
  unsigned below(unsigned N) { return unsigned(next() % N); }
  bool coin() { return next() & 1; }
};

const char *triText(Tri T) {
  return T == Tri::True ? "T" : T == Tri::False ? "F" : "?";
}

/// Every equal, less and constantOf answer over \p Pool, plus the
/// contradiction flag, as one string so a mismatch prints both sides.
std::string closureAnswers(const CongruenceClosure &CC,
                           const std::vector<TermId> &Pool) {
  std::string Out = CC.contradictory() ? "contradictory\n" : "consistent\n";
  for (TermId A : Pool) {
    std::optional<long long> C = CC.constantOf(A);
    Out += C ? std::to_string(*C) : "-";
    Out += ':';
    for (TermId B : Pool) {
      Out += triText(CC.equal(A, B));
      Out += triText(CC.less(A, B, true));
      Out += triText(CC.less(A, B, false));
      Out += ' ';
    }
    Out += '\n';
  }
  return Out;
}

TEST(FppTrail, ClosureUndoMatchesACopyTakenAtTheMark) {
  const char *Ops[] = {"+", "*"};
  for (uint64_t Seed = 1; Seed <= 150; ++Seed) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    Rng R{Seed};
    CongruenceClosure CC;
    std::vector<TermId> Pool;
    struct Saved {
      CongruenceClosure::Mark M;
      CongruenceClosure Copy;
      size_t PoolSize;
    };
    std::vector<Saved> Marks;
    auto Pick = [&] { return Pool[R.below(Pool.size())]; };
    auto UndoOne = [&] {
      Saved S = std::move(Marks.back());
      Marks.pop_back();
      CC.undo(S.M);
      Pool.resize(S.PoolSize);
      ASSERT_EQ(closureAnswers(CC, Pool), closureAnswers(S.Copy, Pool));
    };
    for (unsigned Step = 0; Step < 250; ++Step) {
      if (Marks.empty())
        Marks.push_back(Saved{CC.mark(), CC, Pool.size()});
      // Operands are drawn before the call: argument evaluation order is
      // unspecified, and a seed must replay the same sequence anywhere.
      unsigned Op = R.below(Pool.size() < 3 ? 2 : 10);
      TermId A = Pool.empty() ? 0 : Pick(), B = Pool.empty() ? 0 : Pick();
      bool Ok = true;
      switch (Op) {
      case 0:
        Pool.push_back(CC.constant(int(R.below(5)) - 2));
        break;
      case 1:
        Pool.push_back(CC.variable("v" + std::to_string(R.below(6))));
        break;
      case 2:
        Pool.push_back(CC.apply(Ops[R.below(2)], A, B));
        break;
      case 3:
        Ok = CC.merge(A, B);
        break;
      case 4:
        Ok = CC.addDisequal(A, B);
        break;
      case 5:
      case 6:
        Ok = CC.addLess(A, B, R.coin());
        break;
      case 7:
        Marks.push_back(Saved{CC.mark(), CC, Pool.size()});
        break;
      default:
        UndoOne();
        break;
      }
      EXPECT_EQ(Ok, !CC.contradictory());
      // Like the engine, abandon a contradictory state by undoing it.
      if (CC.contradictory())
        UndoOne();
      if (HasFatalFailure())
        return;
    }
    while (!Marks.empty() && !HasFatalFailure())
      UndoOne();
  }
}

/// The ordering facts asserted so far, kept apart from the closure: a
/// union-find over the variables and the recorded edges.
struct OrderModel {
  static constexpr unsigned N = 6;
  unsigned Parent[N] = {0, 1, 2, 3, 4, 5};
  std::vector<std::tuple<unsigned, unsigned, bool>> Edges;

  unsigned find(unsigned V) const {
    while (Parent[V] != V)
      V = Parent[V];
    return V;
  }
  void merge(unsigned A, unsigned B) { Parent[find(A)] = find(B); }

  /// Brute force: close the class graph (0 none, 1 non-strict, 2 strict)
  /// and look for a class that reaches itself strictly.
  bool hasStrictCycle() const {
    unsigned Reach[N][N] = {};
    for (const auto &[A, B, Strict] : Edges) {
      unsigned &R = Reach[find(A)][find(B)];
      R = std::max(R, Strict ? 2u : 1u);
    }
    for (unsigned K = 0; K < N; ++K)
      for (unsigned I = 0; I < N; ++I)
        for (unsigned J = 0; J < N; ++J)
          if (Reach[I][K] && Reach[K][J])
            Reach[I][J] = std::max(
                Reach[I][J], std::max(Reach[I][K], Reach[K][J]));
    for (unsigned I = 0; I < N; ++I)
      if (Reach[I][I] == 2)
        return true;
    return false;
  }
};

TEST(FppTrail, ContradictionIsExactlyAStrictCycle) {
  for (uint64_t Seed = 1; Seed <= 300; ++Seed) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    Rng R{Seed};
    CongruenceClosure CC;
    TermId Vars[OrderModel::N];
    for (unsigned I = 0; I < OrderModel::N; ++I)
      Vars[I] = CC.variable("w" + std::to_string(I));
    OrderModel Model;
    std::vector<std::pair<CongruenceClosure::Mark, OrderModel>> Marks;
    for (unsigned Step = 0; Step < 80; ++Step) {
      if (Marks.empty())
        Marks.push_back({CC.mark(), Model});
      unsigned A = R.below(OrderModel::N), B = R.below(OrderModel::N);
      switch (R.below(6)) {
      case 0:
        CC.merge(Vars[A], Vars[B]);
        Model.merge(A, B);
        break;
      case 1:
      case 2: {
        bool Strict = R.coin();
        CC.addLess(Vars[A], Vars[B], Strict);
        Model.Edges.emplace_back(A, B, Strict);
        break;
      }
      case 3:
        Marks.push_back({CC.mark(), Model});
        break;
      default:
        CC.undo(Marks.back().first);
        Model = Marks.back().second;
        Marks.pop_back();
        break;
      }
      ASSERT_EQ(CC.contradictory(), Model.hasStrictCycle()) << "step " << Step;
      if (CC.contradictory()) {
        CC.undo(Marks.back().first);
        Model = Marks.back().second;
        Marks.pop_back();
        ASSERT_FALSE(CC.contradictory());
      }
    }
  }
}

/// Parses every probe expression in one translation unit, so variable
/// identity is shared across them (as it is inside the engine).
struct ProbeLab {
  SourceManager SM;
  DiagnosticEngine Diags{SM};
  ASTContext Ctx;
  std::vector<const Expr *> Exprs;

  explicit ProbeLab(const std::vector<std::string> &Probes) {
    std::string Src = "int x; int y; int z;\n";
    for (size_t I = 0; I != Probes.size(); ++I)
      Src += "int e" + std::to_string(I) + "(void) { return (" + Probes[I] +
             "); }\n";
    unsigned ID = SM.addBuffer("probe.c", Src);
    Parser P(Ctx, SM, Diags, ID);
    EXPECT_TRUE(P.parseTranslationUnit());
    for (size_t I = 0; I != Probes.size(); ++I) {
      const FunctionDecl *F = Ctx.findFunction("e" + std::to_string(I));
      Exprs.push_back(
          F ? cast<ReturnStmt>(F->body()->body()[0])->value() : nullptr);
    }
  }
};

/// Every evaluate and constantValue answer over the probes.
std::string trackerAnswers(const ValueTracker &VT,
                           const std::vector<const Expr *> &Probes) {
  std::string Out;
  for (const Expr *E : Probes) {
    Out += triText(VT.evaluate(E));
    std::optional<long long> C = VT.constantValue(E);
    Out += C ? std::to_string(*C) : "-";
    Out += ' ';
  }
  return Out;
}

TEST(FppTrail, TrackerUndoMatchesACopyTakenAtTheMark) {
  // Targets first, then right-hand sides, then branch conditions.
  const std::vector<std::string> Probes = {
      "x", "y", "z",                                          // 0-2
      "0", "1", "2", "x + 1", "y - z", "x * 2",               // 3-8
      "x == y", "x < y", "y <= z", "x != 1", "!y", "z > x",   // 9-14
      "x == 1 && y == 2", "x == 0 || z == 2", "x + 1 == y"};  // 15-17
  ProbeLab L(Probes);
  ASSERT_EQ(L.Exprs.size(), Probes.size());
  for (const Expr *E : L.Exprs)
    ASSERT_NE(E, nullptr);
  for (uint64_t Seed = 1; Seed <= 150; ++Seed) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    Rng R{Seed};
    ValueTracker VT;
    std::vector<std::pair<ValueTracker::Mark, ValueTracker>> Marks;
    auto UndoOne = [&] {
      VT.undo(Marks.back().first);
      ASSERT_EQ(trackerAnswers(VT, L.Exprs),
                trackerAnswers(Marks.back().second, L.Exprs));
      Marks.pop_back();
    };
    for (unsigned Step = 0; Step < 200; ++Step) {
      if (Marks.empty())
        Marks.push_back({VT.mark(), VT});
      unsigned Op = R.below(8);
      const Expr *Target = L.Exprs[R.below(3)];
      const Expr *Value = L.Exprs[R.below(9)];
      const Expr *Cond = L.Exprs[9 + R.below(9)];
      bool Taken = R.coin();
      switch (Op) {
      case 0:
      case 1:
        VT.assign(Target, Value);
        break;
      case 2:
        VT.havoc(Target);
        break;
      case 3:
      case 4:
        if (!VT.assume(Cond, Taken))
          UndoOne(); // Like the engine: an infeasible branch is undone.
        break;
      case 5:
        Marks.push_back({VT.mark(), VT});
        break;
      default:
        UndoOne();
        break;
      }
      if (HasFatalFailure())
        return;
    }
    while (!Marks.empty() && !HasFatalFailure())
      UndoOne();
  }
}

} // namespace
