//===- bench/alloc_arena.cpp - Arena + flat state microbench ----------------===//
//
// Part of the metal/xgcc reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Gate for the flat-state memory architecture (>= 1.5x on the medians of
// five interleaved repetitions): replays the engine's tuple-churn loop —
// fork-copy the SMInstance, materialize its tuple set, probe/insert the
// block cache, build the exit-dedup key — against the historical
// string-keyed layout (std::string TreeKey/Data, tuples in a std::set
// ordered by string compares, serialized dedup keys) and against the
// current layout (interned symbols, arena-backed TupleSpan, hashed tuple
// set, the engine's StateKey for dedup).
//
//===----------------------------------------------------------------------===//

#include "BenchJson.h"
#include "WorkloadGen.h"
#include "metal/State.h"
#include "support/Allocator.h"
#include "support/RawOstream.h"

#include <set>
#include <string>
#include <unordered_set>
#include <vector>

using namespace mc;
using namespace mc::bench;

namespace {

/// The pre-interning layout, reproduced verbatim: every key a heap string,
/// ordering and equality by string compares.
struct LegacyVarState {
  std::string TreeKey;
  int Value = 1;
  std::string Data;
};

struct LegacyTuple {
  int GState = 0;
  std::string TreeKey;
  int Value = 0;
  std::string Data;

  bool operator<(const LegacyTuple &R) const {
    if (GState != R.GState)
      return GState < R.GState;
    if (TreeKey != R.TreeKey)
      return TreeKey < R.TreeKey;
    if (Value != R.Value)
      return Value < R.Value;
    return Data < R.Data;
  }
};

/// exprKey-shaped tracked-object keys ("b->data@w.c:51"-ish).
std::string churnKey(unsigned I) {
  return "obj" + std::to_string(I) + "->field@churn.c:" + std::to_string(40 + I);
}

/// One round of the legacy loop over \p Keys: fork, tuplesOf, cache
/// probe/insert, exit-key serialization. Returns a value data-dependent on
/// the round so the optimizer cannot fold rounds together.
size_t legacyRound(const std::vector<LegacyVarState> &SMI,
                   std::set<LegacyTuple> &Cache, std::set<std::string> &Dedup,
                   int Round) {
  std::vector<LegacyVarState> Fork = SMI; // path split: deep string copies
  Fork[Round % Fork.size()].Value = 1 + Round % 3;
  std::vector<LegacyTuple> Tuples;
  Tuples.reserve(Fork.size());
  for (const LegacyVarState &VS : Fork)
    Tuples.push_back(LegacyTuple{1, VS.TreeKey, VS.Value, VS.Data});
  // Block-cache subset test, then insertion of the misses.
  size_t Hits = 0;
  for (const LegacyTuple &T : Tuples)
    Hits += Cache.count(T);
  for (const LegacyTuple &T : Tuples)
    Cache.insert(T);
  // Exit-state dedup: serialize the whole set into one key.
  std::string Key;
  for (const LegacyTuple &T : Tuples) {
    Key += std::to_string(T.GState);
    Key += '|';
    Key += T.TreeKey;
    Key += ':';
    Key += std::to_string(T.Value);
    Key += '#';
    Key += T.Data;
    Key += ';';
  }
  Dedup.insert(Key);
  return Hits + Dedup.size();
}

/// The same round over the real flat layout: VarState fork is a flat copy,
/// tuples land in a per-frame arena span, the cache is hashed, and the
/// dedup key is the engine's StateKey.
size_t internedRound(const SMInstance &SMI,
                     std::unordered_set<StateTuple, StateTupleHash> &Cache,
                     StateKeySet &Dedup, BumpPtrAllocator &Arena,
                     int Round) {
  BumpScope Scope(Arena);
  SMInstance Fork = SMI; // path split: memcpy of flat VarStates
  Fork.ActiveVars[Round % Fork.ActiveVars.size()].Value = 1 + Round % 3;
  TupleSpan Tuples = tuplesOf(Fork, Arena);
  size_t Hits = 0;
  for (const StateTuple &T : Tuples)
    Hits += Cache.count(T);
  for (const StateTuple &T : Tuples)
    Cache.insert(T);
  return Hits + Dedup.insert(Tuples);
}

struct MicroResult {
  double LegacyMs = 0;
  double InternedMs = 0;
  double speedup() const {
    return InternedMs > 0 ? LegacyMs / InternedMs : 0;
  }
};

MicroResult runMicro(unsigned NumVars, unsigned Rounds) {
  MicroResult R;

  std::vector<LegacyVarState> LegacySMI;
  SMInstance FlatSMI;
  FlatSMI.GState = 1;
  for (unsigned I = 0; I < NumVars; ++I) {
    std::string Key = churnKey(I);
    LegacySMI.push_back(LegacyVarState{Key, 1, "kfree"});
    VarState VS;
    VS.TreeKey = symbolize(Key);
    VS.Value = 1;
    VS.Data = symbolize("kfree");
    FlatSMI.ActiveVars.push_back(VS);
  }

  size_t Acc = 0;
  {
    std::set<LegacyTuple> Cache;
    std::set<std::string> Dedup;
    BenchTimer T;
    for (unsigned I = 0; I < Rounds; ++I)
      Acc += legacyRound(LegacySMI, Cache, Dedup, int(I));
    R.LegacyMs = T.ms();
  }
  {
    std::unordered_set<StateTuple, StateTupleHash> Cache;
    StateKeySet Dedup;
    BumpPtrAllocator Arena;
    BenchTimer T;
    for (unsigned I = 0; I < Rounds; ++I)
      Acc += internedRound(FlatSMI, Cache, Dedup, Arena, int(I));
    R.InternedMs = T.ms();
  }
  // Keep the accumulated value observable so rounds cannot be folded away.
  volatile size_t Sink = Acc;
  (void)Sink;
  return R;
}

} // namespace

int main(int argc, char **argv) {
  const bool Smoke = smokeMode(argc, argv);
  BenchTimer Timer;
  raw_ostream &OS = outs();

  const unsigned NumVars = Smoke ? 8 : 24;
  const unsigned Rounds = Smoke ? 2000 : 20000;

  OS << "==== Arena + flat state: representation microbench ====\n";
  // Warm once (interner population, allocator slabs), then measure. Each
  // side of the gate is the median of interleaved repetitions: one run
  // lasts a few milliseconds, so a single sample is at a neighbour's mercy.
  runMicro(NumVars, Rounds / 4);
  const unsigned Reps = 5;
  std::vector<double> LegacyMs, InternedMs;
  for (unsigned I = 0; I < Reps; ++I) {
    MicroResult Rep = runMicro(NumVars, Rounds);
    LegacyMs.push_back(Rep.LegacyMs);
    InternedMs.push_back(Rep.InternedMs);
  }
  MicroResult Micro{median(LegacyMs), median(InternedMs)};
  OS.printf("%u vars x %u rounds, median of %u: legacy %.2f ms, interned "
            "%.2f ms (%.2fx)\n",
            NumVars, Rounds, Reps, Micro.LegacyMs, Micro.InternedMs,
            Micro.speedup());
  bool Ok = Micro.speedup() >= 1.5;
  OS << (Ok ? "gate: interned layout >= 1.5x on tuple churn\n"
            : "GATE FAILED: speedup below 1.5x\n");

  BenchJson("alloc_arena")
      .num("wall_ms", Timer.ms())
      .num("micro_legacy_ms", Micro.LegacyMs)
      .num("micro_interned_ms", Micro.InternedMs)
      .num("micro_speedup", Micro.speedup())
      .flag("ok", Ok)
      .emit(OS);

  return Ok ? 0 : 1;
}
