//===- tests/state_intern_test.cpp - Interned state determinism --------------===//
//
// Part of the metal/xgcc reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Contracts of the flat-state memory architecture:
//
//  - the global symbol table round-trips text and compares in text order,
//    whatever order symbols were interned in;
//  - StateKey, the engine's one dedup key, identifies a tuple *multiset*
//    plus a path annotation, insensitive to element order;
//  - rendered reports are byte-identical across job counts and across
//    repeat runs (with their different symbol interning orders).
//
// Lives in the parallel suite: symbol interning is the one piece of shared
// mutable state on the analysis hot path, so TSan must see these runs.
//
//===----------------------------------------------------------------------===//

#include "driver/Tool.h"
#include "metal/State.h"
#include "support/RawOstream.h"

#include "gtest/gtest.h"

#include <string>
#include <vector>

using namespace mc;

namespace {

TEST(SymbolTable, RoundTripAndEmptyIsZero) {
  EXPECT_EQ(symbolize(""), 0u);
  EXPECT_EQ(symbolText(0), "");
  uint32_t A = symbolize("state_intern_test.p->buf");
  EXPECT_NE(A, 0u);
  EXPECT_EQ(symbolize("state_intern_test.p->buf"), A);
  EXPECT_EQ(symbolText(A), "state_intern_test.p->buf");
}

TEST(SymbolTable, LookupNeverInterns) {
  const char *Key = "state_intern_test.never-interned-key";
  EXPECT_EQ(lookupSymbol(Key), 0u);
  uint32_t A = symbolize(Key);
  EXPECT_EQ(lookupSymbol(Key), A);
}

TEST(SymbolTable, ComparesInTextOrderNotIdOrder) {
  // Intern in reverse text order so id order and text order disagree.
  uint32_t Z = symbolize("state_intern_test.zz");
  uint32_t M = symbolize("state_intern_test.mm");
  uint32_t A = symbolize("state_intern_test.aa");
  EXPECT_LT(Z, M); // id order is intern order...
  EXPECT_LT(M, A);
  EXPECT_TRUE(symbolTextLess(A, M)); // ...text order is not
  EXPECT_TRUE(symbolTextLess(M, Z));
  EXPECT_FALSE(symbolTextLess(Z, A));
  EXPECT_FALSE(symbolTextLess(A, A));
}

TEST(SymbolTable, TupleOrderingMatchesStringOrdering) {
  StateTuple T1{1, symbolize("state_intern_test.a"), 2, 0};
  StateTuple T2{1, symbolize("state_intern_test.b"), 1, 0};
  // (gstate, key) decides before value — exactly as the string layout did.
  EXPECT_LT(T1, T2);
  EXPECT_FALSE(T2 < T1);
  StateTuple Placeholder{1, 0, StateStop, 0};
  EXPECT_TRUE(Placeholder.isPlaceholder());
  EXPECT_LT(Placeholder, T1); // "" sorts first
}

TupleSpan spanOf(const std::vector<StateTuple> &Tuples) {
  return TupleSpan{Tuples.data(), uint32_t(Tuples.size())};
}

StateKey keyOf(const std::vector<StateTuple> &Tuples,
               std::string_view Annotation = {}) {
  StateKey K;
  K.assign(spanOf(Tuples), Annotation);
  return K;
}

TEST(StateKey, SameMultisetSameKey) {
  StateTuple A{1, symbolize("state_intern_test.x"), 2, 0};
  StateTuple B{1, symbolize("state_intern_test.y"), 3, 0};
  std::vector<StateTuple> AB{A, B}, BA{B, A}, AA{A, A}, JustA{A};
  EXPECT_EQ(keyOf(AB), keyOf(BA));
  EXPECT_NE(keyOf(AA), keyOf(AB)); // multiset, not set
  EXPECT_NE(keyOf(JustA), keyOf(AA));
  // The same tuples on paths with different annotations are different
  // exit states.
  EXPECT_NE(keyOf(AB, "ERROR"), keyOf(AB));
  EXPECT_NE(keyOf(AB, "ERROR"), keyOf(AB, "SECURITY"));
  EXPECT_EQ(keyOf(AB, "ERROR"), keyOf(BA, "ERROR"));

  // The set agrees with the key: one entry per (multiset, annotation).
  StateKeySet Seen;
  EXPECT_TRUE(Seen.insert(spanOf(AB)));
  EXPECT_FALSE(Seen.insert(spanOf(BA)));
  EXPECT_TRUE(Seen.insert(spanOf(AA)));
  EXPECT_TRUE(Seen.insert(spanOf(JustA)));
  EXPECT_FALSE(Seen.insert(spanOf(JustA)));
  EXPECT_TRUE(Seen.insert(spanOf(BA), "ERROR"));
  EXPECT_FALSE(Seen.insert(spanOf(AB), "ERROR"));
  EXPECT_TRUE(Seen.insert(spanOf(AB), "SECURITY"));
}

//===----------------------------------------------------------------------===//
// Engine-level determinism
//===----------------------------------------------------------------------===//

std::string makeTU(unsigned Tag) {
  std::string T = std::to_string(Tag);
  std::string S = "void kfree(void *p);\n";
  S += "int s" + T + "_helper(int *x) { kfree(x); return 0; }\n";
  S += "int s" + T + "_root(int *p, int *q, int c) {\n"
       "  kfree(q);\n"
       "  s" + T + "_helper(p);\n"
       "  if (c)\n"
       "    return *q;\n"
       "  return *p;\n"
       "}\n";
  return S;
}

std::string runRendered(unsigned Jobs) {
  XgccTool Tool;
  for (unsigned I = 0; I < 4; ++I)
    EXPECT_TRUE(Tool.addSource("s" + std::to_string(I) + ".c", makeTU(I)));
  EXPECT_TRUE(Tool.addBuiltinChecker("free"));
  EngineOptions Opts;
  Opts.Jobs = Jobs;
  Tool.run(Opts);
  std::string Rendered;
  raw_string_ostream OS(Rendered);
  Tool.reports().print(OS, RankPolicy::Generic);
  EXPECT_GT(Tool.reports().size(), 0u);
  return Rendered;
}

TEST(StateInterning, ReportsIdenticalAcrossJobCounts) {
  std::string Serial = runRendered(1);
  EXPECT_EQ(Serial, runRendered(4));
  EXPECT_EQ(Serial, runRendered(8));
}

TEST(StateInterning, ReportsIdenticalAcrossRepeatRuns) {
  // A second run sees a symbol table already populated by the first (and by
  // every other test): interning order differs, text order — and therefore
  // report bytes — must not.
  std::string First = runRendered(4);
  EXPECT_EQ(First, runRendered(4));
}

} // namespace
