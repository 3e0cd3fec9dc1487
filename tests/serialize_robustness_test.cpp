//===- tests/serialize_robustness_test.cpp - Reader hardening ------------------===//
//
// Part of the metal/xgcc reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The .mast reader consumes files from disk; it must reject (not crash on)
// arbitrary corruption. Deterministic mutation sweep over a real image.
//
//===----------------------------------------------------------------------===//

#include "../bench/WorkloadGen.h"
#include "cfront/Parser.h"
#include "cfront/Serialize.h"

#include <gtest/gtest.h>

using namespace mc;
using namespace mc::bench;

namespace {

std::string buildImage() {
  SourceManager SM;
  DiagnosticEngine Diags(SM);
  ASTContext Ctx;
  MiniKernel MK = miniKernel(10, 7);
  unsigned ID = SM.addBuffer("mk.c", MK.Source);
  Parser P(Ctx, SM, Diags, ID);
  EXPECT_TRUE(P.parseTranslationUnit());
  return writeMast(Ctx);
}

TEST(SerializeRobustness, SingleByteFlips) {
  std::string Image = buildImage();
  Lcg Rng(99);
  // Flip one byte at a time at 200 deterministic positions: the reader must
  // either succeed (the byte may be in a don't-care gap) or fail cleanly.
  for (int Trial = 0; Trial < 200; ++Trial) {
    std::string Mutated = Image;
    size_t Pos = Rng.below(Mutated.size());
    Mutated[Pos] = char(Rng.next() & 0xff);
    ASTContext Fresh;
    std::string Error;
    (void)readMast(Mutated, Fresh, &Error);
    // Reaching here without a crash is the assertion.
  }
  SUCCEED();
}

TEST(SerializeRobustness, TruncationSweep) {
  std::string Image = buildImage();
  for (size_t Cut = 0; Cut < Image.size(); Cut += 97) {
    ASTContext Fresh;
    std::string Error;
    EXPECT_FALSE(readMast(Image.substr(0, Cut), Fresh, &Error))
        << "truncated image accepted at " << Cut;
  }
}

TEST(SerializeRobustness, RandomGarbage) {
  Lcg Rng(123);
  for (int Trial = 0; Trial < 50; ++Trial) {
    std::string Garbage = "MAST1\n"; // valid magic, garbage body
    unsigned Len = 16 + Rng.below(512);
    for (unsigned I = 0; I < Len; ++I)
      Garbage += char(Rng.next() & 0xff);
    ASTContext Fresh;
    std::string Error;
    (void)readMast(Garbage, Fresh, &Error);
  }
  SUCCEED();
}

TEST(SerializeRobustness, ByteInsertionsAndDeletions) {
  std::string Image = buildImage();
  Lcg Rng(7);
  for (int Trial = 0; Trial < 100; ++Trial) {
    std::string Mutated = Image;
    size_t Pos = Rng.below(Mutated.size());
    if (Rng.chance(50))
      Mutated.insert(Mutated.begin() + Pos, char(Rng.next() & 0xff));
    else
      Mutated.erase(Mutated.begin() + Pos);
    ASTContext Fresh;
    std::string Error;
    (void)readMast(Mutated, Fresh, &Error);
  }
  SUCCEED();
}

/// Parses \p Source as one redirected TU and returns its writeMastTU image.
std::string tuImage(const std::string &Source) {
  SourceManager SM;
  DiagnosticEngine Diags(SM);
  ASTContext Ctx;
  unsigned ID = SM.addBuffer("tu.c", Source);
  std::vector<Decl *> TopLevel;
  std::vector<FunctionDecl *> Fns;
  Parser P(Ctx, SM, Diags, ID);
  P.redirectTopLevel(TopLevel, Fns);
  EXPECT_TRUE(P.parseTranslationUnit());
  return writeMastTU(TopLevel, Fns, ID);
}

/// Reads \p Image back against a fresh context holding \p Source.
bool readTuImage(const std::string &Source, const std::string &Image,
                 std::string &Error) {
  SourceManager SM;
  ASTContext Ctx;
  unsigned ID = SM.addBuffer("tu.c", Source);
  std::vector<Decl *> TopLevel;
  std::vector<FunctionDecl *> Fns;
  Error.clear();
  return readMastTU(Image, Ctx, ID, TopLevel, Fns, &Error);
}

TEST(SerializeRobustness, OutOfRangeEnumBytesFailTheRead) {
  // Each pair of sources has the same length and differs in one enumerator,
  // so their images differ in exactly that enum's byte. The byte set one
  // past the enum's last enumerator must fail the read with an error (an
  // AST-store entry like that is then a diagnosed miss).
  struct Case {
    const char *Source, *Sibling;
    unsigned PastLast;
  };
  const Case Cases[] = {
      {"static int g;", "extern int g;", VarDecl::FileStatic + 1},
      {"int f(int x) { return -x; }", "int f(int x) { return ~x; }",
       UnaryOperator::PostDec + 1},
      {"int f(int x) { return x + x; }", "int f(int x) { return x - x; }",
       BinaryOperator::Comma + 1},
  };
  for (const Case &C : Cases) {
    std::string Image = tuImage(C.Source);
    std::string Sibling = tuImage(C.Sibling);
    ASSERT_EQ(Image.size(), Sibling.size()) << C.Source;
    std::vector<size_t> Differ;
    for (size_t I = 0; I < Image.size(); ++I)
      if (Image[I] != Sibling[I])
        Differ.push_back(I);
    ASSERT_EQ(Differ.size(), 1u) << C.Source;
    std::string Error;
    ASSERT_TRUE(readTuImage(C.Source, Image, Error)) << Error;
    Image[Differ[0]] = char(C.PastLast);
    EXPECT_FALSE(readTuImage(C.Source, Image, Error)) << C.Source;
    EXPECT_FALSE(Error.empty()) << C.Source;
  }
}

TEST(SerializeRobustness, EmptyAndTinyInputs) {
  for (const char *Input : {"", "M", "MAST1", "MAST1\n", "MAST1\nx"}) {
    ASTContext Fresh;
    std::string Error;
    (void)readMast(Input, Fresh, &Error);
  }
  SUCCEED();
}

} // namespace
