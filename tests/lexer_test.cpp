//===- tests/lexer_test.cpp - C lexer tests ----------------------------------===//
//
// Part of the metal/xgcc reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "cfront/Lexer.h"
#include "support/Diagnostics.h"

#include <gtest/gtest.h>

using namespace mc;

namespace {

std::vector<Token> lexText(const std::string &Text) {
  static SourceManager SM; // buffers must outlive the returned tokens
  unsigned ID = SM.addBuffer("t.c", Text);
  Lexer L(SM, ID, nullptr);
  std::vector<Token> Toks = L.lexAll();
  EXPECT_TRUE(Toks.back().is(Tok::Eof));
  Toks.pop_back();
  return Toks;
}

TEST(Lexer, IdentifiersAndKeywords) {
  auto Toks = lexText("int foo _bar if9 if");
  ASSERT_EQ(Toks.size(), 5u);
  EXPECT_EQ(Toks[0].Kind, Tok::KwInt);
  EXPECT_EQ(Toks[1].Kind, Tok::Identifier);
  EXPECT_EQ(Toks[1].Text, "foo");
  EXPECT_EQ(Toks[2].Kind, Tok::Identifier);
  EXPECT_EQ(Toks[3].Kind, Tok::Identifier); // if9 is not a keyword
  EXPECT_EQ(Toks[4].Kind, Tok::KwIf);
}

TEST(Lexer, IntegerLiterals) {
  auto Toks = lexText("0 42 0x1F 017 42u 42UL 7ll");
  for (const Token &T : Toks)
    EXPECT_EQ(T.Kind, Tok::IntLiteral) << T.Text;
  EXPECT_EQ(Toks[2].Text, "0x1F");
  EXPECT_EQ(Toks[4].Text, "42u");
}

TEST(Lexer, FloatLiterals) {
  auto Toks = lexText("1.5 2e10 3.25e-2 1.0f");
  for (const Token &T : Toks)
    EXPECT_EQ(T.Kind, Tok::FloatLiteral) << T.Text;
}

TEST(Lexer, DotAfterIntStaysSeparate) {
  // `1.x` must not lex as a float.
  auto Toks = lexText("a[1].f");
  ASSERT_EQ(Toks.size(), 6u);
  EXPECT_EQ(Toks[2].Kind, Tok::IntLiteral);
  EXPECT_EQ(Toks[4].Kind, Tok::Dot);
}

TEST(Lexer, StringAndCharLiterals) {
  auto Toks = lexText(R"("hi \"there\"" 'a' '\n')");
  ASSERT_EQ(Toks.size(), 3u);
  EXPECT_EQ(Toks[0].Kind, Tok::StringLiteral);
  EXPECT_EQ(Toks[1].Kind, Tok::CharLiteral);
  EXPECT_EQ(Toks[2].Kind, Tok::CharLiteral);
}

TEST(Lexer, CommentsAreSkipped) {
  auto Toks = lexText("a // line\n b /* block\n more */ c");
  ASSERT_EQ(Toks.size(), 3u);
  EXPECT_EQ(Toks[0].Text, "a");
  EXPECT_EQ(Toks[2].Text, "c");
}

struct PunctCase {
  const char *Text;
  Tok Kind;
};

// Names each case by its spelling. Without this, gtest prints the struct as
// raw bytes, pointer included, and the discovered test names change with
// every build.
void PrintTo(const PunctCase &C, std::ostream *OS) {
  *OS << ::testing::PrintToString(C.Text);
}

class LexerPunctTest : public ::testing::TestWithParam<PunctCase> {};

TEST_P(LexerPunctTest, LexesSingleToken) {
  auto Toks = lexText(GetParam().Text);
  ASSERT_EQ(Toks.size(), 1u) << GetParam().Text;
  EXPECT_EQ(Toks[0].Kind, GetParam().Kind) << GetParam().Text;
}

INSTANTIATE_TEST_SUITE_P(
    AllPunctuation, LexerPunctTest,
    ::testing::Values(
        PunctCase{"->", Tok::Arrow}, PunctCase{"...", Tok::Ellipsis},
        PunctCase{"++", Tok::PlusPlus}, PunctCase{"--", Tok::MinusMinus},
        PunctCase{"<<", Tok::LessLess}, PunctCase{">>", Tok::GreaterGreater},
        PunctCase{"<=", Tok::LessEqual}, PunctCase{">=", Tok::GreaterEqual},
        PunctCase{"==", Tok::EqualEqual}, PunctCase{"!=", Tok::ExclaimEqual},
        PunctCase{"&&", Tok::AmpAmp}, PunctCase{"||", Tok::PipePipe},
        PunctCase{"+=", Tok::PlusEqual}, PunctCase{"-=", Tok::MinusEqual},
        PunctCase{"*=", Tok::StarEqual}, PunctCase{"/=", Tok::SlashEqual},
        PunctCase{"%=", Tok::PercentEqual}, PunctCase{"&=", Tok::AmpEqual},
        PunctCase{"^=", Tok::CaretEqual}, PunctCase{"|=", Tok::PipeEqual},
        PunctCase{"<<=", Tok::LessLessEqual},
        PunctCase{">>=", Tok::GreaterGreaterEqual},
        PunctCase{"?", Tok::Question}, PunctCase{":", Tok::Colon},
        PunctCase{"~", Tok::Tilde}, PunctCase{"$", Tok::Dollar},
        PunctCase{"#", Tok::Hash}));

TEST(Lexer, MaximalMunch) {
  auto Toks = lexText("a+++b");
  // a ++ + b
  ASSERT_EQ(Toks.size(), 4u);
  EXPECT_EQ(Toks[1].Kind, Tok::PlusPlus);
  EXPECT_EQ(Toks[2].Kind, Tok::Plus);
}

TEST(Lexer, LocationsTrackOffsets) {
  auto Toks = lexText("ab cd");
  EXPECT_EQ(Toks[0].Loc.offset(), 0u);
  EXPECT_EQ(Toks[1].Loc.offset(), 3u);
}

TEST(Lexer, UnterminatedStringReportsError) {
  SourceManager SM;
  unsigned ID = SM.addBuffer("t.c", "\"oops");
  DiagnosticEngine Diags(SM);
  Lexer L(SM, ID, &Diags);
  L.lexAll();
  EXPECT_TRUE(Diags.hasErrors());
}

} // namespace
