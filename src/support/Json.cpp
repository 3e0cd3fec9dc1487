//===- support/Json.cpp - The JSON string writer and subset reader --------===//
//
// Part of the metal/xgcc reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"

#include "support/RawOstream.h"

#include <climits>

using namespace mc;

void mc::writeJsonString(raw_ostream &OS, std::string_view S) {
  OS << '"';
  for (char C : S) {
    switch (C) {
    case '"': OS << "\\\""; break;
    case '\\': OS << "\\\\"; break;
    case '\n': OS << "\\n"; break;
    case '\t': OS << "\\t"; break;
    case '\r': OS << "\\r"; break;
    default:
      if ((unsigned char)C < 0x20)
        OS.printf("\\u%04x", C);
      else
        OS << C;
    }
  }
  OS << '"';
}

namespace {
/// Deeper than any schema nests; a hostile line cannot recurse the reader
/// off the stack.
constexpr unsigned kMaxDepth = 64;

bool isDigit(char C) { return C >= '0' && C <= '9'; }
} // namespace

JsonReader::JsonReader(std::string_view Text, std::string *Err)
    : Text(Text), Err(Err) {
  if (Err)
    Err->clear();
}

bool JsonReader::failAt(size_t At, std::string_view Why) {
  if (!Failed) {
    Failed = true;
    if (Err)
      *Err = std::string(Why) + " at offset " + std::to_string(At);
  }
  return false;
}

void JsonReader::skipWs() {
  while (Pos < Text.size() && (Text[Pos] == ' ' || Text[Pos] == '\t' ||
                               Text[Pos] == '\n' || Text[Pos] == '\r'))
    ++Pos;
}

bool JsonReader::expect(char C) {
  skipWs();
  if (Pos >= Text.size() || Text[Pos] != C)
    return fail("unexpected character");
  ++Pos;
  return true;
}

bool JsonReader::open(char C) {
  if (!expect(C))
    return false;
  if (++Depth > kMaxDepth)
    return fail("nesting too deep");
  return true;
}

bool JsonReader::closeIf(char Close) {
  skipWs();
  if (Pos >= Text.size() || Text[Pos] != Close)
    return false;
  ++Pos;
  --Depth;
  return true;
}

bool JsonReader::next(char Close, const char *Why) {
  skipWs();
  if (Pos < Text.size() && Text[Pos] == ',') {
    ++Pos;
    return false;
  }
  if (!closeIf(Close))
    fail(Why);
  return true;
}

bool JsonReader::readString(std::string &Out) {
  skipWs();
  if (Pos >= Text.size() || Text[Pos] != '"')
    return fail("expected string");
  ++Pos;
  Out.clear();
  for (;;) {
    size_t Stop = Text.find_first_of("\"\\", Pos);
    if (Stop == std::string_view::npos) {
      Pos = Text.size();
      return fail("unterminated string");
    }
    Out.append(Text.substr(Pos, Stop - Pos));
    Pos = Stop + 1;
    if (Text[Stop] == '"')
      return true;
    if (Pos >= Text.size())
      return fail("truncated escape");
    switch (Text[Pos++]) {
    case '"': Out += '"'; break;
    case '\\': Out += '\\'; break;
    case '/': Out += '/'; break;
    case 'n': Out += '\n'; break;
    case 't': Out += '\t'; break;
    case 'r': Out += '\r'; break;
    case 'u': {
      if (Pos + 4 > Text.size())
        return fail("truncated \\u escape");
      unsigned V = 0;
      for (int I = 0; I != 4; ++I) {
        char H = Text[Pos++];
        V <<= 4;
        if (isDigit(H))
          V |= H - '0';
        else if (H >= 'a' && H <= 'f')
          V |= H - 'a' + 10;
        else if (H >= 'A' && H <= 'F')
          V |= H - 'A' + 10;
        else
          return fail("bad \\u escape");
      }
      // writeJsonString emits \u00XX only, for control bytes.
      Out += char(V & 0xff);
      break;
    }
    default:
      return fail("unknown escape");
    }
  }
}

bool JsonReader::readUInt(uint64_t &Out) {
  skipWs();
  const size_t Start = Pos;
  if (Pos >= Text.size() || !isDigit(Text[Pos]))
    return fail("expected number");
  uint64_t V = 0;
  for (; Pos < Text.size() && isDigit(Text[Pos]); ++Pos) {
    unsigned D = unsigned(Text[Pos] - '0');
    if (V > (UINT64_MAX - D) / 10)
      return failAt(Start, "number out of range");
    V = V * 10 + D;
  }
  Out = V;
  return true;
}

bool JsonReader::readUInt(unsigned &Out) {
  skipWs();
  const size_t Start = Pos;
  uint64_t V;
  if (!readUInt(V))
    return false;
  if (V > UINT_MAX)
    return failAt(Start, "number out of range");
  Out = unsigned(V);
  return true;
}

bool JsonReader::readBool(bool &Out) {
  skipWs();
  if (Text.substr(Pos, 4) == "true") {
    Pos += 4;
    Out = true;
    return true;
  }
  if (Text.substr(Pos, 5) == "false") {
    Pos += 5;
    Out = false;
    return true;
  }
  return fail("expected boolean");
}

bool JsonReader::skipValue() {
  skipWs();
  if (Pos >= Text.size())
    return fail("expected value");
  switch (Text[Pos]) {
  case '"': {
    std::string Tmp;
    return readString(Tmp);
  }
  case '{':
    return readObject([&](const std::string &) { return skipValue(); });
  case '[':
    return readArray([&] { return skipValue(); });
  case 't':
  case 'f': {
    bool B;
    return readBool(B);
  }
  case '-': // A newer writer's signed field: skipped, never read.
    ++Pos;
    break;
  }
  const size_t Start = Pos;
  while (Pos < Text.size() && isDigit(Text[Pos]))
    ++Pos;
  return Pos != Start || fail("unsupported value");
}

bool JsonReader::readStringArray(std::vector<std::string> &Out) {
  Out.clear();
  return readArray([&] {
    Out.emplace_back();
    return readString(Out.back());
  });
}

bool JsonReader::atEnd() {
  skipWs();
  return Pos == Text.size();
}
