//===- support/OptionParser.cpp - Shared command-line cursor --------------===//
//
// Part of the metal/xgcc reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/OptionParser.h"

#include <cctype>
#include <climits>
#include <cstring>

namespace mc {

bool parseCount(const char *V, uint64_t &Out) {
  if (!V || !*V)
    return false;
  uint64_t N = 0;
  for (const char *C = V; *C; ++C) {
    if (*C < '0' || *C > '9')
      return false;
    unsigned D = unsigned(*C - '0');
    if (N > (UINT64_MAX - D) / 10)
      return false;
    N = N * 10 + D;
  }
  Out = N;
  return true;
}

bool parseCount(const char *V, unsigned &Out) {
  uint64_t N;
  if (!parseCount(V, N) || N > UINT_MAX)
    return false;
  Out = unsigned(N);
  return true;
}

const char *OptionParser::take() {
  if (I + 1 >= Argc)
    return nullptr;
  return Argv[++I];
}

bool OptionParser::value(const char *Name, const char **V) {
  *V = nullptr;
  if (Cur == Name) {
    *V = take();
    return true;
  }
  // "--flag=" (empty value) matches with *V null, the same shape as a
  // missing "--flag V" follower, so the caller's own diagnostic fires
  // instead of "unknown option".
  size_t N = std::strlen(Name);
  if (Cur.size() > N && Cur.compare(0, N, Name) == 0 && Cur[N] == '=') {
    *V = Cur.size() > N + 1 ? Cur.c_str() + N + 1 : nullptr;
    return true;
  }
  return false;
}

bool OptionParser::optionalValue(const char *Name, const char **V) {
  *V = nullptr;
  if (Cur == Name) {
    // Consume a following argument only when it is all digits, so a bare
    // "--explain file.c" keeps file.c as an input.
    if (I + 1 < Argc) {
      const char *Peek = Argv[I + 1];
      bool AllDigits = *Peek != '\0';
      for (const char *P = Peek; *P; ++P)
        if (!std::isdigit(static_cast<unsigned char>(*P)))
          AllDigits = false;
      if (AllDigits)
        *V = Argv[++I];
    }
    return true;
  }
  // "--flag=" (empty value) matches here too: the caller sees "" and can
  // reject it with its own diagnostic instead of "unknown option".
  size_t N = std::strlen(Name);
  if (Cur.size() > N && Cur.compare(0, N, Name) == 0 && Cur[N] == '=') {
    *V = Cur.c_str() + N + 1;
    return true;
  }
  return false;
}

bool OptionParser::prefixValue(const char *Prefix, const char **V) {
  *V = nullptr;
  size_t N = std::strlen(Prefix);
  if (Cur.size() > N && Cur.compare(0, N, Prefix) == 0) {
    *V = Cur.c_str() + N;
    return true;
  }
  return false;
}

} // namespace mc
