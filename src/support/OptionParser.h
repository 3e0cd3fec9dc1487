//===- support/OptionParser.h - Shared command-line cursor ------*- C++ -*-===//
//
// Part of the metal/xgcc reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one flag grammar every binary (xgcc, xgccd, xgcc-triage) parses with:
/// boolean flags match exactly, value flags accept both "--flag V" and
/// "--flag=V", and optional-value flags additionally accept a bare spelling
/// (--explain) or an all-digits follower (--explain 5). Extracted from the
/// per-main lambdas so a flag added to one tool parses identically in all.
///
//===----------------------------------------------------------------------===//

#ifndef MC_SUPPORT_OPTIONPARSER_H
#define MC_SUPPORT_OPTIONPARSER_H

#include <cstdint>
#include <string>

namespace mc {

/// The one parser for count-valued flags (--jobs, --deadline-ms, ...): at
/// least one decimal digit and nothing else. "12x", "-1", "" and a value
/// that does not fit \p Out are rejected, never truncated or wrapped.
bool parseCount(const char *V, uint64_t &Out);
bool parseCount(const char *V, unsigned &Out);

/// A cursor over argv. Typical loop:
///
///   OptionParser P(Argc, Argv);
///   while (P.next()) {
///     const char *V = nullptr;
///     if (P.flag("--stats")) { ... continue; }
///     if (P.value("--cache-dir", &V)) { ... continue; }
///     P.arg() ...   // positional or unknown
///   }
class OptionParser {
public:
  OptionParser(int Argc, char **Argv) : Argc(Argc), Argv(Argv) {}

  /// Advances to the next argument; false when argv is exhausted.
  bool next() {
    if (I + 1 >= Argc)
      return false;
    Cur = Argv[++I];
    return true;
  }

  /// The current argument, verbatim.
  const std::string &arg() const { return Cur; }

  /// Consumes and returns the following argument ("--flag V" positional
  /// values); null when argv is exhausted.
  const char *take();

  /// Exact boolean-flag match.
  bool flag(const char *Name) const { return Cur == Name; }

  /// Value flag: "--flag V" (consumes the next argument) or "--flag=V".
  /// Returns true when \p Name matched; *V is null when the value was
  /// missing ("--flag" at the end of the line, or a bare "--flag=").
  bool value(const char *Name, const char **V);

  /// Optional-value flag: bare "--flag", "--flag=V", or "--flag V" when the
  /// next argument is all digits (the --explain/--profile grammar, which
  /// must not swallow an input path). *V is null for the bare spelling.
  bool optionalValue(const char *Name, const char **V);

  /// Prefix flag: "-IDIR" / "-DNAME=V" single-token values. Returns true
  /// when the current argument starts with \p Prefix and is longer; *V
  /// points at the remainder.
  bool prefixValue(const char *Prefix, const char **V);

private:
  int Argc;
  char **Argv;
  int I = 0;
  std::string Cur;
};

} // namespace mc

#endif // MC_SUPPORT_OPTIONPARSER_H
