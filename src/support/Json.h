//===- support/Json.h - JSON string writer and subset reader ----*- C++ -*-===//
//
// Part of the metal/xgcc reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every JSON the tools write escapes its strings with writeJsonString, and
/// everything they read back goes through JsonReader: the four xgccd wire
/// schemas (docs/SERVICE.md) and the run manifest. The reader accepts the
/// strict subset those writers produce — objects, arrays, strings, unsigned
/// integers and booleans — skips unknown keys so a schema can grow
/// additively, and puts the byte offset in every error.
///
//===----------------------------------------------------------------------===//

#ifndef MC_SUPPORT_JSON_H
#define MC_SUPPORT_JSON_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace mc {

class raw_ostream;

/// Writes \p S as a quoted JSON string: quotes and backslashes escaped,
/// \n \t \r spelled out, every other control byte as \u00XX.
void writeJsonString(raw_ostream &OS, std::string_view S);

/// A recursive-descent cursor over one JSON text. Schema readers drive it
/// key by key:
///
///   JsonReader R(Line, &Err);
///   bool Ok = R.readObject([&](const std::string &Key) {
///     if (Key == "id")
///       return R.readString(Id);
///     return R.skipValue();
///   });
///   Ok = Ok && R.atEnd();
///
/// The first failure wins: it sets \p Err (when non-null) to
/// "<why> at offset <N>", and later failures leave that message alone.
class JsonReader {
public:
  JsonReader(std::string_view Text, std::string *Err);

  bool readString(std::string &Out);
  /// An unsigned decimal integer; "number out of range" above UINT64_MAX.
  bool readUInt(uint64_t &Out);
  /// The same, narrowed: "number out of range" when it does not fit.
  bool readUInt(unsigned &Out);
  bool readBool(bool &Out);
  /// Skips one value of any kind the reader knows (an unknown key's value).
  bool skipValue();

  /// `{"key": value, ...}`: \p OnKey(Key) must consume each value.
  template <typename Fn> bool readObject(Fn &&OnKey) {
    if (!open('{'))
      return false;
    if (closeIf('}'))
      return true;
    for (;;) {
      std::string Key;
      if (!readString(Key) || !expect(':') || !OnKey(Key))
        return false;
      if (next('}', "expected ',' or '}'"))
        return !Failed;
    }
  }

  /// `[value, ...]`: \p OnItem() must consume each element.
  template <typename Fn> bool readArray(Fn &&OnItem) {
    if (!open('['))
      return false;
    if (closeIf(']'))
      return true;
    for (;;) {
      if (!OnItem())
        return false;
      if (next(']', "expected ',' or ']'"))
        return !Failed;
    }
  }

  /// An array of strings, replacing \p Out.
  bool readStringArray(std::vector<std::string> &Out);

  /// True when only whitespace is left.
  bool atEnd();

  /// Records \p Why at the current offset (unless an earlier failure was
  /// recorded) and returns false, so schema checks read `return R.fail(..)`.
  bool fail(std::string_view Why) { return failAt(Pos, Why); }

private:
  bool failAt(size_t At, std::string_view Why);
  void skipWs();
  bool expect(char C);
  /// Consumes the opening bracket \p C, one nesting level deeper.
  bool open(char C);
  /// Consumes \p Close when it comes next (an empty container).
  bool closeIf(char Close);
  /// After an element: consumes ',' (false: another element follows) or
  /// \p Close (true: the container ended). A failure also returns true, with
  /// Failed set, so the loop stops.
  bool next(char Close, const char *Why);

  std::string_view Text;
  std::string *Err;
  size_t Pos = 0;
  unsigned Depth = 0;
  bool Failed = false;
};

} // namespace mc

#endif // MC_SUPPORT_JSON_H
