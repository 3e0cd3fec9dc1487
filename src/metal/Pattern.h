//===- metal/Pattern.h - Metal patterns and matching ------------*- C++ -*-===//
//
// Part of the metal/xgcc reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Compiled metal patterns (Section 4): base patterns are ASTs in an
/// extended version of C containing typed holes; they compose with && and ||
/// and with callouts (`${...}` escapes to registered predicates). The
/// special `$end_of_path$` pattern is recognised by the engine rather than
/// matched against points.
///
//===----------------------------------------------------------------------===//

#ifndef MC_METAL_PATTERN_H
#define MC_METAL_PATTERN_H

#include "cfront/AST.h"

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace mc {

class AnalysisContext;
struct VarState;

/// Hole-variable bindings produced by a match.
using Bindings = std::map<std::string, const Expr *, std::less<>>;

/// Environment a callout predicate sees.
struct CalloutEnv {
  const Stmt *Point = nullptr;
  const Bindings *B = nullptr;
  AnalysisContext *ACtx = nullptr; ///< Null outside engine execution.
  const VarState *Instance = nullptr; ///< The triggering instance, if any.
};

/// One argument of a callout invocation: a hole reference, a string literal
/// or an integer literal.
struct CalloutArg {
  enum ArgKind { Hole, String, Int } Kind = Hole;
  std::string Text;   ///< Hole name or string value.
  long long IntValue = 0;
};

/// A callout predicate: returns whether the match succeeds.
using CalloutFn =
    std::function<bool(const CalloutEnv &, const std::vector<CalloutArg> &)>;

/// Registry of named callout predicates ("xgcc provides an extensive library
/// of functions useful as callouts").
class CalloutRegistry {
public:
  /// The global registry, pre-populated with the builtin library.
  static CalloutRegistry &global();

  void add(const std::string &Name, CalloutFn Fn) {
    Fns[Name] = std::move(Fn);
  }
  const CalloutFn *find(const std::string &Name) const {
    auto It = Fns.find(Name);
    return It == Fns.end() ? nullptr : &It->second;
  }

private:
  std::map<std::string, CalloutFn> Fns;
};

/// A compiled pattern expression.
class Pattern {
public:
  enum PatKind {
    Base,      ///< A bracketed code fragment (expression or statement AST).
    And,       ///< Conjunction with shared bindings.
    Or,        ///< Disjunction; first alternative that matches wins.
    Callout,   ///< ${ fn(args) } — or the degenerate ${0} / ${1}.
    EndOfPath, ///< $end_of_path$ (engine-recognised).
  };

  static std::unique_ptr<Pattern> makeBase(const Stmt *Tree);
  static std::unique_ptr<Pattern> makeAnd(std::unique_ptr<Pattern> L,
                                          std::unique_ptr<Pattern> R);
  static std::unique_ptr<Pattern> makeOr(std::unique_ptr<Pattern> L,
                                         std::unique_ptr<Pattern> R);
  static std::unique_ptr<Pattern> makeCallout(std::string Name,
                                              std::vector<CalloutArg> Args);
  static std::unique_ptr<Pattern> makeEndOfPath();

  PatKind patKind() const { return Kind; }
  const Stmt *baseTree() const { return Tree; }
  const Pattern *lhs() const { return LHS.get(); }
  const Pattern *rhs() const { return RHS.get(); }
  const std::string &calloutName() const { return CalloutName; }

  /// True when this pattern (or any disjunct of it) is `$end_of_path$`.
  bool mentionsEndOfPath() const;
  /// True when this pattern (or any part of it) calls mc_annotated(Key).
  bool readsAnnotation(const std::string &Key) const;

  /// Attempts to match at \p Point. \p B carries pre-bound holes in (the
  /// state variable is bound to the triggering instance's tree) and receives
  /// new bindings on success.
  bool match(const Stmt *Point, Bindings &B, const CalloutEnv &Env) const;

private:
  Pattern() = default;
  PatKind Kind = Base;
  const Stmt *Tree = nullptr;
  std::unique_ptr<Pattern> LHS, RHS;
  std::string CalloutName;
  std::vector<CalloutArg> Args;
};

/// Structural unification of a pattern tree against a target node with hole
/// binding. Exposed for tests.
bool unifyPattern(const Stmt *PatternTree, const Stmt *Target, Bindings &B);

/// Strips explicit casts (holes bind to the underlying tree).
const Expr *stripCasts(const Expr *E);

/// Installs the builtin callout library into \p Registry:
///   mc_is_call_to(fn, "name")  — fn (a call or callee) names "name"
///   mc_annotated(key)          — current point carries annotation key
///   mc_in_function("name")     — analysis is inside the named function
///   mc_is_null_constant(x)     — bound tree is a 0/NULL constant
///   mc_data_ge(v, n) / mc_data_le(v, n) — instance data counter compare
///   mc_true() / mc_false()     — the degenerate callouts ${1} / ${0}
void registerBuiltinCallouts(CalloutRegistry &Registry);

} // namespace mc

#endif // MC_METAL_PATTERN_H
