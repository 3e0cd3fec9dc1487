//===- cfront/ASTContext.h - AST ownership and interning --------*- C++ -*-===//
//
// Part of the metal/xgcc reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Owns everything a parsed source base is made of: AST nodes (arena), types
/// (TypeContext) and interned identifier strings. One ASTContext holds the
/// whole source base — the paper's engine keeps every function's AST live for
/// the duration of the interprocedural analysis (Section 6.3).
///
/// Threading model (docs/INTERNALS.md): node creation is routed to a
/// thread-local arena when a ParallelArenaScope is active, so parallel parse
/// and engine workers allocate without locking; the arenas are donated back
/// to the context when the scope ends. String interning and the function
/// name registry are mutex-guarded — they are the only mutable structures
/// that parallel workers share.
///
//===----------------------------------------------------------------------===//

#ifndef MC_CFRONT_ASTCONTEXT_H
#define MC_CFRONT_ASTCONTEXT_H

#include "cfront/AST.h"
#include "support/Allocator.h"

#include <map>
#include <mutex>
#include <set>
#include <span>
#include <string>
#include <vector>

namespace mc {

/// Ownership context for ASTs of an entire source base.
class ASTContext {
public:
  ASTContext() = default;
  ASTContext(const ASTContext &) = delete;
  ASTContext &operator=(const ASTContext &) = delete;

  TypeContext &types() { return Types; }
  const TypeContext &types() const { return Types; }

  /// Creates an AST node in the arena. Nodes must be trivially destructible.
  template <typename T, typename... Args> T *create(Args &&...A) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "AST nodes live in an arena and are never destroyed");
    return activeArena().create<T>(std::forward<Args>(A)...);
  }

  /// Copies \p Items into the arena and returns a span over the copy.
  template <typename T> std::span<T const> allocateArray(const std::vector<T> &Items) {
    T *P = activeArena().copyArray(Items.data(), Items.size());
    return std::span<T const>(P, Items.size());
  }
  template <typename T> std::span<T> allocateMutableArray(const std::vector<T> &Items) {
    T *P = activeArena().copyArray(Items.data(), Items.size());
    return std::span<T>(P, Items.size());
  }

  /// Interns \p S; the returned view lives as long as the context.
  std::string_view intern(std::string_view S) {
    std::lock_guard<std::mutex> Lock(StringsMu);
    auto It = Strings.find(S);
    if (It != Strings.end())
      return *It;
    return *Strings.insert(std::string(S)).first;
  }

  /// Top-level declarations in parse order across all files.
  std::vector<Decl *> &topLevelDecls() { return TopLevel; }
  const std::vector<Decl *> &topLevelDecls() const { return TopLevel; }

  /// All function declarations (defined or not), in parse order.
  std::vector<FunctionDecl *> &functions() { return Functions; }
  const std::vector<FunctionDecl *> &functions() const { return Functions; }

  //===--------------------------------------------------------------------===//
  // Function identity across translation units
  //===--------------------------------------------------------------------===//
  //
  // The parser shares one FunctionDecl per name across TUs so the call graph
  // links cross-TU calls. Under parallel parse the find/create/merge sequence
  // must be atomic: hold functionLock() across it.

  /// Lock guarding the function registry and the declaration-merge mutations
  /// (setParams/setFileID/setBody of shared, not-yet-defined functions).
  std::unique_lock<std::mutex> functionLock() const {
    return std::unique_lock<std::mutex>(FunctionsMu);
  }

  /// Finds a function by name; returns null when absent. Takes the lock.
  FunctionDecl *findFunction(std::string_view Name) const {
    auto Lock = functionLock();
    return findFunctionLocked(Name);
  }

  /// Same lookup with functionLock() already held.
  FunctionDecl *findFunctionLocked(std::string_view Name) const {
    auto It = FunctionIndex.find(Name);
    if (It != FunctionIndex.end())
      return It->second;
    // Fallback for functions pushed directly into functions() (e.g. by the
    // .mast deserializer): index lazily on first lookup.
    for (FunctionDecl *FD : Functions)
      if (FD->name() == Name) {
        FunctionIndex.emplace(FD->name(), FD);
        return FD;
      }
    return nullptr;
  }

  /// Registers \p FD in the name index (functionLock() must be held). The
  /// caller decides separately where FD lands in functions()/topLevelDecls()
  /// — directly for serial parse, via per-TU splice for parallel parse.
  void indexFunctionLocked(FunctionDecl *FD) const {
    FunctionIndex.emplace(FD->name(), FD);
  }

  //===--------------------------------------------------------------------===//
  // Parallel allocation
  //===--------------------------------------------------------------------===//

  /// RAII: routes this thread's AST allocation to a private arena for the
  /// scope's lifetime, then donates the arena to the context so the nodes
  /// live as long as everything else. Parallel parse and engine workers wrap
  /// their whole task in one scope.
  class ParallelArenaScope {
  public:
    explicit ParallelArenaScope(ASTContext &Ctx);
    ~ParallelArenaScope();
    ParallelArenaScope(const ParallelArenaScope &) = delete;
    ParallelArenaScope &operator=(const ParallelArenaScope &) = delete;

  private:
    ASTContext &Ctx;
    BumpPtrAllocator Arena;
    BumpPtrAllocator *Prev;
  };

  /// Bytes consumed by AST nodes; the paper reports emitted ASTs are four to
  /// five times larger than the program text.
  size_t astBytes() const {
    std::lock_guard<std::mutex> Lock(ArenasMu);
    size_t Total = Arena.bytesAllocated();
    for (const BumpPtrAllocator &A : DonatedArenas)
      Total += A.bytesAllocated();
    return Total;
  }

private:
  friend class ParallelArenaScope;
  static thread_local BumpPtrAllocator *ThreadArena;
  BumpPtrAllocator &activeArena();

  BumpPtrAllocator Arena;
  TypeContext Types;
  // std::set gives stable addresses for interned strings.
  std::set<std::string, std::less<>> Strings; ///< Guarded by StringsMu.
  std::vector<Decl *> TopLevel;
  std::vector<FunctionDecl *> Functions;
  /// Name -> decl; mutable so const lookups can index lazily.
  mutable std::map<std::string_view, FunctionDecl *> FunctionIndex;
  /// Arenas donated by finished ParallelArenaScopes.
  std::vector<BumpPtrAllocator> DonatedArenas; ///< Guarded by ArenasMu.
  std::mutex StringsMu;
  mutable std::mutex FunctionsMu;
  mutable std::mutex ArenasMu;
};

} // namespace mc

#endif // MC_CFRONT_ASTCONTEXT_H
