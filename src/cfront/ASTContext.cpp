//===- cfront/ASTContext.cpp - AST ownership and interning ---------------===//
//
// Part of the metal/xgcc reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "cfront/ASTContext.h"

using namespace mc;

thread_local BumpPtrAllocator *ASTContext::ThreadArena = nullptr;

// Defined here, beside ThreadArena, and not inline in the header: g++'s
// UBSan reports a false "load of null pointer" when other translation units
// inline an accessor of a static thread_local member.
BumpPtrAllocator &ASTContext::activeArena() {
  return ThreadArena ? *ThreadArena : Arena;
}

ASTContext::ParallelArenaScope::ParallelArenaScope(ASTContext &Ctx)
    : Ctx(Ctx), Prev(ThreadArena) {
  ThreadArena = &Arena;
}

ASTContext::ParallelArenaScope::~ParallelArenaScope() {
  ThreadArena = Prev;
  std::lock_guard<std::mutex> Lock(Ctx.ArenasMu);
  Ctx.DonatedArenas.push_back(std::move(Arena));
}
