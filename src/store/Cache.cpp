//===- store/Cache.cpp - On-disk incremental analysis caches -----------------===//
//
// Part of the metal/xgcc reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "store/Cache.h"

#include "cfront/AST.h"
#include "cfront/Serialize.h"
#include "store/Persist.h"
#include "support/RawOstream.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <system_error>

#include <fcntl.h>
#include <signal.h>
#include <sys/file.h>
#include <unistd.h>

using namespace mc;

namespace fs = std::filesystem;

//===----------------------------------------------------------------------===//
// NodeIndex
//===----------------------------------------------------------------------===//

namespace {

/// Visits the direct children of \p S in the same order cfront/Serialize
/// writes them — the order is part of the stable node identity, so it must
/// never depend on anything but the tree shape.
template <typename Fn> void forEachChildStmt(const Stmt *S, Fn &&Visit) {
  if (const auto *E = dyn_cast<Expr>(S)) {
    switch (E->kind()) {
    case Stmt::SK_Unary:
      Visit(cast<UnaryOperator>(E)->sub());
      break;
    case Stmt::SK_Binary:
      Visit(cast<BinaryOperator>(E)->lhs());
      Visit(cast<BinaryOperator>(E)->rhs());
      break;
    case Stmt::SK_ArraySubscript:
      Visit(cast<ArraySubscriptExpr>(E)->base());
      Visit(cast<ArraySubscriptExpr>(E)->index());
      break;
    case Stmt::SK_Member:
      Visit(cast<MemberExpr>(E)->base());
      break;
    case Stmt::SK_Call: {
      const auto *CE = cast<CallExpr>(E);
      Visit(CE->callee());
      for (const Expr *A : CE->args())
        Visit(A);
      break;
    }
    case Stmt::SK_Cast:
      Visit(cast<CastExpr>(E)->sub());
      break;
    case Stmt::SK_Sizeof:
      if (const Expr *A = cast<SizeofExpr>(E)->argExpr())
        Visit(A);
      break;
    case Stmt::SK_Conditional:
      Visit(cast<ConditionalExpr>(E)->cond());
      Visit(cast<ConditionalExpr>(E)->thenExpr());
      Visit(cast<ConditionalExpr>(E)->elseExpr());
      break;
    case Stmt::SK_InitList:
      for (const Expr *I : cast<InitListExpr>(E)->inits())
        Visit(I);
      break;
    default: // Literals, decl refs, holes: leaves.
      break;
    }
    return;
  }
  switch (S->kind()) {
  case Stmt::SK_Compound:
    for (const Stmt *Sub : cast<CompoundStmt>(S)->body())
      Visit(Sub);
    break;
  case Stmt::SK_Decl:
    for (const VarDecl *VD : cast<DeclStmt>(S)->decls())
      if (const Expr *Init = VD->init())
        Visit(Init);
    break;
  case Stmt::SK_If: {
    const auto *IS = cast<IfStmt>(S);
    Visit(IS->cond());
    if (IS->thenStmt())
      Visit(IS->thenStmt());
    if (IS->elseStmt())
      Visit(IS->elseStmt());
    break;
  }
  case Stmt::SK_While:
    Visit(cast<WhileStmt>(S)->cond());
    if (cast<WhileStmt>(S)->body())
      Visit(cast<WhileStmt>(S)->body());
    break;
  case Stmt::SK_Do:
    if (cast<DoStmt>(S)->body())
      Visit(cast<DoStmt>(S)->body());
    Visit(cast<DoStmt>(S)->cond());
    break;
  case Stmt::SK_For: {
    const auto *FS = cast<ForStmt>(S);
    if (FS->init())
      Visit(FS->init());
    if (FS->cond())
      Visit(FS->cond());
    if (FS->inc())
      Visit(FS->inc());
    if (FS->body())
      Visit(FS->body());
    break;
  }
  case Stmt::SK_Switch:
    Visit(cast<SwitchStmt>(S)->cond());
    if (cast<SwitchStmt>(S)->body())
      Visit(cast<SwitchStmt>(S)->body());
    break;
  case Stmt::SK_Case:
    if (cast<CaseStmt>(S)->value())
      Visit(cast<CaseStmt>(S)->value());
    if (cast<CaseStmt>(S)->sub())
      Visit(cast<CaseStmt>(S)->sub());
    break;
  case Stmt::SK_Default:
    if (cast<DefaultStmt>(S)->sub())
      Visit(cast<DefaultStmt>(S)->sub());
    break;
  case Stmt::SK_Return:
    if (const Expr *V = cast<ReturnStmt>(S)->value())
      Visit(V);
    break;
  case Stmt::SK_Label:
    if (cast<LabelStmt>(S)->sub())
      Visit(cast<LabelStmt>(S)->sub());
    break;
  default: // Break, continue, goto, null: leaves.
    break;
  }
}

} // namespace

void NodeIndex::addFunction(const FunctionDecl *Fn) {
  if (!Fn || !Fn->isDefined())
    return;
  std::vector<const Stmt *> &Order =
      ByFunction[std::string(Fn->name())];
  if (!Order.empty())
    return; // Duplicate definition: keep the first indexing.
  // Iterative pre-order: push children in reverse so they pop in order.
  std::vector<const Stmt *> Work{Fn->body()};
  while (!Work.empty()) {
    const Stmt *S = Work.back();
    Work.pop_back();
    if (!S)
      continue;
    ToId.emplace(S, NodeId{Fn, uint32_t(Order.size())});
    Order.push_back(S);
    std::vector<const Stmt *> Kids;
    forEachChildStmt(S, [&](const Stmt *K) { Kids.push_back(K); });
    for (size_t I = Kids.size(); I-- > 0;)
      Work.push_back(Kids[I]);
  }
}

const Stmt *NodeIndex::nodeOf(const std::string &Fn, uint32_t Ordinal) const {
  auto It = ByFunction.find(Fn);
  if (It == ByFunction.end() || Ordinal >= It->second.size())
    return nullptr;
  return It->second[Ordinal];
}

//===----------------------------------------------------------------------===//
// Artifact payload encoding (grammar primitives live in store/Persist.h)
//===----------------------------------------------------------------------===//

std::string RootArtifact::serialize() const {
  std::string Out;
  putVarint(Out, Reports.size());
  for (const ErrorReport &R : Reports) {
    putStr(Out, R.CheckerName);
    putStr(Out, R.Message);
    putStr(Out, R.File);
    putVarint(Out, R.Line);
    putStr(Out, R.FunctionName);
    putStr(Out, R.VariableName);
    putVarint(Out, R.DistanceLines);
    putVarint(Out, R.Conditionals);
    putVarint(Out, R.IndirectionDepth);
    Out.push_back(R.Interprocedural ? 1 : 0);
    putVarint(Out, R.CallChainLength);
    putStr(Out, R.Annotation);
    putStr(Out, R.GroupKey);
    putStr(Out, R.RuleKey);
    putLoc(Out, R.ErrorLoc);
    putStr(Out, R.WitnessKey);
    putVarint(Out, R.Fingerprint);
    putVarint(Out, R.Steps.size());
    for (const WitnessStep &S : R.Steps) {
      Out.push_back(char(S.K));
      putLoc(Out, S.Loc);
      putVarint(Out, S.Depth);
      putStr(Out, S.Object);
      putStr(Out, S.From);
      putStr(Out, S.To);
    }
    putVarint(Out, R.DroppedSteps);
  }
  putVarint(Out, Rules.size());
  for (const auto &[Key, RS] : Rules) {
    putStr(Out, Key);
    putVarint(Out, RS.Examples);
    putVarint(Out, RS.Counterexamples);
  }
  putVarint(Out, Annots.size());
  for (const Annot &A : Annots) {
    putStr(Out, A.Fn);
    putVarint(Out, A.Ordinal);
    putStr(Out, A.Key);
    putStr(Out, A.Value);
  }
  putVarint(Out, Digests.size());
  for (const Digest &D : Digests) {
    putStr(Out, D.Fn);
    putVarint(Out, D.Value);
  }
  return Out;
}

bool RootArtifact::parse(const std::string &Payload, std::string *Err) {
  auto Fail = [&](const char *Why) {
    if (Err)
      *Err = Why;
    return false;
  };
  PayloadReader P{Payload};
  uint64_t NumReports = P.varint();
  if (NumReports > Payload.size())
    return Fail("corrupt report table");
  Reports.clear();
  Reports.reserve(size_t(NumReports));
  for (uint64_t I = 0; I != NumReports; ++I) {
    ErrorReport R;
    R.CheckerName = P.str();
    R.Message = P.str();
    R.File = P.str();
    R.Line = unsigned(P.varint());
    R.FunctionName = P.str();
    R.VariableName = P.str();
    R.DistanceLines = unsigned(P.varint());
    R.Conditionals = unsigned(P.varint());
    R.IndirectionDepth = unsigned(P.varint());
    R.Interprocedural = P.byte() != 0;
    R.CallChainLength = unsigned(P.varint());
    R.Annotation = P.str();
    R.GroupKey = P.str();
    R.RuleKey = P.str();
    R.ErrorLoc = P.loc();
    R.WitnessKey = P.str();
    R.Fingerprint = P.varint();
    uint64_t NumSteps = P.varint();
    if (P.Failed || NumSteps > Payload.size())
      return Fail("corrupt witness table");
    R.Steps.reserve(size_t(NumSteps));
    for (uint64_t J = 0; J != NumSteps; ++J) {
      WitnessStep S;
      uint8_t K = P.byte();
      if (K > uint8_t(WitnessStep::Kind::Rebind))
        return Fail("bad witness step kind");
      S.K = WitnessStep::Kind(K);
      S.Loc = P.loc();
      S.Depth = unsigned(P.varint());
      S.Object = P.str();
      S.From = P.str();
      S.To = P.str();
      R.Steps.push_back(std::move(S));
    }
    R.DroppedSteps = uint32_t(P.varint());
    if (P.Failed)
      return Fail("truncated report");
    Reports.push_back(std::move(R));
  }
  uint64_t NumRules = P.varint();
  if (NumRules > Payload.size())
    return Fail("corrupt rule table");
  Rules.clear();
  for (uint64_t I = 0; I != NumRules; ++I) {
    std::string Key = P.str();
    RuleStats RS;
    RS.Examples = unsigned(P.varint());
    RS.Counterexamples = unsigned(P.varint());
    if (P.Failed)
      return Fail("truncated rule table");
    Rules.emplace(std::move(Key), RS);
  }
  uint64_t NumAnnots = P.varint();
  if (NumAnnots > Payload.size())
    return Fail("corrupt annotation table");
  Annots.clear();
  Annots.reserve(size_t(NumAnnots));
  for (uint64_t I = 0; I != NumAnnots; ++I) {
    Annot A;
    A.Fn = P.str();
    A.Ordinal = uint32_t(P.varint());
    A.Key = P.str();
    A.Value = P.str();
    if (P.Failed)
      return Fail("truncated annotation table");
    Annots.push_back(std::move(A));
  }
  uint64_t NumDigests = P.varint();
  if (NumDigests > Payload.size())
    return Fail("corrupt digest table");
  Digests.clear();
  Digests.reserve(size_t(NumDigests));
  for (uint64_t I = 0; I != NumDigests; ++I) {
    Digest D;
    D.Fn = P.str();
    D.Value = P.varint();
    if (P.Failed)
      return Fail("truncated digest table");
    Digests.push_back(std::move(D));
  }
  if (P.Failed)
    return Fail("truncated payload");
  if (P.Pos != Payload.size())
    return Fail("trailing bytes after payload");
  return true;
}

//===----------------------------------------------------------------------===//
// AnalysisCache
//===----------------------------------------------------------------------===//

AnalysisCache::AnalysisCache(std::string D, raw_ostream *OS)
    : Dir(std::move(D)), DiagOS(OS) {
  std::error_code EC;
  fs::create_directories(Dir, EC);
  Usable = !EC || fs::is_directory(Dir, EC);
  if (!Usable) {
    diag() << "xgcc: cache: cannot open cache directory '" << Dir
           << "'; caching disabled this run\n";
    return;
  }
  acquireLock();
}

void AnalysisCache::acquireLock() {
  std::string LockPath = Dir + "/lock";
  LockFd = ::open(LockPath.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (LockFd < 0) {
    Usable = false;
    diag() << "xgcc: cache: cannot open lock file '" << LockPath
           << "'; caching disabled this run\n";
    return;
  }
  if (::flock(LockFd, LOCK_EX | LOCK_NB) == 0) {
    // Ours. Advertise our pid for the diagnostics of whoever comes second.
    std::string Pid = std::to_string(long(::getpid())) + "\n";
    if (::ftruncate(LockFd, 0) == 0)
      (void)!::write(LockFd, Pid.data(), Pid.size());
    return;
  }
  // Held elsewhere. Read the holder's advertised pid and probe whether that
  // process is still alive: flock drops with its holder, so a conflicting
  // lock normally means a live holder — but a recycled pid or a foreign
  // filesystem can leave the pid file pointing at a ghost, and the
  // distinction belongs in the diagnostic.
  char Buf[32] = {};
  ssize_t N = ::pread(LockFd, Buf, sizeof(Buf) - 1, 0);
  LockHolderPid = N > 0 ? std::strtol(Buf, nullptr, 10) : 0;
  bool HolderAlive =
      LockHolderPid > 0 && (::kill(pid_t(LockHolderPid), 0) == 0 ||
                            errno != ESRCH);
  raw_ostream &OS = diag();
  OS << "xgcc: cache: directory '" << Dir << "' is locked by ";
  if (LockHolderPid > 0)
    OS << (HolderAlive ? "running" : "stale-looking") << " process "
       << LockHolderPid;
  else
    OS << "another process";
  OS << "; caching disabled this run\n";
  ::close(LockFd);
  LockFd = -1;
  LockConflict = true;
  Usable = false;
}

AnalysisCache::~AnalysisCache() {
  if (LockFd >= 0) {
    ::flock(LockFd, LOCK_UN);
    ::close(LockFd);
  }
}

raw_ostream &AnalysisCache::diag() { return DiagOS ? *DiagOS : errs(); }

std::string AnalysisCache::entryPath(Kind K, uint64_t Key) const {
  std::string P = Dir;
  P += K == Kind::Ast ? "/ast-" : "/sum-";
  appendHex64(Key, P);
  P += ".mcc";
  return P;
}

bool AnalysisCache::load(Kind K, uint64_t Key, std::string &PayloadOut) {
  const char *MissName =
      K == Kind::Ast ? kCacheAstMisses : kCacheSummaryMisses;
  if (!Usable) {
    Counters.add(MissName);
    return false;
  }
  std::string Path = entryPath(K, Key);
  std::string Raw;
  if (!readFileBytes(Path, Raw)) {
    Counters.add(MissName);
    return false;
  }
  if (const char *Why = checkPersistHeader(char(K), kCacheFormatVersion, Raw)) {
    diag() << "xgcc: cache: dropping corrupt entry " << Path << " (" << Why
           << ")\n";
    Counters.add(kCacheEvictionsCorrupt);
    Counters.add(MissName);
    std::error_code EC;
    fs::remove(Path, EC);
    return false;
  }
  PayloadOut.assign(Raw, kPersistHeaderSize, Raw.size() - kPersistHeaderSize);
  return true;
}

void AnalysisCache::dropEntry(Kind K, uint64_t Key) {
  Counters.add(kCacheEvictionsCorrupt);
  if (!Usable)
    return;
  std::error_code EC;
  fs::remove(entryPath(K, Key), EC);
}

void AnalysisCache::store(Kind K, uint64_t Key, const std::string &Payload) {
  if (!Usable)
    return;
  std::string Bytes = packPersistHeader(char(K), kCacheFormatVersion, Payload);
  Bytes += Payload;
  // Atomic write; on failure (short write, ENOSPC, rename refusal) the temp
  // file is already unlinked, so a fault-injected store leaves the directory
  // exactly as it found it.
  if (!writeFileAtomic(entryPath(K, Key), Bytes, nullptr)) {
    Counters.add(kCacheWriteFailures);
    if (!WarnedWriteFailure)
      diag() << "xgcc: cache: cannot write to '" << Dir
             << "'; new entries dropped\n";
    WarnedWriteFailure = true;
  }
}

void AnalysisCache::evictToLimit(uint64_t MaxBytes) {
  if (!Usable)
    return;
  struct Entry {
    std::string Path;
    uint64_t Bytes;
    fs::file_time_type MTime;
  };
  std::vector<Entry> Entries;
  uint64_t Total = 0;
  std::error_code EC;
  for (fs::directory_iterator It(Dir, EC), End; !EC && It != End;
       It.increment(EC)) {
    // Only store entries participate in the size policy — never the lock
    // file, the crash journal, or anyone's in-flight temp file.
    if (!It->is_regular_file(EC) || It->path().extension() != ".mcc")
      continue;
    uint64_t Bytes = It->file_size(EC);
    if (EC)
      continue;
    Entries.push_back({It->path().string(), Bytes, It->last_write_time(EC)});
    Total += Bytes;
  }
  if (Total <= MaxBytes)
    return;
  // Oldest first; stable name tie-break so the policy is deterministic.
  std::sort(Entries.begin(), Entries.end(), [](const Entry &A, const Entry &B) {
    if (A.MTime != B.MTime)
      return A.MTime < B.MTime;
    return A.Path < B.Path;
  });
  for (const Entry &E : Entries) {
    if (Total <= MaxBytes)
      break;
    std::error_code RemoveEC;
    fs::remove(E.Path, RemoveEC);
    if (RemoveEC)
      continue;
    Total -= E.Bytes;
    Counters.add(kCacheEvictionsSize);
  }
}

uint64_t AnalysisCache::diskBytes() const {
  if (!Usable)
    return 0;
  uint64_t Total = 0;
  std::error_code EC;
  for (fs::directory_iterator It(Dir, EC), End; !EC && It != End;
       It.increment(EC)) {
    if (!It->is_regular_file(EC) || It->path().extension() != ".mcc")
      continue;
    uint64_t Bytes = It->file_size(EC);
    if (!EC)
      Total += Bytes;
  }
  return Total;
}
