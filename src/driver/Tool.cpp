//===- driver/Tool.cpp - End-to-end xgcc facade ------------------------------===//
//
// Part of the metal/xgcc reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "driver/Tool.h"

#include "engine/Summaries.h"
#include "support/Hash.h"
#include "support/RawOstream.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"

#include <algorithm>
#include <deque>
#include <optional>

using namespace mc;

XgccTool::XgccTool(raw_ostream *DiagOS)
    : DiagOS(DiagOS ? *DiagOS : errs()), Diags(SM, &this->DiagOS),
      PP(std::make_unique<Preprocessor>(SM, Diags)) {}

XgccTool::~XgccTool() = default;

bool XgccTool::addSource(const std::string &Name, const std::string &Text) {
  assert(!Finalized && "cannot add sources after finalize()");
  unsigned FileID = PP->preprocessBuffer(Name, Text);
  Parser P(Ctx, SM, Diags, FileID);
  return P.parseTranslationUnit();
}

bool XgccTool::addSourceFile(const std::string &Path) {
  unsigned RawID = SM.addFile(Path);
  if (!RawID) {
    Diags.error(SourceLoc(), "cannot open source file '" + Path + "'");
    return false;
  }
  std::string Text(SM.bufferText(RawID));
  return addSource(Path, Text);
}

namespace {
/// Effective worker count for an options struct: Jobs, with 0 meaning one
/// per hardware thread.
unsigned effectiveJobs(const EngineOptions &Opts) {
  unsigned W = Opts.Jobs ? Opts.Jobs : ThreadPool::hardwareThreads();
  return W ? W : 1;
}
} // namespace

bool XgccTool::addSourceFiles(const std::vector<std::string> &Paths,
                              unsigned Jobs) {
  assert(!Finalized && "cannot add sources after finalize()");
  // At most one worker per unit, the way the analysis clamps to roots.
  unsigned W = Jobs ? Jobs : ThreadPool::hardwareThreads();
  if (W > Paths.size())
    W = Paths.empty() ? 1 : unsigned(Paths.size());

  // Per-TU pass-1 state. Diagnostics go to a private engine and are
  // replayed in input order at the end, so the stream the user sees does
  // not depend on worker interleaving.
  struct TUState {
    std::string Path;
    unsigned RawID = 0;
    unsigned FileID = 0;
    std::string Expanded;
    std::unique_ptr<DiagnosticEngine> TUDiags;
    std::vector<Decl *> TopLevel;
    std::vector<FunctionDecl *> Fns;
    bool ParseOk = false;
    uint64_t TokenHash = 0;       ///< Post-preprocess token-stream hash.
    bool FirstWithHash = false;   ///< First TU with this hash in the batch.
    bool Loaded = false;          ///< Deserialized from the AST store.
  };
  std::deque<TUState> TUs;

  // Fan out on the host's pool when one was lent (the daemon keeps a single
  // pool resident across requests); otherwise build a private one.
  std::optional<ThreadPool> LocalPool;
  ThreadPool &Pool = SharedPool ? *SharedPool : LocalPool.emplace(W);

  // Stage 1 (serial): register raw buffers in input order so file ids are
  // deterministic.
  for (const std::string &Path : Paths) {
    TUs.emplace_back();
    TUState &TU = TUs.back();
    TU.Path = Path;
    TU.TUDiags = std::make_unique<DiagnosticEngine>(SM);
    TU.RawID = SM.addFile(Path);
  }

  // Stage 2 (parallel): preprocess each unit against a snapshot of the
  // shared -D/-I state — pass 1 "compiles each file in isolation".
  Pool.parallelFor(TUs.size(), [&](size_t I) {
    TUState &TU = TUs[I];
    if (!TU.RawID)
      return;
    Preprocessor TP(*PP, *TU.TUDiags);
    TU.Expanded = TP.preprocess(TU.RawID);
  });

  // Stage 3 (serial): register the expanded buffers in input order.
  for (TUState &TU : TUs)
    if (TU.RawID)
      TU.FileID = SM.addBuffer(TU.Path, std::move(TU.Expanded));

  // Stage 3b (parallel): token-stream hashes — the AST-store key and the
  // basis of every summary-store function content hash.
  if (Cache)
    Pool.parallelFor(TUs.size(), [&](size_t I) {
      TUState &TU = TUs[I];
      if (TU.RawID)
        TU.TokenHash = tokenStreamHash(SM, TU.FileID);
    });

  // Stage 3c (serial, input order): probe the AST store. Only the *first*
  // TU with a given token hash may load — a later duplicate must parse cold
  // so cross-TU redefinition diagnostics replay exactly as they would in an
  // uncached run.
  if (Cache) {
    std::set<uint64_t> SeenHashes;
    for (TUState &TU : TUs) {
      if (!TU.RawID)
        continue;
      TU.FirstWithHash = SeenHashes.insert(TU.TokenHash).second;
      if (!TU.FirstWithHash)
        continue;
      std::string Image;
      if (!Cache->load(AnalysisCache::Kind::Ast, TU.TokenHash, Image))
        continue;
      std::string Error;
      if (!readMastTU(Image, Ctx, TU.FileID, TU.TopLevel, TU.Fns, &Error)) {
        errs() << "xgcc: cache: dropping corrupt entry for '" << TU.Path
               << "' (" << Error << ")\n";
        Cache->dropEntry(AnalysisCache::Kind::Ast, TU.TokenHash);
        Cache->bump(kCacheAstMisses);
        TU.TopLevel.clear();
        TU.Fns.clear();
        continue;
      }
      Cache->bump(kCacheAstHits);
      TU.Loaded = true;
      TU.ParseOk = true;
    }
  }

  // Stage 4 (parallel): parse into per-TU sinks and thread-local arenas.
  Pool.parallelFor(TUs.size(), [&](size_t I) {
    TUState &TU = TUs[I];
    if (!TU.RawID || TU.Loaded)
      return;
    ASTContext::ParallelArenaScope Scope(Ctx);
    Parser P(Ctx, SM, *TU.TUDiags, TU.FileID);
    P.redirectTopLevel(TU.TopLevel, TU.Fns);
    TU.ParseOk = P.parseTranslationUnit();
  });

  // Stage 5 (serial): splice declarations into the context and replay
  // diagnostics, both in input order. Under --keep-going a unit that failed
  // to parse is dropped whole (its diagnostics still replay): the parsed
  // units are analyzed instead of the run dying with nothing.
  bool Ok = true;
  for (TUState &TU : TUs) {
    if (!TU.RawID) {
      Diags.error(SourceLoc(), "cannot open source file '" + TU.Path + "'");
      Ok = false;
      continue;
    }
    if (!TU.ParseOk && KeepGoing) {
      for (const Diagnostic &D : TU.TUDiags->all())
        Diags.report(D.Kind, D.Loc, D.Message);
      Diags.warning(SourceLoc(), "skipping '" + TU.Path +
                                     "': parse errors (--keep-going)");
      Ok = false;
      continue;
    }
    for (Decl *D : TU.TopLevel)
      Ctx.topLevelDecls().push_back(D);
    for (FunctionDecl *FD : TU.Fns)
      Ctx.functions().push_back(FD);
    for (const Diagnostic &D : TU.TUDiags->all())
      Diags.report(D.Kind, D.Loc, D.Message);
    Ok &= TU.ParseOk;
  }

  // Stage 6 (serial): summary-key bookkeeping, then record images for the
  // cacheable misses. A TU is recorded only when its parse was clean AND
  // every function defined under its file id landed in its own sink — a
  // definition whose FunctionDecl another TU created would be lost from the
  // image (bodies are written for own-sink functions only), so such TUs
  // stay uncached rather than round-trip wrong.
  if (Cache) {
    std::map<unsigned, unsigned> DefinedByFile;
    for (const FunctionDecl *FD : Ctx.functions())
      if (FD->isDefined())
        ++DefinedByFile[FD->fileID()];
    for (TUState &TU : TUs) {
      if (!TU.RawID || !TU.ParseOk)
        continue;
      TUTokenHash[TU.FileID] = TU.TokenHash;
      TUPathByFile[TU.FileID] = TU.Path;
      if (TU.Loaded || !TU.FirstWithHash || !TU.TUDiags->all().empty())
        continue;
      unsigned DefinedInSink = 0;
      for (const FunctionDecl *FD : TU.Fns)
        if (FD->isDefined() && FD->fileID() == TU.FileID)
          ++DefinedInSink;
      if (DefinedInSink != DefinedByFile[TU.FileID])
        continue;
      Cache->store(AnalysisCache::Kind::Ast, TU.TokenHash,
                   writeMastTU(TU.TopLevel, TU.Fns, TU.FileID));
    }
  }
  return Ok;
}

void XgccTool::setCacheDir(const std::string &Dir) {
  OwnedCache = std::make_unique<AnalysisCache>(Dir);
  Cache = OwnedCache.get();
  CacheBaseline = MetricsSnapshot();
}

void XgccTool::setSharedCache(AnalysisCache *Shared) {
  OwnedCache.reset();
  Cache = Shared;
  CacheBaseline = Shared ? Shared->counters() : MetricsSnapshot();
}

void XgccTool::finishCache() {
  // Borrowed caches are the owner's to size and account for — a request
  // must never evict the daemon's store out from under its neighbours.
  if (!Cache || !OwnedCache || CacheFinished)
    return;
  CacheFinished = true;
  if (CacheMaxMB)
    Cache->evictToLimit(CacheMaxMB * 1024 * 1024);
  Cache->bump(kCacheBytes, Cache->diskBytes());
}

bool XgccTool::addMastFile(const std::string &Path) {
  assert(!Finalized && "cannot add sources after finalize()");
  std::string Image;
  if (!readFileBytes(Path, Image)) {
    Diags.error(SourceLoc(), "cannot open AST image '" + Path + "'");
    return false;
  }
  std::string Error;
  if (!readMast(Image, Ctx, &Error, &SM)) {
    Diags.error(SourceLoc(), "malformed AST image '" + Path + "': " + Error);
    return false;
  }
  return true;
}

bool XgccTool::emitMast(const std::string &Path) const {
  return writeFileBytes(Path, writeMast(Ctx, &SM));
}

void XgccTool::finalize() {
  if (Finalized)
    return;
  CG.build(Ctx);
  Finalized = true;
}

bool XgccTool::addChecker(std::unique_ptr<Checker> C) {
  for (const std::unique_ptr<Checker> &Existing : Checkers)
    if (Existing->name() == C->name()) {
      Diags.warning(SourceLoc(), "duplicate checker '" +
                                     std::string(C->name()) +
                                     "' ignored (already registered)");
      return false;
    }
  Checkers.push_back(std::move(C));
  return true;
}

bool XgccTool::addMetalChecker(const std::string &Source,
                               const std::string &Name) {
  std::unique_ptr<MetalChecker> C = compileMetalChecker(Source, Name, SM, Diags);
  if (!C)
    return false;
  return addChecker(std::move(C));
}

bool XgccTool::addBuiltinChecker(const std::string &Name) {
  std::unique_ptr<MetalChecker> C = makeBuiltinChecker(Name, SM, Diags);
  if (!C)
    return false;
  return addChecker(std::move(C));
}

void XgccTool::accumulateEngineStats() {
  if (Eng)
    Accumulated.merge(Eng->metrics().snapshot());
}

XgccTool::RootRecord
XgccTool::containAbortedRoot(Checker &C, const FunctionDecl *Root,
                             const EngineOptions &BaseOpts, Engine &Host,
                             ReportManager &Target, MetricsSnapshot &ExtraStats,
                             const RootOutcome &First) {
  RootRecord Rec;
  Rec.Aborted = true;
  Rec.Reason = First.Reason;
  // A checker fault is a checker bug, not a cost problem: a cheaper retry
  // would re-execute the same fault. Quarantine immediately.
  if (First.Kind == RootAbortKind::CheckerFault) {
    Rec.Quarantined = true;
    Rec.Fault = true;
    return Rec;
  }
  for (unsigned Stage = 1; Stage <= kDegradationStages; ++Stage) {
    Engine Sac(Ctx, SM, CG, Target, degradedOptions(BaseOpts, Stage), Trace);
    Sac.seedAnnotations(Host.annotations());
    Sac.beginChecker(C);
    RootOutcome O = Sac.analyzeRoot(C, Root);
    ExtraStats.merge(Sac.metrics().snapshot());
    ++Rec.Retries;
    if (!O.aborted()) {
      Host.seedAnnotations(Sac.annotations());
      Rec.Stage = Stage;
      return Rec;
    }
    if (O.Kind == RootAbortKind::CheckerFault) {
      Rec.Reason = O.Reason;
      Rec.Fault = true;
      break;
    }
  }
  Rec.Quarantined = true;
  return Rec;
}

void XgccTool::noteRootOutcome(Checker &C, const FunctionDecl *Root,
                               const RootRecord &Rec) {
  RootIncident Inc;
  Inc.Root = std::string(Root->name());
  Inc.Checker = std::string(C.name());
  Inc.Quarantined = Rec.Quarantined;
  Inc.Fault = Rec.Fault;
  Inc.Stage = Rec.Stage;
  Inc.Reason = Rec.Reason;
  Reports.noteIncident(std::move(Inc));
  if (Rec.Quarantined)
    Accumulated.add("ladder.roots.quarantined", 1);
  else
    Accumulated.add("ladder.roots.degraded", 1);
  Accumulated.add("ladder.retries", Rec.Retries);
}

void XgccTool::runContainedSerial(Checker &C) {
  Eng->beginChecker(C);
  for (const FunctionDecl *Root : CG.roots()) {
    RootOutcome O = Eng->analyzeRoot(C, Root);
    if (!O.aborted())
      continue;
    MetricsSnapshot Extra;
    RootRecord Rec =
        containAbortedRoot(C, Root, Eng->options(), *Eng, Reports, Extra, O);
    Accumulated.merge(Extra);
    noteRootOutcome(C, Root, Rec);
  }
}

void XgccTool::runSharded(Checker &C, const EngineOptions &Opts,
                          unsigned Workers) {
  const std::vector<const FunctionDecl *> &Roots = CG.roots();
  const size_t NR = Roots.size();
  if (Workers > NR)
    Workers = unsigned(NR);

  // One report buffer per root: replaying them in root order afterwards
  // reproduces the exact add() sequence of a serial run, so dedup and
  // ranking see the same history and the rendered output is byte-identical
  // for every worker count.
  std::vector<ReportManager> Buffers(NR);
  std::vector<RootRecord> Records(NR);
  std::vector<MetricsSnapshot> WorkerStats(Workers);
  std::vector<MetricsSnapshot> LadderStats(Workers);
  std::vector<Engine::AnnotationMap> WorkerAnnots(Workers);
  {
    std::optional<ThreadPool> LocalPool;
    ThreadPool &Pool = SharedPool ? *SharedPool : LocalPool.emplace(Workers);
    for (unsigned WI = 0; WI < Workers; ++WI) {
      Pool.async([&, WI] {
        const size_t Lo = NR * WI / Workers;
        const size_t Hi = NR * (WI + 1) / Workers;
        if (Lo == Hi)
          return;
        // Private arena, private engine: block/function summary caches,
        // annotations and path budgets are all per worker. Workers share
        // only the immutable AST, CFGs and call graph.
        ASTContext::ParallelArenaScope Scope(Ctx);
        Engine E(Ctx, SM, CG, Reports, Opts, Trace);
        E.seedAnnotations(ShardedAnnotations);
        E.beginChecker(C);
        for (size_t I = Lo; I < Hi; ++I) {
          E.setReports(Buffers[I]);
          RootOutcome O = E.analyzeRoot(C, Roots[I]);
          // Workers write disjoint Records/Buffers slots, so the ladder is
          // as parallel as the analysis; outcomes are recorded after the
          // barrier in root order.
          if (O.aborted())
            Records[I] = containAbortedRoot(C, Roots[I], Opts, E, Buffers[I],
                                            LadderStats[WI], O);
        }
        WorkerStats[WI] = E.metrics().snapshot();
        WorkerAnnots[WI] = E.annotations();
      });
    }
    Pool.wait();
  }
  for (const MetricsSnapshot &S : WorkerStats)
    Accumulated.merge(S);
  for (const MetricsSnapshot &S : LadderStats)
    Accumulated.merge(S);
  for (const ReportManager &B : Buffers)
    Reports.merge(B);
  for (size_t I = 0; I < NR; ++I)
    if (Records[I].Aborted)
      noteRootOutcome(C, Roots[I], Records[I]);
  // Merge worker annotations in shard order: shards are ascending root
  // ranges, so overwrite-in-order reproduces the serial run's
  // last-root-wins value for any key written by several roots.
  for (Engine::AnnotationMap &WA : WorkerAnnots)
    for (auto &[Node, KV] : WA)
      for (auto &[Key, Value] : KV)
        ShardedAnnotations[Node][Key] = Value;
}

namespace {

/// Fingerprint of every EngineOptions field that can change report bytes.
/// Jobs, EnableStateInterning, EnableDispatchIndex and the output-routing
/// Reporting fields are deliberately absent: the determinism contract says
/// none of them may change a report, so summary keys ignore them and a warm
/// run replays correctly under any of those toggles.
uint64_t engineConfigFingerprint(const EngineOptions &O) {
  uint64_t H = fnv1a64("engine-config-v1");
  auto MixBool = [&H](bool B) { H = fnv1a64(uint64_t(B), H); };
  MixBool(O.EnableBlockCache);
  MixBool(O.EnableFunctionSummaries);
  MixBool(O.EnableFalsePathPruning);
  MixBool(O.EnableAutoKill);
  MixBool(O.EnableSynonyms);
  MixBool(O.Interprocedural);
  H = fnv1a64(O.MaxPathsPerFunction, H);
  H = fnv1a64(uint64_t(O.MaxPathLength), H);
  H = fnv1a64(uint64_t(O.MaxCallDepth), H);
  H = fnv1a64(O.RootPathBudget, H);
  H = fnv1a64(O.MaxActiveStates, H);
  MixBool(O.Reporting.CaptureWitness);
  H = fnv1a64(O.Reporting.RootDeadlineMs, H);
  return H;
}

/// Hashes the seed annotations visible to a root: every (function, ordinal,
/// key, value) tuple whose node lies inside \p Closure, sorted so the hash
/// is independent of AnnotationMap's pointer iteration order. Sets \p OK
/// false when an annotated node has no stable identity.
uint64_t seedAnnotationHash(const NodeIndex &Idx,
                            const Engine::AnnotationMap &Seed,
                            const std::set<const FunctionDecl *> &Closure,
                            bool &OK) {
  std::vector<std::tuple<std::string_view, uint32_t, const std::string *,
                         const std::string *>>
      Items;
  for (const auto &[Node, KV] : Seed) {
    if (KV.empty())
      continue;
    NodeIndex::NodeId Id = Idx.idOf(Node);
    if (!Id.Fn) {
      OK = false;
      return 0;
    }
    if (!Closure.count(Id.Fn))
      continue;
    for (const auto &[Key, Value] : KV)
      Items.emplace_back(Id.Fn->name(), Id.Ordinal, &Key, &Value);
  }
  std::sort(Items.begin(), Items.end(),
            [](const auto &A, const auto &B) {
              if (std::get<0>(A) != std::get<0>(B))
                return std::get<0>(A) < std::get<0>(B);
              if (std::get<1>(A) != std::get<1>(B))
                return std::get<1>(A) < std::get<1>(B);
              return *std::get<2>(A) < *std::get<2>(B);
            });
  uint64_t H = fnv1a64("seed-annots-v1");
  for (const auto &[Fn, Ordinal, Key, Value] : Items) {
    H = fnv1a64(Fn, H);
    H = fnv1a64(uint64_t(Ordinal), H);
    H = fnv1a64(*Key, H);
    H = fnv1a64(*Value, H);
  }
  return H;
}

/// Orders artifact annotations deterministically (AnnotationMap iterates in
/// pointer order, which varies run to run).
void sortArtifactAnnots(std::vector<RootArtifact::Annot> &Annots) {
  std::sort(Annots.begin(), Annots.end(),
            [](const RootArtifact::Annot &A, const RootArtifact::Annot &B) {
              if (A.Fn != B.Fn)
                return A.Fn < B.Fn;
              if (A.Ordinal != B.Ordinal)
                return A.Ordinal < B.Ordinal;
              return A.Key < B.Key;
            });
}

} // namespace

bool XgccTool::functionContentHash(const FunctionDecl *Fn,
                                   uint64_t &HashOut) const {
  auto It = TUTokenHash.find(Fn->fileID());
  if (It == TUTokenHash.end())
    return false;
  uint64_t H = fnv1a64("fn-content-v1");
  H = fnv1a64(Fn->name(), H);
  H = fnv1a64(It->second, H);
  H = fnv1a64(uint64_t(Fn->fileID()), H);
  auto PIt = TUPathByFile.find(Fn->fileID());
  if (PIt != TUPathByFile.end())
    H = fnv1a64(PIt->second, H);
  HashOut = H;
  return true;
}

bool XgccTool::mixClosure(const FunctionDecl *Root, uint64_t &Hash,
                          std::set<const FunctionDecl *> &ClosureOut) const {
  // Iterative DFS in call order: push callees in reverse so they pop
  // first-call-first. Any deterministic order works; this one depends only
  // on the (body-derived, deduplicated) callee lists.
  std::vector<const FunctionDecl *> Stack{Root};
  while (!Stack.empty()) {
    const FunctionDecl *Fn = Stack.back();
    Stack.pop_back();
    if (!ClosureOut.insert(Fn).second)
      continue;
    uint64_t FH = 0;
    if (!functionContentHash(Fn, FH))
      return false;
    Hash = fnv1a64(FH, Hash);
    const CallGraph::Node *N = CG.node(Fn);
    if (!N)
      continue;
    std::vector<const FunctionDecl *> DefinedCallees;
    for (const FunctionDecl *Callee : N->Callees) {
      if (Callee->isDefined()) {
        DefinedCallees.push_back(Callee);
        continue;
      }
      // Undefined externs have no body to hash; their *name* is part of the
      // caller's behaviour (checkers pattern-match call targets), and the
      // call sites themselves are covered by the caller's content hash.
      Hash = fnv1a64("extern", Hash);
      Hash = fnv1a64(Callee->name(), Hash);
    }
    for (size_t I = DefinedCallees.size(); I-- > 0;)
      Stack.push_back(DefinedCallees[I]);
  }
  return true;
}

void XgccTool::runCachedChecker(Checker &C, const EngineOptions &Opts,
                                unsigned CheckerIndex, uint64_t SuiteFp) {
  const std::vector<const FunctionDecl *> &Roots = CG.roots();
  const size_t NR = Roots.size();
  // Every root of this checker seeds from the same pre-checker annotation
  // state — the barrier semantics of the Workers == roots sharding
  // configuration, which PR 1 proved byte-identical to a serial run.
  const Engine::AnnotationMap Seed = ShardedAnnotations;

  uint64_t Base = fnv1a64("root-key-v1");
  Base = fnv1a64(uint64_t(kCacheFormatVersion), Base);
  Base = fnv1a64(engineConfigFingerprint(Opts), Base);
  Base = fnv1a64(SuiteFp, Base);
  Base = fnv1a64(C.fingerprint(), Base);
  Base = fnv1a64(uint64_t(CheckerIndex), Base);

  std::vector<uint64_t> Keys(NR, 0);
  std::vector<char> Cacheable(NR, 0), Hit(NR, 0);
  std::vector<RootArtifact> CachedArts(NR);
  std::vector<std::set<const FunctionDecl *>> Closures(NR);

  // Probe phase (serial): derive each root's key and try the store.
  for (size_t I = 0; I < NR; ++I) {
    uint64_t Key = Base;
    if (!mixClosure(Roots[I], Key, Closures[I])) {
      Cache->bump(kCacheSummaryMisses);
      continue;
    }
    bool SeedOK = true;
    Key = fnv1a64(seedAnnotationHash(NodeIdx, Seed, Closures[I], SeedOK), Key);
    Key = fnv1a64(Roots[I]->name(), Key);
    if (!SeedOK) {
      Cache->bump(kCacheSummaryMisses);
      continue;
    }
    Keys[I] = Key;
    Cacheable[I] = 1;
    std::string Payload;
    if (!Cache->load(AnalysisCache::Kind::Summary, Key, Payload))
      continue;
    std::string Error;
    if (!CachedArts[I].parse(Payload, &Error)) {
      errs() << "xgcc: cache: dropping corrupt entry for root '"
             << Roots[I]->name() << "' (" << Error << ")\n";
      Cache->dropEntry(AnalysisCache::Kind::Summary, Key);
      Cache->bump(kCacheSummaryMisses);
      continue;
    }
    bool Resolvable = true;
    for (const RootArtifact::Annot &A : CachedArts[I].Annots)
      if (!NodeIdx.nodeOf(A.Fn, A.Ordinal)) {
        Resolvable = false;
        break;
      }
    if (!Resolvable) {
      Cache->dropEntry(AnalysisCache::Kind::Summary, Key);
      Cache->bump(kCacheSummaryMisses);
      continue;
    }
    Hit[I] = 1;
  }

  // Analysis phase (parallel, --jobs wide): cold roots always; hit roots
  // too under --cache-verify. One isolated engine per root.
  std::vector<size_t> Live;
  for (size_t I = 0; I < NR; ++I)
    if (!Hit[I] || CacheVerify)
      Live.push_back(I);

  std::vector<ReportManager> Buffers(NR);
  std::vector<RootRecord> Records(NR);
  std::vector<MetricsSnapshot> RootStats(NR);
  std::vector<Engine::AnnotationMap> RootAnnots(NR);
  std::vector<RootArtifact> FreshArts(NR);
  std::vector<char> FreshOk(NR, 0);
  if (!Live.empty()) {
    unsigned W = effectiveJobs(Opts);
    if (W > Live.size())
      W = unsigned(Live.size());
    std::optional<ThreadPool> LocalPool;
    ThreadPool &Pool = SharedPool ? *SharedPool : LocalPool.emplace(W);
    for (size_t LI = 0; LI < Live.size(); ++LI) {
      Pool.async([&, LI] {
        const size_t I = Live[LI];
        ASTContext::ParallelArenaScope Scope(Ctx);
        Engine E(Ctx, SM, CG, Reports, Opts, Trace);
        E.seedAnnotations(Seed);
        E.beginChecker(C);
        E.setReports(Buffers[I]);
        RootOutcome O = E.analyzeRoot(C, Roots[I]);
        MetricsSnapshot Ladder;
        if (O.aborted())
          Records[I] =
              containAbortedRoot(C, Roots[I], Opts, E, Buffers[I], Ladder, O);
        RootStats[I] = E.metrics().snapshot();
        RootStats[I].merge(Ladder);
        RootAnnots[I] = E.annotations();
        // Build the storable artifact while the engine (and its function
        // summaries) are still alive. Aborted roots are never cached: their
        // results depend on deadlines and budgets, not content.
        if (Records[I].Aborted || !Cacheable[I])
          return;
        RootArtifact &Art = FreshArts[I];
        Art.Reports = Buffers[I].reports();
        Art.Rules = Buffers[I].rules();
        bool Mappable = true;
        for (const auto &[Node, KV] : RootAnnots[I]) {
          for (const auto &[Key, Value] : KV) {
            auto SIt = Seed.find(Node);
            if (SIt != Seed.end()) {
              auto KIt = SIt->second.find(Key);
              if (KIt != SIt->second.end() && KIt->second == Value)
                continue; // Unchanged seed entry, not part of the delta.
            }
            NodeIndex::NodeId Id = NodeIdx.idOf(Node);
            if (!Id.Fn) {
              Mappable = false;
              break;
            }
            Art.Annots.push_back({std::string(Id.Fn->name()), Id.Ordinal, Key,
                                  Value});
          }
          if (!Mappable)
            break;
        }
        if (!Mappable)
          return;
        sortArtifactAnnots(Art.Annots);
        std::vector<const FunctionDecl *> Sorted(Closures[I].begin(),
                                                 Closures[I].end());
        std::sort(Sorted.begin(), Sorted.end(),
                  [](const FunctionDecl *A, const FunctionDecl *B) {
                    return A->name() < B->name();
                  });
        for (const FunctionDecl *Fn : Sorted)
          if (FunctionSummaries *FS = E.functionSummary(Fn))
            if (const CFG *G = CG.cfg(Fn))
              Art.Digests.push_back(
                  {std::string(Fn->name()), functionSummaryDigest(*FS, *G)});
        FreshOk[I] = 1;
      });
    }
    Pool.wait();
  }

  // Merge phase (serial, root order): exactly the sharded-run barrier.
  for (const MetricsSnapshot &S : RootStats)
    Accumulated.merge(S);
  for (size_t I = 0; I < NR; ++I) {
    bool UseCached = Hit[I];
    if (Hit[I] && CacheVerify) {
      Cache->bump(kCacheVerifyChecks);
      // Digests are excluded from the comparison: interning memo hits can
      // legally skip Reached-set inserts, so digest bytes may differ across
      // configurations that produce identical reports.
      RootArtifact A = CachedArts[I];
      RootArtifact B = FreshArts[I];
      A.Digests.clear();
      B.Digests.clear();
      if (A.serialize() != B.serialize()) {
        errs() << "xgcc: cache: verify mismatch for root '"
               << Roots[I]->name() << "' (checker '" << C.name()
               << "'); using fresh results\n";
        Cache->bump(kCacheVerifyMismatch);
        Cache->bump(kCacheSummaryMisses);
        UseCached = false;
      }
    }
    if (UseCached) {
      Cache->bump(kCacheSummaryHits);
      ReportManager Replay;
      Replay.restore(std::move(CachedArts[I].Reports),
                     std::move(CachedArts[I].Rules));
      Reports.merge(Replay);
      for (const RootArtifact::Annot &A : CachedArts[I].Annots)
        ShardedAnnotations[NodeIdx.nodeOf(A.Fn, A.Ordinal)][A.Key] = A.Value;
      continue;
    }
    Reports.merge(Buffers[I]);
    if (Records[I].Aborted)
      noteRootOutcome(C, Roots[I], Records[I]);
    for (const auto &[Node, KV] : RootAnnots[I])
      for (const auto &[Key, Value] : KV)
        ShardedAnnotations[Node][Key] = Value;
    // Reached on a clean cold root, or on a verify mismatch (where the
    // fresh artifact overwrites the stale entry).
    if (FreshOk[I])
      Cache->store(AnalysisCache::Kind::Summary, Keys[I],
                   FreshArts[I].serialize());
  }
}

void XgccTool::run(const EngineOptions &Opts) {
  finalize();
  // Lane 0 is the tool's own lane; the args are job-agnostic so the merged
  // stream stays byte-identical at any --jobs.
  TraceBuffer *Buf = Trace ? Trace->openBuffer(0) : nullptr;
  TraceSpan RunSpan(Buf, "run");
  RunSpan.arg("checkers", std::to_string(Checkers.size()));
  RunSpan.arg("roots", std::to_string(CG.roots().size()));
  if (Cache) {
    // Cached mode: every root in an isolated per-root engine (the
    // Workers == roots sharding configuration), so a root's result is a
    // function of exactly what its summary key hashes — closure content,
    // seed annotations, checker and engine config. --jobs only sizes the
    // cold-root pool; it never reaches a key or a result.
    accumulateEngineStats();
    Eng.reset();
    ShardedAnnotations.clear();
    LastShardedOpts = Opts;
    HasShardedState = true;
    if (!NodeIdxBuilt) {
      for (const FunctionDecl *Fn : CG.definedFunctions())
        NodeIdx.addFunction(Fn);
      NodeIdxBuilt = true;
    }
    uint64_t SuiteFp = fnv1a64("suite-v1");
    SuiteFp = fnv1a64(uint64_t(Checkers.size()), SuiteFp);
    for (const std::unique_ptr<Checker> &C : Checkers)
      SuiteFp = fnv1a64(C->fingerprint(), SuiteFp);
    unsigned Index = 0;
    for (std::unique_ptr<Checker> &C : Checkers) {
      TraceSpan CkSpan(Buf, "checker");
      CkSpan.arg("name", C->name());
      runCachedChecker(*C, Opts, Index++, SuiteFp);
    }
    return;
  }
  unsigned W = effectiveJobs(Opts);
  if (W > 1 && CG.roots().size() > 1) {
    // Sharded mode never reuses the serial engine; bank its counters. A
    // run() starts from a fresh engine serially, so composition state
    // resets here too.
    accumulateEngineStats();
    Eng.reset();
    ShardedAnnotations.clear();
    LastShardedOpts = Opts;
    HasShardedState = true;
    for (std::unique_ptr<Checker> &C : Checkers) {
      TraceSpan CkSpan(Buf, "checker");
      CkSpan.arg("name", C->name());
      runSharded(*C, Opts, W);
    }
    return;
  }
  accumulateEngineStats();
  Eng = std::make_unique<Engine>(Ctx, SM, CG, Reports, Opts, Trace);
  for (std::unique_ptr<Checker> &C : Checkers) {
    TraceSpan CkSpan(Buf, "checker");
    CkSpan.arg("name", C->name());
    runContainedSerial(*C);
  }
}

void XgccTool::runChecker(Checker &C, const EngineOptions &Opts) {
  finalize();
  TraceBuffer *Buf = Trace ? Trace->openBuffer(0) : nullptr;
  TraceSpan CkSpan(Buf, "checker");
  CkSpan.arg("name", C.name());
  unsigned W = effectiveJobs(Opts);
  if (W > 1 && CG.roots().size() > 1) {
    accumulateEngineStats();
    Eng.reset();
    // Mirror the serial engine-reuse rule: annotations persist across
    // runChecker calls with matching options, reset otherwise.
    if (!HasShardedState || !(LastShardedOpts == Opts))
      ShardedAnnotations.clear();
    LastShardedOpts = Opts;
    HasShardedState = true;
    runSharded(C, Opts, W);
    return;
  }
  // Reuse the engine when the options match so AST annotations persist
  // across composed checkers.
  if (!Eng || !(Eng->options() == Opts)) {
    accumulateEngineStats();
    Eng = std::make_unique<Engine>(Ctx, SM, CG, Reports, Opts, Trace);
  }
  runContainedSerial(C);
}

EngineStats XgccTool::stats() const {
  return EngineStats::fromMetrics(metrics());
}

MetricsSnapshot XgccTool::metrics() const {
  MetricsSnapshot M = Accumulated;
  if (Eng)
    M.merge(Eng->metrics().snapshot());
  if (Cache) {
    if (OwnedCache) {
      M.merge(Cache->counters());
    } else {
      // Borrowed cache: only the traffic *this tool* caused since attach.
      for (const auto &[Name, Value] : Cache->counters()) {
        uint64_t Base = CacheBaseline.value(Name);
        if (Value > Base)
          M.add(Name, Value - Base);
      }
    }
  }
  return M;
}

RunManifest XgccTool::manifest(const EngineOptions &Opts, bool ParseOk) const {
  RunManifest M;
  M.Options = Opts;
  M.Metrics = metrics();
  M.Incidents = Reports.incidents();
  M.ReportCount = Reports.size();
  M.ParseOk = ParseOk;
  // Every ranked report with its stable fingerprint (and the lifecycle class
  // a baseline run assigned), in the same order print() uses — the join key
  // xgcc-triage uses against baseline stores.
  for (size_t Idx : Reports.ranked(RankPolicy::Generic)) {
    const ErrorReport &R = Reports.reports()[Idx];
    ManifestReport MR;
    MR.Checker = R.CheckerName;
    MR.File = R.File;
    MR.Line = R.Line;
    MR.Message = R.Message;
    appendHex64(R.Fingerprint, MR.Fingerprint);
    if (auto It = Reports.lifecycle().find(R.Fingerprint);
        It != Reports.lifecycle().end())
      MR.Lifecycle = It->second;
    M.Reports.push_back(std::move(MR));
  }
  // Witness paths ride along in ranked order (the same order print() uses),
  // for reports that captured one. Step locations are decoded here: the
  // manifest outlives the SourceManager.
  for (size_t Idx : Reports.ranked(RankPolicy::Generic)) {
    const ErrorReport &R = Reports.reports()[Idx];
    if (R.Steps.empty() && R.DroppedSteps == 0)
      continue;
    ManifestWitness W;
    W.Checker = R.CheckerName;
    W.File = R.File;
    W.Line = R.Line;
    W.Message = R.Message;
    W.DroppedSteps = R.DroppedSteps;
    W.Steps.reserve(R.Steps.size());
    for (const WitnessStep &S : R.Steps) {
      ManifestWitnessStep MS;
      MS.Kind = witnessKindName(S.K);
      FullLoc FL = SM.decode(S.Loc);
      MS.File = std::string(FL.Filename);
      MS.Line = FL.Line;
      MS.Depth = S.Depth;
      MS.Object = S.Object;
      MS.From = S.From;
      MS.To = S.To;
      W.Steps.push_back(std::move(MS));
    }
    M.Witnesses.push_back(std::move(W));
  }
  return M;
}
