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

namespace {
/// A worker pool size: \p Jobs, with 0 meaning one per hardware thread, and
/// no more than \p Tasks (but at least one).
unsigned poolSize(unsigned Jobs, size_t Tasks) {
  return unsigned(std::clamp<size_t>(
      Tasks, 1, Jobs ? Jobs : ThreadPool::hardwareThreads()));
}
} // namespace

bool XgccTool::addSourceFiles(const std::vector<std::string> &Paths,
                              unsigned Jobs) {
  assert(!Finalized && "cannot add sources after finalize()");
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
  // pool resident across requests); otherwise build a private one with at
  // most one worker per unit.
  std::optional<ThreadPool> LocalPool;
  ThreadPool &Pool =
      SharedPool ? *SharedPool
                 : LocalPool.emplace(poolSize(Jobs, Paths.size()));

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
        DiagOS << "xgcc: cache: dropping corrupt entry for '" << TU.Path
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

XgccTool::RootRecord
XgccTool::containAbortedRoot(Checker &C, const FunctionDecl *Root,
                             const EngineOptions &BaseOpts,
                             MetricsSnapshot &ExtraStats,
                             RootOutcome &Outcome) {
  RootRecord Rec;
  Rec.Aborted = true;
  Rec.Reason = Outcome.Reason;
  // A checker fault is a checker bug, not a cost problem: a cheaper retry
  // would re-execute the same fault. Quarantine immediately.
  if (Outcome.Kind == RootAbortKind::CheckerFault) {
    Rec.Quarantined = true;
    Rec.Fault = true;
    return Rec;
  }
  for (unsigned Stage = 1; Stage <= kDegradationStages; ++Stage) {
    Engine Sac(Ctx, SM, CG, degradedOptions(BaseOpts, Stage), Trace,
               &Annotations);
    Sac.beginChecker(C);
    RootOutcome O = Sac.analyzeRoot(C, Root);
    ExtraStats.merge(Sac.metrics().snapshot());
    ++Rec.Retries;
    if (!O.aborted()) {
      Outcome = std::move(O);
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

namespace {

/// Fingerprint of every EngineOptions field that can change report bytes.
/// Jobs, EnableDispatchIndex and the output-routing Reporting fields are
/// deliberately absent: the determinism contract says none of them may
/// change a report, so summary keys ignore them and a warm run replays
/// correctly under any of those toggles.
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
uint64_t seedAnnotationHash(const NodeIndex &Idx, const AnnotationMap &Seed,
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

std::vector<XgccTool::RootProbe>
XgccTool::probeRoots(const Checker &C, const EngineOptions &Opts,
                     unsigned CheckerIndex, uint64_t SuiteFp) {
  const std::vector<const FunctionDecl *> &Roots = CG.roots();
  uint64_t Base = fnv1a64("root-key-v1");
  Base = fnv1a64(uint64_t(kCacheFormatVersion), Base);
  Base = fnv1a64(engineConfigFingerprint(Opts), Base);
  Base = fnv1a64(SuiteFp, Base);
  Base = fnv1a64(C.fingerprint(), Base);
  Base = fnv1a64(uint64_t(CheckerIndex), Base);

  std::vector<RootProbe> Probes(Roots.size());
  for (size_t I = 0; I < Roots.size(); ++I) {
    RootProbe &P = Probes[I];
    uint64_t Key = Base;
    if (!mixClosure(Roots[I], Key, P.Closure)) {
      Cache->bump(kCacheSummaryMisses);
      continue;
    }
    bool SeedOK = true;
    Key = fnv1a64(seedAnnotationHash(NodeIdx, Annotations, P.Closure, SeedOK),
                  Key);
    Key = fnv1a64(Roots[I]->name(), Key);
    if (!SeedOK) {
      Cache->bump(kCacheSummaryMisses);
      continue;
    }
    P.Key = Key;
    P.Cacheable = true;
    std::string Payload;
    if (!Cache->load(AnalysisCache::Kind::Summary, Key, Payload))
      continue;
    std::string Error;
    if (!P.Cached.parse(Payload, &Error)) {
      DiagOS << "xgcc: cache: dropping corrupt entry for root '"
             << Roots[I]->name() << "' (" << Error << ")\n";
      Cache->dropEntry(AnalysisCache::Kind::Summary, Key);
      Cache->bump(kCacheSummaryMisses);
      continue;
    }
    bool Resolvable = true;
    for (const RootArtifact::Annot &A : P.Cached.Annots)
      if (!NodeIdx.nodeOf(A.Fn, A.Ordinal)) {
        Resolvable = false;
        break;
      }
    if (!Resolvable) {
      Cache->dropEntry(AnalysisCache::Kind::Summary, Key);
      Cache->bump(kCacheSummaryMisses);
      continue;
    }
    P.Hit = true;
  }
  return Probes;
}

void XgccTool::buildArtifact(Engine &E, const RootOutcome &O,
                             RootProbe &P) const {
  RootArtifact &Art = P.Fresh;
  Art.Reports = O.Reports.reports();
  Art.Rules = O.Reports.rules();
  for (const auto &[Node, KV] : O.Annotations)
    for (const auto &[Key, Value] : KV) {
      auto SIt = Annotations.find(Node);
      if (SIt != Annotations.end()) {
        auto KIt = SIt->second.find(Key);
        if (KIt != SIt->second.end() && KIt->second == Value)
          continue; // Unchanged seed entry, not part of the delta.
      }
      NodeIndex::NodeId Id = NodeIdx.idOf(Node);
      if (!Id.Fn)
        return; // No stable identity to replay the annotation at.
      Art.Annots.push_back({std::string(Id.Fn->name()), Id.Ordinal, Key,
                            Value});
    }
  sortArtifactAnnots(Art.Annots);
  std::vector<const FunctionDecl *> Sorted(P.Closure.begin(), P.Closure.end());
  std::sort(Sorted.begin(), Sorted.end(),
            [](const FunctionDecl *A, const FunctionDecl *B) {
              return A->name() < B->name();
            });
  for (const FunctionDecl *Fn : Sorted)
    if (FunctionSummaries *FS = E.functionSummary(Fn))
      if (const CFG *G = CG.cfg(Fn))
        Art.Digests.push_back(
            {std::string(Fn->name()), functionSummaryDigest(*FS, *G)});
  P.FreshOk = true;
}

bool XgccTool::replayCached(const Checker &C, const FunctionDecl *Root,
                            RootProbe &P) {
  if (!P.Hit)
    return false;
  if (CacheVerify) {
    Cache->bump(kCacheVerifyChecks);
    if (P.Cached.serialize() != P.Fresh.serialize()) {
      DiagOS << "xgcc: cache: verify mismatch for root '" << Root->name()
             << "' (checker '" << C.name() << "'); using fresh results\n";
      Cache->bump(kCacheVerifyMismatch);
      Cache->bump(kCacheSummaryMisses);
      return false;
    }
  }
  Cache->bump(kCacheSummaryHits);
  ReportManager Replay;
  Replay.restore(std::move(P.Cached.Reports), std::move(P.Cached.Rules));
  Reports.merge(Replay);
  for (const RootArtifact::Annot &A : P.Cached.Annots)
    Annotations[NodeIdx.nodeOf(A.Fn, A.Ordinal)][A.Key] = A.Value;
  return true;
}

void XgccTool::runShards(Checker &C, const EngineOptions &Opts,
                         ThreadPool &Pool, unsigned CheckerIndex,
                         uint64_t SuiteFp) {
  const std::vector<const FunctionDecl *> &Roots = CG.roots();
  const size_t NR = Roots.size();
  std::vector<RootProbe> Probes;
  if (Cache)
    Probes = probeRoots(C, Opts, CheckerIndex, SuiteFp);

  // The roots to analyze: every root, less the cache hits that
  // --cache-verify does not recompute.
  std::vector<size_t> Live;
  for (size_t I = 0; I < NR; ++I)
    if (!Cache || !Probes[I].Hit || CacheVerify)
      Live.push_back(I);

  // Shards are contiguous runs of Live. An uncached run cuts min(jobs,
  // roots) of them, so --jobs 1 is one shard. A cached run gives every root
  // its own shard, so a root's result is a function of exactly what its
  // summary key hashes (closure content, seed annotations, checker, engine
  // config) and --jobs never reaches a key or a result.
  struct Shard {
    size_t Begin = 0, End = 0; ///< Range of Live.
    MetricsSnapshot Stats;
  };
  const size_t NL = Live.size();
  std::vector<Shard> Shards(Cache || !NL ? NL : poolSize(Opts.Jobs, NL));
  // One outcome per root: replaying their reports in root order reproduces
  // the add() sequence of one engine walking every root, so dedup and
  // ranking see the same history and the output is byte-identical at any
  // shard count.
  std::vector<RootOutcome> Outcomes(NR);
  std::vector<RootRecord> Records(NR);
  for (size_t S = 0; S < Shards.size(); ++S) {
    Shards[S].Begin = NL * S / Shards.size();
    Shards[S].End = NL * (S + 1) / Shards.size();
    Pool.async([&, S] {
      Shard &Sh = Shards[S];
      // Private arena, private engine: block/function summary caches and
      // path budgets are per shard. Shards share only the immutable AST,
      // CFGs and call graph, and the earlier checkers' annotations, which
      // change only in the merge below.
      ASTContext::ParallelArenaScope Scope(Ctx);
      Engine E(Ctx, SM, CG, Opts, Trace, &Annotations);
      E.beginChecker(C);
      for (size_t LI = Sh.Begin; LI < Sh.End; ++LI) {
        const size_t I = Live[LI];
        Outcomes[I] = E.analyzeRoot(C, Roots[I]);
        // Shards write disjoint Outcomes/Records slots, so the ladder is as
        // parallel as the analysis; outcomes are noted in root order below.
        // Aborted roots are never cached: their results depend on deadlines
        // and budgets, not content.
        if (Outcomes[I].aborted())
          Records[I] =
              containAbortedRoot(C, Roots[I], Opts, Sh.Stats, Outcomes[I]);
        else if (Cache && Probes[I].Cacheable)
          buildArtifact(E, Outcomes[I], Probes[I]);
      }
      Sh.Stats.merge(E.metrics().snapshot());
    });
  }
  Pool.wait();

  // Merge in root order: reports, incidents and annotations, where a later
  // root's write to a key overwrites an earlier root's. A replayed artifact
  // brings its own at its own root.
  for (const Shard &Sh : Shards)
    Accumulated.merge(Sh.Stats);
  for (size_t I = 0; I < NR; ++I) {
    if (Cache && replayCached(C, Roots[I], Probes[I]))
      continue;
    Reports.merge(Outcomes[I].Reports);
    if (Records[I].Aborted)
      noteRootOutcome(C, Roots[I], Records[I]);
    for (auto &[Node, KV] : Outcomes[I].Annotations)
      for (auto &[Key, Value] : KV)
        Annotations[Node][Key] = Value;
    // Set on a clean cold root, or on a verify mismatch (where the fresh
    // artifact overwrites the stale entry).
    if (Cache && Probes[I].FreshOk)
      Cache->store(AnalysisCache::Kind::Summary, Probes[I].Key,
                   Probes[I].Fresh.serialize());
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
  // Composition state lives for one run: each checker's shards start from
  // the annotations the checkers before it left.
  Annotations.clear();
  uint64_t SuiteFp = 0;
  if (Cache) {
    if (!NodeIdxBuilt) {
      for (const FunctionDecl *Fn : CG.definedFunctions())
        NodeIdx.addFunction(Fn);
      NodeIdxBuilt = true;
    }
    SuiteFp = fnv1a64("suite-v1");
    SuiteFp = fnv1a64(uint64_t(Checkers.size()), SuiteFp);
    for (const std::unique_ptr<Checker> &C : Checkers)
      SuiteFp = fnv1a64(C->fingerprint(), SuiteFp);
  }
  // One pool for the whole run: the host's, or a private one no wider than
  // the roots.
  std::optional<ThreadPool> LocalPool;
  ThreadPool &Pool = SharedPool ? *SharedPool
                                : LocalPool.emplace(poolSize(
                                      Opts.Jobs, CG.roots().size()));
  unsigned Index = 0;
  for (std::unique_ptr<Checker> &C : Checkers) {
    TraceSpan CkSpan(Buf, "checker");
    CkSpan.arg("name", C->name());
    runShards(*C, Opts, Pool, Index++, SuiteFp);
  }
}

EngineStats XgccTool::stats() const {
  return EngineStats::fromMetrics(metrics());
}

MetricsSnapshot XgccTool::metrics() const {
  MetricsSnapshot M = Accumulated;
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
