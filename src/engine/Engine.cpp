//===- engine/Engine.cpp - The xgcc analysis engine --------------------------===//
//
// Part of the metal/xgcc reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "engine/Engine.h"

#include "cfront/ASTPrinter.h"
#include "metal/DispatchIndex.h"
#include "metal/Pattern.h" // stripCasts
#include "support/Deadline.h"
#include "support/Trace.h"

#include <algorithm>

using namespace mc;

//===----------------------------------------------------------------------===//
// Internal structures
//===----------------------------------------------------------------------===//

/// One program point within a block's flattened, execution-ordered list.
struct Engine::PointInfo {
  const Stmt *Point;
  const Stmt *TopStmt;
  bool InCondition;
};

/// Path-private analysis state: the extension's sm_instance plus the
/// supporting analyses' per-path state. Copied at splits, dropped on
/// backtrack. False-path pruning's facts are not in here: they live on the
/// activation's ValueTracker (FrameCtx::VT), which every split marks and
/// undoes instead of copying.
struct Engine::PathState {
  SMInstance SMI;
  std::vector<PathSpecificEffect> PendingEffects; ///< At a branch condition.
  std::vector<PathSpecificEffect> PendingForks;   ///< Elsewhere: fork.
  std::string PathAnnotation;
  /// Witness journal: checker-relevant events on this path, copied into
  /// reports at emission. Empty (and free to copy) unless WitnessOn.
  WitnessJournal Witness;
  /// Shape trail: the always-on running hash behind stable fingerprints.
  /// Two integers — O(1) to fork-copy — mixed at the same events the journal
  /// records, without the journal's capture gating or location payloads.
  ShapeTrail Trail;
  bool Killed = false;
};

/// Traversal context for one function activation.
struct Engine::FrameCtx {
  const FunctionDecl *Fn = nullptr;
  const CFG *G = nullptr;
  FunctionSummaries *FS = nullptr;
  std::vector<BacktraceEntry> Backtrace;
  std::vector<PathState> *ExitStates = nullptr;
  /// Keys of the exit states kept so far (state plus path annotation).
  StateKeySet *ExitKeys = nullptr;
  std::set<const FunctionDecl *> *CallStack = nullptr;
  /// The activation's false-path-pruning facts, shared by all of its paths:
  /// each fork opens a TrackerScope per branch.
  ValueTracker *VT = nullptr;
  unsigned Depth = 0;
  uint64_t PathsThisFunction = 0;
  bool PathLimitReached = false;
};

/// What refine saved so restore can rebuild the caller's state (Table 2).
struct Engine::RestoreInfo {
  struct SavedInstance {
    VarState VS;
    bool PassedToCallee = false;
  };
  std::vector<SavedInstance> Saved;
  struct ArgPair {
    const Expr *Actual = nullptr;      ///< Stripped actual argument.
    const Expr *ActualInner = nullptr; ///< a when the actual is &a.
    bool AddrOf = false;
    const Expr *FormalRef = nullptr;   ///< DeclRef to the formal.
    const Expr *FormalDeref = nullptr; ///< *formal (for the &a row).
  };
  std::vector<ArgPair> Args;
  unsigned CallerFileID = 0;
};

namespace {

/// Severity order of path annotations; smaller is stronger.
int annotationRank(const std::string &A) {
  if (A == "SECURITY")
    return 0;
  if (A == "ERROR")
    return 1;
  if (A.empty())
    return 2;
  return 3; // MINOR and anything else
}

/// True when \p E references a declaration with function-local storage that
/// satisfies \p Pred.
bool referencesLocalDecl(const Expr *E,
                         const std::function<bool(const VarDecl *)> &Pred) {
  if (!E)
    return false;
  if (const auto *DRE = dyn_cast<DeclRefExpr>(E))
    if (const auto *VD = dyn_cast<VarDecl>(DRE->decl()))
      if (Pred(VD))
        return true;
  bool Found = false;
  forEachChild(E, [&](const Expr *Child) {
    if (!Found && referencesLocalDecl(Child, Pred))
      Found = true;
  });
  return Found;
}

/// True when \p E mentions any declaration in \p Scope.
bool referencesAnyOf(const Expr *E,
                     const std::unordered_set<const VarDecl *> &Scope) {
  return referencesLocalDecl(
      E, [&](const VarDecl *VD) { return Scope.count(VD) != 0; });
}

/// Collects every VarDecl declared by statements under \p S.
void collectLocalDecls(const Stmt *S,
                       std::unordered_set<const VarDecl *> &Out) {
  if (!S)
    return;
  switch (S->kind()) {
  case Stmt::SK_Decl:
    for (VarDecl *VD : cast<DeclStmt>(S)->decls())
      Out.insert(VD);
    return;
  case Stmt::SK_Compound:
    for (const Stmt *Sub : cast<CompoundStmt>(S)->body())
      collectLocalDecls(Sub, Out);
    return;
  case Stmt::SK_If:
    collectLocalDecls(cast<IfStmt>(S)->thenStmt(), Out);
    collectLocalDecls(cast<IfStmt>(S)->elseStmt(), Out);
    return;
  case Stmt::SK_While:
    collectLocalDecls(cast<WhileStmt>(S)->body(), Out);
    return;
  case Stmt::SK_Do:
    collectLocalDecls(cast<DoStmt>(S)->body(), Out);
    return;
  case Stmt::SK_For:
    collectLocalDecls(cast<ForStmt>(S)->init(), Out);
    collectLocalDecls(cast<ForStmt>(S)->body(), Out);
    return;
  case Stmt::SK_Switch:
    collectLocalDecls(cast<SwitchStmt>(S)->body(), Out);
    return;
  case Stmt::SK_Case:
    collectLocalDecls(cast<CaseStmt>(S)->sub(), Out);
    return;
  case Stmt::SK_Default:
    collectLocalDecls(cast<DefaultStmt>(S)->sub(), Out);
    return;
  case Stmt::SK_Label:
    collectLocalDecls(cast<LabelStmt>(S)->sub(), Out);
    return;
  default:
    return;
  }
}

/// The file-static decls mentioned by \p E.
void collectFileStatics(const Expr *E, std::vector<const VarDecl *> &Out) {
  if (!E)
    return;
  if (const auto *DRE = dyn_cast<DeclRefExpr>(E))
    if (const auto *VD = dyn_cast<VarDecl>(DRE->decl()))
      if (VD->storage() == VarDecl::FileStatic)
        Out.push_back(VD);
  forEachChild(E, [&](const Expr *Child) { collectFileStatics(Child, Out); });
}

/// True when \p E references a non-parameter local (these trees never enter
/// suffix/function summaries).
bool isLocalTree(const Expr *E) {
  return referencesLocalDecl(
      E, [](const VarDecl *VD) { return VD->storage() == VarDecl::Local; });
}

} // namespace

//===----------------------------------------------------------------------===//
// Expression substitution (Table 2 retargeting)
//===----------------------------------------------------------------------===//

/// Rebuilds \p E with every subexpression equivalent to \p From replaced by
/// \p To. Returns \p E itself when nothing changed.
static const Expr *substituteExpr(ASTContext &Ctx, const Expr *E,
                                  const Expr *From, const Expr *To) {
  if (!E)
    return E;
  if (exprEquivalent(E, From))
    return To;
  switch (E->kind()) {
  case Stmt::SK_Unary: {
    const auto *UO = cast<UnaryOperator>(E);
    const Expr *Sub = substituteExpr(Ctx, UO->sub(), From, To);
    if (Sub == UO->sub())
      return E;
    return Ctx.create<UnaryOperator>(E->loc(), UO->opcode(), Sub, E->type());
  }
  case Stmt::SK_Binary: {
    const auto *BO = cast<BinaryOperator>(E);
    const Expr *L = substituteExpr(Ctx, BO->lhs(), From, To);
    const Expr *R = substituteExpr(Ctx, BO->rhs(), From, To);
    if (L == BO->lhs() && R == BO->rhs())
      return E;
    return Ctx.create<BinaryOperator>(E->loc(), BO->opcode(), L, R, E->type());
  }
  case Stmt::SK_ArraySubscript: {
    const auto *AS = cast<ArraySubscriptExpr>(E);
    const Expr *Base = substituteExpr(Ctx, AS->base(), From, To);
    const Expr *Index = substituteExpr(Ctx, AS->index(), From, To);
    if (Base == AS->base() && Index == AS->index())
      return E;
    return Ctx.create<ArraySubscriptExpr>(E->loc(), Base, Index, E->type());
  }
  case Stmt::SK_Member: {
    const auto *ME = cast<MemberExpr>(E);
    const Expr *Base = substituteExpr(Ctx, ME->base(), From, To);
    if (Base == ME->base())
      return E;
    return Ctx.create<MemberExpr>(E->loc(), Base, ME->member(), ME->isArrow(),
                                  E->type());
  }
  case Stmt::SK_Cast: {
    const auto *CE = cast<CastExpr>(E);
    const Expr *Sub = substituteExpr(Ctx, CE->sub(), From, To);
    if (Sub == CE->sub())
      return E;
    return Ctx.create<CastExpr>(E->loc(), E->type(), Sub);
  }
  default:
    return E;
  }
}

//===----------------------------------------------------------------------===//
// AnalysisContext implementation
//===----------------------------------------------------------------------===//

class Engine::ACtxImpl : public AnalysisContext {
public:
  ACtxImpl(Engine &E, PathState &PS, const FunctionDecl *Fn, unsigned Depth,
           const PointInfo *PI, const Expr *BranchCond = nullptr)
      : E(E), PS(PS), Fn(Fn), Depth(Depth), PI(PI), BranchCond(BranchCond) {}

  SMInstance &state() override { return PS.SMI; }

  VarState &createInstance(const Expr *Tree, int Value) override {
    MatchedFlag = true;
    if (E.CkC.States)
      bump(E.CkC.States);
    VarState VS;
    VS.Tree = stripCasts(Tree);
    VS.TreeKey = symbolize(exprKey(VS.Tree));
    VS.Value = Value;
    VS.CreatedAt = PI ? PI->TopStmt : nullptr;
    VS.OriginLoc = PI && PI->Point ? PI->Point->loc() : VS.Tree->loc();
    PS.SMI.ActiveVars.push_back(std::move(VS));
    return PS.SMI.ActiveVars.back();
  }

  void transition(VarState &VS, int Value) override {
    MatchedFlag = true;
    if (VS.SynonymGroup != 0) {
      unsigned Group = VS.SynonymGroup;
      for (VarState &Other : PS.SMI.ActiveVars)
        if (Other.SynonymGroup == Group)
          Other.Value = Value;
      return;
    }
    VS.Value = Value;
  }

  bool justCreated(const VarState &VS) const override {
    return PI && VS.CreatedAt && VS.CreatedAt == PI->TopStmt;
  }

  void pathSpecific(const PathSpecificEffect &Effect) override {
    MatchedFlag = true;
    if (PI && PI->InCondition)
      PS.PendingEffects.push_back(Effect);
    else
      PS.PendingForks.push_back(Effect);
  }

  void markTransition() override { MatchedFlag = true; }

  void report(const ReportBuilder &B) override {
    const VarState *Instance = B.Instance;
    ErrorReport R;
    R.CheckerName = std::string(E.CurChecker->name());
    R.Message = B.Message;
    SourceLoc Loc;
    if (PI && PI->Point)
      Loc = PI->Point->loc();
    else if (Instance && Instance->OriginLoc.isValid())
      Loc = Instance->OriginLoc;
    else if (Fn)
      Loc = Fn->loc();
    R.ErrorLoc = Loc;
    FullLoc Full = E.SM.decode(Loc);
    R.File = std::string(Full.Filename);
    R.Line = Full.Line;
    R.FunctionName = Fn ? std::string(Fn->name()) : "";
    if (Instance) {
      R.VariableName = std::string(symbolText(Instance->TreeKey));
      R.Conditionals = Instance->CondsCrossed;
      R.IndirectionDepth = Instance->IndirectionDepth;
      R.Interprocedural = Instance->Interprocedural;
      if (Instance->OriginLoc.isValid() &&
          Instance->OriginLoc.fileID() == Loc.fileID()) {
        unsigned L0 = E.SM.lineNumber(Instance->OriginLoc);
        R.DistanceLines = Full.Line > L0 ? Full.Line - L0 : L0 - Full.Line;
      }
    } else {
      R.Interprocedural = Depth > 0;
    }
    R.CallChainLength = Depth;
    R.Annotation = B.Annotation.empty() ? PS.PathAnnotation : B.Annotation;
    R.GroupKey = B.GroupKey;
    R.RuleKey = B.RuleKey.empty() ? B.GroupKey : B.RuleKey;
    // Witness-terminal identity, computed whether or not capture is on:
    // dedup must not depend on a reporting flag. The tracked object plus its
    // raw origin keeps textually identical reports about different objects
    // at one site (macro expansions) distinct.
    if (Instance && Instance->OriginLoc.isValid()) {
      R.WitnessKey = std::string(symbolText(Instance->TreeKey));
      R.WitnessKey += '@';
      R.WitnessKey += std::to_string(Instance->OriginLoc.fileID());
      R.WitnessKey += ':';
      R.WitnessKey += std::to_string(Instance->OriginLoc.offset());
    }
    // The stable fingerprint: report identity across runs and code motion.
    // Only shape goes in — names, message, rule, and the path's trail; never
    // ErrorLoc/Line/offsets, so edits above the site don't change it.
    {
      auto MixStr = [](std::string_view S, uint64_t H) {
        H = fnv1a64(S, H);
        return fnv1a64(uint64_t(S.size()), H);
      };
      uint64_t H = kFnvOffsetBasis;
      H = MixStr(R.CheckerName, H);
      H = MixStr(R.RuleKey, H);
      H = MixStr(R.VariableName, H);
      H = MixStr(R.Message, H);
      H = MixStr(R.FunctionName, H);
      H = fnv1a64(PS.Trail.Hash, H);
      H = fnv1a64(uint64_t(PS.Trail.Steps), H);
      R.Fingerprint = H;
    }
    if (E.WitnessOn) {
      R.Steps = PS.Witness.Steps;
      R.DroppedSteps = PS.Witness.Dropped;
      if (E.CkC.WitnessSteps)
        bump(E.CkC.WitnessSteps, R.Steps.size());
    }
    if (E.CkC.Reports)
      bump(E.CkC.Reports);
    E.RootOut->Reports.add(std::move(R));
  }

  void countExample(const std::string &RuleKey) override {
    E.RootOut->Reports.countExample(RuleKey);
  }
  void countViolation(const std::string &RuleKey) override {
    E.RootOut->Reports.countViolation(RuleKey);
  }

  void annotatePath(const std::string &Tag) override {
    if (annotationRank(Tag) < annotationRank(PS.PathAnnotation))
      PS.PathAnnotation = Tag;
    else if (PS.PathAnnotation.empty())
      PS.PathAnnotation = Tag;
  }

  void annotate(const Stmt *Node, const std::string &Key,
                const std::string &Value) override {
    E.RootOut->Annotations[Node][Key] = Value;
  }
  const std::string *annotation(const Stmt *Node,
                                const std::string &Key) const override {
    return E.annotation(Node, Key);
  }

  void killPath() override { PS.Killed = true; }

  void raiseFault(const std::string &Reason) override {
    if (E.AbortKind == RootAbortKind::None) {
      E.AbortKind = RootAbortKind::CheckerFault;
      E.AbortReason = Reason;
      if (E.CkC.Faults)
        bump(E.CkC.Faults);
    }
    PS.Killed = true;
  }

  bool dispatchIndexEnabled() const override {
    return E.Opts.EnableDispatchIndex;
  }
  void noteDispatchLookup(uint64_t Total, uint64_t Tried) override {
    bump(E.Ctr.IndexPointLookups);
    bump(E.Ctr.IndexCandidatesTried, Tried);
    bump(E.Ctr.IndexTransitionsSkipped, Total > Tried ? Total - Tried : 0);
    if (E.CkC.Tried)
      bump(E.CkC.Tried, Tried);
  }

  void countMetric(std::string_view DottedName, uint64_t Delta) override {
    E.Metrics.add(DottedName, Delta);
  }

  void noteTransition(std::string_view Object, std::string_view From,
                      std::string_view To) override {
    // The shape trail is always on: fingerprints must not depend on whether
    // witness capture was requested. The journal below stays gated.
    PS.Trail.mix(WitnessStep::Kind::Transition, Object, From, To);
    if (!E.WitnessOn)
      return;
    WitnessStep S;
    S.K = WitnessStep::Kind::Transition;
    if (PI && PI->Point)
      S.Loc = PI->Point->loc();
    S.Depth = Depth;
    S.Object = std::string(Object);
    S.From = std::string(From);
    S.To = std::string(To);
    PS.Witness.append(std::move(S));
  }

  const FunctionDecl *currentFunction() const override { return Fn; }
  const Stmt *currentTopStmt() const override {
    return PI ? PI->TopStmt : nullptr;
  }
  bool atBranchCondition() const override { return PI && PI->InCondition; }
  const Expr *branchCondition() const override { return BranchCond; }
  const SourceManager &sourceManager() const override { return E.SM; }

  bool matched() const { return MatchedFlag; }

private:
  Engine &E;
  PathState &PS;
  const FunctionDecl *Fn;
  unsigned Depth;
  const PointInfo *PI;
  const Expr *BranchCond;
  bool MatchedFlag = false;
};

//===----------------------------------------------------------------------===//
// Engine
//===----------------------------------------------------------------------===//

const char *mc::failPolicyName(FailPolicy P) {
  switch (P) {
  case FailPolicy::Never:
    return "never";
  case FailPolicy::Error:
    return "error";
  case FailPolicy::Degraded:
    return "degraded";
  }
  return "never";
}

bool mc::parseFailPolicy(std::string_view Spelling, FailPolicy &Out) {
  if (Spelling == "never")
    Out = FailPolicy::Never;
  else if (Spelling == "error")
    Out = FailPolicy::Error;
  else if (Spelling == "degraded")
    Out = FailPolicy::Degraded;
  else
    return false;
  return true;
}

EngineStats EngineStats::fromMetrics(const MetricsSnapshot &M) {
  EngineStats S;
#define MC_METRIC_READ(Field, DottedName, StatsKey, BenchKey)                  \
  S.Field = M.value(DottedName);
  MC_ENGINE_METRICS(MC_METRIC_READ)
#undef MC_METRIC_READ
  return S;
}

MetricsSnapshot EngineStats::toMetrics() const {
  MetricsSnapshot M;
#define MC_METRIC_WRITE(Field, DottedName, StatsKey, BenchKey)                 \
  M.add(DottedName, Field);
  MC_ENGINE_METRICS(MC_METRIC_WRITE)
#undef MC_METRIC_WRITE
  return M;
}

Engine::Engine(ASTContext &Ctx, const SourceManager &SM, const CallGraph &CG,
               EngineOptions Opts, TraceCollector *Trace,
               const AnnotationMap *Earlier)
    : Ctx(Ctx), SM(SM), CG(CG), Opts(Opts), Trace(Trace), Earlier(Earlier) {
#define MC_METRIC_INIT(Field, DottedName, StatsKey, BenchKey)                  \
  Ctr.Field = Metrics.counter(DottedName);
  MC_ENGINE_METRICS(MC_METRIC_INIT)
#undef MC_METRIC_INIT
  ProfileTiming = this->Opts.Reporting.ProfileTopN > 0;
  WitnessOn = this->Opts.Reporting.CaptureWitness;
}

Engine::~Engine() = default;

EngineStats Engine::stats() const {
  return EngineStats::fromMetrics(Metrics.snapshot());
}

void Engine::refreshCheckerCells(const Checker &Ck) {
  if (CellsChecker == &Ck)
    return;
  CellsChecker = &Ck;
  std::string Base = "checker.";
  Base += Ck.name();
  CkC.Tried = Metrics.counter(Base + ".transitions.tried");
  CkC.Fired = Metrics.counter(Base + ".transitions.fired");
  CkC.States = Metrics.counter(Base + ".states.created");
  CkC.Faults = Metrics.counter(Base + ".faults");
  CkC.Reports = Metrics.counter(Base + ".reports");
  CkC.CalloutNs = Metrics.counter(Base + ".callout_ns");
  // Registered only when capture is on: a capture-off run's metrics snapshot
  // (and hence its manifest) must be byte-identical to one that predates the
  // witness layer.
  CkC.WitnessSteps =
      WitnessOn ? Metrics.counter(Base + ".witness.steps") : nullptr;
}

uint64_t Engine::laneOf(const FunctionDecl *Root) {
  // Lane 0 is the tool; root N in call-graph root order gets lane 1+N, which
  // is the same at any --jobs count (the root list is shared and immutable).
  if (RootLanes.empty()) {
    uint64_t Lane = 1;
    for (const FunctionDecl *R : CG.roots())
      RootLanes[R] = Lane++;
  }
  auto It = RootLanes.find(Root);
  return It != RootLanes.end() ? It->second : 0;
}

const BlockSummary *Engine::blockSummary(const FunctionDecl *Fn,
                                         const BasicBlock *B) const {
  auto It = Summaries.find(Fn);
  if (It == Summaries.end())
    return nullptr;
  return const_cast<FunctionSummaries &>(It->second).find(B);
}

/// The value of \p Key on \p Node in \p M, or null.
static const std::string *findAnnotation(const AnnotationMap &M,
                                         const Stmt *Node,
                                         const std::string &Key) {
  auto NodeIt = M.find(Node);
  if (NodeIt == M.end())
    return nullptr;
  auto It = NodeIt->second.find(Key);
  return It == NodeIt->second.end() ? nullptr : &It->second;
}

const std::string *Engine::annotation(const Stmt *Node,
                                      const std::string &Key) const {
  if (const std::string *Own = findAnnotation(RootOut->Annotations, Node, Key))
    return Own;
  return Earlier ? findAnnotation(*Earlier, Node, Key) : nullptr;
}

//===----------------------------------------------------------------------===//
// Point lists
//===----------------------------------------------------------------------===//

static void appendExprPoints(const Expr *E, const Stmt *Top, bool InCond,
                             std::vector<Engine::PointInfo> &Out);

const std::vector<Engine::PointInfo> &Engine::pointsOf(const BasicBlock *B) {
  auto It = PointCache.find(B);
  if (It != PointCache.end())
    return It->second;
  std::vector<PointInfo> Points;
  for (const Stmt *S : B->stmts()) {
    bool IsCond = B->condition() == S;
    if (const auto *E = dyn_cast<Expr>(S)) {
      appendExprPoints(E, S, IsCond, Points);
      continue;
    }
    if (const auto *DS = dyn_cast<DeclStmt>(S)) {
      for (const VarDecl *VD : DS->decls())
        if (VD->init())
          appendExprPoints(VD->init(), S, false, Points);
      Points.push_back(PointInfo{S, S, false});
      continue;
    }
    if (const auto *RS = dyn_cast<ReturnStmt>(S)) {
      if (RS->value())
        appendExprPoints(RS->value(), S, false, Points);
      Points.push_back(PointInfo{S, S, false});
      continue;
    }
    Points.push_back(PointInfo{S, S, false});
  }
  return PointCache[B] = std::move(Points);
}

static void appendExprPoints(const Expr *E, const Stmt *Top, bool InCond,
                             std::vector<Engine::PointInfo> &Out) {
  forEachPointExecutionOrder(E, [&](const Expr *Point) {
    Out.push_back(Engine::PointInfo{Point, Top, InCond});
  });
}

bool Engine::blockMayFire(const BasicBlock *B) {
  if (MemoChecker != CurChecker) {
    // The memo answers "can CurChecker's transitions fire here"; a new
    // checker invalidates every cached answer.
    DispatchBlockMemo.clear();
    MemoChecker = CurChecker;
  }
  auto It = DispatchBlockMemo.find(B);
  if (It != DispatchBlockMemo.end())
    return It->second;
  bool May = true;
  if (const DispatchIndex *Idx = CurChecker->dispatchIndex()) {
    May = false;
    for (const PointInfo &PI : pointsOf(B))
      if (Idx->mayMatch(PI.Point)) {
        May = true;
        break;
      }
  }
  return DispatchBlockMemo[B] = May;
}

//===----------------------------------------------------------------------===//
// Transparent analyses (Section 8)
//===----------------------------------------------------------------------===//

void Engine::handleAssignment(PathState &PS, ValueTracker &VT, const Expr *LHS,
                              const Expr *RHS, const Stmt *TopStmt,
                              bool Compound, unsigned Depth) {
  const Expr *LHSStripped = stripCasts(LHS);
  if (!LHSStripped)
    return;
  // Rebind helper: LHS became an alias of a tracked object. The shape trail
  // always records it (fingerprints are capture-independent); the witness
  // journal only under capture.
  auto NoteRebind = [&](const std::string &To, const std::string &From,
                        int Value) {
    std::string State = CurChecker->stateName(Value);
    PS.Trail.mix(WitnessStep::Kind::Rebind, To, From, State);
    if (!WitnessOn)
      return;
    WitnessStep S;
    S.K = WitnessStep::Kind::Rebind;
    S.Loc = LHSStripped->loc();
    S.Depth = Depth;
    S.Object = To;
    S.From = From;
    S.To = State;
    PS.Witness.append(std::move(S));
  };

  // Killing variables and expressions: when a variable is defined, any
  // object whose tree uses it loses its state.
  if (Opts.EnableAutoKill && CurChecker->enableAutoKill()) {
    // Instances attached at this very statement (e.g. `v = kmalloc(...)`
    // patterns) survive their own defining assignment.
    if (const auto *DRE = dyn_cast<DeclRefExpr>(LHSStripped)) {
      const Decl *D = DRE->decl();
      for (VarState &VS : PS.SMI.ActiveVars) {
        if (VS.live() && VS.CreatedAt != TopStmt &&
            exprReferencesDecl(VS.Tree, D)) {
          VS.Value = StateStop;
          bump(Ctr.KillsApplied);
        }
      }
    } else {
      // Probe only: a key never tracked anywhere has no symbol and cannot
      // match, so the table is not grown for untracked assignments.
      if (uint32_t KeySym = lookupSymbol(exprKey(LHSStripped))) {
        for (VarState &VS : PS.SMI.ActiveVars) {
          if (VS.live() && VS.CreatedAt != TopStmt && VS.TreeKey == KeySym) {
            VS.Value = StateStop;
            bump(Ctr.KillsApplied);
          }
        }
      }
    }
    PS.SMI.sweepStopped();
  }

  // Synonyms: `q = p` mirrors p's state onto q.
  bool SynonymMade = false;
  if (!Compound && RHS && Opts.EnableSynonyms &&
      CurChecker->enableSynonyms() && isLValueShape(LHSStripped)) {
    const Expr *Src = stripCasts(RHS);
    if (Src && isLValueShape(Src)) {
      if (VarState *SrcVS = PS.SMI.findByKey(exprKey(Src))) {
        if (SrcVS->SynonymGroup == 0)
          SrcVS->SynonymGroup = ++SynonymGroupCounter;
        VarState Clone = *SrcVS;
        Clone.Tree = LHSStripped;
        Clone.TreeKey = symbolize(exprKey(LHSStripped));
        Clone.CreatedAt = TopStmt;
        Clone.IndirectionDepth = SrcVS->IndirectionDepth + 1;
        NoteRebind(std::string(symbolText(Clone.TreeKey)),
                   std::string(symbolText(SrcVS->TreeKey)), Clone.Value);
        PS.SMI.ActiveVars.push_back(std::move(Clone));
        bump(Ctr.SynonymsCreated);
        SynonymMade = true;
      }
    }
  }

  // False-path pruning's value tracking.
  if (Opts.EnableFalsePathPruning) {
    if (Compound) {
      VT.havoc(LHSStripped);
    } else {
      VT.assign(LHSStripped, RHS);
      // The tracker noticed a clean variable-to-variable rebind. When the
      // synonym machinery is off (ablation or a checker opting out) this is
      // the only record that the alias exists; journal it if the source is a
      // tracked object, so the witness still explains how state reached the
      // reported name.
      if (!SynonymMade) {
        ValueTracker::RebindNote Note = VT.lastRebind();
        if (Note.Valid)
          if (const VarState *SrcVS = PS.SMI.findByKey(exprKey(Note.From)))
            NoteRebind(exprKey(LHSStripped),
                       std::string(symbolText(SrcVS->TreeKey)), SrcVS->Value);
      }
    }
  }
}

void Engine::handlePoint(FrameCtx &Frame, const BasicBlock *B, PathState &PS,
                         const PointInfo &PI, bool &Matched) {
  bump(Ctr.PointsVisited);
  // The no-transition-at-the-creating-statement rule (Section 3.2) only
  // covers the creating occurrence: once the analysis moves to a different
  // statement the mark is cleared, so a loop revisiting the statement can
  // trigger transitions normally.
  for (VarState &VS : PS.SMI.ActiveVars)
    if (VS.CreatedAt && VS.CreatedAt != PI.TopStmt)
      VS.CreatedAt = nullptr;
  // Per-block dispatch memo: when no point of this block can fire any of the
  // checker's transitions, skip the checker entirely. Everything the engine
  // does around the checker (auto-kill, synonyms, FPP, PATHKILL, call
  // following) still runs — Matched=false is exactly what the naive loop
  // would have produced.
  if (Opts.EnableDispatchIndex && !blockMayFire(B)) {
    Matched = false;
  } else {
    ACtxImpl ACtx(*this, PS, Frame.Fn, Frame.Depth, &PI, B->condition());
    {
      // Callout wall-clock attribution only under --profile: the timer is a
      // no-op (no clock reads) when profiling is off.
      ScopedTimerNs CalloutTimer(ProfileTiming ? CkC.CalloutNs : nullptr);
      CurChecker->checkPoint(PI.Point, ACtx);
    }
    Matched = ACtx.matched();
    if (Matched && CkC.Fired)
      bump(CkC.Fired);
    PS.SMI.sweepStopped();
    // Runaway-state valve: a checker growing per-path state without bound
    // (every instance distinct, so the block cache can never converge) is a
    // checker bug; abort the root rather than exhausting memory.
    if (Opts.MaxActiveStates &&
        PS.SMI.ActiveVars.size() > Opts.MaxActiveStates &&
        AbortKind == RootAbortKind::None) {
      AbortKind = RootAbortKind::StateLimit;
      AbortReason = "active-state limit of " +
                    std::to_string(Opts.MaxActiveStates) + " exceeded";
      bump(Ctr.StateLimitHits);
      PS.Killed = true;
    }
  }
  // Composition: a point flagged PATHKILL by an earlier checker (the panic
  // annotator) stops the traversal of the current path. The current
  // checker's own marks do not: it kills its paths with kill_path().
  if (Earlier && findAnnotation(*Earlier, PI.Point, "PATHKILL"))
    PS.Killed = true;

  if (const auto *BO = dyn_cast<BinaryOperator>(PI.Point)) {
    if (BO->isAssignment())
      handleAssignment(PS, *Frame.VT, BO->lhs(), BO->rhs(), PI.TopStmt,
                       BO->isCompoundAssignment(), Frame.Depth);
  } else if (const auto *UO = dyn_cast<UnaryOperator>(PI.Point)) {
    if (UO->isIncrementDecrement())
      handleAssignment(PS, *Frame.VT, UO->sub(), nullptr, PI.TopStmt,
                       /*Compound=*/true, Frame.Depth);
  } else if (const auto *DS = dyn_cast<DeclStmt>(PI.Point)) {
    for (const VarDecl *VD : DS->decls()) {
      if (!VD->init())
        continue;
      auto RefIt = DeclRefCache.find(VD);
      const Expr *Ref;
      if (RefIt != DeclRefCache.end()) {
        Ref = RefIt->second;
      } else {
        Ref = Ctx.create<DeclRefExpr>(VD->loc(), VD, VD->type());
        DeclRefCache[VD] = Ref;
      }
      handleAssignment(PS, *Frame.VT, Ref, VD->init(), PI.TopStmt, false,
                       Frame.Depth);
    }
  }
}

//===----------------------------------------------------------------------===//
// Traversal
//===----------------------------------------------------------------------===//

void Engine::traverseBlock(FrameCtx &Frame, const BasicBlock *B,
                           PathState PS) {
  if (Frame.PathLimitReached || rootAborted())
    return;
  if (PathBlocks >= Opts.MaxPathLength) {
    // Without caching, loops would unroll forever; cut the path here. The
    // count spans every frame on the DFS, so it also bounds the stack.
    bump(Ctr.PathLimitHits);
    bump(Ctr.PathsExplored);
    return;
  }
  bump(Ctr.BlocksVisited);
  if (Opts.EnableDispatchIndex && !blockMayFire(B))
    bump(Ctr.IndexBlocksSkipped);
  BlockSummary &Sum = Frame.FS->of(B);
  // Everything this frame allocates from the root arena (entry-tuple
  // snapshots) is released when the frame unwinds; the DFS is strictly
  // nested, so mark/rewind is safe and bounds arena growth by the live path.
  BumpScope ArenaScope(RootArena);
  TupleSpan Entry = tuplesOf(PS.SMI, RootArena);

  if (Opts.EnableBlockCache) {
    bool AllCached = true;
    for (const StateTuple &T : Entry)
      if (!Sum.Reached.count(T)) {
        AllCached = false;
        break;
      }
    if (AllCached) {
      // The whole state has been explored from this block: abort the path
      // (cache_misses, Section 5.2), relaxing suffix summaries on the way.
      bump(Ctr.BlockCacheHits);
      Frame.Backtrace.push_back(BacktraceEntry{B, Entry});
      relaxSuffixSummaries(Frame.Backtrace, *Frame.FS, [&](uint32_t Key) {
        auto It = Frame.FS->LocalKeys.find(Key);
        return It == Frame.FS->LocalKeys.end() || !It->second;
      });
      Frame.Backtrace.pop_back();
      bump(Ctr.PathsExplored);
      if (++Frame.PathsThisFunction > Opts.MaxPathsPerFunction) {
        Frame.PathLimitReached = true;
        bump(Ctr.PathLimitHits);
      }
      return;
    }
    // Partial hit: drop instances whose tuple is already cached; only the
    // remaining (new) tuples are carried through the block.
    std::erase_if(PS.SMI.ActiveVars, [&](const VarState &VS) {
      if (!VS.live() || VS.Inactive)
        return false;
      return Sum.Reached.count(
                 StateTuple{PS.SMI.GState, VS.TreeKey, VS.Value, VS.Data}) != 0;
    });
    Entry = tuplesOf(PS.SMI, RootArena);
  }

  for (const StateTuple &T : Entry)
    Sum.Reached.insert(T);
  // Record tree locality for the summary filters.
  for (const VarState &VS : PS.SMI.ActiveVars)
    if (VS.live() && !Frame.FS->LocalKeys.count(VS.TreeKey))
      Frame.FS->LocalKeys[VS.TreeKey] = isLocalTree(VS.Tree);

  Frame.Backtrace.push_back(BacktraceEntry{B, Entry});
  ++PathBlocks;
  processPoints(Frame, B, Entry, 0, std::move(PS));
  --PathBlocks;
  Frame.Backtrace.pop_back();
}

void Engine::processPoints(FrameCtx &Frame, const BasicBlock *B,
                           TupleSpan EntrySnapshot, size_t Idx, PathState PS) {
  const std::vector<PointInfo> &Points = pointsOf(B);
  for (size_t I = Idx; I < Points.size(); ++I) {
    if (AbortKind != RootAbortKind::None)
      return; // Aborting the root: skip even the quiet path-end bookkeeping.
    if (PS.Killed)
      break;
    const PointInfo &PI = Points[I];
    bool Matched = false;
    handlePoint(Frame, B, PS, PI, Matched);

    // A path-specific transition away from a branch condition forks the
    // analysis: both outcomes are possible.
    if (!PS.PendingForks.empty()) {
      PathSpecificEffect Eff = PS.PendingForks.front();
      PS.PendingForks.erase(PS.PendingForks.begin());
      for (bool Branch : {true, false}) {
        TrackerScope Facts(*Frame.VT);
        PathState Copy = PS;
        int Value = Branch ? Eff.TrueValue : Eff.FalseValue;
        if (VarState *VS = Copy.SMI.findByKey(Eff.TreeKey)) {
          if (VS->Value != Value) {
            Copy.Trail.mix(WitnessStep::Kind::Transition,
                           symbolText(Eff.TreeKey),
                           CurChecker->stateName(VS->Value),
                           CurChecker->stateName(Value));
            if (WitnessOn)
              Copy.Witness.append(WitnessStep{
                  WitnessStep::Kind::Transition, PI.Point->loc(), Frame.Depth,
                  std::string(symbolText(Eff.TreeKey)),
                  CurChecker->stateName(VS->Value),
                  CurChecker->stateName(Value)});
          }
          VS->Value = Value;
          Copy.SMI.sweepStopped();
        } else if (Value != StateStop && Eff.Tree) {
          ACtxImpl ACtx(*this, Copy, Frame.Fn, Frame.Depth, &PI);
          ACtx.createInstance(Eff.Tree, Value);
          Copy.Trail.mix(WitnessStep::Kind::Transition, symbolText(Eff.TreeKey),
                         "", CurChecker->stateName(Value));
          if (WitnessOn)
            Copy.Witness.append(WitnessStep{
                WitnessStep::Kind::Transition, PI.Point->loc(), Frame.Depth,
                std::string(symbolText(Eff.TreeKey)), "",
                CurChecker->stateName(Value)});
        }
        processPoints(Frame, B, EntrySnapshot, I + 1, std::move(Copy));
      }
      return;
    }

    // Interprocedural: follow calls the checker did not match.
    if (Opts.Interprocedural && !Matched) {
      if (const auto *CE = dyn_cast<CallExpr>(PI.Point)) {
        if (const auto *DRE = dyn_cast<DeclRefExpr>(CE->callee())) {
          if (const auto *Callee = dyn_cast<FunctionDecl>(DRE->decl())) {
            if (CG.cfg(Callee) && Frame.Depth + 1 < Opts.MaxCallDepth) {
              followCall(Frame, B, EntrySnapshot, I + 1, std::move(PS), CE,
                         Callee);
              return;
            }
          }
        }
      }
    }
  }
  if (AbortKind != RootAbortKind::None)
    return;
  if (PS.Killed) {
    // Path-kill composition: stop traversing this path quietly.
    bump(Ctr.PathsExplored);
    if (++Frame.PathsThisFunction > Opts.MaxPathsPerFunction) {
      Frame.PathLimitReached = true;
      bump(Ctr.PathLimitHits);
    }
    return;
  }
  finishBlock(Frame, B, EntrySnapshot, std::move(PS));
}

void Engine::finishBlock(FrameCtx &Frame, const BasicBlock *B,
                         TupleSpan EntrySnapshot, PathState PS) {
  BlockSummary &Sum = Frame.FS->of(B);
  int GEntry = EntrySnapshot.empty() ? PS.SMI.GState
                                     : EntrySnapshot.front().GState;
  int GExit = PS.SMI.GState;

  // Compute this traversal's transition and add edges (Section 5.2).
  std::vector<SummaryEdge> Inserted;
  auto Insert = [&](SummaryEdge E) {
    if (!Sum.Edges.count(E)) {
      Sum.addEdge(E);
      Inserted.push_back(E);
    }
  };
  // The global-only edge (relax uses it to match add-edge start states).
  Insert(SummaryEdge{StateTuple{GEntry, {}, StateStop, {}},
                     StateTuple{GExit, {}, StateStop, {}}, nullptr, {}});

  // Hashed: iterated below, but every use (set inserts, LocalKeys probes)
  // is order-insensitive, so iteration order cannot reach report bytes.
  std::unordered_map<uint32_t, const VarState *> ExitByKey;
  for (const VarState &VS : PS.SMI.ActiveVars)
    if (VS.live() && !VS.Inactive)
      ExitByKey[VS.TreeKey] = &VS;

  std::unordered_set<uint32_t> EntryKeys;
  for (const StateTuple &T : EntrySnapshot) {
    if (T.isPlaceholder())
      continue;
    EntryKeys.insert(T.TreeKey);
    auto It = ExitByKey.find(T.TreeKey);
    if (It != ExitByKey.end()) {
      const VarState *VS = It->second;
      Insert(SummaryEdge{T,
                         StateTuple{GExit, VS->TreeKey, VS->Value, VS->Data},
                         VS->Tree, {}});
    } else {
      // The object was killed/stopped within the block.
      Insert(SummaryEdge{T, StateTuple{GExit, T.TreeKey, StateStop, {}},
                         nullptr, {}});
    }
  }
  for (const auto &[Key, VS] : ExitByKey) {
    if (EntryKeys.count(Key))
      continue;
    if (!Frame.FS->LocalKeys.count(Key))
      Frame.FS->LocalKeys[Key] = isLocalTree(VS->Tree);
    Insert(SummaryEdge{StateTuple{GEntry, Key, StateUnknown, {}},
                       StateTuple{GExit, Key, VS->Value, VS->Data}, VS->Tree,
                       VS->FactKey});
  }

  auto KeepTree = [&](uint32_t Key) {
    auto It = Frame.FS->LocalKeys.find(Key);
    return It == Frame.FS->LocalKeys.end() || !It->second;
  };
  auto NotePathEnd = [&] {
    bump(Ctr.PathsExplored);
    if (++Frame.PathsThisFunction > Opts.MaxPathsPerFunction) {
      Frame.PathLimitReached = true;
      bump(Ctr.PathLimitHits);
    }
  };

  if (B == Frame.G->exit()) {
    // ep's suffix summary equals its block summary (minus stop-enders).
    for (const SummaryEdge &E : Sum.Edges) {
      if (E.To.Value == StateStop && !E.To.isPlaceholder())
        continue;
      if (!E.To.isPlaceholder() && !KeepTree(E.To.TreeKey))
        continue;
      Sum.addSuffixEdge(E);
    }
    relaxSuffixSummaries(Frame.Backtrace, *Frame.FS, KeepTree);
    if (Frame.ExitKeys->insert(tuplesOf(PS.SMI, RootArena),
                               PS.PathAnnotation))
      Frame.ExitStates->push_back(PS);
    NotePathEnd();
    return;
  }

  const std::vector<CFGEdge> &Succs = B->succs();
  if (Succs.empty()) {
    relaxSuffixSummaries(Frame.Backtrace, *Frame.FS, KeepTree);
    NotePathEnd();
    return;
  }

  // Decide edge feasibility (false path pruning, Section 8). Each edge's
  // condition is assumed and undone right here, so the number of feasible
  // successors is known before any of them is traversed; the traversal
  // below assumes it again under a mark of its own.
  ValueTracker &VT = *Frame.VT;
  bool UseFPP = Opts.EnableFalsePathPruning && B->condition();
  auto AssumeEdge = [&](const CFGEdge &Edge) {
    if (Edge.Kind == CFGEdge::True)
      return VT.assume(B->condition(), true);
    if (Edge.Kind == CFGEdge::False)
      return VT.assume(B->condition(), false);
    if (Edge.Kind == CFGEdge::Case && Edge.CaseValue)
      return VT.assumeEq(B->condition(), Edge.CaseValue, true);
    bool Ok = true;
    if (Edge.Kind == CFGEdge::Default) {
      // The default arm excludes every case label.
      for (const CFGEdge &Other : Succs)
        if (Ok && Other.Kind == CFGEdge::Case && Other.CaseValue)
          Ok = VT.assumeEq(B->condition(), Other.CaseValue, false);
    }
    return Ok;
  };
  std::vector<std::pair<const CFGEdge *, PathState>> Feasible;
  Tri CondValue = Tri::Unknown;
  if (UseFPP)
    CondValue = VT.evaluate(B->condition());

  for (const CFGEdge &Edge : Succs) {
    if (UseFPP) {
      if (Edge.Kind == CFGEdge::True && CondValue == Tri::False) {
        bump(Ctr.PathsPruned);
        continue;
      }
      if (Edge.Kind == CFGEdge::False && CondValue == Tri::True) {
        bump(Ctr.PathsPruned);
        continue;
      }
      if (Edge.Kind == CFGEdge::Case && Edge.CaseValue &&
          VT.compareEq(B->condition(), Edge.CaseValue) == Tri::False) {
        bump(Ctr.PathsPruned);
        continue;
      }
      bool Ok;
      {
        TrackerScope Probe(VT);
        Ok = AssumeEdge(Edge);
      }
      if (!Ok) {
        bump(Ctr.PathsPruned);
        continue;
      }
    }
    PathState Copy = PS;
    // Apply path-specific transitions for the taken branch (Section 3.2).
    if (Edge.Kind == CFGEdge::True || Edge.Kind == CFGEdge::False) {
      bool Taken = Edge.Kind == CFGEdge::True;
      // Record the branch decision itself — trail always, journal under
      // capture — but only while the checker has live state: mirrors the
      // "conditionals crossed" ranking input, and keeps journals from
      // filling with pre-tracking control flow. A condition whose
      // path-specific effect *creates* the first state still gets the
      // effect's transition step below.
      if (B->condition()) {
        bool Live = PS.SMI.GState != CurChecker->initialGlobalState();
        for (const VarState &VS : PS.SMI.ActiveVars)
          if (!Live && VS.live() && !VS.Inactive)
            Live = true;
        if (Live) {
          const std::string &Cond = condText(B->condition());
          Copy.Trail.mix(WitnessStep::Kind::Branch, Cond,
                         Taken ? "true" : "false", "");
          if (WitnessOn)
            Copy.Witness.append(WitnessStep{
                WitnessStep::Kind::Branch, B->condition()->loc(), Frame.Depth,
                Cond, Taken ? "true" : "false", ""});
        }
      }
      for (const PathSpecificEffect &Eff : Copy.PendingEffects) {
        int Value = Taken ? Eff.TrueValue : Eff.FalseValue;
        if (VarState *VS = Copy.SMI.findByKey(Eff.TreeKey)) {
          if (VS->Value != Value) {
            Copy.Trail.mix(WitnessStep::Kind::Transition,
                           symbolText(Eff.TreeKey),
                           CurChecker->stateName(VS->Value),
                           CurChecker->stateName(Value));
            if (WitnessOn)
              Copy.Witness.append(WitnessStep{
                  WitnessStep::Kind::Transition,
                  B->condition() ? B->condition()->loc() : SourceLoc(),
                  Frame.Depth, std::string(symbolText(Eff.TreeKey)),
                  CurChecker->stateName(VS->Value),
                  CurChecker->stateName(Value)});
          }
          VS->Value = Value;
        } else if (Value != StateStop && Eff.Tree) {
          VarState NewVS;
          NewVS.Tree = Eff.Tree;
          NewVS.TreeKey = Eff.TreeKey;
          NewVS.Value = Value;
          NewVS.OriginLoc = Eff.Tree->loc();
          Copy.Trail.mix(WitnessStep::Kind::Transition, symbolText(Eff.TreeKey),
                         "", CurChecker->stateName(Value));
          if (WitnessOn)
            Copy.Witness.append(WitnessStep{
                WitnessStep::Kind::Transition,
                B->condition() ? B->condition()->loc() : SourceLoc(),
                Frame.Depth, std::string(symbolText(Eff.TreeKey)), "",
                CurChecker->stateName(Value)});
          Copy.SMI.ActiveVars.push_back(std::move(NewVS));
        }
      }
      Copy.SMI.sweepStopped();
    }
    Copy.PendingEffects.clear();
    Feasible.emplace_back(&Edge, std::move(Copy));
  }

  if (Feasible.empty()) {
    // Every successor is infeasible: the paper removes block summary entries
    // inserted while analysing the pruned path (Section 8, step 6).
    for (const SummaryEdge &E : Inserted)
      Sum.Edges.erase(E);
    NotePathEnd();
    return;
  }

  // Splitting at a conditional counts toward every live instance's
  // "conditionals crossed" ranking input.
  if (Feasible.size() > 1) {
    for (auto &[Edge, State] : Feasible)
      for (VarState &VS : State.SMI.ActiveVars)
        if (VS.live())
          ++VS.CondsCrossed;
  }

  for (auto &[Edge, State] : Feasible) {
    TrackerScope Facts(VT);
    if (UseFPP) {
      [[maybe_unused]] bool Ok = AssumeEdge(*Edge);
      assert(Ok && "a feasible edge stays feasible when assumed again");
    }
    traverseBlock(Frame, Edge->To, std::move(State));
  }
}

//===----------------------------------------------------------------------===//
// Interprocedural analysis (Section 6)
//===----------------------------------------------------------------------===//

const std::string &Engine::condText(const Expr *E) {
  auto It = CondTextCache.find(E);
  if (It != CondTextCache.end())
    return It->second;
  return CondTextCache[E] = printExpr(E);
}

const std::unordered_set<const VarDecl *> &
Engine::localsOf(const FunctionDecl *Fn) {
  auto It = FnLocalsCache.find(Fn);
  if (It != FnLocalsCache.end())
    return It->second;
  std::unordered_set<const VarDecl *> Locals;
  for (VarDecl *P : Fn->params())
    Locals.insert(P);
  collectLocalDecls(Fn->body(), Locals);
  return FnLocalsCache[Fn] = std::move(Locals);
}

Engine::PathState Engine::refine(const PathState &PS, const CallExpr *CE,
                                 const FunctionDecl *Caller,
                                 const FunctionDecl *Callee, RestoreInfo &RI) {
  PathState Out;
  Out.SMI.GState = PS.SMI.GState;
  Out.PathAnnotation = PS.PathAnnotation;
  const std::unordered_set<const VarDecl *> &CallerScope = localsOf(Caller);

  // Build the actual/formal pairs.
  for (unsigned I = 0; I < CE->numArgs() && I < Callee->numParams(); ++I) {
    VarDecl *Formal = Callee->param(I);
    if (Formal->name().empty())
      continue;
    RestoreInfo::ArgPair AP;
    AP.Actual = stripCasts(CE->arg(I));
    if (const auto *UO = dyn_cast<UnaryOperator>(AP.Actual)) {
      if (UO->opcode() == UnaryOperator::AddrOf) {
        AP.AddrOf = true;
        AP.ActualInner = stripCasts(UO->sub());
      }
    }
    auto RefIt = DeclRefCache.find(Formal);
    const Expr *FormalRef;
    if (RefIt != DeclRefCache.end()) {
      FormalRef = RefIt->second;
    } else {
      FormalRef = Ctx.create<DeclRefExpr>(Formal->loc(), Formal,
                                          Formal->type());
      DeclRefCache[Formal] = FormalRef;
    }
    AP.FormalRef = FormalRef;
    const Type *DerefTy =
        Formal->type() ? Formal->type()->pointeeOrElement() : nullptr;
    AP.FormalDeref = Ctx.create<UnaryOperator>(
        Formal->loc(), UnaryOperator::Deref, FormalRef,
        DerefTy ? DerefTy : FormalRef->type());
    RI.Args.push_back(AP);
  }

  for (const VarState &VS : PS.SMI.ActiveVars) {
    if (!VS.live())
      continue;
    if (VS.Inactive || !referencesAnyOf(VS.Tree, CallerScope)) {
      // Globals and file-statics pass across the boundary; file-statics are
      // temporarily inactivated while the analysis is in another file.
      VarState Clone = VS;
      std::vector<const VarDecl *> Statics;
      collectFileStatics(Clone.Tree, Statics);
      bool Inactive = false;
      for (const VarDecl *SD : Statics)
        if (SD->loc().fileID() != Callee->fileID())
          Inactive = true;
      Clone.Inactive = Inactive;
      Out.SMI.ActiveVars.push_back(std::move(Clone));
      continue;
    }
    // Caller-scope tree: try to retarget it through an argument (Table 2).
    const Expr *Sub = VS.Tree;
    for (const RestoreInfo::ArgPair &AP : RI.Args) {
      if (AP.AddrOf && AP.ActualInner)
        Sub = substituteExpr(Ctx, Sub, AP.ActualInner, AP.FormalDeref);
      else
        Sub = substituteExpr(Ctx, Sub, AP.Actual, AP.FormalRef);
    }
    if (Sub != VS.Tree && !referencesAnyOf(Sub, CallerScope)) {
      VarState Clone = VS;
      Clone.Tree = Sub;
      Clone.TreeKey = symbolize(exprKey(Sub));
      Clone.Interprocedural = true;
      Clone.CreatedAt = nullptr;
      Out.SMI.ActiveVars.push_back(std::move(Clone));
      RI.Saved.push_back(RestoreInfo::SavedInstance{VS, true});
    } else {
      // Local state not visible to the callee: saved and restored later.
      RI.Saved.push_back(RestoreInfo::SavedInstance{VS, false});
    }
  }
  return Out;
}

Engine::PathState Engine::restore(const PathState &CallerPS, SMInstance ExitSM,
                                  const RestoreInfo &RI,
                                  const FunctionDecl *Callee) {
  PathState Out;
  Out.PathAnnotation = CallerPS.PathAnnotation;
  // Scope-leave end-of-path reports below fire with the caller's journal as
  // their witness (route-invariant: identical whether the exit SMI came from
  // a summary replay or inline analysis). followCall overwrites the
  // continuation's journal afterwards. The trail follows the same rule so
  // their fingerprints are route-invariant too.
  Out.Witness = CallerPS.Witness;
  Out.Trail = CallerPS.Trail;
  Out.SMI.GState = ExitSM.GState;

  bool ByRef = CurChecker->restoreArgsByReference();

  // Under by-value semantics, state attached to the formal itself or to a
  // dot-field chain of it lives in the callee's copy and must not flow back
  // (Table 2 rows 1 and 3, "state (xa) unchanged (by value)"). Indirected
  // shapes (*xf, xf->field, the &xa row) name caller memory and always
  // restore.
  auto ValueRooted = [&](const Expr *Tree) {
    for (;;) {
      for (const RestoreInfo::ArgPair &AP : RI.Args)
        if (!AP.AddrOf && exprEquivalent(Tree, AP.FormalRef))
          return true;
      const auto *ME = dyn_cast<MemberExpr>(Tree);
      if (!ME || ME->isArrow())
        return false;
      Tree = ME->base();
    }
  };

  for (VarState &VS : ExitSM.ActiveVars) {
    if (!VS.live())
      continue;
    if (!ByRef && ValueRooted(VS.Tree))
      continue;
    // Retarget callee-scope trees back into the caller (Table 2 restore).
    const Expr *Tree = VS.Tree;
    for (const RestoreInfo::ArgPair &AP : RI.Args) {
      if (AP.AddrOf && AP.ActualInner)
        Tree = substituteExpr(Ctx, Tree, AP.FormalDeref, AP.ActualInner);
      Tree = substituteExpr(Ctx, Tree, AP.FormalRef,
                            AP.AddrOf && AP.ActualInner ? AP.ActualInner
                                                        : AP.Actual);
    }
    if (referencesAnyOf(Tree, localsOf(Callee))) {
      // The object permanently leaves scope with the callee: $end_of_path$.
      ACtxImpl ACtx(*this, Out, Callee, 0, nullptr);
      CurChecker->checkEndOfPath(&VS, ACtx);
      continue;
    }
    VarState Clone = VS;
    Clone.Tree = Tree;
    Clone.TreeKey = symbolize(exprKey(Tree));
    // File-statics reactivate when the analysis returns to their file.
    std::vector<const VarDecl *> Statics;
    collectFileStatics(Tree, Statics);
    Clone.Inactive = false;
    for (const VarDecl *SD : Statics)
      if (SD->loc().fileID() != RI.CallerFileID)
        Clone.Inactive = true;
    Out.SMI.ActiveVars.push_back(std::move(Clone));
  }

  for (const RestoreInfo::SavedInstance &Saved : RI.Saved) {
    if (Saved.PassedToCallee) {
      if (ByRef)
        continue; // The callee's view came back (or the object stopped).
      // By-value: the caller's state is unchanged by the call.
      std::erase_if(Out.SMI.ActiveVars, [&](const VarState &VS) {
        return VS.TreeKey == Saved.VS.TreeKey;
      });
      Out.SMI.ActiveVars.push_back(Saved.VS);
      continue;
    }
    Out.SMI.ActiveVars.push_back(Saved.VS);
  }
  return Out;
}

std::vector<SMInstance> Engine::replaySummary(const FunctionDecl *Callee,
                                              const SMInstance &Refined,
                                              bool PartialOk) {
  FunctionSummaries &FS = Summaries[Callee];
  const CFG *G = CG.cfg(Callee);
  const BlockSummary &EntrySum = FS.entrySummary(*G);
  const std::set<SummaryEdge> &Edges = EntrySum.SuffixEdges;

  // Collect the applicable edges for the current state.
  struct Applicable {
    const SummaryEdge *E;
    const VarState *Source; ///< Incoming instance (null for add edges).
  };
  // Ordered by key *text*: PerTree's iteration order decides partition
  // assembly (and hence ActiveVars push order, and hence report bytes), so
  // it must match the historical string-keyed map exactly.
  std::map<uint32_t, std::vector<Applicable>, SymbolTextLess> PerTree;
  std::vector<int> GlobalExits;
  std::vector<const VarState *> Unmatched; ///< Kept verbatim (PartialOk).

  for (const SummaryEdge &E : Edges)
    if (E.isGlobalOnly() && E.From.GState == Refined.GState)
      GlobalExits.push_back(E.To.GState);
  if (GlobalExits.empty())
    GlobalExits.push_back(Refined.GState);

  for (const VarState &VS : Refined.ActiveVars) {
    if (!VS.live())
      continue;
    if (VS.Inactive) {
      Unmatched.push_back(&VS); // Invisible to the callee; persists.
      continue;
    }
    StateTuple T{Refined.GState, VS.TreeKey, VS.Value, VS.Data};
    bool Any = false;
    for (const SummaryEdge &E : Edges) {
      if (E.isAdd() || E.From != T)
        continue;
      PerTree[VS.TreeKey].push_back(Applicable{&E, &VS});
      Any = true;
    }
    if (!Any) {
      if (PartialOk)
        Unmatched.push_back(&VS); // Recursion: assume unchanged.
      // Otherwise the instance stopped on every path through the callee.
    }
  }
  // Add edges that can fire: trees the caller knows nothing about.
  for (const SummaryEdge &E : Edges) {
    if (!E.isAdd() || E.From.GState != Refined.GState)
      continue;
    if (Refined.findByKey(E.From.TreeKey))
      continue;
    PerTree[E.From.TreeKey].push_back(Applicable{&E, nullptr});
  }

  // Partition into disjoint exit states (Section 6.3, step 5): one exit
  // sm_instance per combination index; same-tree alternatives land in
  // different partitions.
  size_t NumParts = 1;
  for (const auto &[Key, List] : PerTree)
    NumParts = std::max(NumParts, List.size());

  std::vector<SMInstance> Out;
  StateKeySet Seen;
  for (int GExit : GlobalExits) {
    for (size_t Part = 0; Part != NumParts; ++Part) {
      SMInstance SMI;
      SMI.GState = GExit;
      for (const VarState *VS : Unmatched)
        SMI.ActiveVars.push_back(*VS);
      for (const auto &[Key, List] : PerTree) {
        const Applicable &A = List[Part % List.size()];
        // Edges are per-function paths: only those consistent with this
        // exit global state apply.
        if (A.E->To.GState != GExit && GlobalExits.size() > 1)
          continue;
        if (A.E->To.Value == StateStop)
          continue;
        VarState VS;
        if (A.Source) {
          VS = *A.Source;
        } else {
          // A callee-created instance surfacing in the caller. Deliberately
          // NOT marked Interprocedural: the inline route's restore() leaves
          // callee-created state unmarked (the Figure 2 ranking walkthrough
          // counts the caller-side use as the *local* error), and whether a
          // callsite replays a summary or descends inline is a cache-warmth
          // accident that varies with --jobs — the mark must not depend on
          // it. refine() marks state the caller passed in, on both routes.
          VS.OriginLoc = A.E->ToTree ? A.E->ToTree->loc() : SourceLoc();
          // The creation fact recorded with the add edge: replayed instances
          // must group and rank exactly like their inline-analyzed twins.
          VS.FactKey = A.E->FactKey;
        }
        VS.Tree = A.E->ToTree;
        if (!VS.Tree) {
          // No materialized tree survived; fall back to the source tree.
          if (!A.Source)
            continue;
          VS.Tree = A.Source->Tree;
        }
        VS.TreeKey = A.E->To.TreeKey;
        VS.Value = A.E->To.Value;
        VS.Data = A.E->To.Data;
        VS.CreatedAt = nullptr;
        SMI.ActiveVars.push_back(std::move(VS));
      }
      std::vector<StateTuple> Tuples = tuplesOf(SMI);
      if (Seen.insert(TupleSpan{Tuples.data(), uint32_t(Tuples.size())}))
        Out.push_back(std::move(SMI));
    }
  }
  return Out;
}

void Engine::followCall(FrameCtx &Frame, const BasicBlock *B,
                        TupleSpan EntrySnapshot, size_t NextIdx, PathState PS,
                        const CallExpr *CE, const FunctionDecl *Callee) {
  RestoreInfo RI;
  RI.CallerFileID = Frame.Fn->fileID();
  PathState Refined = refine(PS, CE, Frame.Fn, Callee, RI);

  // Witness route-invariance: whether this call is answered by a summary
  // replay (warm cache) or by inline analysis (cold cache) depends on which
  // roots this worker saw first, i.e. on --jobs. The caller's continuation
  // witness must not — so it is always rebuilt below as
  //   caller journal + one summary-application step + the per-object state
  //   diff between the refined entry and each callee exit,
  // identical on both routes. The callee's own journal (caller prefix + call
  // step + callee-internal steps) feeds only reports emitted *inside* the
  // callee during inline descent. Snapshot the entry states before the
  // descent mutates them.
  // Ordered by key text: iterated into witness steps, whose order is
  // report-visible under --explain.
  std::map<uint32_t, int, SymbolTextLess> WEntryStates;
  int WEntryG = Refined.SMI.GState;
  if (WitnessOn)
    for (const VarState &VS : Refined.SMI.ActiveVars)
      if (VS.live() && !VS.Inactive)
        WEntryStates[VS.TreeKey] = VS.Value;

  bool OnStack = Frame.CallStack->count(Callee) != 0;
  const CFG *CalleeCFG = CG.cfg(Callee);
  FunctionSummaries &CalleeFS = Summaries[Callee];

  std::vector<PathState> CalleeExits;
  bool Replayed = false;

  if (Opts.EnableFunctionSummaries) {
    const auto &EntryTuples = CalleeFS.entryTuples(*CalleeCFG);
    bool AllIn = !EntryTuples.empty();
    for (const StateTuple &T : tuplesOf(Refined.SMI))
      if (!EntryTuples.count(T)) {
        AllIn = false;
        break;
      }
    if (AllIn || OnStack) {
      bump(Ctr.FunctionCacheHits);
      for (SMInstance &SMI : replaySummary(Callee, Refined.SMI, OnStack)) {
        PathState E;
        E.SMI = std::move(SMI);
        E.PathAnnotation = Refined.PathAnnotation;
        CalleeExits.push_back(std::move(E));
      }
      Replayed = true;
    }
  } else if (OnStack) {
    // Without summaries, recursion is broken by passing state through
    // unchanged.
    CalleeExits.push_back(Refined);
    Replayed = true;
  }

  if (!Replayed) {
    bump(Ctr.CallsFollowed);
    std::set<const FunctionDecl *> NewStack = *Frame.CallStack;
    NewStack.insert(Callee);
    // Reports emitted inside the callee fingerprint as "caller shape + call
    // step + callee-internal shape" (the trail mirror of the journal rule
    // below, minus the capture gate).
    Refined.Trail = PS.Trail;
    Refined.Trail.mix(WitnessStep::Kind::Call, "", "", Callee->name());
    if (WitnessOn) {
      // Reports emitted inside the callee carry the caller's journal plus
      // an explicit call step — the call-chain the --explain indentation
      // renders.
      Refined.Witness = PS.Witness;
      Refined.Witness.append(WitnessStep{WitnessStep::Kind::Call, CE->loc(),
                                         Frame.Depth, "", "",
                                         std::string(Callee->name())});
    }
    CalleeExits =
        analyzeFunction(Callee, Refined, std::move(NewStack), Frame.Depth + 1);
  }

  if (CalleeExits.empty()) {
    // The callee never returns in this state (killed paths / path limits):
    // the caller's path ends here.
    bump(Ctr.PathsExplored);
    return;
  }
  for (PathState &ExitPS : CalleeExits) {
    // Rebuild the continuation witness route-invariantly (see above): the
    // diff must be taken before restore() consumes the exit SMI.
    WitnessJournal ContWitness;
    if (WitnessOn) {
      ContWitness = PS.Witness;
      ContWitness.append(WitnessStep{WitnessStep::Kind::SummaryApply,
                                     CE->loc(), Frame.Depth, "", "",
                                     std::string(Callee->name())});
      std::map<uint32_t, int, SymbolTextLess> ExitStates;
      for (const VarState &VS : ExitPS.SMI.ActiveVars)
        if (VS.live() && !VS.Inactive)
          ExitStates[VS.TreeKey] = VS.Value;
      for (const auto &[Key, Value] : ExitStates) {
        auto It = WEntryStates.find(Key);
        if (It != WEntryStates.end() && It->second == Value)
          continue;
        ContWitness.append(WitnessStep{
            WitnessStep::Kind::Transition, CE->loc(), Frame.Depth,
            std::string(symbolText(Key)),
            It != WEntryStates.end() ? CurChecker->stateName(It->second)
                                     : std::string(),
            CurChecker->stateName(Value)});
      }
      for (const auto &[Key, Value] : WEntryStates)
        if (!ExitStates.count(Key))
          ContWitness.append(WitnessStep{
              WitnessStep::Kind::Transition, CE->loc(), Frame.Depth,
              std::string(symbolText(Key)), CurChecker->stateName(Value),
              CurChecker->stateName(StateStop)});
      if (ExitPS.SMI.GState != WEntryG)
        ContWitness.append(WitnessStep{
            WitnessStep::Kind::Transition, CE->loc(), Frame.Depth, "",
            CurChecker->stateName(WEntryG),
            CurChecker->stateName(ExitPS.SMI.GState)});
    }
    PathState Cont = restore(PS, std::move(ExitPS.SMI), RI, Callee);
    // Continuation trail, route-invariant by construction: the caller's
    // trail (copied by restore) plus one summary-application step — never
    // callee-internal events, which depend on replay-vs-inline routing.
    Cont.Trail.mix(WitnessStep::Kind::SummaryApply, "", "", Callee->name());
    if (WitnessOn)
      Cont.Witness = std::move(ContWitness);
    if (annotationRank(ExitPS.PathAnnotation) <
        annotationRank(Cont.PathAnnotation))
      Cont.PathAnnotation = ExitPS.PathAnnotation;
    // Every exit continues from the caller's facts at the call: the callee
    // learned its own on a tracker of its own.
    TrackerScope Facts(*Frame.VT);
    processPoints(Frame, B, EntrySnapshot, NextIdx, std::move(Cont));
  }
}

std::vector<Engine::PathState>
Engine::analyzeFunction(const FunctionDecl *Fn, PathState PS,
                        std::set<const FunctionDecl *> Stack, unsigned Depth) {
  bump(Ctr.FunctionAnalyses);
  const CFG *G = CG.cfg(Fn);
  assert(G && "analyzeFunction requires a CFG");
  std::vector<PathState> Exits;
  StateKeySet ExitKeys;
  FrameCtx Frame;
  Frame.Fn = Fn;
  Frame.G = G;
  // With function summaries disabled (ablation), block summaries must not
  // persist across activations: a second identical call would abort inside
  // the callee without producing the memoized exit states.
  FunctionSummaries LocalFS;
  Frame.FS = Opts.EnableFunctionSummaries ? &Summaries[Fn] : &LocalFS;
  if (Opts.EnableFunctionSummaries)
    TouchedThisRoot.push_back(Fn);
  Frame.ExitStates = &Exits;
  Frame.ExitKeys = &ExitKeys;
  Frame.CallStack = &Stack;
  // A callee starts knowing nothing of its caller's values (refine passes
  // checker state only), so each activation owns a fresh tracker.
  ValueTracker VT;
  Frame.VT = &VT;
  Frame.Depth = Depth;
  traverseBlock(Frame, G->entry(), std::move(PS));
  return Exits;
}

void Engine::endOfPath(PathState &PS, const FunctionDecl *Root) {
  // Instances die with the program; the program itself terminates.
  for (VarState &VS : PS.SMI.ActiveVars) {
    if (!VS.live())
      continue;
    ACtxImpl ACtx(*this, PS, Root, 0, nullptr);
    CurChecker->checkEndOfPath(&VS, ACtx);
  }
  ACtxImpl ACtx(*this, PS, Root, 0, nullptr);
  CurChecker->checkEndOfPath(nullptr, ACtx);
}

bool Engine::rootAborted() {
  if (AbortKind != RootAbortKind::None)
    return true;
  if (DeadlineArmed && DeadlineExpired.load(std::memory_order_relaxed)) {
    AbortKind = RootAbortKind::Deadline;
    AbortReason = "deadline of " +
                  std::to_string(Opts.Reporting.RootDeadlineMs) +
                  "ms exceeded";
    bump(Ctr.DeadlineHits);
    return true;
  }
  if (Opts.RootPathBudget &&
      Ctr.PathsExplored->load(std::memory_order_relaxed) - RootPathsBase >
          Opts.RootPathBudget) {
    AbortKind = RootAbortKind::PathBudget;
    AbortReason = "root path budget of " +
                  std::to_string(Opts.RootPathBudget) + " paths exceeded";
    return true;
  }
  return false;
}

/// The span-arg spelling of a root outcome (job-agnostic).
static const char *rootAbortKindName(RootAbortKind K) {
  switch (K) {
  case RootAbortKind::None:
    return "ok";
  case RootAbortKind::Deadline:
    return "deadline";
  case RootAbortKind::PathBudget:
    return "path-budget";
  case RootAbortKind::StateLimit:
    return "state-limit";
  case RootAbortKind::CheckerFault:
    return "checker-fault";
  }
  return "ok";
}

RootOutcome Engine::analyzeRoot(Checker &C, const FunctionDecl *Root) {
  CurChecker = &C;
  refreshCheckerCells(C);
  RootOutcome Out;
  if (!CG.cfg(Root))
    return Out;
  bump(Ctr.RootsAnalyzed);

  // One trace buffer per analysis attempt, on the root's lane: buffers on a
  // lane open in attempt order (ladder retries are sequential), so the
  // merged stream is identical at any --jobs count.
  TraceBuffer *Buf = Trace ? Trace->openBuffer(laneOf(Root)) : nullptr;
  TraceSpan RootSpan(Buf, "root");
  RootSpan.arg("root", Root->name());
  RootSpan.arg("checker", C.name());

  // Fault boundary. The root's reports and annotations go into Out, which
  // the caller merges; the summaries are the one state shared with later
  // roots, so the functions they belong to are noted for rollback. A
  // checker that reads its own annotations shares none: a summary another
  // root built replays that root's view of them.
  if (C.readsOwnAnnotations())
    Summaries.clear();
  AbortKind = RootAbortKind::None;
  AbortReason.clear();
  RootPathsBase = Ctr.PathsExplored->load(std::memory_order_relaxed);
  TouchedThisRoot.clear();
  RootOut = &Out;
  DeadlineExpired.store(false, std::memory_order_relaxed);
  DeadlineArmed = Opts.Reporting.RootDeadlineMs != 0;
  {
    DeadlineScope Guard(DeadlineExpired, Opts.Reporting.RootDeadlineMs);
    PathState PS;
    PS.SMI.GState = C.initialGlobalState();
    std::set<const FunctionDecl *> Stack{Root};
    std::vector<PathState> Exits;
    {
      TraceSpan TraverseSpan(Buf, "traverse");
      Exits = analyzeFunction(Root, std::move(PS), Stack, 0);
    }
    {
      TraceSpan EndSpan(Buf, "end-of-path");
      for (PathState &E : Exits) {
        if (AbortKind != RootAbortKind::None)
          break;
        endOfPath(E, Root);
      }
    }
  }
  DeadlineArmed = false;
  RootOut = nullptr;
  if (AbortKind != RootAbortKind::None) {
    Out.Kind = AbortKind;
    Out.Reason = std::move(AbortReason);
    Out.Reports.clear();
    Out.Annotations.clear();
    // Summaries touched by the aborted traversal are incomplete (some suffix
    // edges were never relaxed); a later root replaying one would silently
    // drop reports. Valid pre-existing summaries of touched functions go
    // too: re-deriving them is just work, never a behavior change.
    for (const FunctionDecl *Fn : TouchedThisRoot)
      Summaries.erase(Fn);
  }
  RootSpan.arg("outcome", rootAbortKindName(Out.Kind));
  // Per-root arena teardown: record the telemetry, then free every slab in
  // one sweep. An aborted root's transients die here too — the rollback
  // path never has to reason about them.
  bump(Ctr.ArenaBytes, RootArena.bytesAllocated());
  bump(Ctr.ArenaSlabs, RootArena.maxSlabs());
  RootArena.reset();
  return Out;
}

void Engine::beginChecker(Checker &C) {
  CurChecker = &C;
  // Force cell re-registration: a fresh Checker may reuse a destroyed one's
  // address, which the pointer guard alone would miss.
  CellsChecker = nullptr;
  refreshCheckerCells(C);
  Summaries.clear();
  // Drop the dispatch memo unconditionally, for the same address-reuse
  // reason.
  DispatchBlockMemo.clear();
  MemoChecker = &C;
}

void Engine::run(Checker &C) {
  beginChecker(C);
  // Raw mode: outcomes are dropped (an aborted root is simply skipped).
  // XgccTool::run layers the merge, the degradation ladder and incident
  // records on top.
  for (const FunctionDecl *Root : CG.roots())
    analyzeRoot(C, Root);
}

EngineOptions mc::degradedOptions(const EngineOptions &Base, unsigned Stage) {
  EngineOptions O = Base;
  // Stage 1: stop following calls — the usual budget blower.
  O.Interprocedural = false;
  if (Stage >= 2) {
    // Stage 2: also halve the path budgets.
    O.MaxPathsPerFunction = std::max<uint64_t>(Base.MaxPathsPerFunction / 2, 1);
    if (Base.RootPathBudget)
      O.RootPathBudget = std::max<uint64_t>(Base.RootPathBudget / 2, 1);
  }
  if (Stage >= 3) {
    // Stage 3: intraprocedural skim. Truncate (soft valves) instead of
    // aborting (RootPathBudget off) so the stage always yields a result.
    O.MaxPathsPerFunction = std::min<uint64_t>(O.MaxPathsPerFunction, 256);
    O.MaxPathLength = std::min(O.MaxPathLength, 1024u);
    O.RootPathBudget = 0;
  }
  return O;
}
