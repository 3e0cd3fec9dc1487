//===- cfront/Serialize.cpp - AST binary serialization ----------------------===//
//
// Part of the metal/xgcc reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Stream grammar (all integers LEB128 varints):
//
//   image    := magic declcount declref* body* 0x00
//   body     := 0x01 declref stmt
//   declref  := 0x00                      (null)
//             | 0x01 declheader           (definition; assigns the next id)
//             | varint(id + 2)            (back-reference)
//   typeref  := 0x00 | 0x01 typedef | varint(id + 2)
//
// Declarations and types are defined at their first mention, so local
// variables and types that only occur inside bodies are carried inline.
//
//===----------------------------------------------------------------------===//

#include "cfront/Serialize.h"

#include "cfront/ASTContext.h"

#include <atomic>
#include <cstdio>
#include <map>
#include <set>
#include <vector>

using namespace mc;

namespace {

constexpr char Magic[] = "MAST2\n";
// Per-TU images (the AST store's payload) use a separate magic: they carry
// no file table and encode locations relative to the owning TU, so the two
// grammars are not interchangeable.
constexpr char MagicTU[] = "MASTU\n";

//===----------------------------------------------------------------------===//
// Writer
//===----------------------------------------------------------------------===//

class Writer {
public:
  Writer(const ASTContext *Ctx, const SourceManager *SM) : Ctx(Ctx), SM(SM) {}

  std::string run() {
    Out.append(Magic, sizeof(Magic) - 1);
    // File table: buffer names and contents so pass 2 can decode locations.
    if (SM) {
      varint(SM->numBuffers());
      for (unsigned ID = 1; ID <= SM->numBuffers(); ++ID) {
        str(SM->bufferName(ID));
        str(SM->bufferText(ID));
      }
    } else {
      varint(0);
    }
    std::vector<const Decl *> Top(Ctx->topLevelDecls().begin(),
                                  Ctx->topLevelDecls().end());
    for (const FunctionDecl *FD : Ctx->functions())
      Top.push_back(FD); // Implicit decls may be absent from topLevelDecls.
    varint(Top.size());
    for (const Decl *D : Top)
      writeDeclRef(D);
    for (const FunctionDecl *FD : Ctx->functions()) {
      if (!FD->isDefined())
        continue;
      byte(1);
      writeDeclRef(FD);
      writeStmt(FD->body());
    }
    byte(0);
    return std::move(Out);
  }

  /// Per-TU image: both parse sinks in recorded order, then bodies for the
  /// functions this TU defines. Bodies of functions the sinks mention but
  /// some other TU defines are *not* written — they belong to that TU's
  /// image (the store refuses to record a TU whose definitions leaked
  /// elsewhere; see XgccTool's cacheability guard).
  std::string runTU(const std::vector<Decl *> &Top,
                    const std::vector<FunctionDecl *> &Fns, unsigned FileID) {
    TUMode = true;
    TUFileID = FileID;
    Out.append(MagicTU, sizeof(MagicTU) - 1);
    varint(Top.size());
    for (const Decl *D : Top)
      writeDeclRef(D);
    varint(Fns.size());
    for (const FunctionDecl *FD : Fns)
      writeDeclRef(FD);
    for (const FunctionDecl *FD : Fns) {
      if (!FD->isDefined() || FD->fileID() != TUFileID)
        continue;
      byte(1);
      writeDeclRef(FD);
      writeStmt(FD->body());
    }
    byte(0);
    return std::move(Out);
  }

private:
  void byte(uint8_t B) { Out.push_back(char(B)); }
  void varint(uint64_t V) {
    while (V >= 0x80) {
      byte(uint8_t(V) | 0x80);
      V >>= 7;
    }
    byte(uint8_t(V));
  }
  void str(std::string_view S) {
    varint(S.size());
    Out.append(S);
  }
  void loc(SourceLoc L) {
    if (TUMode) {
      // Own/foreign encoding: a location inside this TU's expanded buffer is
      // written as file 1 and rebound to the loading run's buffer id; any
      // other file id (a decl merged from another TU, or an invalid loc) is
      // written as 0. Raw ids would tie the image to one input ordering.
      varint(L.fileID() == TUFileID && TUFileID != 0 ? 1 : 0);
      varint(L.offset());
      return;
    }
    varint(L.fileID());
    varint(L.offset());
  }

  void writeType(const Type *T) {
    if (!T) {
      varint(0);
      return;
    }
    auto It = TypeIds.find(T);
    if (It != TypeIds.end()) {
      varint(It->second + 2);
      return;
    }
    TypeIds[T] = NextTypeId++;
    varint(1);
    byte(uint8_t(T->kind()));
    switch (T->kind()) {
    case Type::TK_Builtin:
      byte(uint8_t(cast<BuiltinType>(T)->builtin()));
      break;
    case Type::TK_Pointer:
      writeType(cast<PointerType>(T)->pointee());
      break;
    case Type::TK_Array:
      varint(cast<ArrayType>(T)->size());
      writeType(cast<ArrayType>(T)->element());
      break;
    case Type::TK_Function: {
      const auto *FT = cast<FunctionType>(T);
      byte(FT->isVariadic());
      writeType(FT->returnType());
      varint(FT->params().size());
      for (const Type *P : FT->params())
        writeType(P);
      break;
    }
    case Type::TK_Record: {
      const auto *RT = cast<RecordType>(T);
      str(RT->tag());
      byte(RT->isUnion());
      byte(RT->isComplete());
      if (RT->isComplete()) {
        varint(RT->fields().size());
        for (const RecordType::Field &F : RT->fields()) {
          str(F.Name);
          writeType(F.Ty);
        }
      }
      break;
    }
    case Type::TK_Enum:
      str(cast<EnumType>(T)->tag());
      break;
    }
  }

  void writeDeclRef(const Decl *D) {
    if (!D) {
      varint(0);
      return;
    }
    auto It = DeclIds.find(D);
    if (It != DeclIds.end()) {
      varint(It->second + 2);
      return;
    }
    DeclIds[D] = NextDeclId++;
    varint(1);
    byte(uint8_t(D->kind()));
    loc(D->loc());
    str(D->name());
    switch (D->kind()) {
    case Decl::DK_Var: {
      const auto *VD = cast<VarDecl>(D);
      byte(uint8_t(VD->storage()));
      writeType(VD->type());
      if (VD->init()) {
        byte(1);
        writeExpr(VD->init());
      } else {
        byte(0);
      }
      break;
    }
    case Decl::DK_Function: {
      const auto *FD = cast<FunctionDecl>(D);
      byte(FD->isFileStatic());
      varint(TUMode ? uint64_t(FD->fileID() == TUFileID ? 1 : 0)
                    : uint64_t(FD->fileID()));
      writeType(FD->type());
      varint(FD->numParams());
      for (const VarDecl *P : FD->params())
        writeDeclRef(P);
      break;
    }
    case Decl::DK_EnumConstant: {
      const auto *EC = cast<EnumConstantDecl>(D);
      varint(uint64_t(EC->value()));
      writeType(EC->type());
      break;
    }
    case Decl::DK_Typedef:
      writeType(cast<TypedefDecl>(D)->type());
      break;
    case Decl::DK_Record:
      writeType(cast<RecordDecl>(D)->type());
      break;
    case Decl::DK_Enum: {
      const auto *ED = cast<EnumDecl>(D);
      writeType(ED->type());
      varint(ED->constants().size());
      for (const EnumConstantDecl *EC : ED->constants())
        writeDeclRef(EC);
      break;
    }
    }
  }

  void writeExpr(const Expr *E) {
    if (!E) {
      byte(0);
      return;
    }
    byte(uint8_t(E->kind()) + 1);
    loc(E->loc());
    writeType(E->type());
    switch (E->kind()) {
    case Stmt::SK_IntegerLiteral:
      varint(cast<IntegerLiteral>(E)->value());
      break;
    case Stmt::SK_FloatLiteral: {
      double V = cast<FloatLiteral>(E)->value();
      uint64_t Bits;
      __builtin_memcpy(&Bits, &V, sizeof(Bits));
      varint(Bits);
      break;
    }
    case Stmt::SK_CharLiteral:
      varint(uint64_t(uint32_t(cast<CharLiteral>(E)->value())));
      break;
    case Stmt::SK_StringLiteral:
      str(cast<StringLiteral>(E)->value());
      break;
    case Stmt::SK_DeclRef:
      writeDeclRef(cast<DeclRefExpr>(E)->decl());
      break;
    case Stmt::SK_Unary:
      byte(uint8_t(cast<UnaryOperator>(E)->opcode()));
      writeExpr(cast<UnaryOperator>(E)->sub());
      break;
    case Stmt::SK_Binary:
      byte(uint8_t(cast<BinaryOperator>(E)->opcode()));
      writeExpr(cast<BinaryOperator>(E)->lhs());
      writeExpr(cast<BinaryOperator>(E)->rhs());
      break;
    case Stmt::SK_ArraySubscript:
      writeExpr(cast<ArraySubscriptExpr>(E)->base());
      writeExpr(cast<ArraySubscriptExpr>(E)->index());
      break;
    case Stmt::SK_Member: {
      const auto *ME = cast<MemberExpr>(E);
      byte(ME->isArrow());
      str(ME->member());
      writeExpr(ME->base());
      break;
    }
    case Stmt::SK_Call: {
      const auto *CE = cast<CallExpr>(E);
      writeExpr(CE->callee());
      varint(CE->numArgs());
      for (const Expr *A : CE->args())
        writeExpr(A);
      break;
    }
    case Stmt::SK_Cast:
      writeExpr(cast<CastExpr>(E)->sub());
      break;
    case Stmt::SK_Sizeof: {
      const auto *SE = cast<SizeofExpr>(E);
      byte(SE->argType() != nullptr);
      if (SE->argType())
        writeType(SE->argType());
      else
        writeExpr(SE->argExpr());
      break;
    }
    case Stmt::SK_Conditional:
      writeExpr(cast<ConditionalExpr>(E)->cond());
      writeExpr(cast<ConditionalExpr>(E)->thenExpr());
      writeExpr(cast<ConditionalExpr>(E)->elseExpr());
      break;
    case Stmt::SK_InitList: {
      const auto *IL = cast<InitListExpr>(E);
      varint(IL->inits().size());
      for (const Expr *I : IL->inits())
        writeExpr(I);
      break;
    }
    case Stmt::SK_Hole: {
      const auto *H = cast<HoleExpr>(E);
      byte(uint8_t(H->holeKind()));
      str(H->holeName());
      break;
    }
    default:
      break;
    }
  }

  void writeStmt(const Stmt *S) {
    if (!S) {
      byte(0);
      return;
    }
    if (const auto *E = dyn_cast<Expr>(S)) {
      writeExpr(E);
      return;
    }
    byte(uint8_t(S->kind()) + 1);
    loc(S->loc());
    switch (S->kind()) {
    case Stmt::SK_Compound: {
      const auto *CS = cast<CompoundStmt>(S);
      varint(CS->body().size());
      for (const Stmt *Sub : CS->body())
        writeStmt(Sub);
      break;
    }
    case Stmt::SK_Decl: {
      const auto *DS = cast<DeclStmt>(S);
      varint(DS->decls().size());
      for (const VarDecl *VD : DS->decls())
        writeDeclRef(VD);
      break;
    }
    case Stmt::SK_If: {
      const auto *IS = cast<IfStmt>(S);
      writeExpr(IS->cond());
      writeStmt(IS->thenStmt());
      writeStmt(IS->elseStmt());
      break;
    }
    case Stmt::SK_While:
      writeExpr(cast<WhileStmt>(S)->cond());
      writeStmt(cast<WhileStmt>(S)->body());
      break;
    case Stmt::SK_Do:
      writeStmt(cast<DoStmt>(S)->body());
      writeExpr(cast<DoStmt>(S)->cond());
      break;
    case Stmt::SK_For: {
      const auto *FS = cast<ForStmt>(S);
      writeStmt(FS->init());
      writeExpr(FS->cond());
      writeExpr(FS->inc());
      writeStmt(FS->body());
      break;
    }
    case Stmt::SK_Switch:
      writeExpr(cast<SwitchStmt>(S)->cond());
      writeStmt(cast<SwitchStmt>(S)->body());
      break;
    case Stmt::SK_Case:
      writeExpr(cast<CaseStmt>(S)->value());
      writeStmt(cast<CaseStmt>(S)->sub());
      break;
    case Stmt::SK_Default:
      writeStmt(cast<DefaultStmt>(S)->sub());
      break;
    case Stmt::SK_Break:
    case Stmt::SK_Continue:
    case Stmt::SK_Null:
      break;
    case Stmt::SK_Return:
      writeExpr(cast<ReturnStmt>(S)->value());
      break;
    case Stmt::SK_Goto:
      str(cast<GotoStmt>(S)->label());
      break;
    case Stmt::SK_Label:
      str(cast<LabelStmt>(S)->name());
      writeStmt(cast<LabelStmt>(S)->sub());
      break;
    default:
      break;
    }
  }

  const ASTContext *Ctx;
  const SourceManager *SM;
  std::string Out;
  std::map<const Type *, unsigned> TypeIds;
  std::map<const Decl *, unsigned> DeclIds;
  unsigned NextTypeId = 0;
  unsigned NextDeclId = 0;
  bool TUMode = false;
  unsigned TUFileID = 0;
};

//===----------------------------------------------------------------------===//
// Reader
//===----------------------------------------------------------------------===//

class Reader {
public:
  Reader(const std::string &Image, ASTContext &Ctx, SourceManager *SM)
      : Image(Image), Ctx(Ctx), SM(SM) {}

  bool run(std::string *ErrorOut) {
    if (Image.size() < sizeof(Magic) - 1 ||
        Image.compare(0, sizeof(Magic) - 1, Magic) != 0)
      return fail("bad magic", ErrorOut);
    Pos = sizeof(Magic) - 1;
    // File table: register the embedded buffers and build the id remap.
    uint64_t NumFiles = varint();
    if (NumFiles > Image.size())
      return fail("corrupt file table", ErrorOut);
    for (uint64_t I = 0; I != NumFiles; ++I) {
      std::string Name(rawStr());
      std::string Text(rawStr());
      if (Failed)
        return fail("corrupt file table", ErrorOut);
      FileRemap.push_back(SM ? SM->addBuffer(std::move(Name), std::move(Text))
                             : 0);
    }
    uint64_t NumTop = varint();
    for (uint64_t I = 0; I != NumTop; ++I) {
      readDeclRef();
      if (Failed)
        return fail("malformed declaration", ErrorOut);
    }
    for (;;) {
      uint8_t Tag = byte();
      if (Failed)
        return fail("truncated body section", ErrorOut);
      if (Tag == 0)
        break;
      if (Tag != 1)
        return fail("unexpected record in body section", ErrorOut);
      Decl *D = readDeclRef();
      const Stmt *Body = readStmt();
      if (Failed)
        return fail("malformed function body", ErrorOut);
      auto *FD = dyn_cast_or_null<FunctionDecl>(D);
      if (!FD || !Body || !isa<CompoundStmt>(Body))
        return fail("body attached to a non-function", ErrorOut);
      FD->setBody(cast<CompoundStmt>(Body));
    }
    return true;
  }

  /// Per-TU image load. Mirrors a redirected parallel parse: created decls
  /// land in the TU's sinks, already-known functions merge by name, and the
  /// sink membership rules match Parser::noteFunction (a merged function
  /// belongs to the TU that created it, not to this one).
  bool runTU(unsigned FileID, std::vector<Decl *> &TopSinkOut,
             std::vector<FunctionDecl *> &FnSinkOut, std::string *ErrorOut) {
    TUMode = true;
    TUFileID = FileID;
    TopSink = &TopSinkOut;
    FnSink = &FnSinkOut;
    if (Image.size() < sizeof(MagicTU) - 1 ||
        Image.compare(0, sizeof(MagicTU) - 1, MagicTU) != 0)
      return fail("bad magic", ErrorOut);
    Pos = sizeof(MagicTU) - 1;
    uint64_t NumTop = varint();
    if (NumTop > Image.size())
      return fail("corrupt top-level table", ErrorOut);
    for (uint64_t I = 0; I != NumTop; ++I) {
      Decl *D = readDeclRef();
      if (Failed || !D)
        return fail("malformed declaration", ErrorOut);
      // A function that merged with a pre-existing decl was pushed to the
      // creating TU's sinks already; everything else is this TU's to keep.
      if (auto *FD = dyn_cast<FunctionDecl>(D))
        if (!Created.count(FD))
          continue;
      TopSink->push_back(D);
    }
    uint64_t NumFns = varint();
    if (NumFns > Image.size())
      return fail("corrupt function table", ErrorOut);
    for (uint64_t I = 0; I != NumFns; ++I) {
      auto *FD = dyn_cast_or_null<FunctionDecl>(readDeclRef());
      if (Failed || !FD)
        return fail("malformed function declaration", ErrorOut);
      if (Created.count(FD) && FnsSunk.insert(FD).second)
        FnSink->push_back(FD);
    }
    for (;;) {
      uint8_t Tag = byte();
      if (Failed)
        return fail("truncated body section", ErrorOut);
      if (Tag == 0)
        break;
      if (Tag != 1)
        return fail("unexpected record in body section", ErrorOut);
      Decl *D = readDeclRef();
      const Stmt *Body = readStmt();
      if (Failed)
        return fail("malformed function body", ErrorOut);
      auto *FD = dyn_cast_or_null<FunctionDecl>(D);
      if (!FD || !Body || !isa<CompoundStmt>(Body))
        return fail("body attached to a non-function", ErrorOut);
      // Mirror the parser's definition path: the body binds the function to
      // this TU's expanded buffer even when the decl merged from elsewhere.
      FD->setBody(cast<CompoundStmt>(Body));
      FD->setFileID(TUFileID);
    }
    // Functions first created inside a body (callees the recording schedule
    // attributed to another TU): adopt them as this TU's implicit decls so
    // they reach Ctx.functions() through the splice, like a cold parse's
    // implicit-declaration path would.
    for (FunctionDecl *FD : CreatedFns)
      if (FnsSunk.insert(FD).second)
        FnSink->push_back(FD);
    return true;
  }

private:
  bool fail(const char *Why, std::string *ErrorOut) {
    if (ErrorOut)
      *ErrorOut = Why;
    return false;
  }

  uint8_t byte() {
    if (Pos >= Image.size()) {
      Failed = true;
      return 0;
    }
    return uint8_t(Image[Pos++]);
  }
  /// A byte holding an enumerator of \p EnumT, whose largest is \p Last. An
  /// out-of-range byte fails the read rather than make an invalid value.
  template <typename EnumT> EnumT enumByte(EnumT Last) {
    uint8_t B = byte();
    if (B > Last) {
      Failed = true;
      return EnumT(0);
    }
    return EnumT(B);
  }
  uint64_t varint() {
    uint64_t V = 0;
    unsigned Shift = 0;
    for (;;) {
      uint8_t B = byte();
      V |= uint64_t(B & 0x7f) << Shift;
      if (!(B & 0x80))
        return V;
      Shift += 7;
      if (Shift > 63) {
        Failed = true;
        return 0;
      }
    }
  }
  std::string_view str() {
    uint64_t Len = varint();
    if (Pos + Len > Image.size()) {
      Failed = true;
      return {};
    }
    std::string_view S(Image.data() + Pos, Len);
    Pos += Len;
    return Ctx.intern(S);
  }
  /// Like str() but without interning (file-table payloads can be large).
  std::string_view rawStr() {
    uint64_t Len = varint();
    if (Pos + Len > Image.size()) {
      Failed = true;
      return {};
    }
    std::string_view S(Image.data() + Pos, Len);
    Pos += Len;
    return S;
  }
  SourceLoc loc() {
    unsigned File = varint();
    unsigned Off = varint();
    if (TUMode)
      return SourceLoc(File == 1 ? TUFileID : 0, Off);
    if (File != 0 && File <= FileRemap.size())
      return SourceLoc(FileRemap[File - 1], Off);
    return SourceLoc(SM ? 0 : File, Off);
  }

  const Type *readType() {
    uint64_t Ref = varint();
    if (Ref == 0 || Failed)
      return nullptr;
    if (Ref != 1) {
      size_t Idx = Ref - 2;
      if (Idx >= Types.size()) {
        Failed = true;
        return nullptr;
      }
      return Types[Idx];
    }
    uint8_t Kind = byte();
    size_t Slot = Types.size();
    Types.push_back(nullptr);
    TypeContext &TC = Ctx.types();
    const Type *T = nullptr;
    switch (Type::TypeKind(Kind)) {
    case Type::TK_Builtin: {
      auto B = enumByte(BuiltinType::LongDouble);
      if (Failed)
        return nullptr;
      T = TC.builtin(B);
      break;
    }
    case Type::TK_Pointer:
      T = TC.pointerTo(readType());
      break;
    case Type::TK_Array: {
      unsigned Size = varint();
      T = TC.arrayOf(readType(), Size);
      break;
    }
    case Type::TK_Function: {
      bool Variadic = byte();
      const Type *Ret = readType();
      uint64_t N = varint();
      std::vector<const Type *> Params;
      for (uint64_t I = 0; I != N && !Failed; ++I)
        Params.push_back(readType());
      T = TC.functionTy(Ret, std::move(Params), Variadic);
      break;
    }
    case Type::TK_Record: {
      std::string Tag(str());
      bool Union = byte();
      bool Complete = byte();
      RecordType *RT = TC.record(Tag, Union);
      Types[Slot] = RT; // Register before fields: records can be recursive.
      if (Complete) {
        uint64_t N = varint();
        std::vector<RecordType::Field> Fields;
        for (uint64_t I = 0; I != N && !Failed; ++I) {
          std::string FName(str());
          const Type *FTy = readType();
          Fields.push_back(RecordType::Field{std::move(FName), FTy});
        }
        if (!RT->isComplete())
          RT->setFields(std::move(Fields));
      }
      return RT;
    }
    case Type::TK_Enum:
      T = TC.enumTy(std::string(str()));
      break;
    default:
      Failed = true;
      return nullptr;
    }
    Types[Slot] = T;
    return T;
  }

  Decl *readDeclRef() {
    uint64_t Ref = varint();
    if (Ref == 0 || Failed)
      return nullptr;
    if (Ref != 1) {
      size_t Idx = Ref - 2;
      if (Idx >= Decls.size() || !Decls[Idx]) {
        Failed = true;
        return nullptr;
      }
      return Decls[Idx];
    }
    uint8_t Kind = byte();
    SourceLoc L = loc();
    std::string_view Name = str();
    size_t Slot = Decls.size();
    Decls.push_back(nullptr);
    switch (Decl::DeclKind(Kind)) {
    case Decl::DK_Var: {
      auto Storage = enumByte(VarDecl::FileStatic);
      const Type *Ty = readType();
      auto *VD = Ctx.create<VarDecl>(L, Name, Ty, Storage);
      Decls[Slot] = VD;
      if (byte())
        VD->setInit(readExpr());
      if (Storage == VarDecl::Global || Storage == VarDecl::FileStatic)
        Ctx.topLevelDecls().push_back(VD);
      return VD;
    }
    case Decl::DK_Function: {
      bool FileStatic = byte();
      unsigned FileID = varint();
      if (TUMode)
        FileID = FileID == 1 ? TUFileID : 0;
      const Type *Ty = readType();
      uint64_t N = varint();
      std::vector<VarDecl *> Params;
      for (uint64_t I = 0; I != N && !Failed; ++I) {
        auto *P = dyn_cast_or_null<VarDecl>(readDeclRef());
        if (!P) {
          Failed = true;
          return nullptr;
        }
        Params.push_back(P);
      }
      const auto *FT = dyn_cast_or_null<FunctionType>(Ty);
      if (!FT) {
        Failed = true;
        return nullptr;
      }
      if (TUMode) {
        // Find-or-create under the same lock discipline as the parser. The
        // sinks are filled by runTU's list walks, not here.
        FunctionDecl *FD = nullptr;
        bool CreatedNow = false;
        {
          auto Lock = Ctx.functionLock();
          FD = Ctx.findFunctionLocked(Name);
          if (FD) {
            if (!FD->isDefined() && !Params.empty())
              FD->setParams(Ctx.allocateArray(Params));
          } else {
            FD = Ctx.create<FunctionDecl>(L, Name, FT,
                                          Ctx.allocateArray(Params),
                                          FileStatic, FileID);
            Ctx.indexFunctionLocked(FD);
            CreatedNow = true;
          }
        }
        Decls[Slot] = FD;
        if (CreatedNow) {
          Created.insert(FD);
          CreatedFns.push_back(FD);
        }
        return FD;
      }
      // Merging multiple images into one context: reuse the existing decl.
      if (FunctionDecl *Existing = Ctx.findFunction(Name)) {
        Decls[Slot] = Existing;
        if (!Existing->isDefined() && !Params.empty())
          Existing->setParams(Ctx.allocateArray(Params));
        return Existing;
      }
      auto *FD = Ctx.create<FunctionDecl>(
          L, Name, FT, Ctx.allocateArray(Params), FileStatic, FileID);
      Decls[Slot] = FD;
      Ctx.functions().push_back(FD);
      Ctx.topLevelDecls().push_back(FD);
      return FD;
    }
    case Decl::DK_EnumConstant: {
      long long Value = (long long)varint();
      const Type *Ty = readType();
      auto *EC = Ctx.create<EnumConstantDecl>(L, Name, Value,
                                              dyn_cast_or_null<EnumType>(Ty));
      Decls[Slot] = EC;
      return EC;
    }
    case Decl::DK_Typedef: {
      auto *TD = Ctx.create<TypedefDecl>(L, Name, readType());
      Decls[Slot] = TD;
      Ctx.topLevelDecls().push_back(TD);
      return TD;
    }
    case Decl::DK_Record: {
      const Type *Ty = readType();
      auto *RD = Ctx.create<RecordDecl>(
          L, Name,
          const_cast<RecordType *>(dyn_cast_or_null<RecordType>(Ty)));
      Decls[Slot] = RD;
      Ctx.topLevelDecls().push_back(RD);
      return RD;
    }
    case Decl::DK_Enum: {
      const Type *Ty = readType();
      uint64_t N = varint();
      std::vector<EnumConstantDecl *> Constants;
      for (uint64_t I = 0; I != N && !Failed; ++I) {
        auto *EC = dyn_cast_or_null<EnumConstantDecl>(readDeclRef());
        if (!EC) {
          Failed = true;
          return nullptr;
        }
        Constants.push_back(EC);
      }
      auto *ED = Ctx.create<EnumDecl>(
          L, Name, const_cast<EnumType *>(dyn_cast_or_null<EnumType>(Ty)),
          Ctx.allocateArray(Constants));
      Decls[Slot] = ED;
      Ctx.topLevelDecls().push_back(ED);
      return ED;
    }
    }
    Failed = true;
    return nullptr;
  }

  const Expr *readExpr() {
    const Stmt *S = readStmt();
    if (Failed || !S)
      return nullptr;
    if (const auto *E = dyn_cast<Expr>(S))
      return E;
    Failed = true;
    return nullptr;
  }

  const Stmt *readStmt() {
    uint8_t Tag = byte();
    if (Failed || Tag == 0)
      return nullptr;
    if (Tag - 1 > Stmt::lastExpr) {
      Failed = true;
      return nullptr;
    }
    auto Kind = Stmt::StmtKind(Tag - 1);
    SourceLoc L = loc();
    if (Kind >= Stmt::firstExpr && Kind <= Stmt::lastExpr) {
      const Type *Ty = readType();
      switch (Kind) {
      case Stmt::SK_IntegerLiteral:
        return Ctx.create<IntegerLiteral>(L, varint(), Ty);
      case Stmt::SK_FloatLiteral: {
        uint64_t Bits = varint();
        double V;
        __builtin_memcpy(&V, &Bits, sizeof(V));
        return Ctx.create<FloatLiteral>(L, V, Ty);
      }
      case Stmt::SK_CharLiteral:
        return Ctx.create<CharLiteral>(L, int(uint32_t(varint())), Ty);
      case Stmt::SK_StringLiteral:
        return Ctx.create<StringLiteral>(L, str(), Ty);
      case Stmt::SK_DeclRef: {
        Decl *D = readDeclRef();
        if (!D) {
          Failed = true;
          return nullptr;
        }
        return Ctx.create<DeclRefExpr>(L, D, Ty);
      }
      case Stmt::SK_Unary: {
        auto Op = enumByte(UnaryOperator::PostDec);
        return Ctx.create<UnaryOperator>(L, Op, readExpr(), Ty);
      }
      case Stmt::SK_Binary: {
        auto Op = enumByte(BinaryOperator::Comma);
        const Expr *LHS = readExpr();
        const Expr *RHS = readExpr();
        return Ctx.create<BinaryOperator>(L, Op, LHS, RHS, Ty);
      }
      case Stmt::SK_ArraySubscript: {
        const Expr *Base = readExpr();
        const Expr *Index = readExpr();
        return Ctx.create<ArraySubscriptExpr>(L, Base, Index, Ty);
      }
      case Stmt::SK_Member: {
        bool Arrow = byte();
        std::string_view Member = str();
        return Ctx.create<MemberExpr>(L, readExpr(), Member, Arrow, Ty);
      }
      case Stmt::SK_Call: {
        const Expr *Callee = readExpr();
        uint64_t N = varint();
        std::vector<const Expr *> Args;
        for (uint64_t I = 0; I != N && !Failed; ++I)
          Args.push_back(readExpr());
        return Ctx.create<CallExpr>(L, Callee, Ctx.allocateArray(Args), Ty);
      }
      case Stmt::SK_Cast:
        return Ctx.create<CastExpr>(L, Ty, readExpr());
      case Stmt::SK_Sizeof:
        if (byte())
          return Ctx.create<SizeofExpr>(L, readType(), Ty);
        return Ctx.create<SizeofExpr>(L, readExpr(), Ty);
      case Stmt::SK_Conditional: {
        const Expr *C = readExpr();
        const Expr *T = readExpr();
        const Expr *F = readExpr();
        return Ctx.create<ConditionalExpr>(L, C, T, F, Ty);
      }
      case Stmt::SK_InitList: {
        uint64_t N = varint();
        std::vector<const Expr *> Inits;
        for (uint64_t I = 0; I != N && !Failed; ++I)
          Inits.push_back(readExpr());
        return Ctx.create<InitListExpr>(L, Ctx.allocateArray(Inits), Ty);
      }
      case Stmt::SK_Hole: {
        auto HK = enumByte(HoleExpr::AnyFnCall);
        return Ctx.create<HoleExpr>(L, str(), HK, Ty);
      }
      default:
        Failed = true;
        return nullptr;
      }
    }
    switch (Kind) {
    case Stmt::SK_Compound: {
      uint64_t N = varint();
      std::vector<const Stmt *> Body;
      for (uint64_t I = 0; I != N && !Failed; ++I)
        Body.push_back(readStmt());
      return Ctx.create<CompoundStmt>(L, Ctx.allocateArray(Body));
    }
    case Stmt::SK_Decl: {
      uint64_t N = varint();
      std::vector<VarDecl *> Ds;
      for (uint64_t I = 0; I != N && !Failed; ++I) {
        auto *VD = dyn_cast_or_null<VarDecl>(readDeclRef());
        if (!VD)
          Failed = true;
        else
          Ds.push_back(VD);
      }
      return Ctx.create<DeclStmt>(L, Ctx.allocateMutableArray(Ds));
    }
    case Stmt::SK_If: {
      const Expr *C = readExpr();
      const Stmt *T = readStmt();
      const Stmt *E = readStmt();
      return Ctx.create<IfStmt>(L, C, T, E);
    }
    case Stmt::SK_While: {
      const Expr *C = readExpr();
      return Ctx.create<WhileStmt>(L, C, readStmt());
    }
    case Stmt::SK_Do: {
      const Stmt *B = readStmt();
      return Ctx.create<DoStmt>(L, B, readExpr());
    }
    case Stmt::SK_For: {
      const Stmt *Init = readStmt();
      const Expr *C = readExpr();
      const Expr *Inc = readExpr();
      return Ctx.create<ForStmt>(L, Init, C, Inc, readStmt());
    }
    case Stmt::SK_Switch: {
      const Expr *C = readExpr();
      return Ctx.create<SwitchStmt>(L, C, readStmt());
    }
    case Stmt::SK_Case: {
      const Expr *V = readExpr();
      return Ctx.create<CaseStmt>(L, V, readStmt());
    }
    case Stmt::SK_Default:
      return Ctx.create<DefaultStmt>(L, readStmt());
    case Stmt::SK_Break:
      return Ctx.create<BreakStmt>(L);
    case Stmt::SK_Continue:
      return Ctx.create<ContinueStmt>(L);
    case Stmt::SK_Return:
      return Ctx.create<ReturnStmt>(L, readExpr());
    case Stmt::SK_Goto:
      return Ctx.create<GotoStmt>(L, str());
    case Stmt::SK_Label: {
      std::string_view Name = str();
      return Ctx.create<LabelStmt>(L, Name, readStmt());
    }
    case Stmt::SK_Null:
      return Ctx.create<NullStmt>(L);
    default:
      Failed = true;
      return nullptr;
    }
  }

  const std::string &Image;
  ASTContext &Ctx;
  SourceManager *SM;
  size_t Pos = 0;
  bool Failed = false;
  std::vector<const Type *> Types;
  std::vector<Decl *> Decls;
  std::vector<unsigned> FileRemap;
  // Per-TU mode state.
  bool TUMode = false;
  unsigned TUFileID = 0;
  std::vector<Decl *> *TopSink = nullptr;
  std::vector<FunctionDecl *> *FnSink = nullptr;
  std::set<const Decl *> Created;
  std::set<const FunctionDecl *> FnsSunk;
  std::vector<FunctionDecl *> CreatedFns;
};

} // namespace

std::string mc::writeMast(const ASTContext &Ctx, const SourceManager *SM) {
  return Writer(&Ctx, SM).run();
}

bool mc::readMast(const std::string &Image, ASTContext &Ctx,
                  std::string *ErrorOut, SourceManager *SM) {
  return Reader(Image, Ctx, SM).run(ErrorOut);
}

std::string mc::writeMastTU(const std::vector<Decl *> &TopLevel,
                            const std::vector<FunctionDecl *> &Fns,
                            unsigned TUFileID) {
  return Writer(nullptr, nullptr).runTU(TopLevel, Fns, TUFileID);
}

bool mc::readMastTU(const std::string &Image, ASTContext &Ctx,
                    unsigned TUFileID, std::vector<Decl *> &TopLevelSink,
                    std::vector<FunctionDecl *> &FnsSink,
                    std::string *ErrorOut) {
  return Reader(Image, Ctx, nullptr)
      .runTU(TUFileID, TopLevelSink, FnsSink, ErrorOut);
}

static std::atomic<unsigned> PendingWriteFaults{0};

void mc::injectWriteFaults(unsigned N) {
  PendingWriteFaults.store(N, std::memory_order_relaxed);
}

/// Consumes one pending injected fault, if any.
static bool takeWriteFault() {
  unsigned Cur = PendingWriteFaults.load(std::memory_order_relaxed);
  while (Cur != 0) {
    if (PendingWriteFaults.compare_exchange_weak(Cur, Cur - 1,
                                                 std::memory_order_relaxed))
      return true;
  }
  return false;
}

bool mc::writeFileBytes(const std::string &Path, const std::string &Image) {
  FILE *F = std::fopen(Path.c_str(), "wb");
  if (!F)
    return false;
  size_t Limit = Image.size();
  if (takeWriteFault())
    Limit /= 2; // Simulated ENOSPC: the write comes up short.
  size_t Written = std::fwrite(Image.data(), 1, Limit, F);
  std::fclose(F);
  return Written == Image.size();
}

bool mc::readFileBytes(const std::string &Path, std::string &ImageOut) {
  FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return false;
  ImageOut.clear();
  char Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    ImageOut.append(Buf, N);
  std::fclose(F);
  return true;
}
