//===- PaperEval.cpp ------------------------------------------------------===//

#include "eval/PaperEval.h"

#include "checker/Checker.h"
#include "frontend/Frontend.h"
#include "qual/QualParser.h"
#include "support/Json.h"

#include <chrono>
#include <iomanip>
#include <set>
#include <sstream>

using namespace stq;
using namespace stq::eval;

ProgramSpec stq::eval::specFromCorpus(const workloads::CorpusProgram &C) {
  ProgramSpec Spec;
  Spec.Name = C.Name;
  Spec.Kind = C.Kind;
  Spec.QualFileText = C.QualFile;
  Spec.ExpectedErrors = C.ExpectedErrors;
  for (const auto &H : C.Prog.Headers)
    Spec.Files[H.Name] = H.Text;
  for (const auto &U : C.Prog.Units) {
    Spec.Files[U.Name] = U.Text;
    Spec.Units.push_back(U.Name);
  }
  return Spec;
}

namespace {

/// True when \p Path has a "lib" directory component: the paper's
/// alternate library headers, excluded from every table column.
bool isLibFile(const std::string &Path) {
  size_t At = 0;
  while (At < Path.size()) {
    size_t Sep = Path.find('/', At);
    size_t End = Sep == std::string::npos ? Path.size() : Sep;
    if (Path.compare(At, End - At, "lib") == 0)
      return true;
    if (Sep == std::string::npos)
      break;
    At = Sep + 1;
  }
  return false;
}

/// The originating file of a post-expansion line, or the TU name when the
/// line map has no entry (synthesized locations).
const std::string &fileOfLine(const frontend::TUnit &TU, unsigned Line) {
  if (const pp::LineInfo *I = TU.Pp.Map.info(Line))
    return TU.Pp.Map.file(*I);
  return TU.Name;
}

/// Collects every qualifier written anywhere in \p Ty (top level and
/// through pointees), tagged with its depth so keys stay unambiguous.
void collectQuals(cminus::TypePtr Ty, unsigned Depth,
                  std::vector<std::string> &Out) {
  if (!Ty)
    return;
  for (const std::string &Q : Ty->quals())
    Out.push_back(Q + "@" + std::to_string(Depth));
  if (Ty->isPointer())
    collectQuals(Ty->pointee(), Depth + 1, Out);
}

std::vector<std::string> qualsOf(cminus::TypePtr Ty) {
  std::vector<std::string> Out;
  collectQuals(Ty, 0, Out);
  return Out;
}

/// Per-program AST counting state: annotation keys are deduplicated
/// across TUs (a prototype in a shared header and its definition are one
/// annotation, exactly as one edit wrote them).
struct Counter {
  std::set<std::string> Seen;
  std::set<std::string, std::less<>> SinkFns;
  unsigned Annotations = 0;
  unsigned Casts = 0;
  unsigned PrintfCalls = 0;

  void addKey(const std::string &Key) {
    if (Seen.insert(Key).second)
      ++Annotations;
  }

  void countExpr(const cminus::Expr *E);
  void countLValue(const cminus::LValue *LV);
  void countStmt(const cminus::Stmt *S, const std::string &Fn);
};

void Counter::countLValue(const cminus::LValue *LV) {
  if (LV && LV->isMem())
    countExpr(LV->Addr);
}

void Counter::countExpr(const cminus::Expr *E) {
  using cminus::Expr;
  if (!E)
    return;
  switch (E->getKind()) {
  case Expr::Kind::IntConst:
  case Expr::Kind::StrConst:
  case Expr::Kind::NullConst:
  case Expr::Kind::SizeofType:
    return;
  case Expr::Kind::LValRead:
    countLValue(static_cast<const cminus::LValReadExpr *>(E)->LV);
    return;
  case Expr::Kind::AddrOf:
    countLValue(static_cast<const cminus::AddrOfExpr *>(E)->LV);
    return;
  case Expr::Kind::Unary:
    countExpr(static_cast<const cminus::UnaryExpr *>(E)->Sub);
    return;
  case Expr::Kind::Binary: {
    auto *B = static_cast<const cminus::BinaryExpr *>(E);
    countExpr(B->LHS);
    countExpr(B->RHS);
    return;
  }
  case Expr::Kind::Cast: {
    auto *C = static_cast<const cminus::CastExpr *>(E);
    if (!qualsOf(C->Target).empty())
      ++Casts;
    countExpr(C->Sub);
    return;
  }
  case Expr::Kind::Call: {
    auto *C = static_cast<const cminus::CallExpr *>(E);
    if (SinkFns.count(C->CalleeName))
      ++PrintfCalls;
    for (const cminus::Expr *A : C->Args)
      countExpr(A);
    return;
  }
  }
}

void Counter::countStmt(const cminus::Stmt *S, const std::string &Fn) {
  using cminus::Stmt;
  if (!S)
    return;
  switch (S->getKind()) {
  case Stmt::Kind::Block:
    for (const cminus::Stmt *Sub :
         static_cast<const cminus::BlockStmt *>(S)->Stmts)
      countStmt(Sub, Fn);
    return;
  case Stmt::Kind::Decl: {
    const cminus::VarDecl *V = static_cast<const cminus::DeclStmt *>(S)->Var;
    for (const std::string &Q : qualsOf(V->DeclaredTy))
      addKey("local|" + Fn + "|" + std::string(V->Name) + "|" + Q);
    countExpr(V->Init);
    return;
  }
  case Stmt::Kind::Assign: {
    auto *A = static_cast<const cminus::AssignStmt *>(S);
    countLValue(A->LHS);
    countExpr(A->RHS);
    return;
  }
  case Stmt::Kind::CallStmt:
    countExpr(static_cast<const cminus::CallStmt *>(S)->Call);
    return;
  case Stmt::Kind::If: {
    auto *I = static_cast<const cminus::IfStmt *>(S);
    countExpr(I->Cond);
    countStmt(I->Then, Fn);
    countStmt(I->Else, Fn);
    return;
  }
  case Stmt::Kind::While: {
    auto *W = static_cast<const cminus::WhileStmt *>(S);
    countExpr(W->Cond);
    countStmt(W->Body, Fn);
    return;
  }
  case Stmt::Kind::For: {
    auto *F = static_cast<const cminus::ForStmt *>(S);
    countStmt(F->Init, Fn);
    countExpr(F->Cond);
    countStmt(F->Step, Fn);
    countStmt(F->Body, Fn);
    return;
  }
  case Stmt::Kind::Return:
    countExpr(static_cast<const cminus::ReturnStmt *>(S)->Value);
    return;
  case Stmt::Kind::Break:
  case Stmt::Kind::Continue:
    return;
  }
}

void splitLines(const std::string &Text, std::vector<std::string> &Out) {
  std::istringstream In(Text);
  std::string Line;
  while (std::getline(In, Line))
    Out.push_back(Line);
}

} // namespace

EvalRow stq::eval::evalProgram(const ProgramSpec &Spec,
                               const SessionOptions &Base) {
  EvalRow Row;
  Row.Name = Spec.Name;
  Row.Kind = Spec.Kind;

  for (const auto &[Path, Text] : Spec.Files) {
    if (isLibFile(Path))
      continue;
    ++Row.Files;
    Row.Lines += workloads::countLines(Text);
  }

  std::vector<frontend::InputFile> Inputs;
  for (const std::string &Unit : Spec.Units) {
    auto It = Spec.Files.find(Unit);
    if (It == Spec.Files.end()) {
      Row.Diagnostics.push_back("stq-eval: missing unit '" + Unit + "'");
      return Row;
    }
    Inputs.push_back({Unit, It->second});
  }

  // The check: the same Session::checkFiles pipeline stqc drives, with
  // the corpus shipped as an in-memory closure so paths in diagnostics
  // stay corpus-relative regardless of where the tool runs.
  SessionOptions SOpts = Base;
  SOpts.Builtins.clear();
  SOpts.QualFiles.clear();
  SOpts.QualSources = {Spec.QualFileText};
  SOpts.IncludeDirs = Spec.IncludeDirs;
  SOpts.Defines.clear();
  SOpts.ShippedFiles = &Spec.Files;
  {
    Session S(SOpts);
    auto Start = std::chrono::steady_clock::now();
    Session::FilesOutcome OutC = S.checkFiles(Inputs);
    Row.Seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
            .count();
    std::ostringstream Err;
    TextDiagnosticConsumer C(Err);
    for (const Diagnostic &D : S.diags().diagnostics())
      C.handleDiagnostic(D);
    splitLines(Err.str(), Row.Diagnostics);
    if (S.diags().hasErrors()) {
      Row.ExitCode = 2;
      return Row;
    }
    Row.CheckOk = true;
    Row.Derefs = OutC.Result.Stats.DerefSites;
    Row.AssignChecks = OutC.Result.Stats.AssignChecks;
    Row.RuntimeChecks = OutC.Result.RuntimeCheckCount;
    Row.Errors = OutC.Result.QualErrors;
    Row.ExitCode = OutC.Result.ok() ? 0 : 1;
  }

  // The table columns the checker does not already count: annotations,
  // qualifier casts, and printf-family call sites, from freshly compiled
  // ASTs over the same shipped closure.
  qual::QualifierSet Quals;
  DiagnosticEngine QDiags;
  if (!qual::parseQualifiers(Spec.QualFileText, Quals, QDiags))
    return Row;
  frontend::CompileOptions CO;
  CO.Pp.IncludeDirs = Spec.IncludeDirs;
  CO.Files = &Spec.Files;
  CO.QualNames = Quals.names();
  CO.RefQualNames = Quals.refNames();

  std::vector<frontend::TUnit> TUs;
  for (const frontend::InputFile &In : Inputs) {
    DiagnosticEngine D;
    TUs.push_back(frontend::compileUnit(In.Name, In.Text, CO, D));
  }

  Counter Cnt;
  for (const frontend::TUnit &TU : TUs) {
    if (!TU.Program)
      continue;
    for (const cminus::FuncDecl *F : TU.Program->Functions)
      if (checker::isUntaintedFormatFn(F))
        Cnt.SinkFns.emplace(F->Name);
  }
  for (const frontend::TUnit &TU : TUs) {
    if (!TU.Program)
      continue;
    for (const cminus::StructDef *SD : TU.Program->Structs) {
      if (isLibFile(fileOfLine(TU, SD->Loc.Line)))
        continue;
      for (const cminus::StructDef::Field &F : SD->Fields)
        for (const std::string &Q : qualsOf(F.Ty))
          Cnt.addKey("struct|" + std::string(SD->Name) + "|" +
                     std::string(F.Name) + "|" + Q);
    }
    for (const cminus::VarDecl *G : TU.Program->Globals) {
      if (isLibFile(fileOfLine(TU, G->Loc.Line)))
        continue;
      for (const std::string &Q : qualsOf(G->DeclaredTy))
        Cnt.addKey("global|" + std::string(G->Name) + "|" + Q);
    }
    for (const cminus::FuncDecl *F : TU.Program->Functions) {
      if (isLibFile(fileOfLine(TU, F->Loc.Line)))
        continue;
      for (size_t I = 0; I < F->Params.size(); ++I)
        for (const std::string &Q : qualsOf(F->Params[I]->DeclaredTy))
          Cnt.addKey("param|" + std::string(F->Name) + "|" +
                     std::to_string(I) + "|" + Q);
      for (const std::string &Q : qualsOf(F->RetTy))
        Cnt.addKey("ret|" + std::string(F->Name) + "|" + Q);
      if (F->Body)
        Cnt.countStmt(F->Body, std::string(F->Name));
    }
  }
  Row.Annotations = Cnt.Annotations;
  Row.Casts = Cnt.Casts;
  Row.PrintfCalls = Cnt.PrintfCalls;
  return Row;
}

//===----------------------------------------------------------------------===//
// Rendering
//===----------------------------------------------------------------------===//

namespace {

void renderTableSection(std::ostringstream &OS, const char *Title,
                        const char *SiteColumn, const std::string &Kind,
                        const std::vector<EvalRow> &Rows) {
  OS << Title << ":\n";
  OS << std::left << std::setw(12) << "program" << std::right << std::setw(7)
     << "files" << std::setw(8) << "lines" << std::setw(9) << SiteColumn
     << std::setw(9) << "annots" << std::setw(8) << "casts" << std::setw(9)
     << "errors" << "\n";
  for (const EvalRow &R : Rows) {
    if (R.Kind != Kind)
      continue;
    unsigned Sites = Kind == "table1" ? R.Derefs : R.PrintfCalls;
    OS << std::left << std::setw(12) << R.Name << std::right << std::setw(7)
       << R.Files << std::setw(8) << R.Lines << std::setw(9) << Sites
       << std::setw(9) << R.Annotations << std::setw(8) << R.Casts
       << std::setw(9) << R.Errors << "\n";
  }
}

} // namespace

std::string stq::eval::renderTables(const std::vector<EvalRow> &Rows) {
  std::ostringstream OS;
  OS << "stq-eval-tables-v1\n\n";
  renderTableSection(OS, "Table 1 (nonnull)", "derefs", "table1", Rows);
  OS << "\n";
  renderTableSection(OS, "Table 2 (untainted)", "calls", "table2", Rows);
  OS << "\nDiagnostics:\n";
  for (const EvalRow &R : Rows) {
    if (R.Diagnostics.empty()) {
      OS << R.Name << ": none\n";
      continue;
    }
    OS << R.Name << ":\n";
    for (const std::string &D : R.Diagnostics)
      OS << "  " << D << "\n";
  }
  return OS.str();
}

std::string stq::eval::renderJson(const std::vector<EvalRow> &Rows,
                                  bool Timings) {
  json::Value Doc = json::Value::object();
  Doc.set("schema", json::Value::str("stq-eval-tables-v1"));
  json::Value Programs = json::Value::array();
  for (const EvalRow &R : Rows) {
    json::Value E = json::Value::object();
    E.set("name", json::Value::str(R.Name));
    E.set("kind", json::Value::str(R.Kind));
    E.set("files", json::Value::integer(R.Files));
    E.set("lines", json::Value::integer(R.Lines));
    E.set("dereference_sites", json::Value::integer(R.Derefs));
    E.set("printf_calls", json::Value::integer(R.PrintfCalls));
    E.set("annotations", json::Value::integer(R.Annotations));
    E.set("casts", json::Value::integer(R.Casts));
    E.set("assignment_checks", json::Value::integer(R.AssignChecks));
    E.set("runtime_checks", json::Value::integer(R.RuntimeChecks));
    E.set("errors", json::Value::integer(R.Errors));
    E.set("exit_code", json::Value::integer(R.ExitCode));
    json::Value Diags = json::Value::array();
    for (const std::string &D : R.Diagnostics)
      Diags.push(json::Value::str(D));
    E.set("diagnostics", std::move(Diags));
    if (Timings)
      E.set("seconds", json::Value::number(R.Seconds));
    Programs.push(std::move(E));
  }
  Doc.set("programs", std::move(Programs));
  return Doc.write() + "\n";
}

std::string stq::eval::renderRow(const EvalRow &Row) {
  std::ostringstream OS;
  OS << "stq-eval-row-v1\n";
  OS << "name " << Row.Name << "\n";
  OS << "kind " << Row.Kind << "\n";
  OS << "ok " << (Row.CheckOk ? 1 : 0) << "\n";
  OS << "files " << Row.Files << "\n";
  OS << "lines " << Row.Lines << "\n";
  OS << "derefs " << Row.Derefs << "\n";
  OS << "calls " << Row.PrintfCalls << "\n";
  OS << "annots " << Row.Annotations << "\n";
  OS << "casts " << Row.Casts << "\n";
  OS << "assign_checks " << Row.AssignChecks << "\n";
  OS << "runtime_checks " << Row.RuntimeChecks << "\n";
  OS << "errors " << Row.Errors << "\n";
  OS << "exit " << Row.ExitCode << "\n";
  for (const std::string &D : Row.Diagnostics)
    OS << "diag " << D << "\n";
  OS << "end\n";
  return OS.str();
}

bool stq::eval::parseRow(const std::string &Text, EvalRow &Out,
                         std::string &Error) {
  Out = EvalRow();
  std::vector<std::string> Lines;
  splitLines(Text, Lines);
  if (Lines.empty() || Lines[0] != "stq-eval-row-v1") {
    Error = "missing stq-eval-row-v1 header";
    return false;
  }
  bool Ended = false;
  for (size_t I = 1; I < Lines.size(); ++I) {
    const std::string &L = Lines[I];
    if (L == "end") {
      Ended = true;
      break;
    }
    size_t Sp = L.find(' ');
    std::string Key = L.substr(0, Sp);
    std::string Val = Sp == std::string::npos ? "" : L.substr(Sp + 1);
    auto Num = [&](unsigned &Dst) { Dst = std::stoul(Val); };
    try {
      if (Key == "name")
        Out.Name = Val;
      else if (Key == "kind")
        Out.Kind = Val;
      else if (Key == "ok")
        Out.CheckOk = Val == "1";
      else if (Key == "files")
        Num(Out.Files);
      else if (Key == "lines")
        Num(Out.Lines);
      else if (Key == "derefs")
        Num(Out.Derefs);
      else if (Key == "calls")
        Num(Out.PrintfCalls);
      else if (Key == "annots")
        Num(Out.Annotations);
      else if (Key == "casts")
        Num(Out.Casts);
      else if (Key == "assign_checks")
        Num(Out.AssignChecks);
      else if (Key == "runtime_checks")
        Num(Out.RuntimeChecks);
      else if (Key == "errors")
        Num(Out.Errors);
      else if (Key == "exit")
        Out.ExitCode = std::stoi(Val);
      else if (Key == "diag")
        Out.Diagnostics.push_back(Val);
      else {
        Error = "unknown row key '" + Key + "'";
        return false;
      }
    } catch (const std::exception &) {
      Error = "bad numeric value in row key '" + Key + "'";
      return false;
    }
  }
  if (!Ended) {
    Error = "truncated row (no 'end')";
    return false;
  }
  return true;
}

std::string stq::eval::diffGolden(const std::string &Golden,
                                  const std::string &Actual) {
  if (Golden == Actual)
    return "";
  std::vector<std::string> Want, Got;
  splitLines(Golden, Want);
  splitLines(Actual, Got);
  std::ostringstream OS;
  size_t N = std::max(Want.size(), Got.size());
  unsigned Shown = 0;
  for (size_t I = 0; I < N; ++I) {
    const std::string *W = I < Want.size() ? &Want[I] : nullptr;
    const std::string *G = I < Got.size() ? &Got[I] : nullptr;
    if (W && G && *W == *G)
      continue;
    if (++Shown > 40) {
      OS << "  ... (further differences suppressed)\n";
      break;
    }
    OS << "  line " << (I + 1) << ":\n";
    if (W)
      OS << "  - " << *W << "\n";
    if (G)
      OS << "  + " << *G << "\n";
  }
  return OS.str();
}
