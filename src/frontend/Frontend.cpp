//===- Frontend.cpp -------------------------------------------------------===//

#include "frontend/Frontend.h"

#include "cminus/Parser.h"
#include "cminus/Type.h"
#include "support/Stats.h"
#include "support/Trace.h"

#include <string_view>
#include <unordered_map>

using namespace stq;
using namespace stq::frontend;

TUnit stq::frontend::compileUnit(const std::string &Name,
                                 const std::string &Text,
                                 const CompileOptions &Opts,
                                 DiagnosticEngine &Diags,
                                 stats::Registry *Metrics) {
  TUnit U;
  U.Name = Name;
  static const pp::FileMap EmptyMap;
  pp::DiskResolver Disk;
  pp::MemoryResolver Shipped(Opts.Files ? *Opts.Files : EmptyMap);
  pp::FileResolver *R = Opts.Files ? static_cast<pp::FileResolver *>(&Shipped)
                                   : &Disk;
  {
    trace::Span Span("pp");
    stats::ScopedTimer Timer(Metrics, "phase.pp_seconds");
    U.Pp = pp::preprocess(Name, Text, *R, Opts.Pp, Diags);
  }
  if (U.Pp.Ok)
    U.FrontEndOk = cminus::runFrontEnd(U.Pp.Text, Opts.QualNames,
                                       Opts.RefQualNames, Diags, U.Program,
                                       Metrics);
  return U;
}

namespace {

/// Builds the include-chain / macro-expansion notes for a line described
/// by \p Info (innermost includer first, matching the preprocessor's own
/// rendering).
std::vector<Diagnostic> locationNotes(const pp::LineMap &Map,
                                      const pp::LineInfo &Info) {
  std::vector<Diagnostic> Notes;
  if (!Info.Macro.empty()) {
    Diagnostic N;
    N.Severity = DiagSeverity::Note;
    N.Phase = "frontend";
    N.Message = "in expansion of macro '" + Info.Macro +
                "' (column is post-expansion)";
    Notes.push_back(std::move(N));
  }
  const std::vector<pp::IncludeFrame> &Stack = Map.stack(Info);
  for (auto It = Stack.rbegin(); It != Stack.rend(); ++It) {
    Diagnostic N;
    N.Severity = DiagSeverity::Note;
    N.Phase = "frontend";
    N.Message =
        "in file included from " + It->File + ":" + std::to_string(It->Line);
    Notes.push_back(std::move(N));
  }
  return Notes;
}

} // namespace

void stq::frontend::remapDiagnostics(std::vector<Diagnostic> &Diags,
                                     size_t From, const std::string &MainFile,
                                     const pp::LineMap &Map) {
  for (size_t I = From; I < Diags.size(); ++I) {
    Diagnostic &D = Diags[I];
    if (!D.File.empty())
      continue; // Already attributed (the preprocessor's own).
    if (!D.Loc.isValid()) {
      // Attachment notes stay bare; unit-level messages name the TU.
      if (D.Severity != DiagSeverity::Note)
        D.File = MainFile;
      continue;
    }
    const pp::LineInfo *Info = Map.info(D.Loc.Line);
    if (!Info) {
      D.File = MainFile;
      continue;
    }
    D.File = Map.file(*Info);
    D.Loc = SourceLoc(Info->PhysLine, D.Loc.Col);
    std::vector<Diagnostic> Notes = locationNotes(Map, *Info);
    Diags.insert(Diags.begin() + static_cast<long>(I + 1),
                 std::make_move_iterator(Notes.begin()),
                 std::make_move_iterator(Notes.end()));
    I += Notes.size();
  }
}

namespace {

/// A function's qualified signature in Type::str()'s function syntax,
/// e.g. "int pos (char* untainted, ...)".
std::string funcSig(const cminus::FuncDecl &F) {
  std::string Sig = F.RetTy->str() + " (";
  for (size_t I = 0; I < F.Params.size(); ++I) {
    if (I)
      Sig += ", ";
    Sig += F.Params[I]->DeclaredTy->str();
  }
  if (F.Variadic)
    Sig += F.Params.empty() ? "..." : ", ...";
  return Sig + ")";
}

std::string structSig(const cminus::StructDef &S) {
  std::string Sig = "{";
  for (const auto &F : S.Fields) {
    Sig += " " + F.Ty->str() + " ";
    Sig += F.Name;
    Sig += ";";
  }
  return Sig + " }";
}

/// A symbol of \p U at \p Loc, attributed to file + physical line through
/// the TU's line map (the TU name and post-expansion location otherwise).
LinkSymbol symbol(const TUnit &U, std::string_view Name, std::string Sig,
                  SourceLoc Loc, bool Defined) {
  LinkSymbol Sym{std::string(Name), std::move(Sig), U.Name, Loc, Defined};
  if (const pp::LineInfo *Info = U.Pp.Map.info(Loc.Line)) {
    Sym.File = U.Pp.Map.file(*Info);
    Sym.Loc = SourceLoc(Info->PhysLine, Loc.Col);
  }
  return Sym;
}

/// One linked symbol's first sighting. The pointers reference the
/// summaries being linked.
struct SymInfo {
  const std::string *Sig = nullptr; ///< Full qualified type spelling.
  const std::string *TU = nullptr;  ///< Input that first introduced it.
  /// Input that *defined* it (functions/globals); null until one does.
  const std::string *DefTU = nullptr;
  bool Defined = false;
};

void linkError(DiagnosticEngine &Diags, const LinkSymbol &Sym,
               std::string Message) {
  Diagnostic D;
  D.Severity = DiagSeverity::Error;
  D.Phase = "link";
  D.Message = std::move(Message);
  D.File = Sym.File;
  D.Loc = Sym.Loc;
  Diags.report(std::move(D));
}

} // namespace

LinkSummary stq::frontend::summarizeUnit(const TUnit &U) {
  LinkSummary L;
  L.Unit = U.Name;
  if (!U.Program)
    return L;
  const cminus::Program &P = *U.Program;
  L.Structs.reserve(P.Structs.size());
  for (const cminus::StructDef *S : P.Structs)
    L.Structs.push_back(symbol(U, S->Name, structSig(*S), S->Loc, true));
  L.Globals.reserve(P.Globals.size());
  for (const cminus::VarDecl *G : P.Globals)
    L.Globals.push_back(
        symbol(U, G->Name, G->DeclaredTy->str(), G->Loc, true));
  L.Functions.reserve(P.Functions.size());
  for (const cminus::FuncDecl *F : P.Functions)
    L.Functions.push_back(
        symbol(U, F->Name, funcSig(*F), F->Loc, F->isDefinition()));
  return L;
}

bool stq::frontend::linkSummaries(const std::vector<LinkSummary> &Units,
                                  DiagnosticEngine &Diags) {
  unsigned Before = Diags.errorCount();
  // Keyed by views into the summaries; report order follows the input
  // scan, never the table's iteration order.
  std::unordered_map<std::string_view, SymInfo> Functions, Globals, Structs;

  for (const LinkSummary &U : Units) {
    for (const LinkSymbol &S : U.Structs) {
      auto [It, Inserted] = Structs.try_emplace(S.Name);
      SymInfo &Sym = It->second;
      if (Inserted) {
        Sym = {&S.Sig, &U.Unit, &U.Unit, true};
        continue;
      }
      if (*Sym.Sig != S.Sig)
        linkError(Diags, S,
                  "conflicting definitions of struct '" + S.Name + "': '" +
                      *Sym.Sig + "' (" + *Sym.TU + ") vs '" + S.Sig + "' (" +
                      U.Unit + ")");
    }

    for (const LinkSymbol &G : U.Globals) {
      auto [It, Inserted] = Globals.try_emplace(G.Name);
      SymInfo &Sym = It->second;
      if (Inserted) {
        Sym = {&G.Sig, &U.Unit, &U.Unit, true};
        continue;
      }
      // C-minus has no `extern`: every global is a definition, so a
      // shared global must live in exactly one TU.
      linkError(Diags, G,
                *Sym.Sig == G.Sig
                    ? "duplicate definition of global '" + G.Name +
                          "' (already defined in " + *Sym.DefTU + ")"
                    : "conflicting definitions of global '" + G.Name +
                          "': '" + *Sym.Sig + "' (" + *Sym.DefTU + ") vs '" +
                          G.Sig + "' (" + U.Unit + ")");
    }

    for (const LinkSymbol &F : U.Functions) {
      auto [It, Inserted] = Functions.try_emplace(F.Name);
      SymInfo &Sym = It->second;
      if (Inserted) {
        Sym = {&F.Sig, &U.Unit, F.Defined ? &U.Unit : nullptr, F.Defined};
        continue;
      }
      if (*Sym.Sig != F.Sig) {
        // The load-bearing link diagnostic: a caller compiled against a
        // prototype whose qualifiers disagree with another TU's view
        // would silently subvert the checker's guarantees.
        linkError(Diags, F,
                  "qualifier signature mismatch for function '" + F.Name +
                      "': '" + *Sym.Sig + "' (" + *Sym.TU + ") vs '" + F.Sig +
                      "' (" + U.Unit + ")");
        continue;
      }
      if (F.Defined) {
        if (Sym.Defined)
          linkError(Diags, F,
                    "duplicate definition of function '" + F.Name +
                        "' (already defined in " + *Sym.DefTU + ")");
        Sym.Defined = true;
        if (!Sym.DefTU)
          Sym.DefTU = &U.Unit;
      }
    }
  }
  return Diags.errorCount() == Before;
}

bool stq::frontend::linkUnits(const std::vector<TUnit> &TUs,
                              DiagnosticEngine &Diags) {
  std::vector<LinkSummary> Summaries;
  Summaries.reserve(TUs.size());
  for (const TUnit &U : TUs)
    Summaries.push_back(summarizeUnit(U));
  return linkSummaries(Summaries, Diags);
}
