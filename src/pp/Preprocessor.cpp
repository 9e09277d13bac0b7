//===- Preprocessor.cpp ---------------------------------------------------===//

#include "pp/Preprocessor.h"

#include <algorithm>
#include <bitset>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string_view>
#include <unordered_map>

using namespace stq;
using namespace stq::pp;

FileResolver::~FileResolver() = default;

bool DiskResolver::read(const std::string &Path, std::string &Text) {
  // A directory opens "successfully" as an empty ifstream on POSIX; treat
  // it as not-a-header so quoted-include search falls through to the next
  // candidate (the -I dirs) instead of splicing in zero bytes.
  std::error_code EC;
  if (!std::filesystem::is_regular_file(Path, EC))
    return false;
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream SS;
  SS << In.rdbuf();
  Text = SS.str();
  if (Record)
    (*Record)[Path] = Text;
  return true;
}

bool MemoryResolver::read(const std::string &Path, std::string &Text) {
  auto It = Files.find(Path);
  if (It == Files.end())
    return false;
  Text = It->second;
  return true;
}

std::string stq::pp::dirName(const std::string &Path) {
  size_t Slash = Path.find_last_of('/');
  if (Slash == std::string::npos)
    return "";
  return Path.substr(0, Slash);
}

namespace {

//===----------------------------------------------------------------------===//
// Comment stripping (phase preserving line/column coordinates)
//===----------------------------------------------------------------------===//

/// Replaces comment bytes with spaces so every surviving token keeps its
/// physical (line, col); newlines inside block comments are preserved so
/// line numbers stay aligned. String and char literals are respected.
std::string stripComments(const std::string &In) {
  std::string Out = In;
  enum { Code, Str, Chr, Line, Block } State = Code;
  for (size_t I = 0; I < Out.size(); ++I) {
    char C = Out[I];
    char N = I + 1 < Out.size() ? Out[I + 1] : '\0';
    switch (State) {
    case Code:
      if (C == '"')
        State = Str;
      else if (C == '\'')
        State = Chr;
      else if (C == '/' && N == '/') {
        State = Line;
        Out[I] = ' ';
      } else if (C == '/' && N == '*') {
        State = Block;
        Out[I] = ' ';
      }
      break;
    case Str:
      if (C == '\\' && N != '\0')
        ++I;
      else if (C == '"' || C == '\n')
        State = Code;
      break;
    case Chr:
      if (C == '\\' && N != '\0')
        ++I;
      else if (C == '\'' || C == '\n')
        State = Code;
      break;
    case Line:
      if (C == '\n')
        State = Code;
      else
        Out[I] = ' ';
      break;
    case Block:
      if (C == '*' && N == '/') {
        Out[I] = ' ';
        Out[I + 1] = ' ';
        ++I;
        State = Code;
      } else if (C != '\n') {
        Out[I] = ' ';
      }
      break;
    }
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Pp tokens
//===----------------------------------------------------------------------===//

/// Names a hide set in the preprocessor's per-run table; 0 is the empty
/// set.
using HideSet = uint32_t;

/// One preprocessing token: its spelling plus the hide set that
/// implements the C99 no-reexpansion rule (a macro already expanded on
/// this token's derivation path never expands again). The spelling views
/// the text of the file being processed, a macro body, or a literal; each
/// outlives the line being expanded.
struct PTok {
  std::string_view Text;
  HideSet Hide = 0;
};

bool isIdentStart(char C) {
  return std::isalpha(static_cast<unsigned char>(C)) || C == '_';
}
bool isIdentChar(char C) {
  return std::isalnum(static_cast<unsigned char>(C)) || C == '_';
}
bool isSpace(char C) { return std::isspace(static_cast<unsigned char>(C)); }
bool isIdentToken(std::string_view T) {
  return !T.empty() && isIdentStart(T[0]);
}

/// The end of the pp-number starting at \p I: digits, letters,
/// underscores, dots (covers hex).
size_t ppNumberEnd(std::string_view Line, size_t I) {
  size_t J = I + 1;
  while (J < Line.size() && (isIdentChar(Line[J]) || Line[J] == '.'))
    ++J;
  return J;
}

/// The end of the string or char literal whose quote is at \p I (past the
/// closing quote, or the end of an unterminated line).
size_t literalEnd(std::string_view Line, size_t I) {
  const size_t N = Line.size();
  size_t J = I + 1;
  while (J < N && Line[J] != Line[I]) {
    if (Line[J] == '\\' && J + 1 < N)
      ++J;
    ++J;
  }
  return std::min(J + 1, N);
}

/// Appends the preprocessing tokens of one logical line to \p Out
/// (spellings only; whitespace dropped). Strings/chars are single tokens;
/// punctuation is matched greedily so `->`, `==`, `...` survive
/// re-rendering.
void scanTokens(std::string_view Line, std::vector<PTok> &Out) {
  size_t I = 0;
  const size_t N = Line.size();
  auto take = [&](size_t End) {
    Out.push_back({Line.substr(I, End - I)});
    I = End;
  };
  while (I < N) {
    char C = Line[I];
    if (isSpace(C)) {
      ++I;
      continue;
    }
    if (isIdentStart(C)) {
      size_t J = I + 1;
      while (J < N && isIdentChar(Line[J]))
        ++J;
      take(J);
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(C))) {
      take(ppNumberEnd(Line, I));
      continue;
    }
    if (C == '"' || C == '\'') {
      take(literalEnd(Line, I));
      continue;
    }
    // Punctuation, longest match first.
    static const char *Three[] = {"..."};
    static const char *Two[] = {"->", "==", "!=", "<=", ">=",
                                "&&", "||", "=>", "<<", ">>"};
    bool Matched = false;
    for (const char *P : Three)
      if (Line.compare(I, 3, P) == 0) {
        take(I + 3);
        Matched = true;
        break;
      }
    if (Matched)
      continue;
    for (const char *P : Two)
      if (Line.compare(I, 2, P) == 0) {
        take(I + 2);
        Matched = true;
        break;
      }
    if (Matched)
      continue;
    take(I + 1);
  }
}

/// Renders \p Toks into \p Out, one space between tokens.
void renderTokens(const std::vector<PTok> &Toks, std::string &Out) {
  Out.clear();
  for (const PTok &T : Toks) {
    if (!Out.empty())
      Out += ' ';
    Out += T.Text;
  }
}

//===----------------------------------------------------------------------===//
// Macros
//===----------------------------------------------------------------------===//

struct Macro {
  std::string Name;
  /// This definition's element in hide sets.
  uint32_t Id = 0;
  bool FunctionLike = false;
  std::vector<std::string> Params;
  /// Body token spellings; expansions view them.
  std::vector<std::string> Body;
  /// Per body token: the index of the parameter it names, or -1.
  std::vector<int> BodyParam;
};

/// Heterogeneous hashing, so the macro table answers string_view probes.
struct NameHash {
  using is_transparent = void;
  size_t operator()(std::string_view S) const {
    return std::hash<std::string_view>()(S);
  }
};

//===----------------------------------------------------------------------===//
// The preprocessor state machine
//===----------------------------------------------------------------------===//

/// FNV-1a over two independent 64-bit streams (the incremental layer's
/// Hash128 shape, computed locally so pp stays dependency-light).
struct StreamHasher {
  uint64_t A = 0xcbf29ce484222325ULL;
  uint64_t B = 0x9e3779b97f4a7c15ULL;
  void bytes(const std::string &S) {
    u64(S.size());
    for (char C : S)
      byte(static_cast<uint8_t>(C));
  }
  void byte(uint8_t X) {
    A = (A ^ X) * 0x100000001b3ULL;
    B = (B ^ X) * 0xff51afd7ed558ccdULL;
  }
  void u64(uint64_t X) {
    for (int I = 0; I < 8; ++I)
      byte(static_cast<uint8_t>(X >> (I * 8)));
  }
};

/// One #if/#ifdef level.
struct Cond {
  bool ParentActive = true;
  /// The branch currently selected at this level.
  bool ThisActive = false;
  /// Some branch at this level has already been taken (gates #elif/#else).
  bool Taken = false;
  bool SeenElse = false;
  unsigned Line = 0; ///< Where the #if sits, for unterminated diagnostics.
};

class Pp {
public:
  Pp(FileResolver &Resolver, const PpOptions &Options,
     DiagnosticEngine &Diags)
      : Resolver(Resolver), Opts(Options), Diags(Diags) {
    Result.Map.Stacks.emplace_back(); // Stacks[0] = the empty chain.
  }

  PpResult run(const std::string &MainName, const std::string &MainText) {
    Result.Text.reserve(MainText.size() + MainText.size() / 4);
    Result.Map.Lines.reserve(
        std::count(MainText.begin(), MainText.end(), '\n') + 1);
    for (const std::string &D : Opts.Defines)
      predefine(D);
    processFile(MainName, MainText);
    StreamHasher H;
    H.bytes(Result.Text);
    for (const std::string &F : ClosureNames)
      H.bytes(F);
    Result.StreamHashA = H.A;
    Result.StreamHashB = H.B;
    Result.Ok = ErrorCount == 0;
    return std::move(Result);
  }

private:
  //===--------------------------------------------------------------------===//
  // Diagnostics
  //===--------------------------------------------------------------------===//

  void error(const std::string &File, unsigned Line, const std::string &Msg) {
    ++ErrorCount;
    if (ErrorCount > Opts.MaxErrors)
      return;
    if (ErrorCount == Opts.MaxErrors) {
      Diags.error(SourceLoc(), "pp",
                  "too many preprocessor errors; suppressing the rest");
      return;
    }
    Diagnostic D;
    D.Severity = DiagSeverity::Error;
    D.File = File;
    D.Loc = SourceLoc(Line, 1);
    D.Phase = "pp";
    D.Message = Msg;
    Diags.report(std::move(D));
    noteIncludeChain();
  }

  /// Emits one "in file included from ..." note per active include frame,
  /// innermost includer first — the rendering the multi-TU front end also
  /// uses for parse/sema/check diagnostics on included lines.
  void noteIncludeChain() {
    for (auto It = Stack.rbegin(); It != Stack.rend(); ++It)
      Diags.note(SourceLoc(), "pp",
                 "in file included from " + It->File + ":" +
                     std::to_string(It->Line));
  }

  //===--------------------------------------------------------------------===//
  // Output
  //===--------------------------------------------------------------------===//

  uint32_t fileId(const std::string &Name) {
    for (uint32_t I = 0; I < Result.Map.Files.size(); ++I)
      if (Result.Map.Files[I] == Name)
        return I;
    Result.Map.Files.push_back(Name);
    return static_cast<uint32_t>(Result.Map.Files.size() - 1);
  }

  uint32_t stackId() {
    if (Stack.empty())
      return 0;
    // Linear intern: include chains are few and shallow.
    for (uint32_t I = 1; I < Result.Map.Stacks.size(); ++I) {
      const auto &S = Result.Map.Stacks[I];
      if (S.size() == Stack.size() &&
          std::equal(S.begin(), S.end(), Stack.begin(),
                     [](const IncludeFrame &A, const IncludeFrame &B) {
                       return A.File == B.File && A.Line == B.Line;
                     }))
        return I;
    }
    Result.Map.Stacks.push_back(Stack);
    return static_cast<uint32_t>(Result.Map.Stacks.size() - 1);
  }

  /// One file being processed: its comment-stripped text with line
  /// splices removed in place, and its logical lines as views of it.
  struct SourceFile {
    SourceFile(const std::string &Name, std::string Text)
        : Name(Name), Text(std::move(Text)) {}

    const std::string &Name;
    std::string Text;
    std::vector<std::string_view> Lines;
    /// Each logical line's first physical line.
    std::vector<unsigned> PhysLines;
    /// LineMap ids, assigned when the file emits its first line.
    uint32_t FileId = NoId;
    uint32_t StackId = NoId;
  };
  static constexpr uint32_t NoId = UINT32_MAX;

  void emitLine(SourceFile &F, std::string_view Text, unsigned PhysLine,
                const std::string &Macro) {
    Result.Text += Text;
    Result.Text += '\n';
    if (F.FileId == NoId) {
      // The include stack is fixed while one file is processed.
      F.FileId = fileId(F.Name);
      F.StackId = stackId();
    }
    LineInfo Info;
    Info.FileId = F.FileId;
    Info.PhysLine = PhysLine;
    Info.StackId = F.StackId;
    Info.Macro = Macro;
    Result.Map.Lines.push_back(std::move(Info));
    ++Result.Stats.LinesOut;
  }

  //===--------------------------------------------------------------------===//
  // Macro table
  //===--------------------------------------------------------------------===//

  const Macro *findMacro(std::string_view Name) const {
    if (Name.empty() || !MacroStarts[static_cast<unsigned char>(Name[0])])
      return nullptr;
    auto It = Macros.find(Name);
    return It == Macros.end() ? nullptr : &It->second;
  }

  /// Enters \p M into the table, replacing a definition of its name.
  void define(Macro M) {
    M.Id = NextMacroId++;
    for (const std::string &B : M.Body) {
      auto P = std::find(M.Params.begin(), M.Params.end(), B);
      M.BodyParam.push_back(P == M.Params.end()
                                ? -1
                                : static_cast<int>(P - M.Params.begin()));
    }
    MacroStarts.set(static_cast<unsigned char>(M.Name[0]));
    ++Result.Stats.MacrosDefined;
    Macros[M.Name] = std::move(M);
  }

  void predefine(const std::string &Spec) {
    size_t Eq = Spec.find('=');
    Macro M;
    M.Name = Eq == std::string::npos ? Spec : Spec.substr(0, Eq);
    std::string Value = Eq == std::string::npos ? "1" : Spec.substr(Eq + 1);
    std::vector<PTok> Body;
    scanTokens(Value, Body);
    for (const PTok &T : Body)
      M.Body.emplace_back(T.Text);
    if (M.Name.empty() || !isIdentToken(M.Name)) {
      error("<command line>", 0, "bad -D macro name '" + M.Name + "'");
      return;
    }
    define(std::move(M));
  }

  /// True when expanding \p Line would rewrite it: it holds an object-like
  /// macro name, or a function-like one followed by '(' or last on the
  /// line. Walks scanTokens' token boundaries without building tokens;
  /// punctuation is stepped one byte at a time, which finds the same
  /// boundaries because no punctuator contains a byte that starts an
  /// identifier, number, literal or space.
  bool needsExpansion(std::string_view Line) const {
    const size_t N = Line.size();
    size_t I = 0;
    while (I < N) {
      char C = Line[I];
      if (isIdentStart(C)) {
        size_t J = I + 1;
        while (J < N && isIdentChar(Line[J]))
          ++J;
        if (const Macro *M = findMacro(Line.substr(I, J - I))) {
          if (!M->FunctionLike)
            return true;
          size_t K = J;
          while (K < N && isSpace(Line[K]))
            ++K;
          if (K == N || Line[K] == '(')
            return true;
        }
        I = J;
      } else if (std::isdigit(static_cast<unsigned char>(C))) {
        I = ppNumberEnd(Line, I);
      } else if (C == '"' || C == '\'') {
        I = literalEnd(Line, I);
      } else {
        ++I;
      }
    }
    return false;
  }

  //===--------------------------------------------------------------------===//
  // Hide sets
  //===--------------------------------------------------------------------===//

  /// Whether \p S holds the macro \p MacroId.
  bool hides(HideSet S, uint32_t MacroId) const {
    for (; S != 0; S = HideNodes[S].Rest)
      if (HideNodes[S].Macro == MacroId)
        return true;
    return false;
  }

  /// \p S plus \p MacroId; each distinct set is built once per run.
  HideSet hideWith(HideSet S, uint32_t MacroId) {
    if (hides(S, MacroId))
      return S;
    auto [It, Inserted] = HideLinks.try_emplace(
        uint64_t(S) << 32 | MacroId, static_cast<HideSet>(HideNodes.size()));
    if (Inserted)
      HideNodes.push_back({S, MacroId});
    return It->second;
  }

  HideSet hideUnion(HideSet A, HideSet B) {
    for (; B != 0; B = HideNodes[B].Rest)
      A = hideWith(A, HideNodes[B].Macro);
    return A;
  }

  //===--------------------------------------------------------------------===//
  // One file
  //===--------------------------------------------------------------------===//

  /// Splits \p Text into logical lines (backslash-newline spliced),
  /// remembering each logical line's first physical line number. Splices
  /// are removed in place, so each line is a view of \p Text.
  static void splitLogicalLines(std::string &Text,
                                std::vector<std::string_view> &Lines,
                                std::vector<unsigned> &PhysLines,
                                uint64_t &PhysCount) {
    size_t W = 0, Begin = 0; // Write cursor; start of the open line.
    unsigned Phys = 1, Start = 1;
    bool Open = false;
    auto flush = [&]() {
      Lines.emplace_back(Text.data() + Begin, W - Begin);
      PhysLines.push_back(Start);
      Begin = W;
      Open = false;
    };
    for (size_t I = 0; I < Text.size(); ++I) {
      char C = Text[I];
      if (C == '\n') {
        ++PhysCount;
        if (W > Begin && Text[W - 1] == '\\') {
          --W;
          Open = true;
          ++Phys;
          continue;
        }
        flush();
        ++Phys;
        Start = Phys;
        continue;
      }
      if (!Open && W == Begin)
        Start = Phys;
      Open = true;
      Text[W++] = C;
    }
    if (Open || W > Begin) {
      ++PhysCount;
      flush();
    }
  }

  void processFile(const std::string &Name, const std::string &RawText) {
    ++Result.Stats.Files;
    ClosureNames.push_back(Name);
    ActiveFiles.push_back(Name);
    SourceFile F(Name, stripComments(RawText));
    splitLogicalLines(F.Text, F.Lines, F.PhysLines, Result.Stats.LinesIn);

    std::vector<Cond> Conds;
    for (size_t Idx = 0; Idx < F.Lines.size(); ++Idx) {
      std::string_view Line = F.Lines[Idx];
      unsigned Phys = F.PhysLines[Idx];
      size_t NonWs = Line.find_first_not_of(" \t");
      bool Active = true;
      for (const Cond &C : Conds)
        Active = Active && C.ParentActive && C.ThisActive;

      if (NonWs != std::string_view::npos && Line[NonWs] == '#') {
        handleDirective(Name, Line.substr(NonWs + 1), Phys, Conds, Active);
        continue;
      }
      if (!Active)
        continue;
      processTextLine(F, Idx);
    }

    for (const Cond &C : Conds)
      error(Name, C.Line, "unterminated conditional directive");
    ActiveFiles.pop_back();
  }

  /// Emits one in-conditional source line, expanding macros when any are
  /// invoked on it. Function-like invocations may consume following lines
  /// (arguments spanning lines); \p Idx advances past them.
  void processTextLine(SourceFile &F, size_t &Idx) {
    std::string_view Line = F.Lines[Idx];
    unsigned Phys = F.PhysLines[Idx];
    // Fast path: no expandable macro on the line — emit verbatim, keeping
    // the user's exact columns.
    if (!needsExpansion(Line)) {
      emitLine(F, Line, Phys, "");
      return;
    }

    std::vector<PTok> Toks;
    scanTokens(Line, Toks);
    unsigned Budget = Opts.MaxExpansionsPerLine;
    std::string FirstMacro;
    Continuation More{F, Idx};
    std::vector<PTok> Expanded = expandTokens(std::move(Toks), F.Name, Phys,
                                              Budget, &FirstMacro, &More);
    renderTokens(Expanded, LineBuf);
    emitLine(F, LineBuf, Phys, FirstMacro);
  }

  //===--------------------------------------------------------------------===//
  // Macro expansion
  //===--------------------------------------------------------------------===//

  /// Where a function-like invocation still open at the end of its line
  /// takes more tokens from: the following logical lines of the file.
  struct Continuation {
    const SourceFile &F;
    size_t &Idx;
  };

  /// Appends the next logical line's tokens to \p Toks (an invocation
  /// whose arguments span lines). Directives inside an invocation are not
  /// supported.
  static bool refill(Continuation *More, std::vector<PTok> &Toks) {
    if (!More || More->Idx + 1 >= More->F.Lines.size())
      return false;
    std::string_view Next = More->F.Lines[More->Idx + 1];
    size_t NonWs = Next.find_first_not_of(" \t");
    if (NonWs != std::string_view::npos && Next[NonWs] == '#')
      return false;
    ++More->Idx;
    scanTokens(Next, Toks);
    return true;
  }

  /// Rewrites \p Toks until no expandable macro remains (hide sets
  /// guarantee termination; \p Budget caps pathological growth).
  std::vector<PTok> expandTokens(std::vector<PTok> Toks,
                                 const std::string &File, unsigned Phys,
                                 unsigned &Budget, std::string *FirstMacro,
                                 Continuation *More) {
    std::vector<PTok> Out;
    Out.reserve(Toks.size());
    size_t I = 0;
    bool BudgetDiagnosed = false;
    while (I < Toks.size()) {
      PTok T = Toks[I]; // A copy: refilling may reallocate Toks.
      const Macro *M = isIdentToken(T.Text) ? findMacro(T.Text) : nullptr;
      if (M && hides(T.Hide, M->Id))
        M = nullptr;
      if (!M) {
        Out.push_back(T);
        ++I;
        continue;
      }
      if (Budget == 0) {
        if (!BudgetDiagnosed) {
          BudgetDiagnosed = true;
          error(File, Phys, "macro expansion limit exceeded on this line");
        }
        Out.push_back(T);
        ++I;
        continue;
      }

      if (!M->FunctionLike) {
        --Budget;
        ++Result.Stats.Expansions;
        if (FirstMacro && FirstMacro->empty())
          *FirstMacro = M->Name;
        HideSet Hide = hideWith(T.Hide, M->Id);
        Toks.erase(Toks.begin() + static_cast<long>(I));
        Toks.insert(Toks.begin() + static_cast<long>(I), M->Body.size(),
                    PTok{});
        for (size_t K = 0; K < M->Body.size(); ++K)
          Toks[I + K] = {M->Body[K], Hide};
        continue; // Rescan from the spliced tokens.
      }

      // Function-like: require '(' (possibly on a following line).
      if (I + 1 >= Toks.size())
        refill(More, Toks);
      if (I + 1 >= Toks.size() || Toks[I + 1].Text != "(") {
        Out.push_back(T);
        ++I;
        continue;
      }

      // Collect arguments as [begin, end) ranges of Toks, balancing
      // parentheses. Refilling only appends, so the ranges stay valid.
      std::vector<std::pair<size_t, size_t>> Args = {{I + 2, I + 2}};
      size_t J = I + 2;
      int Depth = 1;
      bool Closed = false;
      while (true) {
        if (J >= Toks.size()) {
          if (refill(More, Toks))
            continue;
          break;
        }
        std::string_view S = Toks[J].Text;
        if (S == "(")
          ++Depth;
        else if (S == ")") {
          --Depth;
          if (Depth == 0) {
            Closed = true;
            ++J;
            break;
          }
        } else if (S == "," && Depth == 1) {
          ++J;
          Args.push_back({J, J});
          continue;
        }
        ++J;
        Args.back().second = J;
      }
      if (!Closed) {
        error(File, Phys,
              "unterminated invocation of macro '" + M->Name + "'");
        Out.push_back(T);
        ++I;
        continue;
      }
      // `M()` with one empty argument means zero arguments.
      if (Args.size() == 1 && Args[0].first == Args[0].second &&
          M->Params.empty())
        Args.clear();
      if (Args.size() != M->Params.size()) {
        error(File, Phys,
              "macro '" + M->Name + "' expects " +
                  std::to_string(M->Params.size()) + " argument(s), got " +
                  std::to_string(Args.size()));
        Out.push_back(T);
        ++I;
        continue;
      }

      --Budget;
      ++Result.Stats.Expansions;
      if (FirstMacro && FirstMacro->empty())
        *FirstMacro = M->Name;

      // Arguments are fully expanded before substitution (C99 6.10.3.1).
      std::vector<std::vector<PTok>> ExpArgs;
      ExpArgs.reserve(Args.size());
      for (auto [Begin, End] : Args)
        ExpArgs.push_back(expandTokens(
            std::vector<PTok>(Toks.begin() + static_cast<long>(Begin),
                              Toks.begin() + static_cast<long>(End)),
            File, Phys, Budget, nullptr, nullptr));

      HideSet Hide = hideWith(T.Hide, M->Id);
      std::vector<PTok> Body;
      for (size_t K = 0; K < M->Body.size(); ++K) {
        if (M->BodyParam[K] < 0) {
          Body.push_back({M->Body[K], Hide});
          continue;
        }
        for (PTok A : ExpArgs[static_cast<size_t>(M->BodyParam[K])]) {
          A.Hide = hideWith(hideUnion(A.Hide, T.Hide), M->Id);
          Body.push_back(A);
        }
      }
      Toks.erase(Toks.begin() + static_cast<long>(I),
                 Toks.begin() + static_cast<long>(J));
      Toks.insert(Toks.begin() + static_cast<long>(I), Body.begin(),
                  Body.end());
      // Rescan from the spliced tokens.
    }
    return Out;
  }

  //===--------------------------------------------------------------------===//
  // Directives
  //===--------------------------------------------------------------------===//

  void handleDirective(const std::string &File, std::string_view Tail,
                       unsigned Phys, std::vector<Cond> &Conds,
                       bool Active) {
    std::vector<PTok> Toks;
    scanTokens(Tail, Toks);
    if (Toks.empty())
      return; // The null directive (`#`) is legal and ignored.
    std::string_view Name = Toks[0].Text;

    // Conditional-flow directives act even in skipped regions.
    if (Name == "if" || Name == "ifdef" || Name == "ifndef") {
      if (Conds.size() >= Opts.MaxConditionalDepth) {
        error(File, Phys, "conditional nesting too deep (max " +
                              std::to_string(Opts.MaxConditionalDepth) + ")");
        // Keep the stack balanced so the matching #endif pops cleanly.
      }
      Cond C;
      C.ParentActive = Active && Conds.size() < Opts.MaxConditionalDepth;
      C.Line = Phys;
      if (C.ParentActive) {
        ++Result.Stats.Conditionals;
        bool V = false;
        if (Name == "if") {
          V = evalCondition(File, Phys,
                            std::vector<PTok>(Toks.begin() + 1, Toks.end()));
        } else {
          if (Toks.size() < 2 || !isIdentToken(Toks[1].Text))
            error(File, Phys,
                  "expected macro name after #" + std::string(Name));
          else
            V = findMacro(Toks[1].Text) != nullptr;
          if (Name == "ifndef")
            V = !V;
        }
        C.ThisActive = V;
        C.Taken = V;
      }
      Conds.push_back(C);
      return;
    }
    if (Name == "elif") {
      if (Conds.empty() || Conds.back().SeenElse) {
        error(File, Phys, "#elif without matching #if");
        return;
      }
      Cond &C = Conds.back();
      if (!C.ParentActive)
        return;
      if (C.Taken) {
        C.ThisActive = false;
        return;
      }
      bool V = evalCondition(File, Phys,
                             std::vector<PTok>(Toks.begin() + 1, Toks.end()));
      C.ThisActive = V;
      C.Taken = V;
      return;
    }
    if (Name == "else") {
      if (Conds.empty() || Conds.back().SeenElse) {
        error(File, Phys, "#else without matching #if");
        return;
      }
      Cond &C = Conds.back();
      C.SeenElse = true;
      if (!C.ParentActive)
        return;
      C.ThisActive = !C.Taken;
      C.Taken = true;
      return;
    }
    if (Name == "endif") {
      if (Conds.empty()) {
        error(File, Phys, "#endif without matching #if");
        return;
      }
      Conds.pop_back();
      return;
    }

    if (!Active)
      return; // Everything below is skipped in a false branch.

    if (Name == "include") {
      handleInclude(File, Tail, Phys);
      return;
    }
    if (Name == "define") {
      handleDefine(File, Tail, Phys, Toks);
      return;
    }
    if (Name == "undef") {
      if (Toks.size() < 2 || !isIdentToken(Toks[1].Text)) {
        error(File, Phys, "expected macro name after #undef");
        return;
      }
      if (auto It = Macros.find(Toks[1].Text); It != Macros.end())
        Macros.erase(It);
      return;
    }
    if (Name == "error") {
      std::string_view Msg = Tail.substr(Tail.find("error") + 5);
      size_t S = Msg.find_first_not_of(" \t");
      error(File, Phys,
            "#error" + (S == std::string_view::npos
                            ? std::string()
                            : ": " + std::string(Msg.substr(S))));
      return;
    }
    if (Name == "pragma")
      return; // Accepted and ignored.
    error(File, Phys,
          "unknown preprocessor directive '#" + std::string(Name) + "'");
  }

  void handleDefine(const std::string &File, std::string_view Tail,
                    unsigned Phys, const std::vector<PTok> &Toks) {
    if (Toks.size() < 2 || !isIdentToken(Toks[1].Text)) {
      error(File, Phys, "expected macro name after #define");
      return;
    }
    Macro M;
    M.Name = Toks[1].Text;
    size_t BodyStart = 2;
    // Function-like iff '(' immediately follows the name (no whitespace):
    // find the name in the raw tail and inspect the next character.
    size_t NamePos = Tail.find(M.Name, Tail.find("define") + 6);
    bool FnLike = NamePos != std::string_view::npos &&
                  NamePos + M.Name.size() < Tail.size() &&
                  Tail[NamePos + M.Name.size()] == '(';
    if (FnLike) {
      M.FunctionLike = true;
      size_t I = 2;
      if (I >= Toks.size() || Toks[I].Text != "(") {
        error(File, Phys, "malformed macro parameter list");
        return;
      }
      ++I;
      if (I < Toks.size() && Toks[I].Text == ")") {
        ++I;
      } else {
        while (true) {
          if (I >= Toks.size()) {
            error(File, Phys, "unterminated macro parameter list");
            return;
          }
          if (Toks[I].Text == "...") {
            error(File, Phys, "variadic macros are not supported");
            return;
          }
          if (!isIdentToken(Toks[I].Text)) {
            error(File, Phys,
                  "expected parameter name in macro parameter list");
            return;
          }
          if (std::find(M.Params.begin(), M.Params.end(), Toks[I].Text) !=
              M.Params.end())
            error(File, Phys, "duplicate macro parameter '" +
                                  std::string(Toks[I].Text) + "'");
          M.Params.emplace_back(Toks[I].Text);
          ++I;
          if (I < Toks.size() && Toks[I].Text == ",") {
            ++I;
            continue;
          }
          if (I < Toks.size() && Toks[I].Text == ")") {
            ++I;
            break;
          }
          error(File, Phys, "expected ',' or ')' in macro parameter list");
          return;
        }
      }
      BodyStart = I;
    }
    for (size_t I = BodyStart; I < Toks.size(); ++I) {
      if (Toks[I].Text == "#" || Toks[I].Text == "##")
        error(File, Phys,
              "'" + std::string(Toks[I].Text) +
                  "' (stringize/paste) is not supported in macro bodies");
      M.Body.emplace_back(Toks[I].Text);
    }
    if (Macros.find(M.Name) != Macros.end())
      Diags.warning(SourceLoc(Phys, 1), "pp",
                    "macro '" + M.Name + "' redefined");
    define(std::move(M));
  }

  void handleInclude(const std::string &File, std::string_view Tail,
                     unsigned Phys) {
    // Parse `"name"` or `<name>` from the raw tail (the token scanner
    // would split <a/b.h> at punctuation).
    size_t Pos = Tail.find("include") + 7;
    while (Pos < Tail.size() &&
           std::isspace(static_cast<unsigned char>(Tail[Pos])))
      ++Pos;
    if (Pos >= Tail.size() || (Tail[Pos] != '"' && Tail[Pos] != '<')) {
      error(File, Phys, "expected \"file\" or <file> after #include");
      return;
    }
    bool Angled = Tail[Pos] == '<';
    char Close = Angled ? '>' : '"';
    size_t End = Tail.find(Close, Pos + 1);
    if (End == std::string_view::npos) {
      error(File, Phys, "unterminated #include file name");
      return;
    }
    std::string Name(Tail.substr(Pos + 1, End - Pos - 1));
    if (Name.empty()) {
      error(File, Phys, "empty #include file name");
      return;
    }

    if (Stack.size() >= Opts.MaxIncludeDepth) {
      error(File, Phys,
            "include depth exceeds " + std::to_string(Opts.MaxIncludeDepth) +
                " (possible include cycle) while including '" + Name + "'");
      return;
    }

    std::vector<std::string> Candidates;
    if (!Name.empty() && Name[0] == '/') {
      Candidates.push_back(Name);
    } else {
      if (!Angled) {
        std::string Dir = dirName(File);
        Candidates.push_back(Dir.empty() ? Name : Dir + "/" + Name);
      }
      for (const std::string &D : Opts.IncludeDirs)
        Candidates.push_back(D.empty() ? Name : D + "/" + Name);
    }

    std::string Text, Resolved;
    for (const std::string &C : Candidates)
      if (Resolver.read(C, Text)) {
        Resolved = C;
        break;
      }
    if (Resolved.empty()) {
      std::string Tried;
      for (const std::string &C : Candidates)
        Tried += (Tried.empty() ? "" : ", ") + C;
      error(File, Phys,
            Angled ? "<" + Name + ">: no such header (searched: " + Tried +
                         ")"
                   : "\"" + Name + "\": no such header (searched: " + Tried +
                         ")");
      return;
    }
    for (const std::string &A : ActiveFiles)
      if (A == Resolved) {
        error(File, Phys, "circular include of '" + Resolved + "'");
        return;
      }

    ++Result.Stats.Includes;
    Stack.push_back({File, Phys});
    processFile(Resolved, Text);
    Stack.pop_back();
  }

  //===--------------------------------------------------------------------===//
  // #if constant expressions
  //===--------------------------------------------------------------------===//

  /// `defined X` / `defined(X)` replacement, then macro expansion, then
  /// the constant-expression parser. Unknown identifiers evaluate to 0
  /// (the C semantics).
  bool evalCondition(const std::string &File, unsigned Phys,
                     std::vector<PTok> Toks) {
    std::vector<PTok> Replaced;
    for (size_t I = 0; I < Toks.size(); ++I) {
      if (Toks[I].Text != "defined") {
        Replaced.push_back(std::move(Toks[I]));
        continue;
      }
      std::string_view Target;
      if (I + 1 < Toks.size() && isIdentToken(Toks[I + 1].Text)) {
        Target = Toks[I + 1].Text;
        I += 1;
      } else if (I + 3 < Toks.size() && Toks[I + 1].Text == "(" &&
                 isIdentToken(Toks[I + 2].Text) && Toks[I + 3].Text == ")") {
        Target = Toks[I + 2].Text;
        I += 3;
      } else {
        error(File, Phys, "expected macro name after 'defined'");
        return false;
      }
      PTok T;
      T.Text = findMacro(Target) ? "1" : "0";
      Replaced.push_back(std::move(T));
    }
    unsigned Budget = Opts.MaxExpansionsPerLine;
    std::vector<PTok> Expanded = expandTokens(std::move(Replaced), File,
                                              Phys, Budget, nullptr, nullptr);
    CondParser P{Expanded, 0, File, Phys, this};
    int64_t V = P.parseTernary();
    if (P.Pos != Expanded.size())
      error(File, Phys, "trailing tokens in #if expression");
    return V != 0;
  }

  struct CondParser {
    const std::vector<PTok> &Toks;
    size_t Pos;
    const std::string &File;
    unsigned Phys;
    Pp *Owner;
    static constexpr unsigned MaxDepth = 200;
    unsigned Depth = 0;

    std::string_view peek() const {
      return Pos < Toks.size() ? Toks[Pos].Text : std::string_view();
    }
    bool eat(const char *S) {
      if (peek() == S) {
        ++Pos;
        return true;
      }
      return false;
    }
    void err(const std::string &M) { Owner->error(File, Phys, M); }

    int64_t parseTernary() {
      int64_t C = parseLOr();
      if (eat("?")) {
        int64_t A = parseTernary();
        if (!eat(":"))
          err("expected ':' in #if expression");
        int64_t B = parseTernary();
        return C ? A : B;
      }
      return C;
    }
    int64_t parseLOr() {
      int64_t V = parseLAnd();
      while (eat("||"))
        V = (V != 0) | (parseLAnd() != 0);
      return V;
    }
    int64_t parseLAnd() {
      int64_t V = parseEq();
      while (eat("&&"))
        V = (V != 0) & (parseEq() != 0);
      return V;
    }
    int64_t parseEq() {
      int64_t V = parseRel();
      while (true) {
        if (eat("=="))
          V = V == parseRel();
        else if (eat("!="))
          V = V != parseRel();
        else
          return V;
      }
    }
    int64_t parseRel() {
      int64_t V = parseAdd();
      while (true) {
        if (eat("<"))
          V = V < parseAdd();
        else if (eat(">"))
          V = V > parseAdd();
        else if (eat("<="))
          V = V <= parseAdd();
        else if (eat(">="))
          V = V >= parseAdd();
        else
          return V;
      }
    }
    int64_t parseAdd() {
      int64_t V = parseMul();
      while (true) {
        if (eat("+"))
          V = V + parseMul();
        else if (eat("-"))
          V = V - parseMul();
        else
          return V;
      }
    }
    int64_t parseMul() {
      int64_t V = parseUnary();
      while (true) {
        if (eat("*")) {
          V = V * parseUnary();
        } else if (eat("/")) {
          int64_t R = parseUnary();
          if (R == 0) {
            err("division by zero in #if expression");
            V = 0;
          } else {
            V = V / R;
          }
        } else if (eat("%")) {
          int64_t R = parseUnary();
          if (R == 0) {
            err("remainder by zero in #if expression");
            V = 0;
          } else {
            V = V % R;
          }
        } else {
          return V;
        }
      }
    }
    int64_t parseUnary() {
      if (Depth >= MaxDepth) {
        err("#if expression too deeply nested");
        Pos = Toks.size();
        return 0;
      }
      ++Depth;
      int64_t V;
      if (eat("!"))
        V = parseUnary() == 0;
      else if (eat("-"))
        V = -parseUnary();
      else if (eat("~"))
        V = ~parseUnary();
      else if (eat("+"))
        V = parseUnary();
      else
        V = parsePrimary();
      --Depth;
      return V;
    }
    int64_t parsePrimary() {
      if (eat("(")) {
        int64_t V = parseTernary();
        if (!eat(")"))
          err("expected ')' in #if expression");
        return V;
      }
      std::string_view T = peek();
      if (T.empty()) {
        err("unexpected end of #if expression");
        return 0;
      }
      ++Pos;
      if (std::isdigit(static_cast<unsigned char>(T[0]))) {
        // Decimal or hex; trailing u/U/l/L suffixes tolerated.
        size_t End = T.size();
        while (End > 0 && (T[End - 1] == 'u' || T[End - 1] == 'U' ||
                           T[End - 1] == 'l' || T[End - 1] == 'L'))
          --End;
        errno = 0;
        char *Stop = nullptr;
        std::string Num(T.substr(0, End));
        long long V = std::strtoll(Num.c_str(), &Stop, 0);
        if (Stop != Num.c_str() + Num.size())
          err("bad integer literal '" + std::string(T) +
              "' in #if expression");
        return V;
      }
      if (T.size() >= 3 && T[0] == '\'')
        return static_cast<int64_t>(
            T[1] == '\\' && T.size() >= 4 ? T[2] : T[1]);
      if (isIdentToken(T))
        return 0; // Undefined identifiers are 0 in #if.
      err("unexpected token '" + std::string(T) + "' in #if expression");
      return 0;
    }
  };

  FileResolver &Resolver;
  const PpOptions &Opts;
  DiagnosticEngine &Diags;
  PpResult Result;
  std::unordered_map<std::string, Macro, NameHash, std::equal_to<>> Macros;
  /// First bytes of every name ever defined: most identifiers are
  /// rejected before hashing.
  std::bitset<256> MacroStarts;
  uint32_t NextMacroId = 1;
  /// Hide-set nodes: a set is its last-added macro plus the rest; node 0
  /// is the empty set.
  struct HideNode {
    HideSet Rest;
    uint32_t Macro;
  };
  std::vector<HideNode> HideNodes = {{0, 0}};
  /// (set << 32 | macro) -> the set with that macro added.
  std::unordered_map<uint64_t, HideSet> HideLinks;
  /// The rendering of the last expanded line.
  std::string LineBuf;
  /// Active include chain (frames: includer file + line).
  std::vector<IncludeFrame> Stack;
  /// Resolved paths currently being processed (cycle detection).
  std::vector<std::string> ActiveFiles;
  /// Every file entered, in inclusion order (folded into the stream hash).
  std::vector<std::string> ClosureNames;
  unsigned ErrorCount = 0;
};

} // namespace

PpResult stq::pp::preprocess(const std::string &MainName,
                             const std::string &MainText,
                             FileResolver &Resolver, const PpOptions &Options,
                             DiagnosticEngine &Diags) {
  Pp P(Resolver, Options, Diags);
  return P.run(MainName, MainText);
}

FileMap stq::pp::collectIncludeClosure(
    const std::vector<std::pair<std::string, std::string>> &Inputs,
    const PpOptions &Options) {
  FileMap Out;
  for (const auto &[Name, Text] : Inputs) {
    DiskResolver Resolver(&Out);
    DiagnosticEngine Scratch; // Real diagnostics come from the real run.
    preprocess(Name, Text, Resolver, Options, Scratch);
  }
  return Out;
}
