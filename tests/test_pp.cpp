//===- test_pp.cpp - Preprocessor and multi-TU front-end tests ------------===//
//
// Part of the stq project: a reproduction of "Semantic Type Qualifiers"
// (Chin, Markstrum, Millstein; PLDI 2005).
//
// The preprocessor's hardening contracts (include cycles, recursive
// macros, conditional nesting, missing headers, diagnostic floods: all
// capped and diagnosed, never crashed on), its macro/conditional
// semantics, the line map's provenance, and the multi-TU front end's
// diagnostic remapping and link-time qualifier-signature checks.
//
//===----------------------------------------------------------------------===//

#include "frontend/Frontend.h"
#include "pp/Preprocessor.h"

#include "TestTempDir.h"

#include <fstream>
#include <gtest/gtest.h>

using namespace stq;

namespace {

struct PpRun {
  DiagnosticEngine Diags;
  pp::PpResult Result;
};

/// Preprocesses \p Main against an in-memory file map.
PpRun run(const std::string &Main, const pp::FileMap &Files,
          pp::PpOptions Options = {}) {
  PpRun R;
  pp::MemoryResolver Resolver(Files);
  R.Result = pp::preprocess("main.c", Main, Resolver, Options, R.Diags);
  return R;
}

bool anyDiagContains(const DiagnosticEngine &Diags, const std::string &Text) {
  for (const Diagnostic &D : Diags.diagnostics())
    if (D.Message.find(Text) != std::string::npos)
      return true;
  return false;
}

//===----------------------------------------------------------------------===//
// Macro semantics
//===----------------------------------------------------------------------===//

TEST(PpMacros, ObjectAndFunctionLike) {
  PpRun R = run("#define N 10\n"
                "#define SQ(x) ((x) * (x))\n"
                "int v = SQ(N);\n",
                {});
  EXPECT_TRUE(R.Result.Ok);
  EXPECT_NE(R.Result.Text.find("( ( 10 ) * ( 10 ) )"), std::string::npos);
  EXPECT_EQ(R.Result.Stats.MacrosDefined, 2u);
  EXPECT_GE(R.Result.Stats.Expansions, 2u);
}

TEST(PpMacros, UndefStopsExpansion) {
  PpRun R = run("#define N 10\n"
                "int a = N;\n"
                "#undef N\n"
                "int b = N;\n",
                {});
  EXPECT_TRUE(R.Result.Ok);
  EXPECT_NE(R.Result.Text.find("int a = 10 ;"), std::string::npos);
  EXPECT_NE(R.Result.Text.find("int b = N;"), std::string::npos);
}

TEST(PpMacros, SelfReferentialMacroDoesNotLoop) {
  // C99 no-reexpansion: FOO inside its own expansion is not rescanned.
  PpRun R = run("#define FOO (FOO + 1)\n"
                "int v = FOO;\n",
                {});
  EXPECT_TRUE(R.Result.Ok);
  EXPECT_NE(R.Result.Text.find("( FOO + 1 )"), std::string::npos);
}

TEST(PpMacros, MutuallyRecursiveMacrosDoNotLoop) {
  PpRun R = run("#define A B\n"
                "#define B A\n"
                "int v = A;\n",
                {});
  EXPECT_TRUE(R.Result.Ok);
  // A -> B -> A, and the rescan of A is blocked: the token survives.
  EXPECT_NE(R.Result.Text.find("int v = A ;"), std::string::npos);
}

TEST(PpMacros, ExpansionsPerLineCapped) {
  // Each Xk doubles the work; X8 needs 2^8 - 1 > 16 expansions.
  std::string Src = "#define X0 z\n";
  for (int K = 1; K <= 8; ++K)
    Src += "#define X" + std::to_string(K) + " X" + std::to_string(K - 1) +
           " X" + std::to_string(K - 1) + "\n";
  Src += "int v = X8;\n";
  pp::PpOptions Options;
  Options.MaxExpansionsPerLine = 16;
  PpRun R = run(Src, {}, Options);
  EXPECT_FALSE(R.Result.Ok);
  EXPECT_TRUE(R.Diags.hasErrors());
  EXPECT_GE(R.Result.Stats.Expansions, 1u);
}

/// Output line \p N (1-based) of \p R, without its newline.
std::string outputLine(const PpRun &R, unsigned N) {
  size_t Begin = 0;
  for (unsigned I = 1; I < N; ++I)
    Begin = R.Result.Text.find('\n', Begin) + 1;
  return R.Result.Text.substr(Begin, R.Result.Text.find('\n', Begin) - Begin);
}

TEST(PpVerbatim, MacroNamesOutsideIdentifierTokensStayVerbatim) {
  // N and F occur only inside a string literal (with an escaped quote),
  // a char literal, pp-numbers and longer identifiers: no line expands,
  // so each is emitted byte for byte with no macro in its provenance.
  const std::vector<std::string> Lines = {
      "char *s   =  \"N \\\" F(1)\";",
      "int c  = 'N';",
      "int d = 1N +  0xN + 2.N;",
      "int NN =  Nx + xN + F_ + _F(1);",
  };
  std::string Src = "#define N 10\n#define F(x) x\n";
  for (const std::string &L : Lines)
    Src += L + "\n";
  PpRun R = run(Src, {});
  ASSERT_EQ(R.Result.Map.Lines.size(), Lines.size());
  for (unsigned I = 0; I < Lines.size(); ++I) {
    EXPECT_EQ(outputLine(R, I + 1), Lines[I]);
    EXPECT_EQ(R.Result.Map.Lines[I].Macro, "") << Lines[I];
  }
  EXPECT_EQ(R.Result.Stats.Expansions, 0u);
}

TEST(PpVerbatim, FunctionLikeNameWithoutParenStaysVerbatim) {
  PpRun R = run("#define F(x) ((x) + 1)\n"
                "int   F  =  3 ;\n",
                {});
  ASSERT_TRUE(R.Result.Ok);
  EXPECT_EQ(R.Result.Text, "int   F  =  3 ;\n");
  ASSERT_EQ(R.Result.Map.Lines.size(), 1u);
  EXPECT_EQ(R.Result.Map.Lines[0].Macro, "");
}

TEST(PpVerbatim, FunctionLikeNameLastOnLineTakesArgumentsFromNextLine) {
  PpRun R = run("#define F(x) ((x) + 1)\n"
                "int v = F\n"
                "(2);\n"
                "int w = 0;\n",
                {});
  ASSERT_TRUE(R.Result.Ok);
  EXPECT_EQ(R.Result.Text, "int v = ( ( 2 ) + 1 ) ;\nint w = 0;\n");
  ASSERT_EQ(R.Result.Map.Lines.size(), 2u);
  EXPECT_EQ(R.Result.Map.Lines[0].Macro, "F");
  EXPECT_EQ(R.Result.Map.Lines[0].PhysLine, 2u);
  EXPECT_EQ(R.Result.Map.Lines[1].Macro, "");
  EXPECT_EQ(R.Result.Map.Lines[1].PhysLine, 4u);
}

TEST(PpVerbatim, SameLineBeforeAndAfterUndef) {
  PpRun R = run("#define N 10\n"
                "int v  = N;\n"
                "#undef N\n"
                "int v  = N;\n",
                {});
  ASSERT_TRUE(R.Result.Ok);
  EXPECT_EQ(R.Result.Text, "int v = 10 ;\nint v  = N;\n");
  ASSERT_EQ(R.Result.Map.Lines.size(), 2u);
  EXPECT_EQ(R.Result.Map.Lines[0].Macro, "N");
  EXPECT_EQ(R.Result.Map.Lines[1].Macro, "");
}

//===----------------------------------------------------------------------===//
// Includes
//===----------------------------------------------------------------------===//

TEST(PpIncludes, SearchPathAndLineMap) {
  pp::FileMap Files = {{"inc/ten.h", "#define TEN 10\nint ten = TEN;\n"}};
  pp::PpOptions Options;
  Options.IncludeDirs = {"inc"};
  PpRun R = run("#include \"ten.h\"\nint v = TEN;\n", Files, Options);
  ASSERT_TRUE(R.Result.Ok);
  EXPECT_EQ(R.Result.Stats.Includes, 1u);
  EXPECT_NE(R.Result.Text.find("int ten = 10 ;"), std::string::npos);

  // The spliced line's provenance points into the header, include stack
  // rooted at the main file.
  size_t Line = 0, At = 0;
  std::istringstream In(R.Result.Text);
  for (std::string L; std::getline(In, L);) {
    ++At;
    if (L.find("int ten") != std::string::npos)
      Line = At;
  }
  ASSERT_NE(Line, 0u);
  const pp::LineInfo *Info = R.Result.Map.info(static_cast<unsigned>(Line));
  ASSERT_NE(Info, nullptr);
  EXPECT_EQ(R.Result.Map.file(*Info), "inc/ten.h");
  ASSERT_EQ(R.Result.Map.stack(*Info).size(), 1u);
  EXPECT_EQ(R.Result.Map.stack(*Info)[0].File, "main.c");
}

TEST(PpIncludes, QuotedIncludeTriesIncluderDirFirst) {
  pp::FileMap Files = {{"sub/near.h", "int which = 1;\n"},
                       {"far/near.h", "int which = 2;\n"},
                       {"sub/main2.c", "#include \"near.h\"\n"}};
  pp::PpOptions Options;
  Options.IncludeDirs = {"far"};
  pp::MemoryResolver Resolver(Files);
  DiagnosticEngine Diags;
  pp::PpResult Result = pp::preprocess("sub/main2.c", Files["sub/main2.c"],
                                       Resolver, Options, Diags);
  ASSERT_TRUE(Result.Ok);
  EXPECT_NE(Result.Text.find("int which = 1;"), std::string::npos);
}

TEST(PpIncludes, QuotedIncludeFallsBackToSearchPath) {
  // Lookup order for `#include "x.h"`: the including file's directory
  // first, then each -I dir in command-line order. Here the includer's
  // directory (sub/) has no nested.h, so resolution must fall through to
  // the -I dirs — and must take them in order (first/ before second/).
  pp::FileMap Files = {{"first/nested.h", "int which = 1;\n"},
                       {"second/nested.h", "int which = 2;\n"},
                       {"sub/main3.c", "#include \"nested.h\"\n"}};
  pp::PpOptions Options;
  Options.IncludeDirs = {"first", "second"};
  pp::MemoryResolver Resolver(Files);
  DiagnosticEngine Diags;
  pp::PpResult Result = pp::preprocess("sub/main3.c", Files["sub/main3.c"],
                                       Resolver, Options, Diags);
  ASSERT_TRUE(Result.Ok);
  EXPECT_NE(Result.Text.find("int which = 1;"), std::string::npos);
  EXPECT_EQ(Result.Text.find("int which = 2;"), std::string::npos);
}

TEST(PpIncludes, DirectoryDoesNotSatisfyQuotedInclude) {
  // POSIX lets ifstream "open" a directory (it just reads zero bytes). A
  // subdirectory named like the header must not shadow the real one: the
  // includer-dir candidate fails and the -I fallback finds include/util.h.
  stq::testing::TempDir Tmp;
  ASSERT_TRUE(Tmp.valid());
  namespace fs = std::filesystem;
  fs::create_directories(Tmp.path("include"));
  fs::create_directories(Tmp.path("util.h")); // decoy directory
  {
    std::ofstream H(Tmp.path("include/util.h"));
    H << "#define FROM_INCLUDE 1\nint util_marker = FROM_INCLUDE;\n";
  }
  std::string Main = "#include \"util.h\"\nint v = util_marker;\n";
  pp::PpOptions Options;
  Options.IncludeDirs = {Tmp.path("include")};
  pp::DiskResolver Resolver;
  DiagnosticEngine Diags;
  pp::PpResult Result =
      pp::preprocess(Tmp.path("main.c"), Main, Resolver, Options, Diags);
  ASSERT_TRUE(Result.Ok);
  EXPECT_FALSE(Diags.hasErrors());
  EXPECT_NE(Result.Text.find("int util_marker = 1 ;"), std::string::npos);
}

TEST(PpIncludes, MissingHeaderDiagnosedAndRecovered) {
  PpRun R = run("#include \"nope.h\"\nint after = 1;\n", {});
  EXPECT_FALSE(R.Result.Ok);
  EXPECT_TRUE(R.Diags.hasErrors());
  EXPECT_TRUE(anyDiagContains(R.Diags, "nope.h"));
  // Processing continues past the bad directive.
  EXPECT_NE(R.Result.Text.find("int after = 1;"), std::string::npos);
}

TEST(PpIncludes, IncludeCycleCapped) {
  pp::FileMap Files = {{"a.h", "#include \"b.h\"\nint a;\n"},
                       {"b.h", "#include \"a.h\"\nint b;\n"}};
  pp::PpOptions Options;
  Options.MaxIncludeDepth = 8;
  PpRun R = run("#include \"a.h\"\n", Files, Options);
  EXPECT_FALSE(R.Result.Ok);
  EXPECT_TRUE(R.Diags.hasErrors());
}

TEST(PpIncludes, SelfIncludeCapped) {
  pp::FileMap Files = {{"self.h", "#include \"self.h\"\n"}};
  pp::PpOptions Options;
  Options.MaxIncludeDepth = 4;
  PpRun R = run("#include \"self.h\"\n", Files, Options);
  EXPECT_FALSE(R.Result.Ok);
  EXPECT_TRUE(R.Diags.hasErrors());
}

TEST(PpIncludes, GuardedHeaderIncludedTwiceIsIdempotent) {
  pp::FileMap Files = {
      {"g.h", "#ifndef G_H\n#define G_H\nint g = 1;\n#endif\n"}};
  PpRun R = run("#include \"g.h\"\n#include \"g.h\"\nint v = g;\n", Files);
  ASSERT_TRUE(R.Result.Ok);
  size_t First = R.Result.Text.find("int g = 1;");
  ASSERT_NE(First, std::string::npos);
  EXPECT_EQ(R.Result.Text.find("int g = 1;", First + 1), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Conditionals
//===----------------------------------------------------------------------===//

TEST(PpConditionals, ElifChainAndDefined) {
  PpRun R = run("#define A 3\n"
                "#if A > 5\n"
                "int picked = 1;\n"
                "#elif (A * 2) == 6 && defined(A)\n"
                "int picked = 2;\n"
                "#else\n"
                "int picked = 3;\n"
                "#endif\n",
                {});
  ASSERT_TRUE(R.Result.Ok);
  EXPECT_NE(R.Result.Text.find("int picked = 2;"), std::string::npos);
  EXPECT_EQ(R.Result.Text.find("int picked = 1;"), std::string::npos);
  EXPECT_EQ(R.Result.Text.find("int picked = 3;"), std::string::npos);
}

TEST(PpConditionals, PredefinesFromOptions) {
  pp::PpOptions Options;
  Options.Defines = {"FLAG", "VAL=7"};
  PpRun R = run("#ifdef FLAG\nint v = VAL;\n#endif\n", {}, Options);
  ASSERT_TRUE(R.Result.Ok);
  EXPECT_NE(R.Result.Text.find("int v = 7 ;"), std::string::npos);
}

TEST(PpConditionals, NestingDepthCapped) {
  pp::PpOptions Options;
  Options.MaxConditionalDepth = 4;
  std::string Src;
  for (int I = 0; I < 6; ++I)
    Src += "#if 1\n";
  Src += "int v = 1;\n";
  for (int I = 0; I < 6; ++I)
    Src += "#endif\n";
  PpRun R = run(Src, {}, Options);
  EXPECT_FALSE(R.Result.Ok);
  EXPECT_TRUE(R.Diags.hasErrors());
}

TEST(PpConditionals, UnterminatedConditionalDiagnosed) {
  PpRun R = run("#if 1\nint v = 1;\n", {});
  EXPECT_FALSE(R.Result.Ok);
  EXPECT_TRUE(R.Diags.hasErrors());
}

TEST(PpConditionals, ErrorDirectiveOnlyFiresInLiveBranch) {
  PpRun Skipped = run("#if 0\n#error dead\n#endif\nint v = 1;\n", {});
  EXPECT_TRUE(Skipped.Result.Ok);
  PpRun Live = run("#error boom\n", {});
  EXPECT_FALSE(Live.Result.Ok);
  EXPECT_TRUE(anyDiagContains(Live.Diags, "boom"));
}

//===----------------------------------------------------------------------===//
// Robustness and hashing
//===----------------------------------------------------------------------===//

TEST(PpRobustness, DiagnosticFloodCapped) {
  pp::PpOptions Options;
  Options.MaxErrors = 3;
  std::string Src;
  for (int I = 0; I < 20; ++I)
    Src += "#include \"missing" + std::to_string(I) + ".h\"\n";
  PpRun R = run(Src, {}, Options);
  EXPECT_FALSE(R.Result.Ok);
  // Capped: nowhere near one error per missing header (the +1 allows a
  // trailing "too many errors" style note).
  EXPECT_LE(R.Diags.diagnostics().size(), 8u);
}

TEST(PpRobustness, CommentBytesBecomeSpaces) {
  PpRun R = run("int /* gone */ x = 1;\n", {});
  ASSERT_TRUE(R.Result.Ok);
  // Line length and the column of 'x' survive comment stripping.
  EXPECT_NE(R.Result.Text.find("int            x = 1;"), std::string::npos);
}

TEST(PpRobustness, StreamHashTracksHeaderEdits) {
  pp::FileMap V1 = {{"h.h", "#define TEN 10\n"}};
  pp::FileMap V2 = {{"h.h", "#define TEN 12\n"}};
  std::string Main = "#include \"h.h\"\nint v = TEN;\n";
  PpRun A = run(Main, V1);
  PpRun B = run(Main, V2);
  PpRun C = run(Main, V1);
  ASSERT_TRUE(A.Result.Ok);
  ASSERT_TRUE(B.Result.Ok);
  EXPECT_TRUE(A.Result.StreamHashA != B.Result.StreamHashA ||
              A.Result.StreamHashB != B.Result.StreamHashB);
  EXPECT_EQ(A.Result.StreamHashA, C.Result.StreamHashA);
  EXPECT_EQ(A.Result.StreamHashB, C.Result.StreamHashB);
}

TEST(PpRobustness, CollectIncludeClosureRecordsHeaders) {
  stq::testing::TempDir Dir;
  ASSERT_TRUE(Dir.valid());
  {
    std::ofstream H(Dir.path("dep.h"));
    H << "int dep = 1;\n";
  }
  pp::PpOptions Options;
  Options.IncludeDirs = {Dir.str()};
  pp::FileMap Closure = pp::collectIncludeClosure(
      {{"main.c", "#include \"dep.h\"\nint v = dep;\n"}}, Options);
  ASSERT_EQ(Closure.size(), 1u);
  EXPECT_EQ(Closure.begin()->first, Dir.path("dep.h"));
  EXPECT_EQ(Closure.begin()->second, "int dep = 1;\n");
}

//===----------------------------------------------------------------------===//
// Multi-TU front end: remapping and link checks
//===----------------------------------------------------------------------===//

frontend::CompileOptions compileOpts(const pp::FileMap *Files = nullptr) {
  frontend::CompileOptions CO;
  CO.Files = Files;
  CO.QualNames = {"pos", "neg"};
  return CO;
}

TEST(Frontend, RemapAddsMacroExpansionNote) {
  // BAD expands to a parse error, so the TU-local diagnostic lands on a
  // macro-rewritten line; the remap must attribute it to tu.c line 2 and
  // append the macro-expansion note.
  pp::FileMap Files = {{"m.h", "#define BAD ] ]\n"}};
  frontend::CompileOptions CO = compileOpts(&Files);
  DiagnosticEngine Diags;
  frontend::TUnit U = frontend::compileUnit(
      "tu.c", "#include \"m.h\"\nint v = BAD;\n", CO, Diags);
  EXPECT_FALSE(U.FrontEndOk);
  ASSERT_FALSE(Diags.diagnostics().empty());
  std::vector<Diagnostic> Ds = Diags.diagnostics();
  frontend::remapDiagnostics(Ds, 0, U.Name, U.Pp.Map);
  bool SawRemapped = false, SawNote = false;
  for (const Diagnostic &D : Ds) {
    if (D.Severity == DiagSeverity::Error && D.File == "tu.c" &&
        D.Loc.Line == 2)
      SawRemapped = true;
    if (D.Severity == DiagSeverity::Note &&
        D.Message.find("macro 'BAD'") != std::string::npos)
      SawNote = true;
  }
  EXPECT_TRUE(SawRemapped);
  EXPECT_TRUE(SawNote);
}

TEST(Frontend, LinkAcceptsAgreeingPrototype) {
  frontend::CompileOptions CO = compileOpts();
  DiagnosticEngine D1, D2;
  std::vector<frontend::TUnit> TUs;
  TUs.push_back(frontend::compileUnit(
      "def.c", "int pos f(int pos a) { return a; }\n", CO, D1));
  TUs.push_back(frontend::compileUnit(
      "use.c", "int pos f(int pos a);\nint main() { return f(3) % 2; }\n", CO,
      D2));
  ASSERT_TRUE(TUs[0].FrontEndOk);
  ASSERT_TRUE(TUs[1].FrontEndOk);
  DiagnosticEngine Link;
  EXPECT_TRUE(frontend::linkUnits(TUs, Link));
  EXPECT_EQ(Link.countInPhase("link"), 0u);
}

TEST(Frontend, LinkRejectsQualifierSignatureMismatch) {
  frontend::CompileOptions CO = compileOpts();
  DiagnosticEngine D1, D2;
  std::vector<frontend::TUnit> TUs;
  TUs.push_back(frontend::compileUnit(
      "def.c", "int pos f(int pos a) { return a; }\n", CO, D1));
  // The caller's prototype drops the return qualifier: exactly the
  // cross-TU bug the link step exists to catch.
  TUs.push_back(frontend::compileUnit(
      "use.c", "int f(int pos a);\nint main() { return f(3) % 2; }\n", CO,
      D2));
  ASSERT_TRUE(TUs[0].FrontEndOk);
  ASSERT_TRUE(TUs[1].FrontEndOk);
  DiagnosticEngine Link;
  EXPECT_FALSE(frontend::linkUnits(TUs, Link));
  EXPECT_GE(Link.countInPhase("link"), 1u);
}

TEST(Frontend, LinkRejectsDuplicateDefinition) {
  frontend::CompileOptions CO = compileOpts();
  DiagnosticEngine D1, D2;
  std::vector<frontend::TUnit> TUs;
  TUs.push_back(frontend::compileUnit(
      "one.c", "int pos f(int pos a) { return a; }\n", CO, D1));
  TUs.push_back(frontend::compileUnit(
      "two.c", "int pos f(int pos a) { return a * a; }\n", CO, D2));
  ASSERT_TRUE(TUs[0].FrontEndOk);
  ASSERT_TRUE(TUs[1].FrontEndOk);
  DiagnosticEngine Link;
  EXPECT_FALSE(frontend::linkUnits(TUs, Link));
  EXPECT_GE(Link.countInPhase("link"), 1u);
}

} // namespace
