//===- Workloads.cpp ------------------------------------------------------===//

#include "workloads/Workloads.h"

#include "qual/Builtins.h"

#include <sstream>

using namespace stq;
using namespace stq::workloads;

unsigned stq::workloads::countLines(const std::string &Source) {
  unsigned N = 0;
  bool Blank = true;
  for (char C : Source) {
    if (C == '\n') {
      if (!Blank)
        ++N;
      Blank = true;
    } else if (C != ' ' && C != '\t') {
      Blank = false;
    }
  }
  if (!Blank)
    ++N;
  return N;
}

namespace {

/// Names for the dfa struct's fields.
const char *IntFields[] = {"nstates",  "ntokens", "depth",     "tindex",
                           "nleaves",  "nregexps", "searchflag", "trcount"};
const char *StableFields[] = {"success",  "newlines", "charclasses",
                              "states",   "follows",  "positions"};
const char *NullableFields[] = {"trans", "realtrans", "fails", "musts"};

/// Rebuilds Flattened and Lines from Headers and Units: every header's
/// text (in order, minus #include lines — corpus headers include each
/// other), then every unit's text minus its #include lines. The split
/// program and the flattened TU must check to identical verdict counters
/// (the frontend oracle's invariant).
void flattenAndCount(MultiTuProgram &P) {
  std::ostringstream Flat;
  auto StripInto = [&Flat](const std::string &Text) {
    std::istringstream In(Text);
    std::string Line;
    while (std::getline(In, Line)) {
      size_t At = Line.find_first_not_of(" \t");
      if (At != std::string::npos && Line.compare(At, 8, "#include") == 0)
        continue;
      Flat << Line << "\n";
    }
  };
  for (const MultiTuProgram::File &Hdr : P.Headers)
    StripInto(Hdr.Text);
  for (const MultiTuProgram::File &U : P.Units)
    StripInto(U.Text);
  P.Flattened = Flat.str();

  P.Lines = 0;
  for (const MultiTuProgram::File &Hdr : P.Headers)
    P.Lines += countLines(Hdr.Text);
  for (const MultiTuProgram::File &U : P.Units)
    P.Lines += countLines(U.Text);
}

//===----------------------------------------------------------------------===//
// grep dfa.c emission, shared by the legacy single TU and the §6 corpus
//===----------------------------------------------------------------------===//

/// Styles the dfa emission: the legacy transcription is unannotated (the
/// fixpoint adds qualifiers in memory), the corpus is the post-fixpoint
/// annotated form with the table bound spelled through a macro.
struct DfaStyle {
  bool Annotated = false;
  /// The table-size token (literal "64" legacy, "DFA_TABLEN" corpus).
  std::string Lim = "64";
  /// The ntokens initializer ("n * 2" legacy, "DFA_NSTATES(n)" corpus).
  std::string NTokens = "n * 2";
};

const char *dfaQ(const DfaStyle &St) { return St.Annotated ? " nonnull" : ""; }

void emitDfaStruct(std::ostream &OS, const DfaStyle &St) {
  OS << "struct dfa {\n";
  for (const char *F : IntFields)
    OS << "  int " << F << ";\n";
  for (const char *F : StableFields)
    OS << "  int*" << dfaQ(St) << " " << F << ";\n";
  for (const char *F : NullableFields)
    OS << "  int* " << F << ";\n";
  OS << "  char* mustmatch;\n";
  OS << "};\n\n";
}

std::string dfaAnalyzeSig(unsigned K, const DfaStyle &St) {
  std::ostringstream S;
  S << "int dfa_analyze_" << K << "(struct dfa*" << dfaQ(St) << " d, int*"
    << dfaQ(St) << " buf, int n)";
  return S.str();
}

std::string dfaLookupSig(unsigned K, const DfaStyle &St) {
  std::ostringstream S;
  S << "int dfa_lookup_" << K << "(struct dfa*" << dfaQ(St) << " d, int works)";
  return S.str();
}

std::string dfaBuildSig(const DfaStyle &St) {
  return std::string("void dfa_build(struct dfa*") + dfaQ(St) + " d, int n)";
}

std::string dfaMaterializeSig(const DfaStyle &St) {
  return std::string("void dfa_materialize(struct dfa*") + dfaQ(St) +
         " d, int n)";
}

std::string dfaResetSig(const DfaStyle &St) {
  return std::string("void dfa_reset(struct dfa*") + dfaQ(St) + " d)";
}

/// Analyzer functions: heavy dereferencing of the dfa and of a caller
/// supplied buffer.
void emitDfaAnalyzer(std::ostream &OS, unsigned K, const DfaStyle &St) {
  OS << dfaAnalyzeSig(K, St) << " {\n";
  OS << "  int acc = 0;\n";
  OS << "  int limit = n;\n";
  OS << "  if (limit > " << St.Lim << ") limit = " << St.Lim << ";\n";
  // Integer field dereferences.
  for (unsigned I = 0; I < 8; ++I)
    OS << "  acc = acc + d->" << IntFields[(K + I) % 8] << ";\n";
  // Stable-table dereferences.
  for (unsigned I = 0; I < 4; ++I) {
    const char *F = StableFields[(K + I) % 6];
    OS << "  acc = acc + d->" << F << "[" << (I + 1) << "];\n";
    OS << "  acc = acc * 2 - d->" << F << "[0];\n";
  }
  // Buffer loop.
  OS << "  for (int i = 0; i < limit; i = i + 1) {\n";
  OS << "    buf[i] = acc + i;\n";
  OS << "    acc = acc + buf[i] % 7;\n";
  OS << "  }\n";
  // Pure arithmetic padding (the real dfa.c has long stretches of
  // state-machine logic between pointer accesses).
  OS << "  int tmp0 = acc * 3 + 1;\n";
  OS << "  int tmp1 = tmp0 - n;\n";
  OS << "  int tmp2 = tmp1 * tmp1;\n";
  OS << "  if (tmp2 > acc) { acc = tmp2 - acc; } else { acc = acc - tmp2; }\n";
  OS << "  while (acc > 100000) { acc = acc / 2; }\n";
  // State-machine padding, mirroring dfa.c's long analysis routines.
  for (unsigned P = 0; P < 10; ++P) {
    OS << "  int st" << P << " = (acc + " << (P * 3 + 1) << ") % 251;\n";
    OS << "  if (st" << P << " > 125) { st" << P << " = 250 - st" << P
       << "; }\n";
    OS << "  acc = acc + st" << P << " * " << (P + 1) << ";\n";
    OS << "  acc = acc + d->" << IntFields[(K + P) % 8] << ";\n";
  }
  OS << "  acc = acc + d->" << IntFields[K % 8] << " * 2;\n";
  OS << "  acc = acc + d->" << StableFields[K % 6] << "[2];\n";
  OS << "  return acc;\n";
  OS << "}\n\n";
}

/// Guarded lookups: the flow-insensitivity idiom. Each function reads two
/// lazily-built (nullable) tables behind NULL checks; the annotated form
/// reads through a nonnull-cast alias inside each guard (the paper's main
/// source of casts — two per lookup).
void emitDfaLookup(std::ostream &OS, unsigned K, const DfaStyle &St) {
  const char *F1 = NullableFields[K % 4];
  const char *F2 = NullableFields[(K + 1) % 4];
  OS << dfaLookupSig(K, St) << " {\n";
  OS << "  int* t;\n";
  OS << "  int* u;\n";
  OS << "  int acc = d->" << IntFields[K % 8] << ";\n";
  OS << "  t = d->" << F1 << ";\n";
  OS << "  if (t != NULL) {\n";
  if (St.Annotated) {
    OS << "    int* nonnull tt = (int* nonnull)(t);\n";
    OS << "    acc = acc + tt[works];\n";
    OS << "    acc = acc + tt[works + 1];\n";
    OS << "    acc = acc - tt[0];\n";
  } else {
    OS << "    acc = acc + t[works];\n";
    OS << "    acc = acc + t[works + 1];\n";
    OS << "    acc = acc - t[0];\n";
  }
  OS << "  }\n";
  OS << "  u = d->" << F2 << ";\n";
  OS << "  if (u != NULL) {\n";
  if (St.Annotated) {
    OS << "    int* nonnull uu = (int* nonnull)(u);\n";
    OS << "    acc = acc + uu[works % 8];\n";
    OS << "    acc = acc + uu[1] * 2;\n";
  } else {
    OS << "    acc = acc + u[works % 8];\n";
    OS << "    acc = acc + u[1] * 2;\n";
  }
  OS << "  }\n";
  OS << "  acc = acc + d->" << IntFields[(K + 3) % 8] << ";\n";
  for (unsigned P = 0; P < 6; ++P) {
    OS << "  int h" << P << " = acc * " << (P + 2) << " % 8191;\n";
    OS << "  if (h" << P << " % 2 == 0) { acc = acc + h" << P
       << "; } else { acc = acc - h" << P << " / 3; }\n";
    OS << "  acc = acc + d->" << IntFields[(K + P) % 8] << " % 31;\n";
  }
  OS << "  int scaled = acc * 5 % 9973;\n";
  OS << "  if (scaled < 0) scaled = -scaled;\n";
  OS << "  return scaled;\n";
  OS << "}\n\n";
}

/// Builder: allocates the stable tables (casts in the annotated fixpoint:
/// malloc may return NULL) and leaves the lazy tables NULL.
void emitDfaBuild(std::ostream &OS, const DfaStyle &St) {
  const char *Cast = St.Annotated ? "(int* nonnull)" : "(int*)";
  OS << dfaBuildSig(St) << " {\n";
  for (const char *F : StableFields)
    OS << "  d->" << F << " = " << Cast << " malloc(sizeof(int) * n);\n";
  for (const char *F : NullableFields)
    OS << "  d->" << F << " = NULL;\n";
  OS << "  d->nstates = n;\n";
  OS << "  d->ntokens = " << St.NTokens << ";\n";
  OS << "  for (int i = 0; i < n; i = i + 1) {\n";
  for (const char *F : StableFields)
    OS << "    d->" << F << "[i] = i;\n";
  OS << "  }\n";
  OS << "}\n\n";
}

/// Lazy-table materializer: the annotated form writes through a per-site
/// nonnull cast (the tables stay nullable; only this writer may assume
/// the fresh allocation).
void emitDfaMaterialize(std::ostream &OS, const DfaStyle &St) {
  OS << dfaMaterializeSig(St) << " {\n";
  for (const char *F : NullableFields)
    OS << "  d->" << F << " = (int*) malloc(sizeof(int) * n);\n";
  OS << "  for (int i = 0; i < n; i = i + 1) {\n";
  for (const char *F : NullableFields) {
    if (St.Annotated)
      OS << "    ((int* nonnull)(d->" << F << "))[i] = i % 3;\n";
    else
      OS << "    d->" << F << "[i] = i % 3;\n";
  }
  OS << "  }\n";
  OS << "}\n\n";
}

void emitDfaReset(std::ostream &OS, const DfaStyle &St) {
  OS << dfaResetSig(St) << " {\n";
  for (const char *F : NullableFields)
    OS << "  d->" << F << " = NULL;\n";
  OS << "  d->trcount = 0;\n";
  OS << "}\n\n";
}

/// Driver main.
void emitDfaMain(std::ostream &OS, unsigned Analyzers, unsigned Guarded,
                 const DfaStyle &St) {
  OS << "int main() {\n";
  if (St.Annotated) {
    OS << "  struct dfa* nonnull d = (struct dfa* nonnull) "
          "malloc(sizeof(struct dfa));\n";
    OS << "  int* nonnull scratch = (int* nonnull) malloc(sizeof(int) * "
       << St.Lim << ");\n";
  } else {
    OS << "  struct dfa* d = (struct dfa*) malloc(sizeof(struct dfa));\n";
    OS << "  int* scratch = (int*) malloc(sizeof(int) * " << St.Lim << ");\n";
  }
  OS << "  dfa_build(d, " << St.Lim << ");\n";
  OS << "  dfa_materialize(d, " << St.Lim << ");\n";
  OS << "  int total = 0;\n";
  for (unsigned K = 0; K < Analyzers; ++K)
    OS << "  total = total + dfa_analyze_" << K << "(d, scratch, " << St.Lim
       << ");\n";
  for (unsigned K = 0; K < Guarded; ++K)
    OS << "  total = total + dfa_lookup_" << K << "(d, " << (K % 8) << ");\n";
  OS << "  dfa_reset(d);\n";
  OS << "  return total % 256;\n";
  OS << "}\n";
}

} // namespace

//===----------------------------------------------------------------------===//
// grep dfa.c analogue (Table 1)
//===----------------------------------------------------------------------===//

GeneratedWorkload stq::workloads::makeGrepDfa(unsigned Scale) {
  std::ostringstream OS;
  OS << "// Synthetic analogue of grep 2.5's dfa.c for the nonnull\n"
        "// experiment (Table 1). Structure: a DFA with transition tables,\n"
        "// analyzers that walk them, and NULL-guarded lazy tables that\n"
        "// defeat a flow-insensitive qualifier system (the paper's main\n"
        "// source of casts).\n";
  DfaStyle St;
  emitDfaStruct(OS, St);

  unsigned Analyzers = 12 * Scale;
  unsigned Guarded = 25 * Scale;

  for (unsigned K = 0; K < Analyzers; ++K)
    emitDfaAnalyzer(OS, K, St);
  for (unsigned K = 0; K < Guarded; ++K)
    emitDfaLookup(OS, K, St);
  emitDfaBuild(OS, St);
  emitDfaMaterialize(OS, St);
  emitDfaReset(OS, St);
  emitDfaMain(OS, Analyzers, Guarded, St);

  GeneratedWorkload W;
  W.Name = "grep-dfa";
  W.Source = OS.str();
  W.Lines = countLines(W.Source);
  return W;
}

CorpusProgram stq::workloads::makeGrepDfaCorpus() {
  CorpusProgram C;
  C.Name = "grep-dfa";
  C.Kind = "table1";
  C.Quals = {"nonnull"};
  C.QualFile = qual::builtinQualifierSource("nonnull");
  C.Legacy = makeGrepDfa(1);
  C.ExpectedErrors = 0;

  DfaStyle St;
  St.Annotated = true;
  St.Lim = "DFA_TABLEN";
  St.NTokens = "DFA_NSTATES(n)";
  const unsigned Analyzers = 12;
  const unsigned Guarded = 25;

  std::ostringstream H;
  H << "// dfa.h — the DFA object and module interfaces of the grep 2.5\n"
       "// dfa.c analogue, in the post-fixpoint annotated form Table 1\n"
       "// reports: the always-valid tables and entry points carry\n"
       "// nonnull; the lazily-built tables stay plain.\n"
       "#ifndef DFA_H\n"
       "#define DFA_H\n"
       "\n"
       "#define DFA_TABLEN 64\n"
       "#define DFA_NSTATES(n) ((n) * 2)\n"
       "\n";
  emitDfaStruct(H, St);
  for (unsigned K = 0; K < Analyzers; ++K)
    H << dfaAnalyzeSig(K, St) << ";\n";
  for (unsigned K = 0; K < Guarded; ++K)
    H << dfaLookupSig(K, St) << ";\n";
  H << dfaBuildSig(St) << ";\n"
    << dfaMaterializeSig(St) << ";\n"
    << dfaResetSig(St) << ";\n"
    << "\n#endif\n";
  C.Prog.Headers.push_back({"include/dfa.h", H.str()});

  std::ostringstream A;
  A << "// dfa_analyze.c — analyzer passes: heavy dereferencing of the\n"
       "// DFA's always-valid tables and the caller's scratch buffer\n"
       "// (Table 1's dereference column).\n"
       "#include \"dfa.h\"\n"
       "\n";
  for (unsigned K = 0; K < Analyzers; ++K)
    emitDfaAnalyzer(A, K, St);
  C.Prog.Units.push_back({"dfa_analyze.c", A.str()});

  std::ostringstream L;
  L << "// dfa_lookup.c — lazily-built tables read behind NULL guards;\n"
       "// each guarded read goes through a nonnull-cast alias, the\n"
       "// paper's main source of casts under flow-insensitive checking.\n"
       "#include \"dfa.h\"\n"
       "\n";
  for (unsigned K = 0; K < Guarded; ++K)
    emitDfaLookup(L, K, St);
  C.Prog.Units.push_back({"dfa_lookup.c", L.str()});

  std::ostringstream B;
  B << "// dfa_build.c — table construction and reset: malloc results\n"
       "// enter nonnull fields through casts; the lazy tables are\n"
       "// materialized through per-site casts and reset to NULL.\n"
       "#include \"dfa.h\"\n"
       "\n";
  emitDfaBuild(B, St);
  emitDfaMaterialize(B, St);
  emitDfaReset(B, St);
  C.Prog.Units.push_back({"dfa_build.c", B.str()});

  std::ostringstream M;
  M << "// main.c — driver: builds the DFA, materializes the lazy\n"
       "// tables, and runs every analyzer and lookup.\n"
       "#include \"dfa.h\"\n"
       "\n";
  emitDfaMain(M, Analyzers, Guarded, St);
  C.Prog.Units.push_back({"main.c", M.str()});

  flattenAndCount(C.Prog);
  return C;
}

//===----------------------------------------------------------------------===//
// grep unique experiment (section 6.2)
//===----------------------------------------------------------------------===//

namespace {

GeneratedWorkload makeGrepUniqueImpl(bool Violating) {
  std::ostringstream OS;
  unsigned RefSites = 0;
  OS << "// Section 6.2: the dfa global is the sole reference to the DFA\n"
        "// being built. All subsequent uses dereference it, preserving\n"
        "// uniqueness.\n";
  OS << "struct dfa {\n  int nstates;\n  int ntokens;\n  int* trans;\n"
        "  int* fails;\n};\n\n";
  OS << "struct dfa* parser_result();\n\n";
  if (Violating)
    OS << "void external_use(struct dfa* d);\n\n";
  OS << "struct dfa* unique dfa;\n\n";
  // Initialization needs a cast: the assign rules cannot validate a value
  // received from the parser module.
  OS << "void dfa_init() {\n"
        "  dfa = (struct dfa* unique) parser_result();\n"
        "}\n\n";
  // 49 subsequent references, spread over several procedures, mirroring
  // dfacomp/dfaexec/dfafree in grep.
  const unsigned PerFn[] = {12, 10, 9, 8, 6, 4};
  unsigned FnIdx = 0;
  for (unsigned Count : PerFn) {
    OS << "int dfa_use_" << FnIdx++ << "(int x) {\n";
    OS << "  int acc = x;\n";
    for (unsigned I = 0; I < Count; ++I) {
      switch (I % 4) {
      case 0:
        OS << "  acc = acc + dfa->nstates;\n";
        break;
      case 1:
        OS << "  acc = acc + dfa->ntokens;\n";
        break;
      case 2:
        OS << "  dfa->nstates = acc;\n";
        break;
      case 3:
        OS << "  dfa->ntokens = acc % 7;\n";
        break;
      }
      ++RefSites;
    }
    OS << "  return acc;\n}\n\n";
  }
  if (Violating) {
    OS << "void leak() {\n"
          "  external_use(dfa);\n" // Violates the disallow rule.
          "}\n\n";
  }
  OS << "int main() {\n  dfa_init();\n  int t = 0;\n";
  for (unsigned I = 0; I < FnIdx; ++I)
    OS << "  t = t + dfa_use_" << I << "(t);\n";
  if (Violating)
    OS << "  leak();\n";
  OS << "  return t % 100;\n}\n";

  GeneratedWorkload W;
  W.Name = Violating ? "grep-unique-violating" : "grep-unique";
  W.Source = OS.str();
  W.Lines = countLines(W.Source);
  W.UniqueRefSites = RefSites;
  return W;
}

} // namespace

GeneratedWorkload stq::workloads::makeGrepDfaUnique() {
  return makeGrepUniqueImpl(/*Violating=*/false);
}

GeneratedWorkload stq::workloads::makeGrepDfaUniqueViolating() {
  return makeGrepUniqueImpl(/*Violating=*/true);
}

//===----------------------------------------------------------------------===//
// Taint workloads (Table 2)
//===----------------------------------------------------------------------===//

namespace {

/// Shared prelude: printf with the untainted format signature the paper
/// installs via alternate library headers.
const char *TaintPrelude =
    "int printf(char* untainted fmt, ...);\n"
    "struct dirent { char* d_name; int d_type; };\n"
    "struct session { int sock; int logged_in; char* user; };\n\n";

/// The corpus form of the paper's alternate stdio header (under lib/, so
/// its annotation is library-supplied and excluded from the tables).
const char *corpusStdioHeader() {
  return "// stdio.h — the alternate library header the paper's harness\n"
         "// installs: printf demands an untainted format string.\n"
         "#ifndef STQ_STDIO_H\n"
         "#define STQ_STDIO_H\n"
         "\n"
         "int printf(char* untainted fmt, ...);\n"
         "\n"
         "#endif\n";
}

const char *BftpdReplies[] = {
    "220 Service ready.",          "331 Password required for user.",
    "230 User logged in.",         "250 Requested action okay.",
    "425 Cannot open connection.", "226 Closing data connection.",
    "550 Permission denied.",      "221 Goodbye.",
    "200 Command okay.",           "502 Command not implemented.",
};
const char *BftpdCommands[] = {"user", "pass", "cwd",  "list", "retr",
                               "stor", "dele", "mkd",  "rmd",  "pwd",
                               "syst", "type", "port", "pasv", "quit",
                               "noop", "abor", "rest", "rnfr", "rnto",
                               "site", "mdtm", "size", "appe", "stat",
                               "help"};

/// The two wrappers whose format parameters the authors had to annotate.
void emitBftpdWrappers(std::ostream &OS, bool Annotated, unsigned &Calls) {
  const char *Q = Annotated ? " untainted" : "";
  OS << "int sendstrf(int s, char*" << Q << " format, ...) {\n"
        "  printf(format);\n"
        "  return s;\n"
        "}\n\n";
  ++Calls;
  OS << "int bftpd_log(int level, char*" << Q << " fmt, ...) {\n"
        "  printf(fmt);\n"
        "  return level;\n"
        "}\n\n";
  ++Calls;
}

void emitBftpdCommands(std::ostream &OS, unsigned &Calls) {
  unsigned Idx = 0;
  for (const char *Cmd : BftpdCommands) {
    OS << "void command_" << Cmd << "(struct session* s, char* arg) {\n";
    OS << "  if (s->logged_in == 0 && " << (Idx % 3) << " == 0) {\n";
    OS << "    sendstrf(s->sock, \"530 Not logged in.\");\n";
    ++Calls;
    OS << "    return;\n  }\n";
    OS << "  bftpd_log(1, \"handling " << Cmd << "\");\n";
    ++Calls;
    OS << "  sendstrf(s->sock, \"" << BftpdReplies[Idx % 10] << "\");\n";
    ++Calls;
    OS << "  if (arg != NULL) {\n";
    OS << "    bftpd_log(2, \"arg present\");\n";
    ++Calls;
    OS << "    sendstrf(s->sock, \"200 Noted.\");\n";
    ++Calls;
    OS << "  }\n";
    // Protocol bookkeeping padding.
    for (unsigned P = 0; P < 12; ++P) {
      OS << "  int c" << P << " = s->sock * " << (P + Idx + 1)
         << " % 199;\n";
      OS << "  if (c" << P << " > 99) { s->logged_in = s->logged_in + 0; "
            "}\n";
    }
    OS << "}\n\n";
    ++Idx;
  }
}

/// The exploitable path: entry->d_name flows into the format parameter.
void emitBftpdListEntry(std::ostream &OS, unsigned &Calls) {
  OS << "void command_list_entry(struct session* s, struct dirent* entry) {\n"
        "  sendstrf(s->sock, entry->d_name);\n"
        "}\n\n";
  ++Calls;
}

void emitBftpdMain(std::ostream &OS, unsigned &Calls) {
  OS << "int main() {\n"
        "  struct session* s = (struct session*) "
        "malloc(sizeof(struct session));\n"
        "  s->sock = 4;\n"
        "  s->logged_in = 1;\n"
        "  printf(\"bftpd starting\\n\");\n";
  ++Calls;
  OS << "  command_user(s, \"anonymous\");\n"
        "  command_quit(s, NULL);\n"
        "  return 0;\n"
        "}\n";
}

const char *MingettySteps[] = {"parse_args", "open_tty", "output_issue",
                               "read_login", "spawn_login"};

void emitMingettyLog(std::ostream &OS, bool Annotated, unsigned &Calls) {
  const char *Q = Annotated ? " untainted" : "";
  OS << "int log_msg(char*" << Q << " fmt, ...) {\n"
        "  printf(fmt);\n"
        "  return 0;\n"
        "}\n\n";
  ++Calls;
}

void emitMingettyStep(std::ostream &OS, const char *Step, unsigned Idx,
                      unsigned &Calls) {
  OS << "int " << Step << "(int fd) {\n";
  OS << "  log_msg(\"" << Step << " begin\");\n";
  ++Calls;
  OS << "  if (fd < 0) {\n";
  OS << "    printf(\"%s: bad fd %d\\n\", \"" << Step << "\", fd);\n";
  ++Calls;
  OS << "    return -1;\n  }\n";
  OS << "  printf(\"step %d\\n\", " << Idx << ");\n";
  ++Calls;
  OS << "  log_msg(\"" << Step << " end\");\n";
  ++Calls;
  OS << "  int code = fd * " << (Idx + 2) << " % 17;\n";
  for (unsigned P = 0; P < 36; ++P) {
    OS << "  int m" << P << " = code + " << (P * 7 + Idx) << " % 13;\n";
    OS << "  if (m" << P << " % 3 == 0) { code = code + m" << P
       << " % 5; }\n";
  }
  OS << "  return code;\n";
  OS << "}\n\n";
}

void emitMingettyMain(std::ostream &OS, unsigned &Calls) {
  OS << "int main() {\n"
        "  int fd = 1;\n"
        "  int rc = 0;\n"
        "  rc = rc + parse_args(fd);\n"
        "  rc = rc + open_tty(fd);\n"
        "  rc = rc + output_issue(fd);\n"
        "  rc = rc + read_login(fd);\n"
        "  rc = rc + spawn_login(fd);\n"
        "  printf(\"mingetty done rc=%d\\n\", rc);\n";
  ++Calls;
  OS << "  printf(\"tty ready\\n\");\n";
  ++Calls;
  OS << "  return rc % 2;\n"
        "}\n";
}

const char *IdentdStages[] = {"parse_request", "lookup_connection",
                              "format_reply"};

void emitIdentdStage(std::ostream &OS, const char *Stage, unsigned Idx,
                     unsigned &Calls) {
  OS << "int " << Stage << "(int port_a, int port_b) {\n";
  OS << "  printf(\"" << Stage << ": %d , %d\\n\", port_a, port_b);\n";
  ++Calls;
  OS << "  if (port_a <= 0 || port_b <= 0) {\n";
  OS << "    printf(\"%d , %d : ERROR : INVALID-PORT\\n\", port_a, "
        "port_b);\n";
  ++Calls;
  OS << "    return -1;\n  }\n";
  OS << "  if (port_a > 65535) {\n";
  OS << "    printf(\"range error %d\\n\", port_a);\n";
  ++Calls;
  OS << "    return -1;\n  }\n";
  OS << "  printf(\"" << Stage << " ok\\n\");\n";
  ++Calls;
  OS << "  int token = port_a * 31 + port_b + " << Idx << ";\n";
  for (unsigned P = 0; P < 24; ++P) {
    OS << "  int k" << P << " = token % " << (P + 2) << " + " << P
       << ";\n";
    OS << "  if (k" << P << " > 10) { token = token + k" << P
       << " % 7; }\n";
  }
  OS << "  printf(\"token %d\\n\", token);\n";
  ++Calls;
  OS << "  return token;\n";
  OS << "}\n\n";
}

void emitIdentdMain(std::ostream &OS, unsigned &Calls) {
  OS << "int main() {\n"
        "  int t = 0;\n"
        "  t = t + parse_request(113, 1023);\n"
        "  t = t + lookup_connection(22, 4055);\n"
        "  t = t + format_reply(80, 51234);\n"
        "  printf(\"identd: %d , %d : USERID : UNIX : nobody\\n\", 113, "
        "1023);\n";
  ++Calls;
  OS << "  printf(\"done\\n\");\n";
  ++Calls;
  OS << "  printf(\"requests served: %d\\n\", 3);\n";
  ++Calls;
  OS << "  printf(\"shutting down\\n\");\n";
  ++Calls;
  OS << "  printf(\"bye\\n\");\n";
  ++Calls;
  OS << "  printf(\"exit code %d\\n\", t % 2);\n";
  ++Calls;
  OS << "  return t % 2;\n"
        "}\n";
}

/// The taint corpora share their qualfile: untainted plus its dual.
std::string taintQualFile() {
  return qual::builtinQualifierSource("tainted") +
         qual::builtinQualifierSource("untainted");
}

} // namespace

GeneratedWorkload stq::workloads::makeBftpd() {
  std::ostringstream OS;
  unsigned Calls = 0;
  OS << "// Synthetic analogue of bftpd 1.0.11: an FTP server whose\n"
        "// replies go through sendstrf; one directory-listing path uses a\n"
        "// file name as the format string (the real, previously reported\n"
        "// exploit).\n";
  OS << TaintPrelude;
  emitBftpdWrappers(OS, /*Annotated=*/false, Calls);
  emitBftpdCommands(OS, Calls);
  emitBftpdListEntry(OS, Calls);
  emitBftpdMain(OS, Calls);

  GeneratedWorkload W;
  W.Name = "bftpd";
  W.Source = OS.str();
  W.Lines = countLines(W.Source);
  W.PrintfCalls = Calls;
  W.PlantedBugs = 1;
  return W;
}

CorpusProgram stq::workloads::makeBftpdCorpus() {
  CorpusProgram C;
  C.Name = "bftpd";
  C.Kind = "table2";
  C.Quals = {"tainted", "untainted"};
  C.QualFile = taintQualFile();
  C.Legacy = makeBftpd();
  C.ExpectedErrors = 1; // The real directory-listing format-string hole.

  C.Prog.Headers.push_back({"lib/stdio.h", corpusStdioHeader()});
  C.Prog.Headers.push_back(
      {"lib/dirent.h",
       "// dirent.h — directory entries; d_name is attacker-controlled.\n"
       "#ifndef STQ_DIRENT_H\n"
       "#define STQ_DIRENT_H\n"
       "\n"
       "struct dirent { char* d_name; int d_type; };\n"
       "\n"
       "#endif\n"});

  std::ostringstream H;
  H << "// bftpd.h — session state and the reply/logging interfaces\n"
       "// whose format parameters §6.1's fixpoint annotates untainted.\n"
       "#ifndef BFTPD_H\n"
       "#define BFTPD_H\n"
       "\n"
       "#include \"dirent.h\"\n"
       "\n"
       "struct session { int sock; int logged_in; char* user; };\n"
       "\n"
       "int sendstrf(int s, char* untainted format, ...);\n"
       "int bftpd_log(int level, char* untainted fmt, ...);\n";
  for (const char *Cmd : BftpdCommands)
    H << "void command_" << Cmd << "(struct session* s, char* arg);\n";
  H << "void command_list_entry(struct session* s, struct dirent* entry);\n"
       "\n"
       "#endif\n";
  C.Prog.Headers.push_back({"include/bftpd.h", H.str()});

  unsigned Calls = 0;
  std::ostringstream Log;
  Log << "// log.c — the reply and logging wrappers; their format\n"
         "// parameters are the program's two annotations.\n"
         "#include \"stdio.h\"\n"
         "#include \"bftpd.h\"\n"
         "\n";
  emitBftpdWrappers(Log, /*Annotated=*/true, Calls);
  C.Prog.Units.push_back({"log.c", Log.str()});

  std::ostringstream Cmds;
  Cmds << "// commands.c — the FTP command handlers; every reply format\n"
          "// is a string literal, so none needs annotation.\n"
          "#include \"bftpd.h\"\n"
          "\n";
  emitBftpdCommands(Cmds, Calls);
  C.Prog.Units.push_back({"commands.c", Cmds.str()});

  std::ostringstream List;
  List << "// list.c — directory listing: entry->d_name flows into the\n"
          "// format parameter (the real, previously reported exploit).\n"
          "#include \"bftpd.h\"\n"
          "\n";
  emitBftpdListEntry(List, Calls);
  C.Prog.Units.push_back({"list.c", List.str()});

  std::ostringstream M;
  M << "// main.c — server driver.\n"
       "#include \"stdio.h\"\n"
       "#include \"bftpd.h\"\n"
       "\n";
  emitBftpdMain(M, Calls);
  C.Prog.Units.push_back({"main.c", M.str()});

  flattenAndCount(C.Prog);
  return C;
}

GeneratedWorkload stq::workloads::makeMingetty() {
  std::ostringstream OS;
  unsigned Calls = 0;
  OS << "// Synthetic analogue of mingetty 0.9.4: issue/login prompting on\n"
        "// a terminal; one logging wrapper needs its format parameter\n"
        "// annotated. No vulnerabilities.\n";
  OS << TaintPrelude;
  emitMingettyLog(OS, /*Annotated=*/false, Calls);
  unsigned Idx = 0;
  for (const char *Step : MingettySteps)
    emitMingettyStep(OS, Step, Idx++, Calls);
  emitMingettyMain(OS, Calls);

  GeneratedWorkload W;
  W.Name = "mingetty";
  W.Source = OS.str();
  W.Lines = countLines(W.Source);
  W.PrintfCalls = Calls;
  return W;
}

CorpusProgram stq::workloads::makeMingettyCorpus() {
  CorpusProgram C;
  C.Name = "mingetty";
  C.Kind = "table2";
  C.Quals = {"tainted", "untainted"};
  C.QualFile = taintQualFile();
  C.Legacy = makeMingetty();
  C.ExpectedErrors = 0;

  C.Prog.Headers.push_back({"lib/stdio.h", corpusStdioHeader()});

  std::ostringstream H;
  H << "// mingetty.h — step interfaces; the logging wrapper's format\n"
       "// parameter is the program's single annotation.\n"
       "#ifndef MINGETTY_H\n"
       "#define MINGETTY_H\n"
       "\n"
       "int log_msg(char* untainted fmt, ...);\n";
  for (const char *Step : MingettySteps)
    H << "int " << Step << "(int fd);\n";
  H << "\n#endif\n";
  C.Prog.Headers.push_back({"include/mingetty.h", H.str()});

  unsigned Calls = 0;
  std::ostringstream Log;
  Log << "// log.c — the logging wrapper.\n"
         "#include \"stdio.h\"\n"
         "#include \"mingetty.h\"\n"
         "\n";
  emitMingettyLog(Log, /*Annotated=*/true, Calls);
  C.Prog.Units.push_back({"log.c", Log.str()});

  std::ostringstream G;
  G << "// getty.c — the five getty steps; all formats are literals.\n"
       "#include \"stdio.h\"\n"
       "#include \"mingetty.h\"\n"
       "\n";
  unsigned Idx = 0;
  for (const char *Step : MingettySteps)
    emitMingettyStep(G, Step, Idx++, Calls);
  C.Prog.Units.push_back({"getty.c", G.str()});

  std::ostringstream M;
  M << "// main.c — runs the steps in order.\n"
       "#include \"stdio.h\"\n"
       "#include \"mingetty.h\"\n"
       "\n";
  emitMingettyMain(M, Calls);
  C.Prog.Units.push_back({"main.c", M.str()});

  flattenAndCount(C.Prog);
  return C;
}

GeneratedWorkload stq::workloads::makeIdentd() {
  std::ostringstream OS;
  unsigned Calls = 0;
  OS << "// Synthetic analogue of identd 1.0: a network identification\n"
        "// responder; every format string is a literal, so no annotations\n"
        "// or casts are needed at all.\n";
  OS << TaintPrelude;
  unsigned Idx = 0;
  for (const char *Stage : IdentdStages)
    emitIdentdStage(OS, Stage, Idx++, Calls);
  emitIdentdMain(OS, Calls);

  GeneratedWorkload W;
  W.Name = "identd";
  W.Source = OS.str();
  W.Lines = countLines(W.Source);
  W.PrintfCalls = Calls;
  return W;
}

CorpusProgram stq::workloads::makeIdentdCorpus() {
  CorpusProgram C;
  C.Name = "identd";
  C.Kind = "table2";
  C.Quals = {"tainted", "untainted"};
  C.QualFile = taintQualFile();
  C.Legacy = makeIdentd();
  C.ExpectedErrors = 0;

  C.Prog.Headers.push_back({"lib/stdio.h", corpusStdioHeader()});

  std::ostringstream H;
  H << "// identd.h — the three protocol stages; every format string in\n"
       "// the program is a literal, so nothing needs annotation.\n"
       "#ifndef IDENTD_H\n"
       "#define IDENTD_H\n"
       "\n";
  for (const char *Stage : IdentdStages)
    H << "int " << Stage << "(int port_a, int port_b);\n";
  H << "\n#endif\n";
  C.Prog.Headers.push_back({"include/identd.h", H.str()});

  unsigned Calls = 0;
  std::ostringstream Req;
  Req << "// request.c — request parsing and connection lookup.\n"
         "#include \"stdio.h\"\n"
         "#include \"identd.h\"\n"
         "\n";
  emitIdentdStage(Req, IdentdStages[0], 0, Calls);
  emitIdentdStage(Req, IdentdStages[1], 1, Calls);
  C.Prog.Units.push_back({"request.c", Req.str()});

  std::ostringstream Rep;
  Rep << "// reply.c — reply formatting.\n"
         "#include \"stdio.h\"\n"
         "#include \"identd.h\"\n"
         "\n";
  emitIdentdStage(Rep, IdentdStages[2], 2, Calls);
  C.Prog.Units.push_back({"reply.c", Rep.str()});

  std::ostringstream M;
  M << "// main.c — serves three requests and shuts down.\n"
       "#include \"stdio.h\"\n"
       "#include \"identd.h\"\n"
       "\n";
  emitIdentdMain(M, Calls);
  C.Prog.Units.push_back({"main.c", M.str()});

  flattenAndCount(C.Prog);
  return C;
}

std::vector<CorpusProgram> stq::workloads::makeAllCorpora() {
  std::vector<CorpusProgram> All;
  All.push_back(makeGrepDfaCorpus());
  All.push_back(makeBftpdCorpus());
  All.push_back(makeMingettyCorpus());
  All.push_back(makeIdentdCorpus());
  return All;
}

GeneratedWorkload stq::workloads::makeInferenceFarm(unsigned Functions) {
  if (Functions == 0)
    Functions = 1;
  std::ostringstream OS;
  // Every local is deliberately unannotated; the bodies keep stable
  // sign/zero facts (p,q,r positive; n,m negative) so the value-qualifier
  // engines have a large fixpoint to find, and the call chain feeds
  // positive arguments into the previous function's parameters so
  // constraints cross generation-unit boundaries.
  for (unsigned I = 0; I < Functions; ++I) {
    OS << "int farm" << I << "(int a, int b) {\n"
       << "  int p = " << (I % 9 + 1) << ";\n"
       << "  int q = p * " << (I % 5 + 2) << ";\n"
       << "  int r = q + p;\n"
       << "  int n = 0 - " << (I % 7 + 1) << ";\n"
       << "  int m = n - r;\n"
       << "  int z = a - b;\n"
       << "  p = r;\n"
       << "  q = q * r;\n"
       << "  m = m + n;\n";
    if (I > 0)
      OS << "  z = z + farm" << (I - 1) << "(p, q);\n";
    OS << "  return z + m;\n"
       << "}\n";
  }
  OS << "int main() {\n"
     << "  int acc = farm" << (Functions - 1) << "(3, 4);\n"
     << "  return acc % 2;\n"
     << "}\n";

  GeneratedWorkload W;
  W.Name = "inference-farm";
  W.Source = OS.str();
  W.Lines = countLines(W.Source);
  return W;
}

//===----------------------------------------------------------------------===//
// Multi-TU farm (real-C front-end workload)
//===----------------------------------------------------------------------===//

std::string stq::workloads::makeFarmHeader(const FarmSpec &Spec) {
  // The shared header: an include guard and a macro the bodies use (so
  // every TU exercises conditionals and expansion), plus the cross-TU
  // prototypes the roots call through.
  std::ostringstream H;
  H << "#ifndef FARM_H\n#define FARM_H\n"
    << "#define FARM_BIAS " << (Spec.Seed % 7 + 1) << "\n"
    << "#define FARM_SQ(x) ((x) * (x))\n";
  for (unsigned U = 0; U < Spec.Units; ++U)
    H << "int pos u" << U << "_root(int pos a);\n";
  H << "#endif\n";
  return H.str();
}

bool stq::workloads::farmUnitPlanted(const FarmSpec &Spec, unsigned U) {
  return Spec.Seed % 3 == 0 && U == Spec.Seed % Spec.Units;
}

MultiTuProgram::File stq::workloads::makeFarmUnit(const FarmSpec &Spec,
                                                  unsigned U) {
  // One chain of qualifier-heavy functions per unit; the root feeds the
  // previous units' roots so link-time prototypes are load-bearing.
  std::ostringstream OS;
  OS << "#include \"farm.h\"\n";
  bool Plant = farmUnitPlanted(Spec, U);
  for (unsigned F = 0; F < Spec.FnsPerUnit; ++F) {
    unsigned K = (Spec.Seed + U * 131 + F * 17) % 1000 + 1;
    OS << "int pos u" << U << "_f" << F << "(int pos a) {\n"
       << "  int pos p = " << K << " + FARM_BIAS;\n"
       << "  int pos q = FARM_SQ(p) + a;\n"
       << "  int pos r = q * p + " << (K % 9 + 1) << ";\n";
    if (Plant && F == Spec.FnsPerUnit / 2)
      // An initialization the checker cannot derive: the planted
      // diagnostic differential runs must agree on.
      OS << "  int neg bad = r;\n"
         << "  int keep = bad + 0;\n";
    if (F > 0)
      OS << "  return u" << U << "_f" << (F - 1) << "(r) + p;\n";
    else
      OS << "  return r + p;\n";
    OS << "}\n";
  }
  OS << "int pos u" << U << "_root(int pos a) {\n"
     << "  int pos t = u" << U << "_f" << (Spec.FnsPerUnit - 1) << "(a);\n";
  if (U > 0) {
    // Fan-out > 1 multiplies several earlier roots (pos is closed under
    // multiplication, so the result stays derivable); fan-out 1 is the
    // legacy single-call chain.
    OS << "  return u" << (U - 1) << "_root(t)";
    for (unsigned X = 2; X <= Spec.CallFanOut && X <= U; ++X)
      OS << " * u" << (U - X) << "_root(t)";
    OS << ";\n";
  } else {
    OS << "  return t;\n";
  }
  OS << "}\n";
  return {"u" + std::to_string(U) + ".c", OS.str()};
}

MultiTuProgram::File stq::workloads::makeFarmMain(const FarmSpec &Spec) {
  std::ostringstream M;
  M << "#include \"farm.h\"\n"
    << "int main() {\n"
    << "  int pos seed = " << (Spec.Seed % 11 + 1) << ";\n"
    << "  int pos acc = u" << (Spec.Units - 1) << "_root(seed);\n"
    << "  return acc % 2;\n"
    << "}\n";
  return {"main.c", M.str()};
}

MultiTuProgram stq::workloads::makeMultiTuFarm(unsigned Units,
                                               unsigned FnsPerUnit,
                                               unsigned Seed) {
  FarmSpec Spec;
  Spec.Units = Units == 0 ? 1 : Units;
  Spec.FnsPerUnit = FnsPerUnit == 0 ? 1 : FnsPerUnit;
  Spec.Seed = Seed;
  MultiTuProgram P;

  P.Headers.push_back({"farm.h", makeFarmHeader(Spec)});
  for (unsigned U = 0; U < Spec.Units; ++U) {
    P.Units.push_back(makeFarmUnit(Spec, U));
    if (farmUnitPlanted(Spec, U))
      ++P.PlantedWarnings;
  }
  P.Units.push_back(makeFarmMain(Spec));

  flattenAndCount(P);
  return P;
}
