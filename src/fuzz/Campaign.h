//===- Campaign.h - The stq-fuzz campaign driver ----------------*- C++ -*-===//
//
// Part of the stq project: a reproduction of "Semantic Type Qualifiers"
// (Chin, Markstrum, Millstein; PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Orchestrates randomized fuzzing runs over the whole pipeline, holding
/// eight oracles over every generated input:
///
///  1. Soundness (Theorem 5.1, executable): a program the checker accepts
///     must execute with zero invariant-audit failures under
///     InterpOptions::AuditQualifiedStores. Run-time check failures at
///     casts are the paper's sanctioned dynamic escape hatch and are legal.
///  2. Engine differential: the incremental prover and the reference
///     engine must return identical verdicts, obligation by obligation,
///     on generated qualifier sets and randomized prover sessions.
///  3. Metamorphic/concurrency: `check` output is byte-identical across
///     job counts and across the shared-context (stqd server) execution
///     path, and warm-cache re-proofs replay cold verdicts exactly.
///  4. Edit-replay: seeded edit sequences (body tweaks, signature
///     changes, qualifier-set changes, function add/delete) re-checked
///     through a warm incremental engine must be byte-identical — output
///     and metrics-invariant counters — to a cold full check at every
///     step. Failing scripts ddmin-shrink and replay from tests/corpus/
///     (`.edits` files).
///  5. Inference: strip every inferable annotation from a generated
///     program, re-infer with the constraint engine, and apply — the
///     annotated program must not gain qualifier errors (clean stays
///     clean: the greatest-fixpoint guarantee), the fixpoint reference
///     engine's inferred set must be contained in the constraint engine's
///     full set, and the suggestion report must be byte-identical across
///     job counts.
///  6. Robustness: both front ends diagnose arbitrary malformed input
///     (token soup, byte mutations) without crashing; a crash takes the
///     process down and is caught by the harness around the campaign.
///  7. VM differential: the register-bytecode VM and the tree-walking
///     interpreter must produce byte-identical runs (status, exit value,
///     output, traps, fired checks, audits, format violations, steps),
///     and the VM with prover-driven check elision enabled must match
///     itself with elision disabled on everything but the executed-check
///     count. Runs on every checker-accepted program, on dedicated
///     `vm`-scenario draws, and on replayed `.cmm` corpus files.
///  8. Front-end flattening: preprocess-then-check on a generated
///     multi-translation-unit program (shared headers, macros, cross-TU
///     prototypes) must be byte-identical across job counts, and its
///     verdict counters must equal checking the pre-expanded single-TU
///     flattening of the same program.
///
/// Failures carry the offending input, delta-minimized when
/// CampaignOptions::Minimize is set. Every run is derived from the
/// campaign seed alone: identical seeds replay identical campaigns,
/// byte for byte.
///
//===----------------------------------------------------------------------===//

#ifndef STQ_FUZZ_CAMPAIGN_H
#define STQ_FUZZ_CAMPAIGN_H

#include "support/Stats.h"

#include <iosfwd>
#include <string>
#include <vector>

namespace stq::fuzz {

struct CampaignOptions {
  uint64_t Seed = 1;
  /// Randomized runs to execute (after any corpus replay).
  unsigned Runs = 100;
  /// Soft wall-clock budget; 0 means none. When set, the campaign stops
  /// early once exceeded (run counts then vary across machines, so
  /// byte-determinism only holds for the budget-free configuration).
  unsigned TimeBudgetSeconds = 0;
  /// Delta-minimize failing inputs before reporting them.
  bool Minimize = true;
  /// The parallel side of the metamorphic oracle (`--jobs N` vs 1).
  unsigned Jobs = 4;
  /// Interpreter step budget per execution; keeps MayDiverge programs and
  /// accidental generator loops bounded.
  uint64_t Fuel = 200000;
  /// When non-empty, every run executes this one scenario instead of the
  /// weighted mix: "soundness", "mixed", "qualgen", "prover",
  /// "edit-replay", "inference", "vm", "frontend", "header-edit", or
  /// "robustness" (ctest's `fuzz.*` entries pin five of them).
  std::string OnlyScenario;
};

/// One oracle violation (or front-end crash-adjacent reject) with enough
/// context to reproduce it.
struct FuzzFailure {
  /// "soundness", "engine-differential", "metamorphic", "edit-replay",
  /// "inference", "vm", "frontend", "header-edit", or "robustness".
  std::string Oracle;
  /// The per-run seed that produced the input.
  uint64_t RunSeed = 0;
  /// Machine tag: "audit-violation", "jobs-mismatch", "verdict-mismatch",
  /// "qualgen-reject", ...
  std::string Kind;
  /// The offending program or qualifier-DSL text (minimized when enabled).
  std::string Input;
  /// Human-readable diagnosis.
  std::string Detail;
};

struct CampaignResult {
  unsigned RunsExecuted = 0;
  std::vector<FuzzFailure> Failures;
  bool ok() const { return Failures.empty(); }
};

/// Executes one campaign. Progress and failures are narrated to \p Log
/// when non-null; counters land in \p Stats under the `fuzz.` prefix.
CampaignResult runCampaign(const CampaignOptions &Opts,
                           stats::Registry &Stats, std::ostream *Log);

/// Replays one persisted corpus input through the oracles appropriate to
/// its kind (`.cmm` → front end, jobs differential, audited execution;
/// `.qual` → load, engine differential, warm-cache replay; `.edits` →
/// incremental-vs-cold edit replay). Appends any violation to \p Result.
/// Returns false when the file cannot be read.
bool replayCorpusFile(const std::string &Path, const CampaignOptions &Opts,
                      stats::Registry &Stats, CampaignResult &Result);

} // namespace stq::fuzz

#endif // STQ_FUZZ_CAMPAIGN_H
