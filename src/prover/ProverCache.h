//===- ProverCache.h - Prover query result cache ----------------*- C++ -*-===//
//
// Part of the stq project: a reproduction of "Semantic Type Qualifiers"
// (Chin, Markstrum, Millstein; PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A memoization layer over prover sessions. Every soundness obligation is
/// an independent session (axioms + hypotheses + one goal) over its own
/// TermArena, so TermIds are not stable across sessions; the cache instead
/// keys on a *canonical form*: a structural serialization of every formula
/// fed to the session plus the goal, with bound variables renamed to
/// first-use indices (alpha-normalization) and symmetric equalities
/// oriented lexicographically. Two sessions with the same key are
/// textually identical proof tasks up to alpha-renaming, which the prover
/// treats equivalently, so replaying the cached answer is sound.
///
/// The canonical form is kept as the map key (not just its 64-bit hash), so
/// a hash collision can never replay the wrong answer; the property tests
/// brute-force injectivity of the canonicalizer over small term spaces.
///
/// The cache is sharded 16 ways and safe for concurrent use by the
/// parallel checking pipeline.
///
//===----------------------------------------------------------------------===//

#ifndef STQ_PROVER_PROVERCACHE_H
#define STQ_PROVER_PROVERCACHE_H

#include "prover/Prover.h"

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

namespace stq::prover {

/// Serializes terms and formulas of one arena into an arena-independent
/// canonical string. Bound variables (from Forall binders) are numbered in
/// order of first use, so alpha-equivalent formulas canonicalize
/// identically; free pattern variables keep their names.
class Canonicalizer {
public:
  explicit Canonicalizer(const TermArena &Arena) : A(Arena) {}

  /// Canonical form of a (typically ground) term.
  std::string term(TermId T);
  /// Canonical form of a formula.
  std::string formula(const FormulaPtr &F);

private:
  void termInto(TermId T, std::string &Out);
  void formulaInto(const FormulaPtr &F, std::string &Out);
  void litInto(const Lit &L, std::string &Out);

  const TermArena &A;
  /// Innermost-last scopes of binder names; each maps to an assigned index
  /// or ~0u when not yet used.
  std::vector<std::vector<std::pair<std::string, unsigned>>> Scopes;
  unsigned NextBinder = 0;
};

/// 64-bit FNV-1a, used to bucket canonical keys across shards.
uint64_t fnv1aHash(const std::string &S);

/// The canonical key of one whole proof task: every axiom and hypothesis
/// fed to the session (in insertion order) plus the goal.
std::string canonicalTaskKey(const TermArena &A,
                             const std::vector<ProverInput> &Inputs,
                             const FormulaPtr &Goal);

/// A replayed prover answer.
struct CachedAnswer {
  ProofResult Result = ProofResult::Unknown;
  /// The stats of the run that produced the entry (Seconds = what a miss
  /// would have cost).
  ProverStats Stats;
  /// True when the entry came from load() rather than this process's own
  /// prover runs; hits on such entries count as cache persistence hits.
  bool FromDisk = false;
};

/// Counters for `stqc --metrics`. Hits + Misses == Lookups.
struct CacheStats {
  uint64_t Lookups = 0;
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t Insertions = 0;
  uint64_t Entries = 0;
  /// Probes that found their shard mutex already held and had to block.
  /// A measure of shard contention under the parallel pipeline; always 0
  /// with one job.
  uint64_t Contended = 0;
  /// Sum of the original solve times of every hit: prover latency the
  /// cache avoided.
  double SecondsSaved = 0.0;
  /// Entries deserialized from a --cache-file by load().
  uint64_t PersistLoaded = 0;
  /// Lookup hits served by a disk-loaded entry: proofs skipped entirely
  /// because an earlier run already discharged them.
  uint64_t PersistHits = 0;

  double hitRate() const {
    return Lookups == 0 ? 0.0 : static_cast<double>(Hits) / Lookups;
  }
};

/// Thread-safe memoization of prover answers by canonical task key.
class ProverCache {
public:
  std::optional<CachedAnswer> lookup(const std::string &Key);
  void insert(const std::string &Key, ProofResult Result,
              const ProverStats &Stats);
  CacheStats stats() const;
  void clear();

  /// On-disk format version header. A file that does not start with exactly
  /// this line is ignored wholesale by load(): a stale or foreign cache must
  /// never be trusted.
  static constexpr const char *PersistVersion = "stq-prover-cache-v1";

  /// Serializes every entry to \p Path (version header, then
  /// length-prefixed canonical keys — keys contain newlines — and verdict
  /// lines). Written to a temp file and renamed into place, so a concurrent
  /// load() sees either the old file or the new one, never a torn write.
  /// Returns false (with \p Error set) on I/O failure.
  bool save(const std::string &Path, std::string *Error = nullptr);
  /// Merges entries from \p Path into the cache, marking them FromDisk.
  /// Entries already present (from this run's proving) win over the file.
  /// A missing file, wrong version header, or any parse inconsistency
  /// discards the whole file (never a prefix of it) and returns false with
  /// \p Error set; the cache is left unchanged in that case.
  bool load(const std::string &Path, std::string *Error = nullptr);

private:
  static constexpr unsigned NumShards = 16;

  struct Shard {
    std::mutex M;
    std::unordered_map<std::string, CachedAnswer> Map;
  };

  Shard &shardFor(const std::string &Key) {
    return Shards[fnv1aHash(Key) % NumShards];
  }

  Shard Shards[NumShards];
  mutable std::mutex StatsM;
  CacheStats Stats;
};

} // namespace stq::prover

#endif // STQ_PROVER_PROVERCACHE_H
