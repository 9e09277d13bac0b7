//===- Cqual.h - CQUAL-style qualifier inference baseline -------*- C++ -*-===//
//
// Part of the stq project: a reproduction of "Semantic Type Qualifiers"
// (Chin, Markstrum, Millstein; PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A baseline reimplementation of the CQUAL approach the paper builds on
/// and compares against (Foster et al., PLDI 1999; section 7): flow-
/// insensitive qualifier *inference* over a two-point lattice. Every type
/// position gets a qualifier variable; assignments and calls generate
/// subtyping constraints (equality below pointers); constants propagate
/// through the constraint graph; an error is a path from a `tainted`
/// source to an `untainted` sink.
///
/// Contrasts with the paper's framework, exercised by tests/test_cqual.cpp:
/// inference needs fewer annotations, but the lattice is *trusted* - there
/// is no language for type rules and no automated soundness checking.
///
//===----------------------------------------------------------------------===//

#ifndef STQ_CQUAL_CQUAL_H
#define STQ_CQUAL_CQUAL_H

#include "cminus/AST.h"
#include "support/Diagnostics.h"

#include <string>
#include <vector>

namespace stq::cqual {

/// Configuration of one two-point analysis (default: taintedness).
struct LatticeConfig {
  /// The top element: data from untrusted sources.
  std::string Top = "tainted";
  /// The bottom element: data trusted sinks require.
  std::string Bottom = "untainted";
};

/// One inference error: top-qualified data reached a bottom-qualified
/// position.
struct FlowError {
  SourceLoc Loc;
  std::string Description;
};

struct InferenceResult {
  unsigned NumVars = 0;
  unsigned NumConstraints = 0;
  /// Explicit Top/Bottom annotations found in declared types (the
  /// annotation burden).
  unsigned ExplicitAnnotations = 0;
  std::vector<FlowError> Errors;

  bool clean() const { return Errors.empty(); }
};

/// Runs qualifier inference over a lowered, Sema-checked program.
InferenceResult runInference(const cminus::Program &Prog,
                             const LatticeConfig &Config = {});

} // namespace stq::cqual

#endif // STQ_CQUAL_CQUAL_H
