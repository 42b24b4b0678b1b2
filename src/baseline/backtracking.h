#ifndef HGMATCH_BASELINE_BACKTRACKING_H_
#define HGMATCH_BASELINE_BACKTRACKING_H_

#include <cstdint>

#include "baseline/ordering.h"
#include "core/hypergraph.h"
#include "core/indexed_hypergraph.h"
#include "util/status.h"

namespace hgmatch {

/// Options of the generic match-by-vertex framework (Algorithm 1 extended
/// to hypergraphs with the constraint of Theorem III.2, Section III.B).
struct BaselineOptions {
  /// Matching-order strategy distinguishing the CFL-H / DAF-H / CECI-H
  /// baselines.
  VertexOrderStrategy order = VertexOrderStrategy::kGqlStyle;

  /// Candidate-vertex filtering: IHS filter [30] (the paper adds it to all
  /// baselines); false falls back to label + degree only.
  bool use_ihs = true;

  /// Local pruning: a candidate must share a data hyperedge with the image
  /// of every already-matched query neighbour (what the CS/embedding-
  /// cluster auxiliary structures of DAF/CECI provide locally). Exact-safe.
  bool adjacency_pruning = true;

  /// DAF-style pruning by failing sets (backjumping). Requires
  /// |V(q)| <= 64.
  bool failing_sets = false;

  double timeout_seconds = 0;
  uint64_t limit = 0;  // stop after this many embeddings; 0 = unlimited
};

/// Result of a match-by-vertex run. NOTE the semantics: `embeddings` counts
/// injective *vertex mappings* f (Definition III.3), the result notion a
/// backtracking matcher enumerates naturally, which can differ from
/// HGMatch's hyperedge-tuple count.
struct BaselineResult {
  uint64_t embeddings = 0;
  uint64_t recursions = 0;
  uint64_t candidates_checked = 0;
  bool timed_out = false;
  bool limit_hit = false;
  double seconds = 0;
};

/// Runs the extended backtracking framework. Fails if the query is empty,
/// or if failing_sets is requested with more than 64 query vertices.
Result<BaselineResult> MatchByVertex(const IndexedHypergraph& data,
                                     const Hypergraph& query,
                                     const BaselineOptions& options = {});

/// Named baselines as configured in the paper's experiments (all use the
/// IHS filter; DAF-H additionally uses failing-set pruning).
Result<BaselineResult> MatchCflH(const IndexedHypergraph& data,
                                 const Hypergraph& query,
                                 double timeout_seconds = 0);
Result<BaselineResult> MatchDafH(const IndexedHypergraph& data,
                                 const Hypergraph& query,
                                 double timeout_seconds = 0);
Result<BaselineResult> MatchCeciH(const IndexedHypergraph& data,
                                  const Hypergraph& query,
                                  double timeout_seconds = 0);

}  // namespace hgmatch

#endif  // HGMATCH_BASELINE_BACKTRACKING_H_
