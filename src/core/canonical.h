#ifndef HGMATCH_CORE_CANONICAL_H_
#define HGMATCH_CORE_CANONICAL_H_

#include <cstdint>
#include <string>

#include "core/hypergraph.h"

namespace hgmatch {

/// Bounds of the canonical-labelling search (CanonicalQueryKey). Query
/// hypergraphs are tiny next to data hypergraphs, so the defaults cover
/// every realistic query; anything larger (or a pathological symmetric
/// instance that exhausts the search budget) falls back to the exact
/// structural key, which is always correct — it just stops deduplicating
/// renamed copies.
struct CanonicalOptions {
  /// Size cutoff: queries with more vertices or hyperedges than this skip
  /// canonicalisation entirely and use the exact key.
  uint32_t max_vertices = 32;
  uint32_t max_edges = 64;

  /// Budget on individualisation-refinement search nodes. Twin pruning
  /// keeps twin-heavy queries (the common case) to about |V| nodes, so
  /// only label-free queries with non-twin symmetry (cliques, cycles)
  /// branch much; when the budget runs out the search aborts to the exact
  /// key rather than burn unbounded CPU on a cache key.
  uint32_t max_search_nodes = 4096;
};

/// Cache key of a query hypergraph, canonical under isomorphism when the
/// graph fits the bounds.
struct CanonicalKey {
  /// The key: a one-byte scheme marker ('C' canonical, 'X' exact) followed
  /// by the certificate / exact structure, so keys from the two schemes can
  /// never collide.
  std::string key;

  /// The exact structural key (unprefixed; see ExactQueryKey), always
  /// computed — callers classify a cache hit as "isomorphic" by comparing
  /// the stored entry's exact key with this one.
  std::string exact;

  /// True iff `key` is a canonical certificate: any isomorphic hypergraph
  /// (vertices renamed, hyperedges reordered) maps to the same key, and —
  /// because the certificate encodes the full labelled structure under a
  /// bijection — equal keys imply isomorphic hypergraphs. False when the
  /// size cutoff or search budget forced the exact-key fallback.
  bool isomorphism_invariant = false;
};

/// Exact structural identity key: the vertex labels, then every hyperedge's
/// arity, member vertex ids and hyperedge label, in id order. Two
/// hypergraphs have equal exact keys iff they are structurally identical
/// (same labels on the same ids, same hyperedges over the same ids) — the
/// pre-isomorphism plan-cache key.
std::string ExactQueryKey(const Hypergraph& q);

/// Canonical labelling of a small query hypergraph (the plan cache's
/// isomorphism-aware key). Colour refinement alternates vertex and
/// hyperedge colours — a hyperedge's initial colour is its signature
/// partition key of Definition IV.1 (sorted member-label multiset plus the
/// hyperedge label), exactly the invariant the matching engine already
/// canonicalises per edge — and a bounded individualisation-refinement
/// search over the refined partition picks the lexicographically smallest
/// certificate, which is invariant under vertex renaming and hyperedge
/// reordering. Exceeding the size cutoff or the node budget returns the
/// exact key (correct, merely less deduplicating).
///
/// Twin pruning (the simplest case of automorphism pruning, McKay &
/// Piperno, "Practical Graph Isomorphism II"): twins are vertices with equal
/// labels and equal incident-hyperedge sets — e.g. the degree-1 vertices of
/// one label inside one hyperedge, which make up most of a sampled query.
/// The search individualises at most one vertex per twin class of the
/// target cell. This is exact: swapping two twins of one cell is an
/// automorphism that fixes the current colouring, and refinement and the
/// certificate are equivariant, so the skipped subtree has the same set of
/// leaf certificates as the explored one. The minimum certificate — hence
/// the key — is the one the unpruned search would find; a twin class of k
/// vertices costs k - 1 search nodes instead of k! leaves.
CanonicalKey CanonicalQueryKey(const Hypergraph& q,
                               const CanonicalOptions& options = {});

}  // namespace hgmatch

#endif  // HGMATCH_CORE_CANONICAL_H_
