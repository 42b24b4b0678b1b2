#ifndef HGMATCH_TESTS_TEST_FIXTURES_H_
#define HGMATCH_TESTS_TEST_FIXTURES_H_

#include <algorithm>
#include <utility>
#include <vector>

#include "core/hypergraph.h"
#include "core/matching_order.h"
#include "core/result.h"
#include "gen/generator.h"

namespace hgmatch {

/// The paper's running example (Fig 1b): data hypergraph H with vertices
/// v0..v6 labelled A,C,A,A,B,C,A and hyperedges e1..e6 (ids 0..5 here).
inline Hypergraph PaperDataHypergraph() {
  Hypergraph h;
  const Label A = 0, B = 1, C = 2;
  for (Label l : {A, C, A, A, B, C, A}) h.AddVertex(l);
  (void)h.AddEdge({2, 4});        // e1
  (void)h.AddEdge({4, 6});        // e2
  (void)h.AddEdge({0, 1, 2});     // e3
  (void)h.AddEdge({3, 5, 6});     // e4
  (void)h.AddEdge({0, 1, 4, 6});  // e5
  (void)h.AddEdge({2, 3, 4, 5});  // e6
  return h;
}

/// The paper's query q (Fig 1a): u0(A) u1(C) u2(A) u3(A) u4(B) with
/// hyperedges {u2,u4}, {u0,u1,u2}, {u0,u1,u3,u4}.
inline Hypergraph PaperQueryHypergraph() {
  Hypergraph q;
  const Label A = 0, B = 1, C = 2;
  for (Label l : {A, C, A, A, B}) q.AddVertex(l);
  (void)q.AddEdge({2, 4});
  (void)q.AddEdge({0, 1, 2});
  (void)q.AddEdge({0, 1, 3, 4});
  return q;
}

/// A twin-heavy query shaped like the sampled AR/SB q3 queries: three
/// hyperedges of arity 10, 10 and 12 through one hub vertex (label 1);
/// every other vertex has degree 1 and label 0 or 1. Its symmetries are
/// twin swaps (degree-1 vertices of one label in one hyperedge) and the
/// swap of the two arity-10 hyperedges.
inline Hypergraph TwinHeavyQueryHypergraph() {
  Hypergraph q;
  const VertexId hub = q.AddVertex(1);
  for (uint32_t arity : {10u, 10u, 12u}) {
    VertexSet members = {hub};
    for (uint32_t i = 1; i < arity; ++i) {
      members.push_back(q.AddVertex(i % 3 == 0 ? 1 : 0));
    }
    (void)q.AddEdge(std::move(members));
  }
  return q;
}

/// Applies a vertex permutation `perm` (old id -> new id) to `q`, adding
/// the hyperedges in the order given by `edge_order`: an isomorphic copy
/// with different ids.
inline Hypergraph PermutedHypergraph(const Hypergraph& q,
                                     const std::vector<VertexId>& perm,
                                     const std::vector<EdgeId>& edge_order) {
  Hypergraph out;
  std::vector<Label> labels(q.NumVertices());
  for (VertexId v = 0; v < q.NumVertices(); ++v) labels[perm[v]] = q.label(v);
  for (Label l : labels) out.AddVertex(l);
  for (EdgeId e : edge_order) {
    VertexSet members;
    for (VertexId v : q.edge(e)) members.push_back(perm[v]);
    (void)out.AddEdge(std::move(members), q.edge_label(e));
  }
  return out;
}

/// Small random hypergraph configurations used by cross-engine property
/// sweeps. Sized so brute-force oracles stay fast.
inline GeneratorConfig SmallRandomConfig(uint64_t seed) {
  GeneratorConfig c;
  c.seed = seed;
  c.num_vertices = 20 + seed % 21;           // 20..40
  c.num_edges = 25 + (seed * 7) % 36;        // 25..60
  c.num_labels = 2 + seed % 3;               // 2..4
  c.arity_min = 2;
  c.arity_max = 4 + seed % 3;                // 4..6
  c.arity_dist = ArityDistribution::kUniform;
  c.vertex_skew = 0.4;
  c.label_skew = 0.4;
  return c;
}

/// Normalises a list of embeddings (each given in some per-engine order)
/// by the provided query-edge order into query-edge-id indexed tuples, then
/// sorts, so results from different engines compare with ==.
inline std::vector<Embedding> NormalizeEmbeddings(
    const std::vector<Embedding>& embeddings,
    const std::vector<EdgeId>& query_edge_order) {
  std::vector<Embedding> out;
  out.reserve(embeddings.size());
  for (const Embedding& m : embeddings) {
    Embedding by_query_edge(m.size());
    for (size_t i = 0; i < m.size(); ++i) {
      by_query_edge[query_edge_order[i]] = m[i];
    }
    out.push_back(std::move(by_query_edge));
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace hgmatch

#endif  // HGMATCH_TESTS_TEST_FIXTURES_H_
