// Coverage of the canonical query labelling (core/canonical.h): renamed
// and edge-reordered copies of a query must map to one canonical key,
// structurally different near-misses must not, and the size/search-budget
// cutoffs must fall back to the exact structural key. Twin pruning: a
// twin-heavy query canonicalises within the default budget and a
// twin-only-symmetric one within |V| search nodes. Randomised sweeps: every
// permutation of a small query agrees with the identity's key, and on
// random small hypergraphs with twins keys are equal exactly when a
// brute-force permutation search finds the two isomorphic.

#include "core/canonical.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "core/hypergraph.h"
#include "tests/test_fixtures.h"
#include "util/rng.h"

namespace hgmatch {
namespace {

std::vector<EdgeId> IdentityEdges(const Hypergraph& q) {
  std::vector<EdgeId> order(q.NumEdges());
  std::iota(order.begin(), order.end(), 0);
  return order;
}

TEST(CanonicalTest, SameQueryTwiceProducesIdenticalKey) {
  const Hypergraph q = PaperQueryHypergraph();
  const CanonicalKey a = CanonicalQueryKey(q);
  const CanonicalKey b = CanonicalQueryKey(q);
  EXPECT_EQ(a.key, b.key);
  EXPECT_EQ(a.exact, b.exact);
  EXPECT_TRUE(a.isomorphism_invariant);
}

TEST(CanonicalTest, RenamedVerticesProduceSameKeyButDifferentExactKey) {
  const Hypergraph q = PaperQueryHypergraph();
  // Label-preserving rename: u0(A)<->u3(A), u2 stays, and so on.
  const std::vector<VertexId> perm = {3, 1, 2, 0, 4};
  const Hypergraph renamed = PermutedHypergraph(q, perm, IdentityEdges(q));
  const CanonicalKey a = CanonicalQueryKey(q);
  const CanonicalKey b = CanonicalQueryKey(renamed);
  EXPECT_TRUE(a.isomorphism_invariant);
  EXPECT_EQ(a.key, b.key);
  EXPECT_NE(a.exact, b.exact);  // the exact structural key sees the rename
}

TEST(CanonicalTest, ReorderedEdgesProduceSameKey) {
  const Hypergraph q = PaperQueryHypergraph();
  const std::vector<VertexId> identity = {0, 1, 2, 3, 4};
  const Hypergraph reordered = PermutedHypergraph(q, identity, {2, 0, 1});
  const CanonicalKey a = CanonicalQueryKey(q);
  const CanonicalKey b = CanonicalQueryKey(reordered);
  EXPECT_EQ(a.key, b.key);
  EXPECT_NE(a.exact, b.exact);  // the exact key is edge-order sensitive
}

TEST(CanonicalTest, EveryPermutationOfTheQueryAgrees) {
  const Hypergraph q = PaperQueryHypergraph();
  const CanonicalKey base = CanonicalQueryKey(q);
  std::vector<VertexId> perm(q.NumVertices());
  std::iota(perm.begin(), perm.end(), 0);
  do {
    // Only label-preserving permutations are isomorphisms; skip the rest
    // (they relabel vertices and legitimately change the key).
    bool preserves = true;
    for (VertexId v = 0; v < q.NumVertices(); ++v) {
      if (q.label(perm[v]) != q.label(v)) preserves = false;
    }
    if (!preserves) continue;
    std::vector<VertexId> inverse(perm.size());
    for (VertexId v = 0; v < q.NumVertices(); ++v) inverse[perm[v]] = v;
    const Hypergraph renamed =
        PermutedHypergraph(q, inverse, IdentityEdges(q));
    EXPECT_EQ(CanonicalQueryKey(renamed).key, base.key);
  } while (std::next_permutation(perm.begin(), perm.end()));
}

TEST(CanonicalTest, NearMissVertexLabelChangesKey) {
  Hypergraph a = PaperQueryHypergraph();
  Hypergraph b;
  const Label A = 0, B = 1, C = 2;
  for (Label l : {A, C, A, B, B}) b.AddVertex(l);  // u3: A -> B
  (void)b.AddEdge({2, 4});
  (void)b.AddEdge({0, 1, 2});
  (void)b.AddEdge({0, 1, 3, 4});
  EXPECT_NE(CanonicalQueryKey(a).key, CanonicalQueryKey(b).key);
}

TEST(CanonicalTest, NearMissMembershipChangesKey) {
  Hypergraph a = PaperQueryHypergraph();
  Hypergraph b;
  const Label A = 0, B = 1, C = 2;
  for (Label l : {A, C, A, A, B}) b.AddVertex(l);
  (void)b.AddEdge({2, 4});
  (void)b.AddEdge({0, 1, 3});  // was {0, 1, 2}: same arity, other member
  (void)b.AddEdge({0, 1, 3, 4});
  EXPECT_NE(CanonicalQueryKey(a).key, CanonicalQueryKey(b).key);
}

TEST(CanonicalTest, NearMissEdgeLabelChangesKey) {
  Hypergraph a;
  Hypergraph b;
  for (int i = 0; i < 3; ++i) {
    a.AddVertex(0);
    b.AddVertex(0);
  }
  (void)a.AddEdge({0, 1, 2}, /*label=*/1);
  (void)b.AddEdge({0, 1, 2}, /*label=*/2);
  EXPECT_NE(CanonicalQueryKey(a).key, CanonicalQueryKey(b).key);
}

TEST(CanonicalTest, SizeCutoffFallsBackToExactKey) {
  const Hypergraph q = PaperQueryHypergraph();
  CanonicalOptions tight;
  tight.max_vertices = 3;  // the paper query has 5 vertices
  const CanonicalKey k = CanonicalQueryKey(q, tight);
  EXPECT_FALSE(k.isomorphism_invariant);
  EXPECT_EQ(k.key, 'X' + ExactQueryKey(q));
  // A renamed copy no longer matches: the fallback is exact-only.
  const Hypergraph renamed =
      PermutedHypergraph(q, {3, 1, 2, 0, 4}, IdentityEdges(q));
  EXPECT_NE(CanonicalQueryKey(renamed, tight).key, k.key);
}

TEST(CanonicalTest, SearchBudgetAbortFallsBackToExactKey) {
  // A fully symmetric query (all labels equal, complete pairwise edges)
  // forces individualisation; a one-node budget cannot finish it.
  Hypergraph q;
  for (int i = 0; i < 5; ++i) q.AddVertex(0);
  for (VertexId a = 0; a < 5; ++a) {
    for (VertexId b = a + 1; b < 5; ++b) (void)q.AddEdge({a, b});
  }
  CanonicalOptions tiny;
  tiny.max_search_nodes = 1;
  const CanonicalKey k = CanonicalQueryKey(q, tiny);
  EXPECT_FALSE(k.isomorphism_invariant);
  EXPECT_EQ(k.key, 'X' + ExactQueryKey(q));
  // With the default budget the same query canonicalises fine.
  EXPECT_TRUE(CanonicalQueryKey(q).isomorphism_invariant);
}

TEST(CanonicalTest, RandomQueriesSurviveRandomRenames) {
  Rng rng(20260808);
  for (int round = 0; round < 20; ++round) {
    // Random small query: 4..8 vertices, 3..6 edges, 1..3 labels.
    const uint32_t n = static_cast<uint32_t>(rng.NextRange(4, 8));
    const uint32_t m = static_cast<uint32_t>(rng.NextRange(3, 6));
    const uint64_t labels = rng.NextRange(1, 3);
    Hypergraph q;
    for (uint32_t v = 0; v < n; ++v) {
      q.AddVertex(static_cast<Label>(rng.NextBounded(labels)));
    }
    for (uint32_t e = 0; e < m; ++e) {
      const uint64_t arity = rng.NextRange(2, 3);
      VertexSet members;
      while (members.size() < arity) {
        const VertexId v = static_cast<VertexId>(rng.NextBounded(n));
        if (std::find(members.begin(), members.end(), v) == members.end()) {
          members.push_back(v);
        }
      }
      (void)q.AddEdge(std::move(members),
                      static_cast<Label>(rng.NextBounded(2)));
    }
    std::vector<VertexId> perm(n);
    std::iota(perm.begin(), perm.end(), 0);
    rng.Shuffle(&perm);
    // AddEdge dedupes identical member sets, so use the realised count.
    std::vector<EdgeId> edge_order(q.NumEdges());
    std::iota(edge_order.begin(), edge_order.end(), 0);
    rng.Shuffle(&edge_order);
    const Hypergraph renamed = PermutedHypergraph(q, perm, edge_order);
    const CanonicalKey a = CanonicalQueryKey(q);
    const CanonicalKey b = CanonicalQueryKey(renamed);
    ASSERT_TRUE(a.isomorphism_invariant) << "round " << round;
    EXPECT_EQ(a.key, b.key) << "round " << round;
  }
}

// A uniformly random vertex renaming plus hyperedge reordering of `q`.
Hypergraph RandomlyRenamed(const Hypergraph& q, Rng* rng) {
  std::vector<VertexId> perm(q.NumVertices());
  std::iota(perm.begin(), perm.end(), 0);
  rng->Shuffle(&perm);
  std::vector<EdgeId> edge_order = IdentityEdges(q);
  rng->Shuffle(&edge_order);
  return PermutedHypergraph(q, perm, edge_order);
}

TEST(CanonicalTest, TwinHeavyQueryCanonicalisesWithinDefaultBudget) {
  // 30 vertices, 27 of them degree-1 twins: without twin pruning the
  // search branches on every twin and runs out of its 4096 nodes.
  const Hypergraph q = TwinHeavyQueryHypergraph();
  const CanonicalKey a = CanonicalQueryKey(q);
  ASSERT_TRUE(a.isomorphism_invariant);
  Rng rng(14);
  for (int round = 0; round < 5; ++round) {
    const Hypergraph renamed = RandomlyRenamed(q, &rng);
    const CanonicalKey b = CanonicalQueryKey(renamed);
    EXPECT_TRUE(b.isomorphism_invariant) << "round " << round;
    EXPECT_EQ(a.key, b.key) << "round " << round;
    EXPECT_NE(a.exact, b.exact) << "round " << round;
  }
}

TEST(CanonicalTest, TwinOnlySymmetryNeedsAtMostOneNodePerVertex) {
  // A chain of hyperedges of arity 8, 10 and 12 sharing one vertex with
  // the next: arities tell the hyperedges apart, so colour refinement
  // splits every cell down to a twin class and the only symmetries are
  // twin swaps. The search is then one path of individualisations, one
  // node per vertex at most; branching on twins would need 7! leaves for
  // the first hyperedge's label-0 vertices alone.
  Hypergraph q;
  VertexId shared = q.AddVertex(1);
  for (uint32_t arity : {8u, 10u, 12u}) {
    VertexSet members = {shared};
    for (uint32_t i = 1; i < arity; ++i) {
      members.push_back(q.AddVertex(i % 4 == 0 ? 1 : 0));
    }
    shared = members.back();
    (void)q.AddEdge(std::move(members));
  }
  CanonicalOptions budget;
  budget.max_search_nodes = static_cast<uint32_t>(q.NumVertices());
  const CanonicalKey a = CanonicalQueryKey(q, budget);
  ASSERT_TRUE(a.isomorphism_invariant);
  EXPECT_EQ(a.key, CanonicalQueryKey(q).key);  // the budget changes nothing
  Rng rng(8);
  const CanonicalKey b = CanonicalQueryKey(RandomlyRenamed(q, &rng), budget);
  EXPECT_TRUE(b.isomorphism_invariant);
  EXPECT_EQ(a.key, b.key);
}

// Brute-force canonical form of a hypergraph of at most 8 vertices: its
// sizes and sorted vertex labels, then the smallest sorted list of
// hyperedge codes (edge label, member bitmask) over every label-preserving
// renumbering of the vertices. Two such hypergraphs are isomorphic iff
// their forms are equal.
std::vector<uint32_t> BruteForceForm(const Hypergraph& q) {
  const uint32_t n = static_cast<uint32_t>(q.NumVertices());
  const uint32_t m = static_cast<uint32_t>(q.NumEdges());
  EXPECT_LE(n, 8u);
  std::vector<VertexId> order(n);  // new id -> vertex
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&q](VertexId a, VertexId b) {
    return std::make_pair(q.label(a), a) < std::make_pair(q.label(b), b);
  });
  // Runs of equal label in `order`; only permutations within runs keep
  // the labels, and an odometer over the runs enumerates all of them.
  std::vector<uint32_t> run_start;
  for (uint32_t i = 0; i < n; ++i) {
    if (i == 0 || q.label(order[i - 1]) != q.label(order[i])) {
      run_start.push_back(i);
    }
  }
  run_start.push_back(n);
  std::vector<uint32_t> form, best;
  std::vector<uint32_t> new_id(n);
  for (;;) {
    for (uint32_t i = 0; i < n; ++i) new_id[order[i]] = i;
    form = {n, m};
    for (VertexId v : order) form.push_back(q.label(v));
    const size_t head = form.size();
    for (EdgeId e = 0; e < m; ++e) {
      uint32_t mask = 0;
      for (VertexId v : q.edge(e)) mask |= 1u << new_id[v];
      form.push_back(q.edge_label(e) << 8 | mask);
    }
    std::sort(form.begin() + static_cast<std::ptrdiff_t>(head), form.end());
    if (best.empty() || form < best) best = form;
    size_t r = 0;
    for (; r + 1 < run_start.size(); ++r) {
      if (std::next_permutation(order.begin() + run_start[r],
                                order.begin() + run_start[r + 1])) {
        break;
      }
    }
    if (r + 1 == run_start.size()) return best;
  }
}

TEST(CanonicalTest, KeysAgreeWithBruteForceIsomorphismOnTwinRichGraphs) {
  // Random hypergraphs of 5..8 vertices, 2..4 hyperedges of arity 2..5
  // and 1..2 labels (so most vertices have a twin), each with two renamed
  // copies and one perturbed copy that may or may not stay isomorphic;
  // every pair of the pool is checked.
  Rng rng(1301);
  std::vector<Hypergraph> pool;
  for (int base = 0; base < 12; ++base) {
    const uint32_t n = static_cast<uint32_t>(rng.NextRange(5, 8));
    const uint64_t labels = rng.NextRange(1, 2);
    const uint32_t m = static_cast<uint32_t>(rng.NextRange(2, 4));
    std::vector<Label> vertex_labels(n);
    for (Label& l : vertex_labels) {
      l = static_cast<Label>(rng.NextBounded(labels));
    }
    std::vector<VertexSet> edges(m);
    for (VertexSet& members : edges) {
      const uint64_t arity = rng.NextRange(2, 5);
      while (members.size() < arity) {
        const VertexId v = static_cast<VertexId>(rng.NextBounded(n));
        if (std::find(members.begin(), members.end(), v) == members.end()) {
          members.push_back(v);
        }
      }
    }
    auto build = [&](const std::vector<Label>& ls,
                     const std::vector<VertexSet>& es) {
      Hypergraph q;
      for (Label l : ls) q.AddVertex(l);
      for (const VertexSet& members : es) (void)q.AddEdge(members);
      return q;
    };
    const Hypergraph q = build(vertex_labels, edges);
    pool.push_back(RandomlyRenamed(q, &rng));
    pool.push_back(RandomlyRenamed(q, &rng));
    // Perturbation: move one member of one hyperedge to another vertex,
    // or flip one vertex label.
    if (rng.NextBernoulli(0.5)) {
      VertexSet& members = edges[rng.NextBounded(m)];
      const VertexId v = static_cast<VertexId>(rng.NextBounded(n));
      if (std::find(members.begin(), members.end(), v) == members.end()) {
        members[rng.NextBounded(members.size())] = v;
      }
    } else {
      Label& l = vertex_labels[rng.NextBounded(n)];
      l = 1 - l;
    }
    pool.push_back(build(vertex_labels, edges));
    pool.push_back(q.Clone());
  }
  // Colour refinement alone cannot split these: every vertex of a triangle
  // plus a square, and of a 7-cycle, has one colour. The triangle plus
  // square comes twice, with a triangle vertex and then a square vertex at
  // id 0, so a search that skipped non-twin classmates would key the two
  // apart.
  const Hypergraph triangle_square = [] {
    Hypergraph q;
    q.AddVertices(7, 0);
    for (VertexId v = 0; v < 3; ++v) (void)q.AddEdge({v, (v + 1) % 3});
    for (VertexId v = 0; v < 4; ++v) {
      (void)q.AddEdge({3 + v, 3 + (v + 1) % 4});
    }
    return q;
  }();
  pool.push_back(triangle_square.Clone());
  pool.push_back(PermutedHypergraph(triangle_square, {6, 5, 4, 3, 2, 1, 0},
                                    IdentityEdges(triangle_square)));
  Hypergraph cycle7;
  cycle7.AddVertices(7, 0);
  for (VertexId v = 0; v < 7; ++v) (void)cycle7.AddEdge({v, (v + 1) % 7});
  pool.push_back(std::move(cycle7));

  std::vector<CanonicalKey> keys;
  std::vector<std::vector<uint32_t>> forms;
  for (const Hypergraph& q : pool) {
    keys.push_back(CanonicalQueryKey(q));
    ASSERT_TRUE(keys.back().isomorphism_invariant);
    forms.push_back(BruteForceForm(q));
  }
  size_t isomorphic_pairs = 0;
  for (size_t i = 0; i < pool.size(); ++i) {
    for (size_t j = i + 1; j < pool.size(); ++j) {
      const bool isomorphic = forms[i] == forms[j];
      isomorphic_pairs += isomorphic;
      EXPECT_EQ(keys[i].key == keys[j].key, isomorphic)
          << "pair " << i << ", " << j;
    }
  }
  // Both sides of the equivalence are exercised.
  EXPECT_GE(isomorphic_pairs, 3 * 12u);
  EXPECT_LT(isomorphic_pairs, pool.size() * (pool.size() - 1) / 2);
}

}  // namespace
}  // namespace hgmatch
