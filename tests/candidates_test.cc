#include "core/candidates.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <iterator>
#include <limits>
#include <map>

#include "core/validation.h"
#include "tests/test_fixtures.h"
#include "util/rng.h"

namespace hgmatch {
namespace {

// Example V.1 of the paper: with matching order
// ({u2,u4}, {u0,u1,u2}, {u0,u1,u3,u4}) and partial embedding m = (e1, e3),
// the candidates of the third query hyperedge are exactly {e5}.
TEST(CandidatesTest, PaperExampleV1) {
  IndexedHypergraph idx = IndexedHypergraph::Build(PaperDataHypergraph());
  Hypergraph q = PaperQueryHypergraph();
  Result<QueryPlan> plan = BuildQueryPlanWithOrder(q, {0, 1, 2});
  ASSERT_TRUE(plan.ok());
  ExpandScratch scratch;
  Expander expander(idx, plan.value(), &scratch);

  const EdgeId m[] = {0 /*e1*/, 2 /*e3*/};
  std::vector<EdgeId> out;
  expander.GenerateCandidates(m, 2, &out);
  EXPECT_EQ(out, (std::vector<EdgeId>{4}));  // e5
}

TEST(CandidatesTest, ScanStepReturnsWholeTable) {
  IndexedHypergraph idx = IndexedHypergraph::Build(PaperDataHypergraph());
  Hypergraph q = PaperQueryHypergraph();
  Result<QueryPlan> plan = BuildQueryPlanWithOrder(q, {0, 1, 2});
  ASSERT_TRUE(plan.ok());
  ExpandScratch scratch;
  Expander expander(idx, plan.value(), &scratch);
  std::vector<EdgeId> out;
  expander.GenerateCandidates(nullptr, 0, &out);
  EXPECT_EQ(out, (std::vector<EdgeId>{0, 1}));  // e1, e2: the {A,B} table
}

TEST(CandidatesTest, MissingSignatureYieldsNoCandidates) {
  IndexedHypergraph idx = IndexedHypergraph::Build(PaperDataHypergraph());
  // Query with a hyperedge signature {B,C} absent from the data.
  Hypergraph q;
  const VertexId b = q.AddVertex(1);
  const VertexId c = q.AddVertex(2);
  (void)q.AddEdge({b, c});
  Result<QueryPlan> plan = BuildQueryPlanWithOrder(q, {0});
  ASSERT_TRUE(plan.ok());
  ExpandScratch scratch;
  Expander expander(idx, plan.value(), &scratch);
  std::vector<EdgeId> out = {99};
  expander.GenerateCandidates(nullptr, 0, &out);
  EXPECT_TRUE(out.empty());
}

TEST(CandidatesTest, ExcludesAlreadyMatchedEdges) {
  // Data: triangle-ish structure where the same signature table serves two
  // steps; the edge already used must not be offered again.
  Hypergraph h;
  h.AddVertices(4, 0);  // all label A
  (void)h.AddEdge({0, 1});
  (void)h.AddEdge({1, 2});
  (void)h.AddEdge({2, 3});
  IndexedHypergraph idx = IndexedHypergraph::Build(std::move(h));

  Hypergraph q;
  q.AddVertices(3, 0);
  (void)q.AddEdge({0, 1});
  (void)q.AddEdge({1, 2});
  Result<QueryPlan> plan = BuildQueryPlanWithOrder(q, {0, 1});
  ASSERT_TRUE(plan.ok());
  ExpandScratch scratch;
  Expander expander(idx, plan.value(), &scratch);

  const EdgeId m[] = {1 /*{1,2}*/};
  std::vector<EdgeId> out;
  expander.GenerateCandidates(m, 1, &out);
  // Neighbours of data edge {1,2} with signature {A,A}: {0,1} and {2,3};
  // the matched edge itself is excluded.
  EXPECT_EQ(out, (std::vector<EdgeId>{0, 2}));
}

// Fig 4 of the paper: a candidate that passes the vertex-count check but
// fails profile validation. Partial query: e0={u0,u1} (B,A),
// e1={u2,u3,u4,u5}? — we reproduce the *structure*: the multiset of
// profiles differs although counts agree.
TEST(ValidationTest, RejectsProfileMismatch) {
  // Data: v0(B) v1..v5(A); edges d0={v0,v1}, d1={v3,v4,v5}, d2={v1,v2,v3}.
  Hypergraph h;
  const Label A = 0, B = 1;
  h.AddVertex(B);
  for (int i = 0; i < 5; ++i) h.AddVertex(A);
  const EdgeId d0 = h.AddEdge({0, 1}).value();
  const EdgeId d1 = h.AddEdge({3, 4, 5}).value();
  const EdgeId d2 = h.AddEdge({1, 2, 3}).value();
  IndexedHypergraph idx = IndexedHypergraph::Build(std::move(h));

  // Query: u0(B) u1..u5(A); q0={u0,u1}, q1={u3,u4,u5}, q2={u2,u3,u4}.
  // Here q2 intersects q1 in TWO vertices (u3,u4) and is disjoint from q0.
  Hypergraph q;
  q.AddVertex(B);
  for (int i = 0; i < 5; ++i) q.AddVertex(A);
  (void)q.AddEdge({0, 1});
  (void)q.AddEdge({3, 4, 5});
  (void)q.AddEdge({2, 3, 4});
  Result<QueryPlan> plan = BuildQueryPlanWithOrder(q, {0, 1, 2});
  ASSERT_TRUE(plan.ok());
  ExpandScratch scratch;
  Expander expander(idx, plan.value(), &scratch);

  // Candidate d2={v1,v2,v3} for q2: touches d0 (via v1) although q2 is
  // non-adjacent to q0, and shares only ONE vertex with d1 (v3) although
  // q2 shares two with q1. Vertex count: |V(q')| = 6;
  // |V(m')| with m'=(d0,d1,d2) = 6 as well => count check passes, profile
  // check must reject.
  const EdgeId m[] = {d0, d1};
  bool count_ok = false;
  EXPECT_FALSE(expander.IsValidEmbedding(m, 2, d2, &count_ok));
  EXPECT_TRUE(count_ok);
  // The exact class check agrees.
  const EdgeId full[] = {d0, d1, d2};
  const EdgeId order[] = {0, 1, 2};
  EXPECT_FALSE(
      EmbeddingConsistent(q, idx.graph(), order, full, 3));
}

TEST(ValidationTest, AcceptsPaperEmbeddings) {
  IndexedHypergraph idx = IndexedHypergraph::Build(PaperDataHypergraph());
  Hypergraph q = PaperQueryHypergraph();
  Result<QueryPlan> plan = BuildQueryPlanWithOrder(q, {0, 1, 2});
  ASSERT_TRUE(plan.ok());
  ExpandScratch scratch;
  Expander expander(idx, plan.value(), &scratch);

  bool count_ok = false;
  const EdgeId m1[] = {0, 2};
  EXPECT_TRUE(expander.IsValidEmbedding(m1, 2, 4, &count_ok));  // + e5
  EXPECT_TRUE(count_ok);
  const EdgeId m2[] = {1, 3};
  EXPECT_TRUE(expander.IsValidEmbedding(m2, 2, 5, &count_ok));  // + e6
  // Cross combination is invalid: (e1, e3) + e6.
  EXPECT_FALSE(expander.IsValidEmbedding(m1, 2, 5, &count_ok));

  // VerifyExact agrees on the two full embeddings.
  const EdgeId full1[] = {0, 2, 4};
  const EdgeId full2[] = {1, 3, 5};
  EXPECT_TRUE(expander.VerifyExact(full1, 3));
  EXPECT_TRUE(expander.VerifyExact(full2, 3));
}

TEST(ValidationTest, VertexCountCheckFiltersEarly) {
  // Candidate sharing too many vertices with the partial embedding fails
  // the Observation V.5 check (count_ok == false).
  Hypergraph h;
  h.AddVertices(5, 0);
  const EdgeId d0 = h.AddEdge({0, 1, 2}).value();
  const EdgeId d1 = h.AddEdge({0, 1, 3}).value();
  IndexedHypergraph idx = IndexedHypergraph::Build(std::move(h));

  // Query expects the two edges to share exactly one vertex.
  Hypergraph q;
  q.AddVertices(5, 0);
  (void)q.AddEdge({0, 1, 2});
  (void)q.AddEdge({2, 3, 4});
  Result<QueryPlan> plan = BuildQueryPlanWithOrder(q, {0, 1});
  ASSERT_TRUE(plan.ok());
  ExpandScratch scratch;
  Expander expander(idx, plan.value(), &scratch);

  const EdgeId m[] = {d0};
  bool count_ok = true;
  EXPECT_FALSE(expander.IsValidEmbedding(m, 1, d1, &count_ok));
  EXPECT_FALSE(count_ok);  // 4 distinct data vertices != 5 query vertices
}

TEST(EmbeddingConsistentTest, SymmetricVerticesAllowAnyBijection) {
  // Two query vertices with identical labels and incidence are
  // interchangeable; the class check must accept.
  Hypergraph h;
  h.AddVertices(3, 0);
  const EdgeId d0 = h.AddEdge({0, 1, 2}).value();
  Hypergraph q;
  q.AddVertices(3, 0);
  (void)q.AddEdge({0, 1, 2});
  const EdgeId order[] = {0};
  const EdgeId matched[] = {d0};
  EXPECT_TRUE(EmbeddingConsistent(q, h, order, matched, 1));
}

TEST(EmbeddingConsistentTest, LabelMultiplicityMismatchRejected) {
  Hypergraph h;
  h.AddVertex(0);
  h.AddVertex(0);
  h.AddVertex(1);
  const EdgeId d0 = h.AddEdge({0, 1, 2}).value();  // labels {A,A,B}
  Hypergraph q;
  q.AddVertex(0);
  q.AddVertex(1);
  q.AddVertex(1);
  (void)q.AddEdge({0, 1, 2});  // labels {A,B,B}
  const EdgeId order[] = {0};
  const EdgeId matched[] = {d0};
  EXPECT_FALSE(EmbeddingConsistent(q, h, order, matched, 1));
}

// ---------------------------------------------------------------------------
// Differential tests: the stamped-array kernel against Algorithms 4 and 5
// written from their definitions with sorted sets.

// Algorithm 4 as sorted-set algebra: per shared query vertex u, the union
// of the posting lists of V_incdt(u); intersected across all u; minus the
// data hyperedges already matched.
std::vector<EdgeId> ReferenceCandidates(const IndexedHypergraph& idx,
                                        const QueryPlan& plan,
                                        const EdgeId* m, uint32_t step) {
  const PlanStep& s = plan.steps[step];
  const Partition* part = idx.FindPartition(s.signature);
  if (part == nullptr) return {};
  const Hypergraph& h = idx.graph();
  std::vector<EdgeId> out;
  if (s.adjacent_prev.empty()) {
    out = part->edges();
  } else {
    std::map<VertexId, uint32_t> count;  // d_Hm(v)
    for (uint32_t j = 0; j < step; ++j) {
      for (VertexId v : h.edge(m[j])) ++count[v];
    }
    std::vector<VertexId> non_incident;
    for (uint32_t j : s.nonadjacent_prev) {
      std::vector<VertexId> merged;
      std::set_union(non_incident.begin(), non_incident.end(),
                     h.edge(m[j]).begin(), h.edge(m[j]).end(),
                     std::back_inserter(merged));
      non_incident.swap(merged);
    }
    bool first = true;
    for (size_t a = 0; a < s.adjacent_prev.size(); ++a) {
      const VertexSet& fe = h.edge(m[s.adjacent_prev[a].step]);
      for (const PlanStep::SharedVertexInfo& info : s.shared_info[a]) {
        std::vector<EdgeId> unioned;
        for (VertexId v : fe) {
          if (h.label(v) != info.label) continue;
          if (count[v] != info.degree_before) continue;
          if (std::binary_search(non_incident.begin(), non_incident.end(),
                                 v)) {
            continue;
          }
          const EdgeSet& postings = part->Postings(v);
          std::vector<EdgeId> merged;
          std::set_union(unioned.begin(), unioned.end(), postings.begin(),
                         postings.end(), std::back_inserter(merged));
          unioned.swap(merged);
        }
        if (first) {
          out.swap(unioned);
          first = false;
        } else {
          std::vector<EdgeId> both;
          std::set_intersection(out.begin(), out.end(), unioned.begin(),
                                unioned.end(), std::back_inserter(both));
          out.swap(both);
        }
      }
    }
  }
  for (uint32_t j = 0; j < step; ++j) {
    auto it = std::lower_bound(out.begin(), out.end(), m[j]);
    if (it != out.end() && *it == m[j]) out.erase(it);
  }
  return out;
}

// Walks the search tree of `plan` depth-first (up to `budget` expansions)
// and checks every expansion: the candidates equal ReferenceCandidates,
// and the valid set equals the candidates whose extended prefix passes
// the exact vertex-class check EmbeddingConsistent.
class DifferentialWalk {
 public:
  DifferentialWalk(const IndexedHypergraph& idx, const QueryPlan& plan,
                   ExpandScratch* scratch, uint64_t budget)
      : idx_(idx),
        plan_(plan),
        scratch_(scratch),
        order_(plan.Order()),
        m_(plan.NumSteps(), kInvalidEdge),
        budget_(budget) {}

  // Checks one expansion of m_[0..step); returns its valid set.
  std::vector<EdgeId> CheckStep(uint32_t step) {
    Expander expander(idx_, plan_, scratch_);
    std::vector<EdgeId> candidates;
    expander.GenerateCandidates(m_.data(), step, &candidates);
    EXPECT_EQ(candidates, ReferenceCandidates(idx_, plan_, m_.data(), step))
        << "step " << step;
    std::vector<EdgeId> expected;
    for (EdgeId c : candidates) {
      m_[step] = c;
      if (EmbeddingConsistent(*plan_.query, idx_.graph(), order_.data(),
                              m_.data(), step + 1)) {
        expected.push_back(c);
      }
    }
    std::vector<EdgeId> valid;
    MatchStats stats;
    expander.Expand(m_.data(), step, &valid, &stats);
    EXPECT_EQ(valid, expected) << "step " << step;
    EXPECT_EQ(stats.candidates, candidates.size());
    ++expansions_;
    candidates_ += candidates.size();
    return valid;
  }

  // Full walk from the root.
  void Run() { Walk(0); }

  // Sets the prefix position `step` (for callers interleaving walks).
  void Set(uint32_t step, EdgeId e) { m_[step] = e; }

  uint64_t expansions() const { return expansions_; }
  uint64_t candidates() const { return candidates_; }
  uint64_t embeddings() const { return embeddings_; }

 private:
  void Walk(uint32_t step) {
    if (expansions_ >= budget_ || ::testing::Test::HasFailure()) return;
    for (EdgeId c : CheckStep(step)) {
      if (step + 1 == plan_.NumSteps()) {
        ++embeddings_;
        continue;
      }
      m_[step] = c;
      Walk(step + 1);
    }
  }

  const IndexedHypergraph& idx_;
  const QueryPlan& plan_;
  ExpandScratch* scratch_;
  std::vector<EdgeId> order_;
  std::vector<EdgeId> m_;
  uint64_t budget_;
  uint64_t expansions_ = 0;
  uint64_t candidates_ = 0;
  uint64_t embeddings_ = 0;
};

// A random labelled hypergraph; with `edge_labels`, every hyperedge gets
// one of three hyperedge labels and about a quarter of the vertex sets
// appear twice under different labels.
Hypergraph RandomData(uint64_t seed, bool edge_labels) {
  GeneratorConfig config = SmallRandomConfig(seed);
  config.label_locality = 0.7;  // thematic edges: shared signatures
  Hypergraph base = GenerateHypergraph(config);
  if (!edge_labels) return base;
  Rng rng(seed * 31 + 7);
  Hypergraph h;
  for (VertexId v = 0; v < base.NumVertices(); ++v) h.AddVertex(base.label(v));
  for (EdgeId e = 0; e < base.NumEdges(); ++e) {
    const Label l = static_cast<Label>(rng.NextBounded(3));
    (void)h.AddEdge(base.edge(e), l);
    if (rng.NextBounded(4) == 0) (void)h.AddEdge(base.edge(e), (l + 1) % 3);
  }
  return h;
}

// A connected query of `k` hyperedges cut out of `data` by a random walk,
// hyperedge labels included, so it has at least one embedding.
Hypergraph WalkQuery(const Hypergraph& data, uint32_t k, Rng* rng) {
  std::vector<EdgeId> picked = {
      static_cast<EdgeId>(rng->NextBounded(data.NumEdges()))};
  for (int attempt = 0; picked.size() < k && attempt < 200; ++attempt) {
    const EdgeId from = picked[rng->NextBounded(picked.size())];
    const VertexSet& fe = data.edge(from);
    const VertexId v = fe[rng->NextBounded(fe.size())];
    const EdgeSet& inc = data.incident(v);
    const EdgeId next = inc[rng->NextBounded(inc.size())];
    if (std::find(picked.begin(), picked.end(), next) == picked.end()) {
      picked.push_back(next);
    }
  }
  std::map<VertexId, VertexId> rename;
  Hypergraph q;
  for (EdgeId e : picked) {
    VertexSet members;
    for (VertexId v : data.edge(e)) {
      auto [it, fresh] = rename.emplace(v, 0);
      if (fresh) it->second = q.AddVertex(data.label(v));
      members.push_back(it->second);
    }
    (void)q.AddEdge(std::move(members), data.edge_label(e));
  }
  return q;
}

// Algorithm 3's order, or (odd `variant`) a random permutation, which
// exercises non-adjacent steps and mid-plan table scans.
QueryPlan PlanFor(const Hypergraph& q, const IndexedHypergraph& idx,
                  uint64_t variant, Rng* rng) {
  if (variant % 2 == 0) return BuildQueryPlan(q, idx).value();
  std::vector<EdgeId> order(q.NumEdges());
  for (EdgeId e = 0; e < order.size(); ++e) order[e] = e;
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng->NextBounded(i)]);
  }
  return BuildQueryPlanWithOrder(q, order).value();
}

TEST(KernelDifferentialTest, MatchesSortedSetAlgorithmsOnRandomHypergraphs) {
  uint64_t expansions = 0, candidates = 0, embeddings = 0;
  for (bool edge_labels : {false, true}) {
    for (uint64_t seed = 1; seed <= 12; ++seed) {
      IndexedHypergraph idx =
          IndexedHypergraph::Build(RandomData(seed, edge_labels));
      Rng rng(seed);
      ExpandScratch scratch;  // fresh per graph; reuse is tested below
      for (uint64_t qi = 0; qi < 6; ++qi) {
        Hypergraph q = WalkQuery(idx.graph(), 2 + qi % 4, &rng);
        QueryPlan plan = PlanFor(q, idx, qi, &rng);
        DifferentialWalk walk(idx, plan, &scratch, 400);
        walk.Run();
        ASSERT_FALSE(HasFailure()) << "seed " << seed << " query " << qi
                                   << " edge_labels " << edge_labels;
        expansions += walk.expansions();
        candidates += walk.candidates();
        embeddings += walk.embeddings();
      }
    }
  }
  // The sweep must actually exercise the kernel.
  EXPECT_GT(expansions, 1000u);
  EXPECT_GT(candidates, expansions);
  EXPECT_GT(embeddings, 0u);
}

TEST(KernelDifferentialTest, OneScratchServesGraphsOfDifferentSizes) {
  // Small graph, then a larger one (the scratch grows), then the small one
  // again with stale entries beyond its |V| / |E| and stale stamps within.
  IndexedHypergraph small = IndexedHypergraph::Build(RandomData(1, false));
  IndexedHypergraph large = IndexedHypergraph::Build(RandomData(20, true));
  ASSERT_LT(small.graph().NumVertices(), large.graph().NumVertices());
  ASSERT_LT(small.graph().NumEdges(), large.graph().NumEdges());
  ExpandScratch scratch;
  Rng rng(5);
  for (const IndexedHypergraph* idx : {&small, &large, &small, &large}) {
    for (uint64_t qi = 0; qi < 4; ++qi) {
      Hypergraph q = WalkQuery(idx->graph(), 3 + qi % 2, &rng);
      QueryPlan plan = PlanFor(q, *idx, qi, &rng);
      DifferentialWalk walk(*idx, plan, &scratch, 300);
      walk.Run();
      ASSERT_FALSE(HasFailure());
      EXPECT_GT(walk.embeddings(), 0u);
    }
  }
}

TEST(KernelDifferentialTest, InterleavedPlansShareOneScratch) {
  // Two plans on two graphs advance their walks in lock step through one
  // scratch: each expansion of one lands between expansions of the other.
  IndexedHypergraph g1 = IndexedHypergraph::Build(RandomData(3, false));
  IndexedHypergraph g2 = IndexedHypergraph::Build(RandomData(4, true));
  Rng rng(11);
  Hypergraph q1 = WalkQuery(g1.graph(), 3, &rng);
  Hypergraph q2 = WalkQuery(g2.graph(), 3, &rng);
  QueryPlan p1 = BuildQueryPlan(q1, g1).value();
  QueryPlan p2 = BuildQueryPlan(q2, g2).value();
  ExpandScratch scratch;
  DifferentialWalk w1(g1, p1, &scratch, 0);
  DifferentialWalk w2(g2, p2, &scratch, 0);
  std::vector<EdgeId> roots1 = w1.CheckStep(0);
  std::vector<EdgeId> roots2 = w2.CheckStep(0);
  const size_t n = std::min<size_t>(std::max(roots1.size(), roots2.size()),
                                    200);
  uint64_t checked = 0;
  for (size_t i = 0; i < n && !HasFailure(); ++i) {
    // Depth-2 expansions of both walks, alternating.
    std::vector<EdgeId> next1, next2;
    if (i < roots1.size()) {
      w1.Set(0, roots1[i]);
      next1 = w1.CheckStep(1);
    }
    if (i < roots2.size()) {
      w2.Set(0, roots2[i]);
      next2 = w2.CheckStep(1);
    }
    for (size_t j = 0; j < std::max(next1.size(), next2.size()); ++j) {
      if (j < next1.size()) {
        w1.Set(1, next1[j]);
        (void)w1.CheckStep(2);
        ++checked;
      }
      if (j < next2.size()) {
        w2.Set(1, next2[j]);
        (void)w2.CheckStep(2);
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 10u);
}

// The first full embedding of `plan` in search order, or empty.
std::vector<EdgeId> FirstEmbedding(const IndexedHypergraph& idx,
                                   const QueryPlan& plan) {
  ExpandScratch scratch;
  Expander expander(idx, plan, &scratch);
  std::vector<EdgeId> m(plan.NumSteps(), kInvalidEdge);
  std::function<bool(uint32_t)> dfs = [&](uint32_t step) {
    std::vector<EdgeId> valid;
    MatchStats stats;
    expander.Expand(m.data(), step, &valid, &stats);
    for (EdgeId c : valid) {
      m[step] = c;
      if (step + 1 == plan.NumSteps() || dfs(step + 1)) return true;
    }
    return false;
  };
  return dfs(0) ? m : std::vector<EdgeId>{};
}

TEST(KernelDifferentialTest, StampsWrapAround) {
  IndexedHypergraph idx = IndexedHypergraph::Build(RandomData(6, true));
  Rng rng(13);
  constexpr uint32_t kMax = std::numeric_limits<uint32_t>::max();
  for (uint64_t qi = 0; qi < 4; ++qi) {
    Hypergraph q = WalkQuery(idx.graph(), 3 + qi % 3, &rng);
    QueryPlan plan = PlanFor(q, idx, qi, &rng);
    const std::vector<EdgeId> full = FirstEmbedding(idx, plan);
    ASSERT_EQ(full.size(), plan.NumSteps());
    // A fresh scratch checks the deepest expansion of that embedding:
    // vertex generations 1 and 2 stamp every vertex of the prefix, and the
    // posting marks climb from 0.
    ExpandScratch scratch;
    DifferentialWalk deep(idx, plan, &scratch, 0);
    for (uint32_t i = 0; i + 1 < full.size(); ++i) deep.Set(i, full[i]);
    (void)deep.CheckStep(plan.NumSteps() - 1);
    // Both counters wrap next: the first generations after the wrap are 1
    // and 2 again, and the edge marks restart from 0 within the first few
    // expansions. Stale entries must not read as live on the far side.
    scratch.SetStampsForTesting(kMax, kMax - 3);
    DifferentialWalk walk(idx, plan, &scratch, 300);
    walk.Run();
    ASSERT_FALSE(HasFailure()) << "query " << qi;
    EXPECT_GT(walk.embeddings(), 0u);
  }
}

}  // namespace
}  // namespace hgmatch
