#include <gtest/gtest.h>

#include "baseline/backtracking.h"
#include "baseline/bipartite.h"
#include "baseline/ihs_filter.h"
#include "baseline/ordering.h"
#include "core/reference.h"
#include "util/set_ops.h"
#include "gen/query_gen.h"
#include "tests/test_fixtures.h"

namespace hgmatch {
namespace {

TEST(IhsFilterTest, LabelAndDegreeGate) {
  IndexedHypergraph idx = IndexedHypergraph::Build(PaperDataHypergraph());
  Hypergraph q = PaperQueryHypergraph();
  IhsFilter filter(idx);
  // u4 (B, degree 2 in q) can only match v4 (the unique B, degree 4).
  EXPECT_TRUE(filter.Passes(q, 4, 4));
  // u4 cannot match any A or C vertex.
  EXPECT_FALSE(filter.Passes(q, 4, 0));
  EXPECT_FALSE(filter.Passes(q, 4, 1));
}

TEST(IhsFilterTest, SignatureConditionPrunes) {
  IndexedHypergraph idx = IndexedHypergraph::Build(PaperDataHypergraph());
  Hypergraph q = PaperQueryHypergraph();
  IhsFilter filter(idx);
  auto candidates = filter.BuildCandidates(q);
  ASSERT_EQ(candidates.size(), 5u);
  // u4 -> {v4} only.
  EXPECT_EQ(candidates[4], (std::vector<VertexId>{4}));
  // u1 is the C vertex incident to both {A,A,C} and {A,A,B,C} hyperedges:
  // v1 qualifies; v5 (C) is incident to e4 {A,A,C} and e6 {A,A,B,C} too.
  EXPECT_EQ(candidates[1], (std::vector<VertexId>{1, 5}));
  // Every candidate passes the single-pair test (internal consistency).
  for (VertexId u = 0; u < q.NumVertices(); ++u) {
    for (VertexId v : candidates[u]) {
      EXPECT_TRUE(filter.Passes(q, u, v));
    }
  }
}

TEST(IhsFilterTest, ExactSafety) {
  // Every data vertex used by any true embedding must survive the filter
  // for the query vertex it is matched to. With the paper example the two
  // embeddings map u0->v0/v3, u1->v1/v5, u2->v2/v6, u3->v3?? — derive from
  // the reference instead of hand-coding.
  IndexedHypergraph idx = IndexedHypergraph::Build(PaperDataHypergraph());
  Hypergraph q = PaperQueryHypergraph();
  IhsFilter filter(idx);
  auto candidates = filter.BuildCandidates(q);
  // Known embedding 1: f = {u0->v0, u1->v1, u2->v2, u3->v3? ...}
  // (e1,e3,e5): u2->v2, u4->v4, u0,u1 in e3∩e5 => u0->v0, u1->v1, u3->v6.
  const std::pair<VertexId, VertexId> f1[] = {
      {0, 0}, {1, 1}, {2, 2}, {3, 6}, {4, 4}};
  for (auto [u, v] : f1) {
    EXPECT_TRUE(Contains(candidates[u], v)) << "u" << u << "->v" << v;
  }
}

TEST(OrderingTest, CoreForestLeafClassification) {
  // A "triangle with a tail": u0,u1,u2 pairwise connected (core),
  // u3 hangs off u2 (leaf).
  Hypergraph q;
  q.AddVertices(4, 0);
  (void)q.AddEdge({0, 1});
  (void)q.AddEdge({1, 2});
  (void)q.AddEdge({0, 2});
  (void)q.AddEdge({2, 3});
  auto tier = ClassifyCoreForestLeaf(q);
  EXPECT_EQ(tier[0], 0);
  EXPECT_EQ(tier[1], 0);
  EXPECT_EQ(tier[2], 0);
  EXPECT_EQ(tier[3], 2);
}

TEST(OrderingTest, AllStrategiesGiveConnectedPermutations) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    // Sample real queries (every vertex lies in some hyperedge; connected).
    Hypergraph data = GenerateHypergraph(SmallRandomConfig(seed));
    Rng rng(seed);
    Result<Hypergraph> sampled =
        SampleQuery(data, QuerySettings{"t", 5, 2, 100}, &rng);
    if (!sampled.ok()) continue;
    Hypergraph q = std::move(sampled.value());
    if (q.NumEdges() == 0 || !q.IsConnected()) continue;
    std::vector<size_t> sizes(q.NumVertices(), 10);
    for (auto strategy :
         {VertexOrderStrategy::kGqlStyle, VertexOrderStrategy::kCflStyle,
          VertexOrderStrategy::kDafStyle, VertexOrderStrategy::kCeciStyle}) {
      auto order = ComputeVertexOrder(q, sizes, strategy);
      ASSERT_EQ(order.size(), q.NumVertices());
      std::vector<uint8_t> seen(q.NumVertices(), 0);
      for (size_t i = 0; i < order.size(); ++i) {
        ASSERT_LT(order[i], q.NumVertices());
        EXPECT_FALSE(seen[order[i]]);
        seen[order[i]] = 1;
        if (i > 0) {
          // Connected: shares a hyperedge with an earlier vertex.
          bool connected = false;
          const VertexSet adj = q.AdjacentVertices(order[i]);
          for (size_t j = 0; j < i; ++j) {
            connected |= Contains(adj, order[j]);
          }
          EXPECT_TRUE(connected) << "strategy " << static_cast<int>(strategy)
                                 << " position " << i;
        }
      }
    }
  }
}

TEST(BacktrackingTest, PaperExampleVertexCount) {
  IndexedHypergraph idx = IndexedHypergraph::Build(PaperDataHypergraph());
  Hypergraph q = PaperQueryHypergraph();
  for (auto strategy :
       {VertexOrderStrategy::kGqlStyle, VertexOrderStrategy::kCflStyle,
        VertexOrderStrategy::kDafStyle, VertexOrderStrategy::kCeciStyle}) {
    BaselineOptions options;
    options.order = strategy;
    Result<BaselineResult> r = MatchByVertex(idx, q, options);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().embeddings, 2u)
        << "strategy " << static_cast<int>(strategy);
  }
}

// Property sweep: every baseline configuration equals the vertex-mapping
// oracle on random instances.
class BaselineOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BaselineOracleTest, MatchesVertexOracle) {
  const uint64_t seed = GetParam();
  GeneratorConfig config = SmallRandomConfig(seed);
  config.num_vertices = 14 + seed % 6;  // keep the O(|V|!) oracle tractable
  config.num_edges = 18;
  Hypergraph data = GenerateHypergraph(config);
  IndexedHypergraph idx = IndexedHypergraph::Build(data.Clone());

  Rng rng(seed * 131 + 5);
  QuerySettings settings{"t", 2, 2, 100};
  Result<Hypergraph> q = SampleQuery(data, settings, &rng);
  ASSERT_TRUE(q.ok());
  if (q.value().NumVertices() > 9) GTEST_SKIP() << "oracle too slow";

  const uint64_t expected = ReferenceVertexMatchCount(data, q.value());

  for (bool ihs : {true, false}) {
    for (bool adjacency : {true, false}) {
      for (bool failing : {true, false}) {
        BaselineOptions options;
        options.use_ihs = ihs;
        options.adjacency_pruning = adjacency;
        options.failing_sets = failing;
        Result<BaselineResult> r = MatchByVertex(idx, q.value(), options);
        ASSERT_TRUE(r.ok());
        EXPECT_EQ(r.value().embeddings, expected)
            << "ihs=" << ihs << " adj=" << adjacency << " fs=" << failing;
      }
    }
  }

  // The bipartite strawman agrees with the vertex oracle too.
  Result<pairwise::PairwiseResult> bg = MatchViaBipartite(data, q.value());
  ASSERT_TRUE(bg.ok());
  EXPECT_EQ(bg.value().embeddings, expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BaselineOracleTest,
                         ::testing::Range<uint64_t>(1, 13));

TEST(BacktrackingTest, NamedBaselinesRun) {
  IndexedHypergraph idx = IndexedHypergraph::Build(PaperDataHypergraph());
  Hypergraph q = PaperQueryHypergraph();
  Result<BaselineResult> cfl = MatchCflH(idx, q);
  Result<BaselineResult> daf = MatchDafH(idx, q);
  Result<BaselineResult> ceci = MatchCeciH(idx, q);
  ASSERT_TRUE(cfl.ok());
  ASSERT_TRUE(daf.ok());
  ASSERT_TRUE(ceci.ok());
  EXPECT_EQ(cfl.value().embeddings, 2u);
  EXPECT_EQ(daf.value().embeddings, 2u);
  EXPECT_EQ(ceci.value().embeddings, 2u);
}

TEST(BacktrackingTest, TimeoutReported) {
  // A pathological instance: large symmetric data, tiny timeout.
  Hypergraph h;
  h.AddVertices(60, 0);
  for (VertexId a = 0; a < 30; ++a) {
    for (VertexId b = 30; b < 40; ++b) (void)h.AddEdge({a, b});
  }
  IndexedHypergraph idx = IndexedHypergraph::Build(std::move(h));
  Hypergraph q;
  q.AddVertices(5, 0);
  (void)q.AddEdge({0, 1});
  (void)q.AddEdge({1, 2});
  (void)q.AddEdge({2, 3});
  (void)q.AddEdge({3, 4});
  BaselineOptions options;
  options.timeout_seconds = 0.02;
  Result<BaselineResult> r = MatchByVertex(idx, q, options);
  ASSERT_TRUE(r.ok());
  // Either it finished fast or it reports the timeout; with this blow-up it
  // should time out, but don't flake on fast machines.
  if (r.value().timed_out) {
    EXPECT_LT(r.value().seconds, 1.0);
  }
}

TEST(BipartiteTest, ConversionShape) {
  Hypergraph h = PaperDataHypergraph();
  pairwise::Graph g = ConvertToBipartite(h, h.NumLabels());
  // 7 original + 6 hyperedge vertices; one pairwise edge per incidence.
  EXPECT_EQ(g.NumVertices(), 13u);
  EXPECT_EQ(g.NumEdges(), h.NumIncidences());
  // Edge-vertices carry label base + arity.
  EXPECT_EQ(g.label(7), h.NumLabels() + 2);   // e1 has arity 2
  EXPECT_EQ(g.label(11), h.NumLabels() + 4);  // e5 has arity 4
  // Vertex labels preserved.
  for (VertexId v = 0; v < 7; ++v) EXPECT_EQ(g.label(v), h.label(v));
  // Bipartite: no edge between two original vertices.
  EXPECT_FALSE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(2, 7));  // v2 in e1
}

TEST(BipartiteTest, PaperExampleViaBipartite) {
  Hypergraph data = PaperDataHypergraph();
  Hypergraph q = PaperQueryHypergraph();
  Result<pairwise::PairwiseResult> r = MatchViaBipartite(data, q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().embeddings, 2u);
}

TEST(PairwiseGraphTest, BuildAndQuery) {
  pairwise::Graph g = pairwise::Graph::Build(
      {0, 1, 0, 1}, {{0, 1}, {1, 2}, {2, 3}, {1, 0}, {2, 2}});
  EXPECT_EQ(g.NumVertices(), 4u);
  EXPECT_EQ(g.NumEdges(), 3u);  // dup {0,1} and self-loop removed
  EXPECT_EQ(g.degree(1), 2u);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_FALSE(g.HasEdge(0, 3));
}

TEST(PairwiseMatcherTest, TrianglesInClique) {
  // K4, all same label; triangle query has 4*3*2 = 24 label-preserving
  // injective mappings.
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId a = 0; a < 4; ++a) {
    for (VertexId b = a + 1; b < 4; ++b) edges.emplace_back(a, b);
  }
  pairwise::Graph data = pairwise::Graph::Build({0, 0, 0, 0}, edges);
  pairwise::Graph query =
      pairwise::Graph::Build({0, 0, 0}, {{0, 1}, {1, 2}, {0, 2}});
  Result<pairwise::PairwiseResult> r = pairwise::MatchPairwise(data, query);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().embeddings, 24u);
}

TEST(PairwiseMatcherTest, LabelsRestrict) {
  pairwise::Graph data =
      pairwise::Graph::Build({0, 1, 0}, {{0, 1}, {1, 2}});
  pairwise::Graph query = pairwise::Graph::Build({0, 1}, {{0, 1}});
  Result<pairwise::PairwiseResult> r = pairwise::MatchPairwise(data, query);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().embeddings, 2u);  // (v0,v1) and (v2,v1)
}

}  // namespace
}  // namespace hgmatch
