// Microbenchmarks of HGMatch's core per-embedding operations: index build,
// plan compilation, candidate generation (Algorithm 4), validation
// (Algorithm 5) and one full expansion, on a mid-size profile dataset; and
// the per-query canonical labelling that keys the service's plan cache.

#include <benchmark/benchmark.h>

#include "core/candidates.h"
#include "core/canonical.h"
#include "core/hgmatch.h"
#include "gen/dataset_profiles.h"
#include "gen/query_gen.h"
#include "tests/test_fixtures.h"

namespace hgmatch {
namespace {

// Shared fixture state (built once; benchmarks are read-only users).
struct Fixture {
  Fixture()
      : data(IndexedHypergraph::Build(
            FindDatasetProfile("SB")->Generate(1.0))) {
    Rng rng(7);
    query = SampleQuery(data.graph(), kQ3, &rng).value();
    plan = BuildQueryPlan(query, data).value();
    // A partial embedding for candidate/validation micro-runs: the first
    // valid 2-prefix found by expansion.
    ExpandScratch scratch;
    Expander expander(data, plan, &scratch);
    MatchStats stats;
    std::vector<EdgeId> level0, level1;
    expander.Expand(nullptr, 0, &level0, &stats);
    for (EdgeId e0 : level0) {
      prefix = {e0, 0};
      expander.Expand(prefix.data(), 1, &level1, &stats);
      if (!level1.empty()) {
        prefix[1] = level1[0];
        candidate_at_2 = level1[0];
        has_prefix = true;
        break;
      }
    }
  }

  IndexedHypergraph data;
  Hypergraph query;
  QueryPlan plan;
  std::vector<EdgeId> prefix;
  EdgeId candidate_at_2 = kInvalidEdge;
  bool has_prefix = false;
};

Fixture& GetFixture() {
  static Fixture* f = new Fixture();
  return *f;
}

void BM_IndexBuild(benchmark::State& state) {
  const DatasetProfile* profile = FindDatasetProfile("SB");
  Hypergraph h = profile->Generate(1.0);
  for (auto _ : state) {
    IndexedHypergraph idx = IndexedHypergraph::Build(h.Clone());
    benchmark::DoNotOptimize(idx.IndexBytes());
  }
  state.SetItemsProcessed(state.iterations() * h.NumEdges());
}
BENCHMARK(BM_IndexBuild);

void BM_PlanCompilation(benchmark::State& state) {
  Fixture& f = GetFixture();
  for (auto _ : state) {
    Result<QueryPlan> plan = BuildQueryPlan(f.query, f.data);
    benchmark::DoNotOptimize(plan.ok());
  }
}
BENCHMARK(BM_PlanCompilation);

void BM_GenerateCandidates(benchmark::State& state) {
  Fixture& f = GetFixture();
  if (!f.has_prefix || f.plan.NumSteps() < 3) {
    state.SkipWithError("no 2-prefix available");
    return;
  }
  ExpandScratch scratch;
  Expander expander(f.data, f.plan, &scratch);
  std::vector<EdgeId> out;
  for (auto _ : state) {
    expander.GenerateCandidates(f.prefix.data(), 2, &out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_GenerateCandidates);

void BM_IsValidEmbedding(benchmark::State& state) {
  Fixture& f = GetFixture();
  if (!f.has_prefix) {
    state.SkipWithError("no 2-prefix available");
    return;
  }
  ExpandScratch scratch;
  Expander expander(f.data, f.plan, &scratch);
  bool count_ok;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        expander.IsValidEmbedding(f.prefix.data(), 1, f.candidate_at_2,
                                  &count_ok));
  }
}
BENCHMARK(BM_IsValidEmbedding);

void BM_FullQuery(benchmark::State& state) {
  Fixture& f = GetFixture();
  for (auto _ : state) {
    MatchStats stats =
        ExecutePlanSequential(f.data, f.plan, MatchOptions{}, nullptr);
    benchmark::DoNotOptimize(stats.embeddings);
  }
}
BENCHMARK(BM_FullQuery);

// Arg 0: the paper's 5-vertex query (Fig 1a). Arg 1: a 30-vertex
// twin-heavy query shaped like the sampled AR/SB q3 queries, the common
// case on the service's submit path.
void BM_CanonicalQueryKey(benchmark::State& state) {
  const bool twin_heavy = state.range(0) == 1;
  const Hypergraph q =
      twin_heavy ? TwinHeavyQueryHypergraph() : PaperQueryHypergraph();
  state.SetLabel(twin_heavy ? "twin-heavy" : "paper");
  for (auto _ : state) {
    CanonicalKey key = CanonicalQueryKey(q);
    benchmark::DoNotOptimize(key.key.data());
  }
}
BENCHMARK(BM_CanonicalQueryKey)->Arg(0)->Arg(1);

}  // namespace
}  // namespace hgmatch
