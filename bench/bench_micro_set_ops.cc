// Microbenchmarks of the sorted-set kernels of util/set_ops
// (google-benchmark), including the merge-vs-gallop crossover. Algorithm 4
// itself no longer runs on these (see core/candidates.h); its cost is
// measured by bench_micro_core.

#include <benchmark/benchmark.h>

#include "util/rng.h"
#include "util/set_ops.h"

namespace hgmatch {
namespace {

std::vector<uint32_t> MakeSorted(size_t n, uint32_t universe, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint32_t> v;
  v.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    v.push_back(static_cast<uint32_t>(rng.NextBounded(universe)));
  }
  SortUnique(&v);
  return v;
}

void BM_IntersectBalanced(benchmark::State& state) {
  const size_t n = state.range(0);
  const auto a = MakeSorted(n, 4 * n, 1);
  const auto b = MakeSorted(n, 4 * n, 2);
  std::vector<uint32_t> out;
  for (auto _ : state) {
    Intersect(a, b, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * (a.size() + b.size()));
}
BENCHMARK(BM_IntersectBalanced)->Range(64, 1 << 16);

void BM_IntersectAsymmetric(benchmark::State& state) {
  // Small list vs large list: exercises the galloping path.
  const size_t large = state.range(0);
  const auto a = MakeSorted(64, 8 * large, 1);
  const auto b = MakeSorted(large, 8 * large, 2);
  std::vector<uint32_t> out;
  for (auto _ : state) {
    Intersect(a, b, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * b.size());
}
BENCHMARK(BM_IntersectAsymmetric)->Range(1 << 10, 1 << 20);

void BM_IntersectsEarlyExit(benchmark::State& state) {
  const size_t n = state.range(0);
  const auto a = MakeSorted(n, 4 * n, 5);
  auto b = a;  // guaranteed early hit
  for (auto _ : state) {
    benchmark::DoNotOptimize(Intersects(a, b));
  }
}
BENCHMARK(BM_IntersectsEarlyExit)->Range(64, 1 << 14);

}  // namespace
}  // namespace hgmatch
