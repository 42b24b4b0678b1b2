#include "util/set_ops.h"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace hgmatch {
namespace {

using V = std::vector<uint32_t>;

TEST(SetOpsTest, IntersectBasics) {
  V out;
  Intersect({1, 3, 5, 7}, {3, 4, 5, 6}, &out);
  EXPECT_EQ(out, (V{3, 5}));
  Intersect({}, {1, 2}, &out);
  EXPECT_TRUE(out.empty());
  Intersect({1, 2}, {}, &out);
  EXPECT_TRUE(out.empty());
  Intersect({1, 2, 3}, {1, 2, 3}, &out);
  EXPECT_EQ(out, (V{1, 2, 3}));
  Intersect({1, 2}, {3, 4}, &out);
  EXPECT_TRUE(out.empty());
}

TEST(SetOpsTest, IntersectGallopPathMatchesMerge) {
  // Force the galloping path with a very asymmetric pair.
  V small = {5, 500, 5000, 49999};
  V large;
  for (uint32_t i = 0; i < 50000; ++i) large.push_back(i);
  V out;
  Intersect(small, large, &out);
  EXPECT_EQ(out, small);
  // And the reversed argument order.
  Intersect(large, small, &out);
  EXPECT_EQ(out, small);
}

TEST(SetOpsTest, IntersectSize) {
  EXPECT_EQ(IntersectSize({1, 2, 3}, {2, 3, 4}), 2u);
  EXPECT_EQ(IntersectSize({}, {1}), 0u);
}

TEST(SetOpsTest, Predicates) {
  EXPECT_TRUE(Contains({1, 5, 9}, 5));
  EXPECT_FALSE(Contains({1, 5, 9}, 4));
  EXPECT_TRUE(Intersects({1, 9}, {9, 10}));
  EXPECT_FALSE(Intersects({1, 9}, {2, 10}));
}

TEST(SetOpsTest, InsertSortedAndSortUnique) {
  V a = {2, 6};
  InsertSorted(&a, 4);
  InsertSorted(&a, 4);
  InsertSorted(&a, 1);
  InsertSorted(&a, 9);
  EXPECT_EQ(a, (V{1, 2, 4, 6, 9}));
  V b = {5, 1, 5, 3, 1};
  SortUnique(&b);
  EXPECT_EQ(b, (V{1, 3, 5}));
}

// Property sweep: all ops agree with std::set algebra on random inputs of
// varying density.
class SetOpsPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SetOpsPropertyTest, MatchesStdSet) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 50; ++iter) {
    const uint32_t universe = 1 + rng.NextBounded(200);
    auto sample = [&](size_t n) {
      std::set<uint32_t> s;
      for (size_t i = 0; i < n; ++i) s.insert(rng.NextBounded(universe));
      return V(s.begin(), s.end());
    };
    const V a = sample(rng.NextBounded(100));
    const V b = sample(rng.NextBounded(100));

    std::set<uint32_t> sa(a.begin(), a.end()), sb(b.begin(), b.end());
    V expect_i;
    std::set_intersection(sa.begin(), sa.end(), sb.begin(), sb.end(),
                          std::back_inserter(expect_i));

    V out;
    Intersect(a, b, &out);
    EXPECT_EQ(out, expect_i);
    EXPECT_EQ(IntersectSize(a, b), expect_i.size());
    EXPECT_EQ(Intersects(a, b), !expect_i.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SetOpsPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace hgmatch
