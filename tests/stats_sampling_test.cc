#include "stats/sampling.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

namespace smokescreen {
namespace stats {
namespace {

// The sparse partial Fisher–Yates that SampleWithoutReplacement used before
// its dense pool: the same draws, j = i + NextBounded(population - i), with
// the displaced slots kept in a hash map. Kept here as the reference for the
// draw order every profile depends on.
std::vector<int64_t> SparseReferenceSample(int64_t population, int64_t n, Rng& rng) {
  std::vector<int64_t> out;
  out.reserve(static_cast<size_t>(n));
  std::unordered_map<int64_t, int64_t> swapped;
  swapped.reserve(static_cast<size_t>(n) * 2);
  for (int64_t i = 0; i < n; ++i) {
    int64_t j = i + static_cast<int64_t>(rng.NextBounded(static_cast<uint64_t>(population - i)));
    auto it_j = swapped.find(j);
    int64_t value_j = it_j == swapped.end() ? j : it_j->second;
    auto it_i = swapped.find(i);
    int64_t value_i = it_i == swapped.end() ? i : it_i->second;
    swapped[j] = value_i;
    out.push_back(value_j);
  }
  return out;
}

// FNV-1a over the little-endian bytes of each value, in order.
uint64_t Fnv1a(const std::vector<int64_t>& values) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (int64_t value : values) {
    const auto word = static_cast<uint64_t>(value);
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (word >> (8 * byte)) & 0xff;
      hash *= 0x100000001b3ULL;
    }
  }
  return hash;
}

TEST(SampleWithoutReplacementTest, MatchesSparseReferenceDrawForDraw) {
  for (int64_t population : {1, 2, 63, 64, 65, 15210, 200000}) {
    for (int64_t n : {int64_t{0}, int64_t{1}, population / 100, population / 2, population - 1,
                      population}) {
      SCOPED_TRACE("population " + std::to_string(population) + ", n " + std::to_string(n));
      Rng rng(static_cast<uint64_t>(population * 7 + n));
      Rng reference_rng = rng;
      auto result = SampleWithoutReplacement(population, n, rng);
      ASSERT_TRUE(result.ok());
      EXPECT_EQ(*result, SparseReferenceSample(population, n, reference_rng));
      // Same number of draws: the caller's stream continues identically.
      EXPECT_EQ(rng.NextUint64(), reference_rng.NextUint64());
    }
  }
}

TEST(SampleWithoutReplacementTest, FullPermutationOfOneMillionIsPinned) {
  // Frozen from the sparse implementation, so the contract does not rest
  // only on a reference that lives beside the code it checks.
  Rng rng(1);
  auto result = SampleWithoutReplacement(1'000'000, 1'000'000, rng);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 1'000'000u);
  EXPECT_EQ(Fnv1a(*result), 0xcfc50c9ac9610f51ULL);
}

TEST(SampleWithoutReplacementTest, ResultHoldsOnlyTheSample) {
  Rng rng(13);
  auto result = SampleWithoutReplacement(1'000'000, 30, rng);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 30u);
  EXPECT_EQ(result->capacity(), 30u);
}

TEST(SampleWithoutReplacementTest, ProducesDistinctIndicesInRange) {
  Rng rng(1);
  auto result = SampleWithoutReplacement(100, 30, rng);
  ASSERT_TRUE(result.ok());
  std::set<int64_t> seen(result->begin(), result->end());
  EXPECT_EQ(seen.size(), 30u);
  EXPECT_GE(*seen.begin(), 0);
  EXPECT_LT(*seen.rbegin(), 100);
}

TEST(SampleWithoutReplacementTest, FullPopulationIsPermutation) {
  Rng rng(2);
  auto result = SampleWithoutReplacement(50, 50, rng);
  ASSERT_TRUE(result.ok());
  std::vector<int64_t> sorted = *result;
  std::sort(sorted.begin(), sorted.end());
  for (int64_t i = 0; i < 50; ++i) EXPECT_EQ(sorted[static_cast<size_t>(i)], i);
}

TEST(SampleWithoutReplacementTest, ZeroSample) {
  Rng rng(3);
  auto result = SampleWithoutReplacement(10, 0, rng);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->empty());
}

TEST(SampleWithoutReplacementTest, RejectsOversample) {
  Rng rng(4);
  EXPECT_FALSE(SampleWithoutReplacement(5, 6, rng).ok());
}

TEST(SampleWithoutReplacementTest, RejectsNegative) {
  Rng rng(5);
  EXPECT_FALSE(SampleWithoutReplacement(-1, 0, rng).ok());
  EXPECT_FALSE(SampleWithoutReplacement(5, -1, rng).ok());
}

TEST(SampleWithoutReplacementTest, MarginalInclusionIsUniform) {
  // Each index should be included with probability n/N.
  const int64_t kPop = 20, kSample = 5;
  const int kTrials = 20000;
  std::vector<int> inclusion(kPop, 0);
  Rng rng(6);
  for (int t = 0; t < kTrials; ++t) {
    auto result = SampleWithoutReplacement(kPop, kSample, rng);
    ASSERT_TRUE(result.ok());
    for (int64_t idx : *result) ++inclusion[static_cast<size_t>(idx)];
  }
  double expected = static_cast<double>(kSample) / kPop;
  for (int64_t i = 0; i < kPop; ++i) {
    EXPECT_NEAR(static_cast<double>(inclusion[static_cast<size_t>(i)]) / kTrials, expected, 0.02)
        << "index " << i;
  }
}

TEST(SampleWithoutReplacementTest, FirstDrawIsUniform) {
  // The draw-order property: position 0 of the result is uniform over [0,N).
  const int64_t kPop = 10;
  const int kTrials = 50000;
  std::vector<int> first(kPop, 0);
  Rng rng(7);
  for (int t = 0; t < kTrials; ++t) {
    auto result = SampleWithoutReplacement(kPop, 3, rng);
    ASSERT_TRUE(result.ok());
    ++first[static_cast<size_t>((*result)[0])];
  }
  for (int64_t i = 0; i < kPop; ++i) {
    EXPECT_NEAR(static_cast<double>(first[static_cast<size_t>(i)]) / kTrials, 0.1, 0.01);
  }
}

TEST(FractionToCountTest, RoundsAndClamps) {
  EXPECT_EQ(FractionToCount(1000, 0.1), 100);
  EXPECT_EQ(FractionToCount(1000, 1.0), 1000);
  EXPECT_EQ(FractionToCount(1000, 2.0), 1000);
  EXPECT_EQ(FractionToCount(1000, 0.0), 0);
  EXPECT_EQ(FractionToCount(1000, -0.5), 0);
  EXPECT_EQ(FractionToCount(0, 0.5), 0);
}

TEST(FractionToCountTest, AtLeastOneForPositiveFraction) {
  EXPECT_EQ(FractionToCount(1000, 0.0001), 1);
  EXPECT_EQ(FractionToCount(3, 0.001), 1);
}

TEST(ShuffleTest, PreservesElements) {
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> original = v;
  Rng rng(11);
  Shuffle(v, rng);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(ShuffleTest, PositionDistributionIsUniform) {
  const int kTrials = 30000;
  std::vector<int> at_zero(4, 0);
  Rng rng(12);
  for (int t = 0; t < kTrials; ++t) {
    std::vector<int> v{0, 1, 2, 3};
    Shuffle(v, rng);
    ++at_zero[static_cast<size_t>(v[0])];
  }
  for (int i = 0; i < 4; ++i) {
    EXPECT_NEAR(static_cast<double>(at_zero[static_cast<size_t>(i)]) / kTrials, 0.25, 0.015);
  }
}

}  // namespace
}  // namespace stats
}  // namespace smokescreen
