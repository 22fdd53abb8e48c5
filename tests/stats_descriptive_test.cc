#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "stats/descriptive.h"
#include "stats/empirical.h"
#include "stats/histogram.h"
#include "stats/rng.h"

namespace smokescreen {
namespace stats {
namespace {

TEST(SummarizeTest, BasicStatistics) {
  auto s = Summarize({1.0, 2.0, 3.0, 4.0});
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->count, 4);
  EXPECT_NEAR(s->mean, 2.5, 1e-12);
  EXPECT_NEAR(s->variance, 5.0 / 3.0, 1e-12);  // Unbiased.
  EXPECT_NEAR(s->stddev, std::sqrt(5.0 / 3.0), 1e-12);
  EXPECT_EQ(s->min, 1.0);
  EXPECT_EQ(s->max, 4.0);
  EXPECT_EQ(s->range, 3.0);
  EXPECT_NEAR(s->sum, 10.0, 1e-12);
}

TEST(SummarizeTest, SingleValue) {
  auto s = Summarize({7.5});
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->count, 1);
  EXPECT_EQ(s->mean, 7.5);
  EXPECT_EQ(s->variance, 0.0);
  EXPECT_EQ(s->range, 0.0);
}

TEST(SummarizeTest, RejectsEmpty) { EXPECT_FALSE(Summarize({}).ok()); }

TEST(SummarizeTest, NegativeValues) {
  auto s = Summarize({-3.0, -1.0, 1.0, 3.0});
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(s->mean, 0.0, 1e-12);
  EXPECT_EQ(s->min, -3.0);
  EXPECT_EQ(s->range, 6.0);
}

TEST(WelfordTest, MatchesBatchSummary) {
  std::vector<double> values{0.3, 1.7, 2.9, -0.5, 4.4, 4.4, 0.0};
  WelfordAccumulator acc;
  for (double v : values) acc.Add(v);
  auto s = Summarize(values);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(acc.count(), s->count);
  EXPECT_NEAR(acc.mean(), s->mean, 1e-12);
  EXPECT_NEAR(acc.variance(), s->variance, 1e-12);
  EXPECT_EQ(acc.min(), s->min);
  EXPECT_EQ(acc.max(), s->max);
  EXPECT_EQ(acc.range(), s->range);
}

// Samples of the two shapes estimators see: integer detector counts (few
// distinct values, many ties) and continuous values (all distinct).
std::vector<double> RandomSample(Rng& rng, size_t size, bool integer_valued) {
  std::vector<double> values(size);
  for (double& v : values) {
    v = integer_valued ? static_cast<double>(rng.NextPoisson(3.5))
                       : 100.0 * rng.NextGaussian() + 7.0;
  }
  return values;
}

// Random cut points 0 < c_1 < ... < size: the tails a nested-prefix walk
// folds in, including one-value tails.
std::vector<size_t> RandomChunkEnds(Rng& rng, size_t size) {
  std::vector<size_t> ends;
  for (size_t end = 0; end < size;) {
    end = std::min(size, end + 1 + static_cast<size_t>(rng.NextBounded(40)));
    ends.push_back(end);
  }
  return ends;
}

TEST(WelfordTest, ChunkedFoldIsBitIdenticalToSummarize) {
  Rng rng(2024);
  for (int trial = 0; trial < 40; ++trial) {
    const std::vector<double> values = RandomSample(rng, 300, trial % 2 == 0);
    WelfordAccumulator acc;
    size_t folded = 0;
    for (size_t end : RandomChunkEnds(rng, values.size())) {
      acc.Extend(std::span<const double>(values).subspan(folded, end - folded));
      folded = end;
      auto expected = Summarize(std::span<const double>(values).first(end));
      ASSERT_TRUE(expected.ok());
      const Summary got = acc.ToSummary();
      // Exact equality on purpose: the same doubles, not merely close ones.
      EXPECT_EQ(got.count, expected->count) << "trial " << trial << " prefix " << end;
      EXPECT_EQ(got.mean, expected->mean) << "trial " << trial << " prefix " << end;
      EXPECT_EQ(got.variance, expected->variance) << "trial " << trial << " prefix " << end;
      EXPECT_EQ(got.stddev, expected->stddev) << "trial " << trial << " prefix " << end;
      EXPECT_EQ(got.min, expected->min) << "trial " << trial << " prefix " << end;
      EXPECT_EQ(got.max, expected->max) << "trial " << trial << " prefix " << end;
      EXPECT_EQ(got.range, expected->range) << "trial " << trial << " prefix " << end;
      EXPECT_EQ(got.sum, expected->sum) << "trial " << trial << " prefix " << end;
    }
  }
}

TEST(WelfordTest, EmptySnapshotIsAllZero) {
  const Summary s = WelfordAccumulator().ToSummary();
  EXPECT_EQ(s.count, 0);
  EXPECT_EQ(s.mean, 0.0);
  EXPECT_EQ(s.variance, 0.0);
  EXPECT_EQ(s.range, 0.0);
  EXPECT_EQ(s.sum, 0.0);
}

TEST(WelfordTest, VarianceZeroBelowTwoValues) {
  WelfordAccumulator acc;
  EXPECT_EQ(acc.variance(), 0.0);
  acc.Add(3.0);
  EXPECT_EQ(acc.variance(), 0.0);
}

TEST(WelfordTest, EmptyRangeIsZero) {
  WelfordAccumulator acc;
  EXPECT_EQ(acc.range(), 0.0);
}

TEST(EmpiricalTest, DistinctValuesAndFrequencies) {
  auto dist = EmpiricalDistribution::Create({2, 1, 2, 3, 1, 1});
  ASSERT_TRUE(dist.ok());
  EXPECT_EQ(dist->total_count(), 6);
  EXPECT_EQ(dist->num_distinct(), 3);
  EXPECT_EQ(dist->DistinctValue(0), 1.0);
  EXPECT_EQ(dist->DistinctValue(1), 2.0);
  EXPECT_EQ(dist->DistinctValue(2), 3.0);
  EXPECT_EQ(dist->Count(0), 3);
  EXPECT_NEAR(dist->Frequency(0), 0.5, 1e-12);
  EXPECT_NEAR(dist->Frequency(2), 1.0 / 6.0, 1e-12);
  EXPECT_NEAR(dist->CumulativeFrequency(0), 0.5, 1e-12);
  EXPECT_NEAR(dist->CumulativeFrequency(2), 1.0, 1e-12);
  EXPECT_EQ(dist->min_value(), 1.0);
  EXPECT_EQ(dist->max_value(), 3.0);
}

TEST(EmpiricalTest, ExtendedTailByTailEqualsCreateOfPrefix) {
  Rng rng(4048);
  std::vector<double> scratch;
  for (int trial = 0; trial < 40; ++trial) {
    const std::vector<double> values = RandomSample(rng, 300, trial % 2 == 0);
    EmpiricalDistribution grown;
    size_t folded = 0;
    for (size_t end : RandomChunkEnds(rng, values.size())) {
      grown.Extend(std::span<const double>(values).subspan(folded, end - folded), scratch);
      folded = end;
      auto expected = EmpiricalDistribution::Create(std::span<const double>(values).first(end));
      ASSERT_TRUE(expected.ok());
      ASSERT_EQ(grown.total_count(), expected->total_count());
      ASSERT_EQ(grown.num_distinct(), expected->num_distinct())
          << "trial " << trial << " prefix " << end;
      for (int64_t i = 0; i < expected->num_distinct(); ++i) {
        EXPECT_EQ(grown.DistinctValue(i), expected->DistinctValue(i)) << "trial " << trial;
        EXPECT_EQ(grown.Count(i), expected->Count(i)) << "trial " << trial;
        EXPECT_EQ(grown.CumulativeFrequency(i), expected->CumulativeFrequency(i))
            << "trial " << trial;
      }
    }
  }
}

TEST(EmpiricalTest, ExtendMergesNewValuesBetweenAndAroundOldOnes) {
  std::vector<double> scratch;
  EmpiricalDistribution dist;
  EXPECT_EQ(dist.total_count(), 0);
  EXPECT_EQ(dist.num_distinct(), 0);
  dist.Extend(std::vector<double>{5, 3, 5}, scratch);
  dist.Extend(std::vector<double>{}, scratch);  // No-op.
  dist.Extend(std::vector<double>{9, 1, 4, 5, 1}, scratch);
  ASSERT_EQ(dist.total_count(), 8);
  ASSERT_EQ(dist.num_distinct(), 5);
  const double expected_values[] = {1, 3, 4, 5, 9};
  const int64_t expected_counts[] = {2, 1, 1, 3, 1};
  for (int64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(dist.DistinctValue(i), expected_values[i]);
    EXPECT_EQ(dist.Count(i), expected_counts[i]);
  }
  EXPECT_EQ(dist.CumulativeFrequency(4), 1.0);
  EXPECT_EQ(dist.Quantile(0.5), 4.0);
}

TEST(EmpiricalTest, RejectsEmpty) { EXPECT_FALSE(EmpiricalDistribution::Create({}).ok()); }

TEST(EmpiricalTest, QuantileMatchesPaperDefinition) {
  // Values 1..10 each once: r-quantile = min{s_i : cumfreq >= r}.
  std::vector<double> values;
  for (int i = 1; i <= 10; ++i) values.push_back(i);
  auto dist = EmpiricalDistribution::Create(values);
  ASSERT_TRUE(dist.ok());
  EXPECT_EQ(dist->Quantile(0.1), 1.0);
  EXPECT_EQ(dist->Quantile(0.11), 2.0);
  EXPECT_EQ(dist->Quantile(0.5), 5.0);
  EXPECT_EQ(dist->Quantile(0.99), 10.0);
  EXPECT_EQ(dist->Quantile(1.0), 10.0);
}

TEST(EmpiricalTest, QuantileWithDuplicates) {
  auto dist = EmpiricalDistribution::Create({0, 0, 0, 0, 5, 5, 9, 9, 9, 9});
  ASSERT_TRUE(dist.ok());
  EXPECT_EQ(dist->Quantile(0.4), 0.0);
  EXPECT_EQ(dist->Quantile(0.41), 5.0);
  EXPECT_EQ(dist->Quantile(0.6), 5.0);
  EXPECT_EQ(dist->Quantile(0.61), 9.0);
}

TEST(EmpiricalTest, IndexOfValueFloor) {
  auto dist = EmpiricalDistribution::Create({10, 20, 30});
  ASSERT_TRUE(dist.ok());
  EXPECT_EQ(dist->IndexOfValueFloor(5), -1);
  EXPECT_EQ(dist->IndexOfValueFloor(10), 0);
  EXPECT_EQ(dist->IndexOfValueFloor(15), 0);
  EXPECT_EQ(dist->IndexOfValueFloor(30), 2);
  EXPECT_EQ(dist->IndexOfValueFloor(99), 2);
}

TEST(EmpiricalTest, RankFraction) {
  auto dist = EmpiricalDistribution::Create({1, 1, 2, 3});
  ASSERT_TRUE(dist.ok());
  EXPECT_EQ(dist->RankFraction(0.5), 0.0);
  EXPECT_NEAR(dist->RankFraction(1.0), 0.5, 1e-12);
  EXPECT_NEAR(dist->RankFraction(2.5), 0.75, 1e-12);
  EXPECT_NEAR(dist->RankFraction(3.0), 1.0, 1e-12);
}

TEST(EmpiricalTest, FrequencyOfValue) {
  auto dist = EmpiricalDistribution::Create({1, 1, 2});
  ASSERT_TRUE(dist.ok());
  EXPECT_NEAR(dist->FrequencyOfValue(1.0), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(dist->FrequencyOfValue(2.0), 1.0 / 3.0, 1e-12);
  EXPECT_EQ(dist->FrequencyOfValue(1.5), 0.0);
}

TEST(EmpiricalTest, MinMaxFrequencyInRange) {
  auto dist = EmpiricalDistribution::Create({1, 1, 1, 2, 3, 3});
  ASSERT_TRUE(dist.ok());
  auto min_f = dist->MinFrequencyInRange(0, 2);
  ASSERT_TRUE(min_f.ok());
  EXPECT_NEAR(*min_f, 1.0 / 6.0, 1e-12);
  auto max_f = dist->MaxFrequencyInRange(0, 2);
  ASSERT_TRUE(max_f.ok());
  EXPECT_NEAR(*max_f, 0.5, 1e-12);
  EXPECT_FALSE(dist->MinFrequencyInRange(2, 1).ok());
  EXPECT_FALSE(dist->MaxFrequencyInRange(0, 3).ok());
}

TEST(HistogramTest, CountsAndFrequencies) {
  IntHistogram h;
  h.Add(0);
  h.Add(1, 3);
  h.Add(5);
  EXPECT_EQ(h.total(), 5);
  EXPECT_EQ(h.CountFor(1), 3);
  EXPECT_EQ(h.CountFor(2), 0);
  EXPECT_NEAR(h.FrequencyFor(1), 0.6, 1e-12);
  EXPECT_EQ(h.min_key(), 0);
  EXPECT_EQ(h.max_key(), 5);
}

TEST(HistogramTest, DenseCounts) {
  IntHistogram h;
  h.Add(2);
  h.Add(4, 2);
  std::vector<int64_t> dense = h.DenseCounts();
  ASSERT_EQ(dense.size(), 3u);  // Keys 2..4.
  EXPECT_EQ(dense[0], 1);
  EXPECT_EQ(dense[1], 0);
  EXPECT_EQ(dense[2], 2);
}

TEST(HistogramTest, EmptyHistogram) {
  IntHistogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.total(), 0);
  EXPECT_TRUE(h.DenseCounts().empty());
  EXPECT_EQ(h.FrequencyFor(0), 0.0);
}

TEST(HistogramTest, TotalVariationDistance) {
  IntHistogram a, b;
  a.Add(0, 5);
  a.Add(1, 5);
  b.Add(0, 5);
  b.Add(1, 5);
  EXPECT_NEAR(a.TotalVariationDistance(b), 0.0, 1e-12);

  IntHistogram c;
  c.Add(2, 10);  // Disjoint support.
  EXPECT_NEAR(a.TotalVariationDistance(c), 1.0, 1e-12);

  IntHistogram d;
  d.Add(0, 10);
  EXPECT_NEAR(a.TotalVariationDistance(d), 0.5, 1e-12);
  // Symmetry.
  EXPECT_NEAR(d.TotalVariationDistance(a), a.TotalVariationDistance(d), 1e-12);
}

}  // namespace
}  // namespace stats
}  // namespace smokescreen
