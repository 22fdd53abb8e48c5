#include "core/repair.h"

#include <gtest/gtest.h>

#include <cmath>

#include "core/estimator_api.h"
#include "detect/models.h"
#include "query/executor.h"
#include "stats/empirical.h"
#include "video/presets.h"

namespace smokescreen {
namespace core {
namespace {

using video::ObjectClass;
using video::ScenePreset;

class RepairTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto ds = video::MakePresetScaled(ScenePreset::kUaDetrac, 2000);
    ds.status().CheckOk();
    dataset_ = std::make_unique<video::VideoDataset>(std::move(ds).ValueOrDie());
    auto prior = detect::ClassPriorIndex::Build(*dataset_, yolo_, mtcnn_);
    prior.status().CheckOk();
    prior_ = std::make_unique<detect::ClassPriorIndex>(std::move(prior).ValueOrDie());
    source_ = std::make_unique<query::FrameOutputSource>(*dataset_, yolo_, ObjectClass::kCar);
  }

  query::QuerySpec AvgSpec() {
    query::QuerySpec spec;
    spec.aggregate = query::AggregateFunction::kAvg;
    return spec;
  }

  query::QuerySpec MaxSpec() {
    query::QuerySpec spec;
    spec.aggregate = query::AggregateFunction::kMax;
    return spec;
  }

  detect::SimYoloV4 yolo_;
  detect::SimMtcnn mtcnn_;
  std::unique_ptr<video::VideoDataset> dataset_;
  std::unique_ptr<detect::ClassPriorIndex> prior_;
  std::unique_ptr<query::FrameOutputSource> source_;
};

TEST_F(RepairTest, BuildCorrectionSetBasics) {
  stats::Rng rng(1);
  auto correction = BuildCorrectionSet(*source_, AvgSpec(), 100, 0.05, rng);
  ASSERT_TRUE(correction.ok());
  EXPECT_EQ(correction->size, 100);
  EXPECT_EQ(correction->population, dataset_->num_frames());
  EXPECT_EQ(correction->outputs.size(), 100u);
  EXPECT_GT(correction->estimate.y_approx, 0.0);
  EXPECT_GT(correction->estimate.err_b, 0.0);
}

TEST_F(RepairTest, BuildCorrectionSetRejectsBadSize) {
  stats::Rng rng(2);
  EXPECT_FALSE(BuildCorrectionSet(*source_, AvgSpec(), 0, 0.05, rng).ok());
  EXPECT_FALSE(
      BuildCorrectionSet(*source_, AvgSpec(), dataset_->num_frames() + 1, 0.05, rng).ok());
}

TEST_F(RepairTest, MeanRepairMatchesEquationTwelve) {
  stats::Rng rng(3);
  auto correction = BuildCorrectionSet(*source_, AvgSpec(), 200, 0.05, rng);
  ASSERT_TRUE(correction.ok());

  EstimationResult degraded;
  degraded.estimate.y_approx = 4.0;
  double y_v = correction->estimate.y_approx;
  double err_v = correction->estimate.err_b;
  auto repaired = RepairErrorBound(AvgSpec(), degraded, *correction);
  ASSERT_TRUE(repaired.ok());
  double expected = (1.0 + err_v) * std::abs(4.0 - y_v) / std::abs(y_v) + err_v;
  EXPECT_NEAR(*repaired, expected, 1e-12);
}

TEST_F(RepairTest, MeanRepairDegenerateCorrectionIsInfinite) {
  CorrectionSet correction;
  correction.outputs = {0.0, 0.0};
  correction.estimate = {0.0, 1.0};
  correction.size = 2;
  correction.population = 100;
  EstimationResult degraded;
  degraded.estimate.y_approx = 1.0;
  auto repaired = RepairErrorBound(AvgSpec(), degraded, correction);
  ASSERT_TRUE(repaired.ok());
  EXPECT_TRUE(std::isinf(*repaired));
}

TEST_F(RepairTest, QuantileRepairMatchesEquationThirteen) {
  stats::Rng rng(4);
  auto correction = BuildCorrectionSet(*source_, MaxSpec(), 300, 0.05, rng);
  ASSERT_TRUE(correction.ok());

  EstimationResult degraded;
  degraded.estimate.y_approx = correction->estimate.y_approx - 2.0;  // Biased low.
  auto repaired = RepairErrorBound(MaxSpec(), degraded, *correction);
  ASSERT_TRUE(repaired.ok());

  auto dist = stats::EmpiricalDistribution::Create(correction->outputs);
  ASSERT_TRUE(dist.ok());
  double rank_deg = dist->RankFraction(degraded.estimate.y_approx);
  double rank_v = dist->RankFraction(correction->estimate.y_approx);
  double expected = std::abs(rank_deg - rank_v) / 0.99 + correction->estimate.err_b;
  EXPECT_NEAR(*repaired, expected, 1e-12);
}

TEST_F(RepairTest, RepairedBoundCoversTruthUnderResolutionBias) {
  // The headline behaviour (Figure 6): at a low resolution the basic bound
  // goes invalid, the repaired bound stays valid.
  query::QuerySpec spec = AvgSpec();
  auto gt = query::ComputeGroundTruth(*source_, spec);
  ASSERT_TRUE(gt.ok());

  degrade::InterventionSet iv;
  iv.sample_fraction = 0.5;
  iv.resolution = 128;  // Heavy systematic undercount.

  stats::Rng rng(5);
  int uncorrected_valid = 0;
  int corrected_valid = 0;
  const int kTrials = 20;
  for (int t = 0; t < kTrials; ++t) {
    auto result = ResultErrorEst(*source_, *prior_, spec, iv, 0.05, rng);
    ASSERT_TRUE(result.ok());
    double true_err = query::RelativeError(result->estimate.y_approx, gt->y_true);
    if (result->estimate.err_b >= true_err) ++uncorrected_valid;

    auto correction = BuildCorrectionSet(*source_, spec, 150, 0.05, rng);
    ASSERT_TRUE(correction.ok());
    auto repaired = RepairErrorBound(spec, *result, *correction);
    ASSERT_TRUE(repaired.ok());
    if (*repaired >= true_err) ++corrected_valid;
  }
  // The basic bound should be systematically wrong here...
  EXPECT_LT(uncorrected_valid, kTrials / 2);
  // ...while the repaired bound stays an upper bound.
  EXPECT_GE(corrected_valid, kTrials - 1);
}

TEST_F(RepairTest, SizingStopsAtPlateauOrCap) {
  stats::Rng rng(6);
  auto sizing = DetermineCorrectionSetSize(*source_, AvgSpec(), 0.05, rng, 0.5, 0.02);
  ASSERT_TRUE(sizing.ok());
  EXPECT_GT(sizing->chosen_size, 0);
  EXPECT_LE(sizing->chosen_fraction, 0.5 + 1e-9);
  EXPECT_FALSE(sizing->curve.empty());
  // Steps are 1% of the population.
  int64_t step = dataset_->num_frames() / 100;
  EXPECT_EQ(sizing->chosen_size % step, 0);
  // If it stopped before the cap, the last two errors differ by < tolerance.
  if (sizing->chosen_fraction < 0.5 - 0.011) {
    ASSERT_GE(sizing->curve.size(), 2u);
    double last = sizing->curve.back().second;
    double prev = sizing->curve[sizing->curve.size() - 2].second;
    EXPECT_LT(std::abs(prev - last), 0.02);
  }
}

TEST_F(RepairTest, SizingRespectsTightCap) {
  stats::Rng rng(7);
  auto sizing = DetermineCorrectionSetSize(*source_, AvgSpec(), 0.05, rng, 0.02, 1e-9);
  ASSERT_TRUE(sizing.ok());
  EXPECT_LE(sizing->chosen_fraction, 0.021);
}

TEST_F(RepairTest, SizingCurveIsBroadlyDecreasing) {
  stats::Rng rng(8);
  auto sizing = DetermineCorrectionSetSize(*source_, AvgSpec(), 0.05, rng, 0.3, 1e-9);
  ASSERT_TRUE(sizing.ok());
  ASSERT_GE(sizing->curve.size(), 3u);
  EXPECT_LT(sizing->curve.back().second, sizing->curve.front().second);
}

TEST_F(RepairTest, SizingRejectsBadCap) {
  stats::Rng rng(9);
  EXPECT_FALSE(DetermineCorrectionSetSize(*source_, AvgSpec(), 0.05, rng, 0.0).ok());
  EXPECT_FALSE(DetermineCorrectionSetSize(*source_, AvgSpec(), 0.05, rng, 1.5).ok());
}

TEST_F(RepairTest, SizingRejectsZeroFrameVideoBeforeDrawing) {
  // The sizing step is at least one frame; on an empty video it must not
  // read a one-frame prefix of an empty permutation.
  video::VideoDataset empty("empty", 99, 608, 30.0, {}, {});
  query::FrameOutputSource source(empty, yolo_, ObjectClass::kCar);
  stats::Rng rng(10);
  stats::Rng untouched = rng;
  auto sizing = DetermineCorrectionSetSize(source, AvgSpec(), 0.05, rng);
  EXPECT_EQ(sizing.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_EQ(rng.NextUint64(), untouched.NextUint64());
  EXPECT_EQ(source.model_invocations(), 0);
}

}  // namespace
}  // namespace core
}  // namespace smokescreen
