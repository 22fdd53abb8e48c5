#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <vector>

#include "detect/models.h"
#include "query/aggregate.h"
#include "query/executor.h"
#include "query/output_source.h"
#include "query/query_spec.h"
#include "video/presets.h"
#include "video/scene_simulator.h"

namespace smokescreen {
namespace query {
namespace {

using video::ObjectClass;
using video::ScenePreset;

// The raw count of one frame through a single-frame FillCounts.
util::Result<int> Count(FrameOutputSource& source, int64_t frame, int resolution,
                        double contrast_scale = 1.0) {
  int out = 0;
  SMK_RETURN_IF_ERROR(source.FillCounts(std::span<const int64_t>(&frame, 1), resolution,
                                        contrast_scale, std::span<int>(&out, 1)));
  return out;
}

// Query outputs for every frame of the source's dataset.
util::Result<std::vector<double>> AllFrameOutputs(FrameOutputSource& source,
                                                  const QuerySpec& spec, int resolution) {
  std::vector<int64_t> frames(static_cast<size_t>(source.dataset().num_frames()));
  std::iota(frames.begin(), frames.end(), int64_t{0});
  OutputColumn column;
  SMK_RETURN_IF_ERROR(source.AppendOutputs(spec, frames, resolution, 1.0, column));
  return std::move(column.outputs);
}

TEST(AggregateTest, NamesRoundTrip) {
  for (auto fn : {AggregateFunction::kAvg, AggregateFunction::kSum, AggregateFunction::kCount,
                  AggregateFunction::kMax, AggregateFunction::kMin}) {
    auto parsed = AggregateFunctionFromName(AggregateFunctionName(fn));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, fn);
  }
  EXPECT_FALSE(AggregateFunctionFromName("MEDIAN").ok());
  auto lower = AggregateFunctionFromName("avg");
  ASSERT_TRUE(lower.ok());
  EXPECT_EQ(*lower, AggregateFunction::kAvg);
}

TEST(AggregateTest, FamilyClassification) {
  EXPECT_TRUE(IsMeanFamily(AggregateFunction::kAvg));
  EXPECT_TRUE(IsMeanFamily(AggregateFunction::kSum));
  EXPECT_TRUE(IsMeanFamily(AggregateFunction::kCount));
  EXPECT_FALSE(IsMeanFamily(AggregateFunction::kMax));
  EXPECT_FALSE(IsMeanFamily(AggregateFunction::kMin));
}

TEST(AggregateTest, DefaultQuantiles) {
  EXPECT_EQ(DefaultQuantileR(AggregateFunction::kMax), 0.99);
  EXPECT_EQ(DefaultQuantileR(AggregateFunction::kMin), 0.01);
  EXPECT_EQ(DefaultQuantileR(AggregateFunction::kAvg), 0.0);
}

TEST(AggregateTest, ComputeAggregateValues) {
  std::vector<double> v{1, 2, 3, 4};
  EXPECT_EQ(*ComputeAggregate(AggregateFunction::kAvg, v, 0), 2.5);
  EXPECT_EQ(*ComputeAggregate(AggregateFunction::kSum, v, 0), 10.0);
  EXPECT_EQ(*ComputeAggregate(AggregateFunction::kCount, v, 0), 10.0);
  EXPECT_EQ(*ComputeAggregate(AggregateFunction::kMax, v, 0.99), 4.0);
  EXPECT_EQ(*ComputeAggregate(AggregateFunction::kMin, v, 0.01), 1.0);
}

TEST(AggregateTest, ComputeAggregateRejectsBadInput) {
  EXPECT_FALSE(ComputeAggregate(AggregateFunction::kAvg, {}, 0).ok());
  EXPECT_FALSE(ComputeAggregate(AggregateFunction::kMax, {1.0}, 0.0).ok());
  EXPECT_FALSE(ComputeAggregate(AggregateFunction::kMax, {1.0}, 1.5).ok());
}

TEST(QuerySpecTest, TransformOutput) {
  QuerySpec avg;
  avg.aggregate = AggregateFunction::kAvg;
  EXPECT_EQ(avg.TransformOutput(5), 5.0);

  QuerySpec count;
  count.aggregate = AggregateFunction::kCount;
  count.count_threshold = 3;
  EXPECT_EQ(count.TransformOutput(2), 0.0);
  EXPECT_EQ(count.TransformOutput(3), 1.0);
  EXPECT_EQ(count.TransformOutput(10), 1.0);
}

TEST(QuerySpecTest, Validation) {
  QuerySpec spec;
  EXPECT_TRUE(spec.Validate().ok());
  spec.aggregate = AggregateFunction::kCount;
  spec.count_threshold = 0;
  EXPECT_FALSE(spec.Validate().ok());
  spec = QuerySpec{};
  spec.aggregate = AggregateFunction::kMax;
  spec.quantile_r = 1.0;
  EXPECT_FALSE(spec.Validate().ok());
  spec.quantile_r = 0.99;
  EXPECT_TRUE(spec.Validate().ok());
}

TEST(QuerySpecTest, EffectiveQuantileDefaults) {
  QuerySpec spec;
  spec.aggregate = AggregateFunction::kMax;
  EXPECT_EQ(spec.EffectiveQuantileR(), 0.99);
  spec.quantile_r = 0.95;
  EXPECT_EQ(spec.EffectiveQuantileR(), 0.95);
}

TEST(QuerySpecTest, ToString) {
  QuerySpec spec;
  spec.aggregate = AggregateFunction::kCount;
  spec.count_threshold = 2;
  EXPECT_EQ(spec.ToString(), "COUNT(car>=2)");
  spec.aggregate = AggregateFunction::kAvg;
  EXPECT_EQ(spec.ToString(), "AVG(car)");
}

class OutputSourceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto ds = video::MakePresetScaled(ScenePreset::kNightStreet, 600);
    ds.status().CheckOk();
    dataset_ = std::make_unique<video::VideoDataset>(std::move(ds).ValueOrDie());
    source_ = std::make_unique<FrameOutputSource>(*dataset_, yolo_, ObjectClass::kCar);
  }

  detect::SimYoloV4 yolo_;
  std::unique_ptr<video::VideoDataset> dataset_;
  std::unique_ptr<FrameOutputSource> source_;
};

TEST_F(OutputSourceTest, CountsInvocationsAndCacheHits) {
  ASSERT_TRUE(Count(*source_, 0, 320).ok());
  EXPECT_EQ(source_->model_invocations(), 1);
  EXPECT_EQ(source_->cache_hits(), 0);
  ASSERT_TRUE(Count(*source_, 0, 320).ok());
  EXPECT_EQ(source_->model_invocations(), 1);
  EXPECT_EQ(source_->cache_hits(), 1);
  // Different resolution misses.
  ASSERT_TRUE(Count(*source_, 0, 416).ok());
  EXPECT_EQ(source_->model_invocations(), 2);
}

TEST_F(OutputSourceTest, CachedValueMatchesDetector) {
  auto first = Count(*source_, 7, 320);
  auto direct = yolo_.CountDetections(*dataset_, 7, 320, ObjectClass::kCar, 1.0);
  auto again = Count(*source_, 7, 320);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*first, *direct);
  EXPECT_EQ(*again, *direct);
}

TEST_F(OutputSourceTest, OutputsRespectQueryTransform) {
  QuerySpec count;
  count.aggregate = AggregateFunction::kCount;
  count.count_threshold = 1;
  OutputColumn column;
  ASSERT_TRUE(source_->AppendOutputs(count, std::vector<int64_t>{0, 1, 2, 3, 4}, 608, 1.0,
                                     column).ok());
  ASSERT_EQ(column.size(), 5u);
  for (double v : column.outputs) {
    EXPECT_TRUE(v == 0.0 || v == 1.0);
  }
}

TEST_F(OutputSourceTest, AllOutputsCoversDataset) {
  QuerySpec avg;
  auto outputs = AllFrameOutputs(*source_, avg, 608);
  ASSERT_TRUE(outputs.ok());
  EXPECT_EQ(outputs->size(), static_cast<size_t>(dataset_->num_frames()));
}

TEST_F(OutputSourceTest, ContrastScaleChangesCacheKey) {
  ASSERT_TRUE(Count(*source_, 0, 320, 1.0).ok());
  ASSERT_TRUE(Count(*source_, 0, 320, 0.5).ok());
  EXPECT_EQ(source_->model_invocations(), 2);
}

TEST_F(OutputSourceTest, SkippingScanCoversDatasetAndSaves) {
  QuerySpec avg;
  query::FrameOutputSource fresh(*dataset_, yolo_, ObjectClass::kCar);
  auto scan = AllOutputsWithSkipping(fresh, avg, 608);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->outputs.size(), static_cast<size_t>(dataset_->num_frames()));
  EXPECT_GE(scan->skipped, 0);
  EXPECT_LT(scan->skipped, dataset_->num_frames());
  // The invocation count reflects the skipping.
  EXPECT_EQ(fresh.model_invocations() + scan->skipped, dataset_->num_frames());
  // Skipped outputs exactly reproduce the exact scan wherever the target
  // track set was unchanged; overall deviation must be small.
  auto exact = AllFrameOutputs(fresh, avg, 608);
  ASSERT_TRUE(exact.ok());
  double sum_exact = 0, sum_skipped = 0;
  for (size_t i = 0; i < exact->size(); ++i) {
    sum_exact += (*exact)[i];
    sum_skipped += scan->outputs[i];
  }
  if (sum_exact > 0) {
    EXPECT_LT(std::abs(sum_skipped - sum_exact) / sum_exact, 0.05);
  }
}

TEST(SkippingScanTest, EverySequenceStartsARun) {
  // With no people in the scene every frame's person track set is empty, so
  // only a sequence boundary makes the scan process a frame: it runs the
  // model on each sequence's first frame, and every other frame of the
  // sequence reuses that output.
  video::SceneConfig config = video::PresetConfig(ScenePreset::kUaDetrac);
  config.num_frames = 600;
  config.num_sequences = 6;
  config.person_rate = 0.0;
  auto ds = video::SimulateScene(config);
  ASSERT_TRUE(ds.ok());
  ASSERT_EQ(ds->GtMeanCount(ObjectClass::kPerson), 0.0);
  detect::SimYoloV4 yolo;
  FrameOutputSource source(*ds, yolo, ObjectClass::kPerson);
  QuerySpec spec;
  spec.target_class = ObjectClass::kPerson;
  auto scan = AllOutputsWithSkipping(source, spec, 608);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->skipped, 600 - 6);
  EXPECT_EQ(source.model_invocations(), 6);
  ASSERT_EQ(ds->sequences().size(), 6u);
  for (const video::SequenceInfo& seq : ds->sequences()) {
    auto first = Count(source, seq.first_frame, 608);
    ASSERT_TRUE(first.ok());
    for (int64_t f = seq.first_frame; f < seq.first_frame + seq.num_frames; ++f) {
      EXPECT_EQ(scan->outputs[static_cast<size_t>(f)], static_cast<double>(*first))
          << "frame " << f;
    }
  }
  EXPECT_EQ(source.model_invocations(), 6);
}

TEST_F(OutputSourceTest, GroundTruthMatchesManualAggregate) {
  QuerySpec avg;
  auto gt = ComputeGroundTruth(*source_, avg);
  ASSERT_TRUE(gt.ok());
  double manual = 0;
  for (double v : gt->outputs) manual += v;
  manual /= static_cast<double>(gt->outputs.size());
  EXPECT_NEAR(gt->y_true, manual, 1e-12);
  EXPECT_EQ(gt->outputs.size(), static_cast<size_t>(dataset_->num_frames()));
}

TEST_F(OutputSourceTest, GroundTruthResolutionOverride) {
  QuerySpec avg;
  auto hi = ComputeGroundTruth(*source_, avg);
  auto lo = ComputeGroundTruth(*source_, avg, 128);
  ASSERT_TRUE(hi.ok());
  ASSERT_TRUE(lo.ok());
  EXPECT_LT(lo->y_true, hi->y_true);  // Systematic undercount at 128px.
}

TEST_F(OutputSourceTest, GroundTruthMaxUsesQuantile) {
  QuerySpec max;
  max.aggregate = AggregateFunction::kMax;
  auto gt = ComputeGroundTruth(*source_, max);
  ASSERT_TRUE(gt.ok());
  // 0.99-quantile is at most the true maximum.
  double true_max = *std::max_element(gt->outputs.begin(), gt->outputs.end());
  EXPECT_LE(gt->y_true, true_max);
}

TEST(RelativeErrorTest, Basics) {
  EXPECT_NEAR(RelativeError(11.0, 10.0), 0.1, 1e-12);
  EXPECT_NEAR(RelativeError(9.0, 10.0), 0.1, 1e-12);
  EXPECT_EQ(RelativeError(0.0, 0.0), 0.0);
  EXPECT_TRUE(std::isinf(RelativeError(1.0, 0.0)));
  EXPECT_NEAR(RelativeError(-11.0, -10.0), 0.1, 1e-12);
}

TEST(RankRelativeErrorTest, MatchesHandComputation) {
  // Outputs 1..10; rank fraction of v is cumfreq(v).
  std::vector<double> outputs;
  for (int i = 1; i <= 10; ++i) outputs.push_back(i);
  // truth=9 (rank 0.9), approx=10 (rank 1.0) -> |1.0-0.9|/0.9.
  auto err = RankRelativeError(outputs, 10.0, 9.0);
  ASSERT_TRUE(err.ok());
  EXPECT_NEAR(*err, 0.1 / 0.9, 1e-9);
  // Same value -> zero error.
  auto same = RankRelativeError(outputs, 9.0, 9.0);
  ASSERT_TRUE(same.ok());
  EXPECT_EQ(*same, 0.0);
}

TEST(RankRelativeErrorTest, ApproxBetweenValuesUsesFloorRank) {
  std::vector<double> outputs{1, 2, 3, 4};
  auto err = RankRelativeError(outputs, 2.5, 2.0);
  ASSERT_TRUE(err.ok());
  EXPECT_NEAR(*err, 0.0, 1e-12);  // 2.5 floors to rank of 2.
}

}  // namespace
}  // namespace query
}  // namespace smokescreen
