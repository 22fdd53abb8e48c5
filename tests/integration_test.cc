// End-to-end integration tests: the full administrator workflow of the paper
// — profile generation over a candidate grid, choosing a tradeoff against a
// public preference, and running the degraded query — on both dataset
// presets and both detection models.

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "core/candidate_design.h"
#include "core/estimator_api.h"
#include "core/profiler.h"
#include "core/tradeoff.h"
#include "detect/models.h"
#include "query/aggregate.h"
#include "query/executor.h"
#include "video/presets.h"

namespace smokescreen {
namespace {

using core::Profile;
using core::Profiler;
using core::ProfilerOptions;
using degrade::InterventionSet;
using video::ObjectClass;
using video::ScenePreset;

struct Workload {
  ScenePreset preset;
  bool use_maskrcnn;
  query::AggregateFunction aggregate;
};

// Names each case by its fields; gtest would otherwise print the struct's
// raw bytes, padding included, which differ from one build to the next.
void PrintTo(const Workload& wl, std::ostream* os) {
  *os << video::ScenePresetName(wl.preset) << (wl.use_maskrcnn ? " maskrcnn " : " yolov4 ")
      << query::AggregateFunctionName(wl.aggregate);
}

class EndToEndTest : public ::testing::TestWithParam<Workload> {};

TEST_P(EndToEndTest, ProfileChooseExecute) {
  const Workload wl = GetParam();
  auto ds = video::MakePresetScaled(wl.preset, 1200);
  ASSERT_TRUE(ds.ok());
  std::unique_ptr<detect::Detector> model =
      wl.use_maskrcnn ? detect::MakeSimMaskRcnn() : detect::MakeSimYoloV4();
  detect::SimYoloV4 person_detector;
  detect::SimMtcnn face_detector;
  auto prior = detect::ClassPriorIndex::Build(*ds, person_detector, face_detector);
  ASSERT_TRUE(prior.ok());

  query::QuerySpec spec;
  spec.aggregate = wl.aggregate;
  query::FrameOutputSource source(*ds, *model, ObjectClass::kCar);

  // 1. Ground truth (for validation only; the system never uses it).
  auto gt = query::ComputeGroundTruth(source, spec);
  ASSERT_TRUE(gt.ok());

  // 2. Profile generation over a small candidate grid.
  core::CandidateGridOptions grid_opts;
  grid_opts.min_fraction = 0.1;
  grid_opts.max_fraction = 0.5;
  grid_opts.fraction_step = 0.2;
  grid_opts.num_resolutions = 3;
  grid_opts.include_class_combinations = false;
  auto grid = core::BuildCandidateGrid(*model, grid_opts);
  ASSERT_TRUE(grid.ok());

  ProfilerOptions opts;
  opts.use_correction_set = true;
  opts.correction_set_size = 120;
  opts.early_stop = false;
  Profiler profiler(source, *prior, spec, opts);
  stats::Rng rng(99);
  auto profile = profiler.Generate(*grid, rng);
  ASSERT_TRUE(profile.ok());
  EXPECT_FALSE(profile->points.empty());

  // 3. Administrator chooses a tradeoff: error at most 60% (loose enough to
  // always exist on these small grids).
  auto choice = core::ChooseTradeoff(*profile, 0.60, model->max_resolution());
  if (!choice.ok()) GTEST_SKIP() << "no candidate met the loose threshold";

  // 4. Execute the degraded query; realized error must respect the bound.
  auto result = core::ResultErrorEst(source, *prior, spec, choice->interventions, 0.05, rng);
  ASSERT_TRUE(result.ok());
  double realized;
  if (query::IsMeanFamily(spec.aggregate)) {
    realized = query::RelativeError(result->estimate.y_approx, gt->y_true);
  } else {
    auto rank_err = query::RankRelativeError(gt->outputs, result->estimate.y_approx, gt->y_true);
    ASSERT_TRUE(rank_err.ok());
    realized = *rank_err;
  }
  // The profile's bound held with >= 95% probability at profile time; the
  // fresh run re-samples, so allow the repaired bound's slack factor.
  EXPECT_LT(realized, std::max(0.9, 3.0 * choice->err_bound))
      << "realized error wildly exceeds the chosen bound";
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, EndToEndTest,
    ::testing::Values(Workload{ScenePreset::kNightStreet, true, query::AggregateFunction::kAvg},
                      Workload{ScenePreset::kNightStreet, false, query::AggregateFunction::kMax},
                      Workload{ScenePreset::kUaDetrac, false, query::AggregateFunction::kAvg},
                      Workload{ScenePreset::kUaDetrac, false, query::AggregateFunction::kSum},
                      Workload{ScenePreset::kUaDetrac, false, query::AggregateFunction::kCount},
                      Workload{ScenePreset::kUaDetrac, false, query::AggregateFunction::kMax}));

TEST(IntegrationTest, SumAndCountScaleWithPopulation) {
  auto ds = video::MakePresetScaled(ScenePreset::kUaDetrac, 1000);
  ASSERT_TRUE(ds.ok());
  detect::SimYoloV4 yolo;
  detect::SimMtcnn mtcnn;
  auto prior = detect::ClassPriorIndex::Build(*ds, yolo, mtcnn);
  ASSERT_TRUE(prior.ok());
  query::FrameOutputSource source(*ds, yolo, ObjectClass::kCar);

  query::QuerySpec avg_spec;
  avg_spec.aggregate = query::AggregateFunction::kAvg;
  query::QuerySpec sum_spec;
  sum_spec.aggregate = query::AggregateFunction::kSum;

  InterventionSet iv;
  iv.sample_fraction = 0.3;
  stats::Rng rng_a(5), rng_b(5);
  auto avg = core::ResultErrorEst(source, *prior, avg_spec, iv, 0.05, rng_a);
  auto sum = core::ResultErrorEst(source, *prior, sum_spec, iv, 0.05, rng_b);
  ASSERT_TRUE(avg.ok());
  ASSERT_TRUE(sum.ok());
  // Same frames sampled (same seed): SUM = AVG * N, same bound.
  EXPECT_NEAR(sum->estimate.y_approx, avg->estimate.y_approx * 1000.0, 1e-6);
  EXPECT_NEAR(sum->estimate.err_b, avg->estimate.err_b, 1e-12);
}

TEST(IntegrationTest, CountQueryEstimatesQualifyingFrames) {
  auto ds = video::MakePresetScaled(ScenePreset::kUaDetrac, 1000);
  ASSERT_TRUE(ds.ok());
  detect::SimYoloV4 yolo;
  detect::SimMtcnn mtcnn;
  auto prior = detect::ClassPriorIndex::Build(*ds, yolo, mtcnn);
  ASSERT_TRUE(prior.ok());
  query::FrameOutputSource source(*ds, yolo, ObjectClass::kCar);

  query::QuerySpec spec;
  spec.aggregate = query::AggregateFunction::kCount;
  spec.count_threshold = 5;  // Frames with at least 5 cars.
  auto gt = query::ComputeGroundTruth(source, spec);
  ASSERT_TRUE(gt.ok());
  ASSERT_GT(gt->y_true, 0.0);
  ASSERT_LT(gt->y_true, 1000.0);

  InterventionSet iv;
  iv.sample_fraction = 0.4;
  stats::Rng rng(6);
  auto result = core::ResultErrorEst(source, *prior, spec, iv, 0.05, rng);
  ASSERT_TRUE(result.ok());
  double realized = query::RelativeError(result->estimate.y_approx, gt->y_true);
  EXPECT_LE(realized, result->estimate.err_b + 0.05);
}

TEST(IntegrationTest, ImageRemovalBiasIsRepaired) {
  // Removing "person" frames on DETRAC biases car counts (person and car
  // presence are correlated); the repaired bound must cover the truth.
  auto ds = video::MakePresetScaled(ScenePreset::kUaDetrac, 1500);
  ASSERT_TRUE(ds.ok());
  detect::SimYoloV4 yolo;
  detect::SimMtcnn mtcnn;
  auto prior = detect::ClassPriorIndex::Build(*ds, yolo, mtcnn);
  ASSERT_TRUE(prior.ok());
  query::FrameOutputSource source(*ds, yolo, ObjectClass::kCar);

  query::QuerySpec spec;
  spec.aggregate = query::AggregateFunction::kAvg;
  auto gt = query::ComputeGroundTruth(source, spec);
  ASSERT_TRUE(gt.ok());

  InterventionSet iv;
  iv.sample_fraction = 0.1;
  iv.restricted.Add(ObjectClass::kPerson);

  stats::Rng rng(7);
  int covered = 0;
  const int kTrials = 15;
  for (int t = 0; t < kTrials; ++t) {
    auto result = core::ResultErrorEst(source, *prior, spec, iv, 0.05, rng);
    ASSERT_TRUE(result.ok());
    auto correction = core::BuildCorrectionSet(source, spec, 120, 0.05, rng);
    ASSERT_TRUE(correction.ok());
    auto repaired = core::RepairErrorBound(spec, *result, *correction);
    ASSERT_TRUE(repaired.ok());
    double true_err = query::RelativeError(result->estimate.y_approx, gt->y_true);
    if (true_err <= *repaired) ++covered;
  }
  EXPECT_GE(covered, kTrials - 1);
}

TEST(IntegrationTest, ProfileTransfersBetweenSimilarVideos) {
  // §5.3.2 in miniature: video B's profile approximates video A's.
  auto a = video::MakePreset(ScenePreset::kMvi40771);
  auto b = video::MakePreset(ScenePreset::kMvi40775);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  detect::SimYoloV4 yolo;
  detect::SimMtcnn mtcnn;
  auto prior_a = detect::ClassPriorIndex::Build(*a, yolo, mtcnn);
  auto prior_b = detect::ClassPriorIndex::Build(*b, yolo, mtcnn);
  ASSERT_TRUE(prior_a.ok());
  ASSERT_TRUE(prior_b.ok());

  query::QuerySpec spec;
  spec.aggregate = query::AggregateFunction::kAvg;
  query::FrameOutputSource source_a(*a, yolo, ObjectClass::kCar);
  query::FrameOutputSource source_b(*b, yolo, ObjectClass::kCar);

  // Same absolute sample SIZE on both videos (the paper's Figure 10 x-axis).
  const int64_t kSampleSize = 500;
  InterventionSet iv_a, iv_b;
  iv_a.sample_fraction = static_cast<double>(kSampleSize) / static_cast<double>(a->num_frames());
  iv_b.sample_fraction = static_cast<double>(kSampleSize) / static_cast<double>(b->num_frames());

  stats::Rng rng(8);
  auto est_a = core::ResultErrorEst(source_a, *prior_a, spec, iv_a, 0.05, rng);
  auto est_b = core::ResultErrorEst(source_b, *prior_b, spec, iv_b, 0.05, rng);
  ASSERT_TRUE(est_a.ok());
  ASSERT_TRUE(est_b.ok());
  // Bounds computed on the similar video track the original's closely.
  EXPECT_LT(std::abs(est_a->estimate.err_b - est_b->estimate.err_b), 0.06);
}

}  // namespace
}  // namespace smokescreen
