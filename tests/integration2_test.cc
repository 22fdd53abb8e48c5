// Second integration suite: cross-module workflows added after the core
// pipeline — interpolation over generated profiles, store-driven estimation,
// admin session over real profiles, threshold adjustment, CLI-style parsing
// into execution.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <numeric>

#include "core/admin_session.h"
#include "core/candidate_design.h"
#include "core/estimator_api.h"
#include "core/avg_estimator.h"
#include "core/profile_io.h"
#include "core/profiler.h"
#include "core/tradeoff.h"
#include "detect/models.h"
#include "query/executor.h"
#include "query/output_store.h"
#include "query/parser.h"
#include "stats/sampling.h"
#include "util/env.h"
#include "video/presets.h"

namespace smokescreen {
namespace {

using video::ObjectClass;
using video::ScenePreset;

class WorkflowTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto ds = video::MakePresetScaled(ScenePreset::kUaDetrac, 1500);
    ds.status().CheckOk();
    dataset_ = std::make_unique<video::VideoDataset>(std::move(ds).ValueOrDie());
    auto prior = detect::ClassPriorIndex::Build(*dataset_, yolo_, mtcnn_);
    prior.status().CheckOk();
    prior_ = std::make_unique<detect::ClassPriorIndex>(std::move(prior).ValueOrDie());
    source_ = std::make_unique<query::FrameOutputSource>(*dataset_, yolo_, ObjectClass::kCar);
  }

  core::Profile GenerateProfile(bool correction = false) {
    query::QuerySpec spec;
    core::CandidateGridOptions grid_opts;
    grid_opts.min_fraction = 0.1;
    grid_opts.max_fraction = 0.5;
    grid_opts.fraction_step = 0.1;
    grid_opts.num_resolutions = 2;
    grid_opts.include_class_combinations = false;
    auto grid = core::BuildCandidateGrid(yolo_, grid_opts);
    grid.status().CheckOk();
    core::ProfilerOptions opts;
    opts.use_correction_set = correction;
    opts.correction_set_size = correction ? 100 : 0;
    opts.early_stop = false;
    core::Profiler profiler(*source_, *prior_, spec, opts);
    stats::Rng rng(77);
    auto profile = profiler.Generate(*grid, rng);
    profile.status().CheckOk();
    return *profile;
  }

  detect::SimYoloV4 yolo_;
  detect::SimMtcnn mtcnn_;
  std::unique_ptr<video::VideoDataset> dataset_;
  std::unique_ptr<detect::ClassPriorIndex> prior_;
  std::unique_ptr<query::FrameOutputSource> source_;
};

TEST_F(WorkflowTest, InterpolationBracketsNeighbouringBounds) {
  core::Profile profile = GenerateProfile();
  // Take two adjacent profiled fractions at full resolution and interpolate
  // their midpoint (fractions come from the generated candidates, avoiding
  // floating-point drift in repeated-addition grids).
  std::vector<const core::ProfilePoint*> group;
  for (const core::ProfilePoint& p : profile.points) {
    if (p.interventions.resolution == 608 && p.interventions.restricted.empty()) {
      group.push_back(&p);
    }
  }
  std::sort(group.begin(), group.end(),
            [](const core::ProfilePoint* a, const core::ProfilePoint* b) {
              return a->interventions.sample_fraction < b->interventions.sample_fraction;
            });
  ASSERT_GE(group.size(), 2u);
  const core::ProfilePoint* p_lo = group[0];
  const core::ProfilePoint* p_hi = group[1];

  degrade::InterventionSet target;
  target.resolution = 608;
  target.sample_fraction =
      (p_lo->interventions.sample_fraction + p_hi->interventions.sample_fraction) / 2.0;
  auto interpolated = core::InterpolateBound(profile, target);
  ASSERT_TRUE(interpolated.ok());
  double lower = std::min(p_lo->err_bound, p_hi->err_bound);
  double upper = std::max(p_lo->err_bound, p_hi->err_bound);
  EXPECT_GE(*interpolated, lower - 1e-12);
  EXPECT_LE(*interpolated, upper + 1e-12);
  EXPECT_NEAR(*interpolated, (p_lo->err_bound + p_hi->err_bound) / 2.0, 1e-9);
}

TEST_F(WorkflowTest, AdminSessionWorksOnGeneratedProfiles) {
  core::Profile profile = GenerateProfile();
  core::AdminSession session(core::MakeProfileHandle(std::move(profile)),
                             yolo_.max_resolution());
  EXPECT_NEAR(session.LoosestFraction(), 0.5, 1e-9);
  auto slices = session.InitialSlices();
  ASSERT_EQ(slices.size(), 3u);
  EXPECT_EQ(slices[0].points.size(), 5u);  // Five fraction candidates.
  auto plot = session.RenderSlice(slices[0]);
  ASSERT_TRUE(plot.ok());
  EXPECT_GT(plot->size(), 200u);
}

TEST_F(WorkflowTest, ProfileSurvivesPersistenceIntoAdminSession) {
  core::Profile profile = GenerateProfile();
  std::string path = testing::TempDir() + "/smk_workflow_profile.csv";
  ASSERT_TRUE(core::SaveProfile(profile, path).ok());
  auto loaded = core::LoadProfile(path);
  ASSERT_TRUE(loaded.ok());

  // Both should fine-tune to the same choice.
  core::AdminSession live(core::MakeProfileHandle(std::move(profile)), 608);
  core::AdminSession revived(core::MakeProfileHandle(std::move(*loaded)), 608);
  auto choice_live = live.FineTune(0.5);
  auto choice_revived = revived.FineTune(0.5);
  if (choice_live.ok()) {
    ASSERT_TRUE(choice_revived.ok());
    EXPECT_EQ(choice_live->interventions.ToString(),
              choice_revived->interventions.ToString());
  } else {
    EXPECT_FALSE(choice_revived.ok());
  }
  std::remove(path.c_str());
}

TEST_F(WorkflowTest, TraceDrivenEstimationMatchesLive) {
  // Memoize every frame at 320px and persist the memo: export, serialize,
  // load the bytes back and preload them into a fresh source. Estimating
  // from the stored outputs must match a live estimation over the same
  // sampled frames, and the stored source must never invoke the model.
  std::vector<int64_t> all(static_cast<size_t>(dataset_->num_frames()));
  std::iota(all.begin(), all.end(), int64_t{0});
  std::vector<int> recorded(all.size());
  ASSERT_TRUE(source_->FillCounts(all, 320, 1.0, recorded).ok());
  auto bytes = source_->ExportStore().Serialize();
  ASSERT_TRUE(bytes.ok());
  const std::string path = testing::TempDir() + "/smk_workflow_store.smkc";
  ASSERT_TRUE(util::Env::Default().WriteFileAtomic(path, *bytes).ok());
  auto stored = query::OutputStore::Load(path);
  ASSERT_TRUE(stored.ok());
  query::FrameOutputSource replay(*dataset_, yolo_, ObjectClass::kCar);
  auto loaded = replay.Preload(*stored);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, dataset_->num_frames());
  query::QuerySpec spec;
  query::OutputColumn stored_outputs;
  ASSERT_TRUE(replay.AppendOutputs(spec, all, 320, 1.0, stored_outputs).ok());
  EXPECT_EQ(replay.model_invocations(), 0);
  std::remove(path.c_str());

  stats::Rng rng(5);
  auto idx = stats::SampleWithoutReplacement(dataset_->num_frames(), 200, rng);
  ASSERT_TRUE(idx.ok());
  std::vector<int> live(idx->size());
  ASSERT_TRUE(source_->FillCounts(*idx, 320, 1.0, live).ok());
  std::vector<double> trace_sample, live_sample;
  for (size_t k = 0; k < idx->size(); ++k) {
    trace_sample.push_back(stored_outputs.outputs[static_cast<size_t>((*idx)[k])]);
    live_sample.push_back(spec.TransformOutput(live[k]));
  }
  EXPECT_EQ(trace_sample, live_sample);

  core::SmokescreenMeanEstimator est;
  auto from_trace = est.EstimateMean(trace_sample, dataset_->num_frames(), 0.05);
  auto from_live = est.EstimateMean(live_sample, dataset_->num_frames(), 0.05);
  ASSERT_TRUE(from_trace.ok());
  ASSERT_TRUE(from_live.ok());
  EXPECT_EQ(from_trace->err_b, from_live->err_b);
}

TEST_F(WorkflowTest, ParsedQueryDrivesEstimation) {
  auto parsed = query::ParseQuery("SELECT COUNT(car >= 5) FROM ua-detrac USING yolov4");
  ASSERT_TRUE(parsed.ok());
  degrade::InterventionSet iv;
  iv.sample_fraction = 0.3;
  stats::Rng rng(6);
  auto result = core::ResultErrorEst(*source_, *prior_, parsed->spec, iv, 0.05, rng);
  ASSERT_TRUE(result.ok());
  auto gt = query::ComputeGroundTruth(*source_, parsed->spec);
  ASSERT_TRUE(gt.ok());
  double realized = query::RelativeError(result->estimate.y_approx, gt->y_true);
  EXPECT_LE(realized, result->estimate.err_b + 0.05);
}

TEST(ThresholdAdjustmentTest, FormulaAndGuards) {
  // 10% total budget, 4% model error: degradation budget ~ 5.77%.
  auto budget = core::AdjustThresholdForModelAccuracy(0.10, 0.04);
  ASSERT_TRUE(budget.ok());
  EXPECT_NEAR(*budget, 1.10 / 1.04 - 1.0, 1e-12);
  // Perfect model: the whole budget remains.
  auto perfect = core::AdjustThresholdForModelAccuracy(0.10, 0.0);
  ASSERT_TRUE(perfect.ok());
  EXPECT_NEAR(*perfect, 0.10, 1e-12);
  // Model worse than the budget: impossible.
  EXPECT_EQ(core::AdjustThresholdForModelAccuracy(0.05, 0.10).status().code(),
            util::StatusCode::kFailedPrecondition);
  EXPECT_FALSE(core::AdjustThresholdForModelAccuracy(0.0, 0.05).ok());
  EXPECT_FALSE(core::AdjustThresholdForModelAccuracy(0.1, -0.05).ok());
}

}  // namespace
}  // namespace smokescreen
