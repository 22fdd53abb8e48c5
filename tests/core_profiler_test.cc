#include "core/profiler.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "core/candidate_design.h"
#include "core/tradeoff.h"
#include "detect/models.h"
#include "util/thread_pool.h"
#include "video/presets.h"

namespace smokescreen {
namespace core {
namespace {

using degrade::InterventionSet;
using video::ClassSet;
using video::ObjectClass;
using video::ScenePreset;

TEST(CandidateDesignTest, FractionCandidatesAtOnePercentSteps) {
  CandidateGridOptions opts;
  std::vector<double> fractions = FractionCandidates(opts);
  ASSERT_EQ(fractions.size(), 100u);
  EXPECT_NEAR(fractions.front(), 0.01, 1e-9);
  EXPECT_NEAR(fractions.back(), 1.0, 1e-9);
  EXPECT_NEAR(fractions[1] - fractions[0], 0.01, 1e-9);
}

TEST(CandidateDesignTest, FractionFilterApplies) {
  CandidateGridOptions opts;
  opts.max_allowed_fraction = 0.10;
  std::vector<double> fractions = FractionCandidates(opts);
  EXPECT_EQ(fractions.size(), 10u);
  EXPECT_LE(fractions.back(), 0.10 + 1e-9);
}

TEST(CandidateDesignTest, TenUniformResolutionsRespectStride) {
  detect::SimYoloV4 yolo;
  auto resolutions = ResolutionCandidates(yolo, 10);
  ASSERT_TRUE(resolutions.ok());
  EXPECT_EQ(resolutions->size(), 10u);
  EXPECT_EQ(resolutions->back(), 608);
  for (int r : *resolutions) {
    EXPECT_EQ(r % 32, 0);
    EXPECT_GE(r, 32);
    EXPECT_LE(r, 608);
  }
  EXPECT_TRUE(std::is_sorted(resolutions->begin(), resolutions->end()));
}

TEST(CandidateDesignTest, MaskRcnnResolutionsAreMultiplesOf64) {
  detect::SimMaskRcnn mask;
  auto resolutions = ResolutionCandidates(mask, 10);
  ASSERT_TRUE(resolutions.ok());
  for (int r : *resolutions) EXPECT_EQ(r % 64, 0);
  EXPECT_EQ(resolutions->back(), 640);
}

TEST(CandidateDesignTest, RestrictedClassCombinations) {
  auto sets = RestrictedClassCandidates();
  ASSERT_EQ(sets.size(), 4u);  // none, person, face, person+face.
  EXPECT_TRUE(sets[0].empty());
  // The order sets the grid's and so every profile's point order.
  EXPECT_EQ(sets[1], ClassSet({ObjectClass::kPerson}));
  EXPECT_EQ(sets[2], ClassSet({ObjectClass::kFace}));
  EXPECT_EQ(sets[3], ClassSet({ObjectClass::kPerson, ObjectClass::kFace}));
  for (const ClassSet& set : sets) {
    InterventionSet iv;
    iv.restricted = set;
    EXPECT_TRUE(iv.Validate().ok()) << set.ToString();
  }
}

TEST(CandidateDesignTest, GridIsCartesianProduct) {
  detect::SimYoloV4 yolo;
  CandidateGridOptions opts;
  opts.max_fraction = 0.05;  // 5 fractions.
  opts.num_resolutions = 3;
  auto grid = BuildCandidateGrid(yolo, opts);
  ASSERT_TRUE(grid.ok());
  auto resolutions = ResolutionCandidates(yolo, 3);
  ASSERT_TRUE(resolutions.ok());
  EXPECT_EQ(grid->size(), 5u * resolutions->size() * 4u);
}

TEST(CandidateDesignTest, RequiredRestrictedFilter) {
  detect::SimYoloV4 yolo;
  CandidateGridOptions opts;
  opts.max_fraction = 0.02;
  opts.num_resolutions = 2;
  opts.required_restricted = ClassSet({ObjectClass::kPerson});
  auto grid = BuildCandidateGrid(yolo, opts);
  ASSERT_TRUE(grid.ok());
  for (const InterventionSet& iv : *grid) {
    EXPECT_TRUE(iv.restricted.Contains(ObjectClass::kPerson));
  }
}

TEST(CandidateDesignTest, ResolutionCapFilter) {
  detect::SimYoloV4 yolo;
  CandidateGridOptions opts;
  opts.max_fraction = 0.02;
  opts.max_allowed_resolution = 256;
  auto grid = BuildCandidateGrid(yolo, opts);
  ASSERT_TRUE(grid.ok());
  for (const InterventionSet& iv : *grid) {
    EXPECT_LE(iv.resolution, 256);
  }
}

TEST(CandidateDesignTest, OverconstrainedFiltersFail) {
  detect::SimYoloV4 yolo;
  CandidateGridOptions opts;
  opts.max_allowed_resolution = 16;  // Below the stride: nothing survives.
  EXPECT_FALSE(BuildCandidateGrid(yolo, opts).ok());
}

class ProfilerTest : public ::testing::Test {
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

  query::QuerySpec AvgSpec() {
    query::QuerySpec spec;
    spec.aggregate = query::AggregateFunction::kAvg;
    return spec;
  }

  detect::SimYoloV4 yolo_;
  detect::SimMtcnn mtcnn_;
  std::unique_ptr<video::VideoDataset> dataset_;
  std::unique_ptr<detect::ClassPriorIndex> prior_;
  std::unique_ptr<query::FrameOutputSource> source_;
};

TEST_F(ProfilerTest, GeneratesPointPerCandidateWithoutEarlyStop) {
  ProfilerOptions opts;
  opts.use_correction_set = false;
  opts.early_stop = false;
  Profiler profiler(*source_, *prior_, AvgSpec(), opts);

  std::vector<InterventionSet> candidates;
  for (double f : {0.05, 0.1, 0.2}) {
    for (int p : {320, 608}) {
      InterventionSet iv;
      iv.sample_fraction = f;
      iv.resolution = p;
      candidates.push_back(iv);
    }
  }
  stats::Rng rng(1);
  auto profile = profiler.Generate(candidates, rng);
  ASSERT_TRUE(profile.ok());
  EXPECT_EQ(profile->points.size(), candidates.size());
  for (const InterventionSet& iv : candidates) {
    EXPECT_NE(profile->Find(iv), nullptr) << iv.ToString();
  }
}

TEST_F(ProfilerTest, EarlyStopSkipsHighFractions) {
  ProfilerOptions opts;
  opts.use_correction_set = false;
  opts.early_stop = true;
  opts.early_stop_tolerance = 10.0;  // Aggressive: stop after second point.
  Profiler profiler(*source_, *prior_, AvgSpec(), opts);

  std::vector<InterventionSet> candidates;
  for (double f : {0.05, 0.1, 0.2, 0.4}) {
    InterventionSet iv;
    iv.sample_fraction = f;
    iv.resolution = 608;
    candidates.push_back(iv);
  }
  stats::Rng rng(2);
  auto profile = profiler.Generate(candidates, rng);
  ASSERT_TRUE(profile.ok());
  EXPECT_LT(profile->points.size(), candidates.size());
}

TEST_F(ProfilerTest, NonRandomPointsAreRepaired) {
  ProfilerOptions opts;
  opts.use_correction_set = true;
  opts.correction_set_size = 80;
  opts.early_stop = false;
  Profiler profiler(*source_, *prior_, AvgSpec(), opts);

  InterventionSet low_res;
  low_res.sample_fraction = 0.3;
  low_res.resolution = 128;
  InterventionSet random_only;
  random_only.sample_fraction = 0.3;
  random_only.resolution = 608;  // Model max: no resolution degradation.

  stats::Rng rng(3);
  auto profile = profiler.Generate({low_res, random_only}, rng);
  ASSERT_TRUE(profile.ok());
  const ProfilePoint* repaired = profile->Find(low_res);
  ASSERT_NE(repaired, nullptr);
  EXPECT_TRUE(repaired->repaired);
  ASSERT_TRUE(profiler.correction_set().has_value());
  EXPECT_EQ(profiler.correction_set()->size, 80);

  // Purely random point keeps the tighter of both bounds.
  const ProfilePoint* random_pt = profile->Find(random_only);
  ASSERT_NE(random_pt, nullptr);
  EXPECT_LE(random_pt->err_bound, random_pt->err_uncorrected + 1e-12);
}

TEST_F(ProfilerTest, ReuseMakesNestedSamples) {
  // With candidates at ascending fractions in one group, the model should be
  // invoked only for the largest fraction's worth of frames (plus truth).
  ProfilerOptions opts;
  opts.use_correction_set = false;
  opts.early_stop = false;
  Profiler profiler(*source_, *prior_, AvgSpec(), opts);

  std::vector<InterventionSet> candidates;
  for (double f : {0.1, 0.2, 0.3}) {
    InterventionSet iv;
    iv.sample_fraction = f;
    iv.resolution = 320;
    candidates.push_back(iv);
  }
  const int64_t invocations_before = source_->model_invocations();
  const int64_t hits_before = source_->cache_hits();
  stats::Rng rng(4);
  auto profile = profiler.Generate(candidates, rng);
  ASSERT_TRUE(profile.ok());
  // Invocations: only the union of nested prefixes = 0.3 * 1500 = 450.
  EXPECT_EQ(source_->model_invocations() - invocations_before, 450);
  // Reuse is structural now: each fraction extends the group's shared output
  // column instead of re-requesting its whole prefix, so the smaller
  // prefixes are served without even probing the cache.
  EXPECT_EQ(source_->cache_hits() - hits_before, 0);
}

TEST_F(ProfilerTest, RejectsEmptyCandidates) {
  ProfilerOptions opts;
  Profiler profiler(*source_, *prior_, AvgSpec(), opts);
  stats::Rng rng(5);
  EXPECT_FALSE(profiler.Generate({}, rng).ok());
}

TEST_F(ProfilerTest, RejectsCarRestriction) {
  // The prior records person and face only, so a car-restricted candidate
  // is an invalid grid, not a candidate that removes nothing.
  ProfilerOptions opts;
  opts.use_correction_set = false;
  Profiler profiler(*source_, *prior_, AvgSpec(), opts);
  InterventionSet valid;
  valid.sample_fraction = 0.1;
  InterventionSet car = valid;
  car.restricted.Add(ObjectClass::kCar);
  stats::Rng rng(6);
  auto profile = profiler.Generate({valid, car}, rng);
  EXPECT_EQ(profile.status().code(), util::StatusCode::kInvalidArgument);
}

TEST_F(ProfilerTest, SlicesSelectMatchingPoints) {
  ProfilerOptions opts;
  opts.use_correction_set = false;
  opts.early_stop = false;
  Profiler profiler(*source_, *prior_, AvgSpec(), opts);

  std::vector<InterventionSet> candidates;
  for (double f : {0.1, 0.2}) {
    for (int p : {320, 608}) {
      for (const ClassSet& c : {ClassSet::None(), ClassSet({ObjectClass::kFace})}) {
        InterventionSet iv;
        iv.sample_fraction = f;
        iv.resolution = p;
        iv.restricted = c;
        candidates.push_back(iv);
      }
    }
  }
  stats::Rng rng(6);
  auto profile = profiler.Generate(candidates, rng);
  ASSERT_TRUE(profile.ok());

  auto by_fraction = SliceByFraction(*profile, 320, ClassSet::None());
  EXPECT_EQ(by_fraction.size(), 2u);
  EXPECT_LT(by_fraction.front().interventions.sample_fraction,
            by_fraction.back().interventions.sample_fraction);

  auto by_resolution = SliceByResolution(*profile, 0.1, ClassSet::None());
  EXPECT_EQ(by_resolution.size(), 2u);
  EXPECT_LT(by_resolution.front().interventions.resolution,
            by_resolution.back().interventions.resolution);

  auto by_restricted = SliceByRestricted(*profile, 0.1, 320);
  EXPECT_EQ(by_restricted.size(), 2u);
}

TEST_F(ProfilerTest, ChooseTradeoffPicksMostDegraded) {
  Profile profile;
  profile.spec = AvgSpec();
  auto add_point = [&](double f, int p, double err) {
    ProfilePoint point;
    point.interventions.sample_fraction = f;
    point.interventions.resolution = p;
    point.err_bound = err;
    profile.points.push_back(point);
  };
  add_point(0.5, 608, 0.02);
  add_point(0.1, 608, 0.08);
  add_point(0.05, 608, 0.3);
  add_point(0.1, 320, 0.09);

  auto choice = ChooseTradeoff(profile, 0.10, 608);
  ASSERT_TRUE(choice.ok());
  // (0.1, 320) has higher degradation score than (0.1, 608); 0.05 violates.
  EXPECT_EQ(choice->interventions.resolution, 320);
  EXPECT_NEAR(choice->interventions.sample_fraction, 0.1, 1e-12);
}

TEST_F(ProfilerTest, ChooseTradeoffFailsWhenNothingMeetsThreshold) {
  Profile profile;
  ProfilePoint point;
  point.err_bound = 0.9;
  profile.points.push_back(point);
  EXPECT_FALSE(ChooseTradeoff(profile, 0.1, 608).ok());
  EXPECT_FALSE(ChooseTradeoff(profile, -0.1, 608).ok());
}

// FNV-1a over the bytes of every field of every point, in profile order.
uint64_t ProfileDigest(const Profile& profile) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  auto add = [&hash](const auto& value) {
    unsigned char bytes[sizeof(value)];
    std::memcpy(bytes, &value, sizeof(value));
    for (unsigned char b : bytes) hash = (hash ^ b) * 0x100000001b3ULL;
  };
  for (const ProfilePoint& p : profile.points) {
    add(p.interventions.sample_fraction);
    add(p.interventions.resolution);
    add(p.interventions.restricted.mask());
    add(p.interventions.contrast_scale);
    add(p.err_bound);
    add(p.err_uncorrected);
    add(p.y_approx);
    add(p.repaired);
    add(p.sample_size);
  }
  return hash;
}

TEST(PinnedProfileTest, PaperScaleUaDetracProfilesArePinned) {
  // The full 15,210-frame UA-DETRAC corpus on the 200-candidate grid of the
  // profile-request benchmark, with the automatically sized correction set
  // and no early stop. Any change that moves a sampled frame, an estimate,
  // a bound or the model-invocation bill moves these constants.
  auto ds = video::MakePreset(ScenePreset::kUaDetrac);
  ASSERT_TRUE(ds.ok());
  ASSERT_EQ(ds->num_frames(), 15210);
  detect::SimYoloV4 yolo;
  detect::SimMtcnn mtcnn;
  auto prior = detect::ClassPriorIndex::Build(*ds, yolo, mtcnn);
  ASSERT_TRUE(prior.ok());
  CandidateGridOptions grid_options;
  grid_options.min_fraction = 0.05;
  grid_options.max_fraction = 0.50;
  grid_options.fraction_step = 0.05;
  grid_options.num_resolutions = 5;
  auto grid = BuildCandidateGrid(yolo, grid_options);
  ASSERT_TRUE(grid.ok());
  ASSERT_EQ(grid->size(), 200u);

  struct Pinned {
    query::AggregateFunction aggregate;
    uint64_t digest;
    int64_t model_invocations;
  };
  const Pinned kPinned[] = {
      {query::AggregateFunction::kAvg, 0x1f18068d6404f57bULL, 63560},
      {query::AggregateFunction::kMax, 0xdca16418dbc6beacULL, 63367},
  };
  // The profiler walks its groups on its source's 2-wide pool.
  util::ThreadPool pool(2);
  for (const Pinned& pinned : kPinned) {
    query::QuerySpec spec;
    spec.aggregate = pinned.aggregate;
    SCOPED_TRACE(spec.ToString());
    query::FrameOutputSource source(*ds, yolo, ObjectClass::kCar);
    source.set_thread_pool(&pool);
    ProfilerOptions options;
    options.use_correction_set = true;
    options.early_stop = false;
    Profiler profiler(source, *prior, spec, options);
    stats::Rng rng(1);
    auto profile = profiler.Generate(*grid, rng);
    ASSERT_TRUE(profile.ok());
    ASSERT_EQ(profile->points.size(), 200u);
    EXPECT_EQ(ProfileDigest(*profile), pinned.digest);
    EXPECT_EQ(profiler.last_report().model_invocations, pinned.model_invocations);
    EXPECT_EQ(profiler.last_report().num_threads, 2);
  }
}

TEST(TradeoffHelpersTest, MinimalKnobMeetingThreshold) {
  std::vector<std::pair<double, double>> sweep{{0.05, 0.4}, {0.1, 0.12}, {0.2, 0.06}, {0.5, 0.02}};
  auto knob = MinimalKnobMeetingThreshold(sweep, 0.1);
  ASSERT_TRUE(knob.ok());
  EXPECT_EQ(*knob, 0.2);
  EXPECT_FALSE(MinimalKnobMeetingThreshold(sweep, 0.01).ok());
}

TEST(TradeoffHelpersTest, TradeoffExcessAgainstOracle) {
  // Oracle (true error) lets f=0.1 through; the method's bound needs f=0.2.
  std::vector<std::pair<double, double>> bound{{0.1, 0.2}, {0.2, 0.08}, {0.5, 0.02}};
  std::vector<std::pair<double, double>> truth{{0.1, 0.05}, {0.2, 0.03}, {0.5, 0.01}};
  auto excess = TradeoffExcess(bound, truth, 0.1);
  ASSERT_TRUE(excess.ok());
  EXPECT_NEAR(*excess, (0.2 - 0.1) / 0.1, 1e-12);
}

}  // namespace
}  // namespace core
}  // namespace smokescreen
