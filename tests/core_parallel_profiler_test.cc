// Parallel profile generation: Generate() walks its hypercube groups on the
// thread pool of the source it reads, and must produce BIT-IDENTICAL
// profiles at every pool width and without a pool. Per-group RNG streams
// (seeded from the profile seed + the hypercube group key) make each group's
// sample sequence independent of scheduling, and points are appended in
// canonical group order after the walk.

#include "core/profiler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <tuple>
#include <vector>

#include "core/candidate_design.h"
#include "core/estimator_api.h"
#include "detect/models.h"
#include "query/output_store.h"
#include "stats/sampling.h"
#include "util/metrics.h"
#include "util/thread_pool.h"
#include "video/presets.h"

namespace smokescreen {
namespace core {
namespace {

using degrade::InterventionSet;
using video::ClassSet;
using video::ObjectClass;
using video::ScenePreset;

void ExpectBitIdentical(const std::vector<ProfilePoint>& a, const std::vector<ProfilePoint>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    const ProfilePoint& pa = a[i];
    const ProfilePoint& pb = b[i];
    EXPECT_TRUE(pa.interventions == pb.interventions) << "point " << i;
    // Exact equality on purpose: determinism means the same doubles, not
    // merely close ones.
    EXPECT_EQ(pa.err_bound, pb.err_bound) << "point " << i;
    EXPECT_EQ(pa.err_uncorrected, pb.err_uncorrected) << "point " << i;
    EXPECT_EQ(pa.y_approx, pb.y_approx) << "point " << i;
    EXPECT_EQ(pa.repaired, pb.repaired) << "point " << i;
    EXPECT_EQ(pa.sample_size, pb.sample_size) << "point " << i;
  }
}

void ExpectBitIdentical(const Profile& a, const Profile& b) {
  ExpectBitIdentical(a.points, b.points);
}

class ParallelProfilerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto ds = video::MakePresetScaled(ScenePreset::kUaDetrac, 1200);
    ds.status().CheckOk();
    dataset_ = std::make_unique<video::VideoDataset>(std::move(ds).ValueOrDie());
    auto prior = detect::ClassPriorIndex::Build(*dataset_, yolo_, mtcnn_);
    prior.status().CheckOk();
    prior_ = std::make_unique<detect::ClassPriorIndex>(std::move(prior).ValueOrDie());
  }

  query::QuerySpec AvgSpec() {
    query::QuerySpec spec;
    spec.aggregate = query::AggregateFunction::kAvg;
    return spec;
  }

  // Multi-group candidate grid: 3 resolutions x 2 restricted sets x
  // 3 fractions = 6 hypercube groups of 3 nested fractions each.
  std::vector<InterventionSet> MultiGroupCandidates() {
    std::vector<InterventionSet> candidates;
    for (double f : {0.05, 0.1, 0.2}) {
      for (int p : {160, 320, 608}) {
        for (const ClassSet& c : {ClassSet::None(), ClassSet({ObjectClass::kFace})}) {
          InterventionSet iv;
          iv.sample_fraction = f;
          iv.resolution = p;
          iv.restricted = c;
          candidates.push_back(iv);
        }
      }
    }
    return candidates;
  }

  // Like RunGenerate, but with an explicit max batch size and an optional
  // warm-start OutputStore; can also export the run's cache snapshot and
  // report the run's model-invocation count.
  util::Result<Profile> RunGenerateBatched(int num_threads, uint64_t seed, int64_t batch_size,
                                           const query::OutputStore* warm,
                                           query::OutputStore* exported = nullptr,
                                           int64_t* invocations = nullptr) {
    util::ThreadPool pool(num_threads);
    query::FrameOutputSource source(*dataset_, yolo_, ObjectClass::kCar);
    source.set_thread_pool(&pool);
    source.set_max_batch_size(batch_size);
    if (warm != nullptr) source.Preload(*warm).status().CheckOk();
    ProfilerOptions opts;
    opts.use_correction_set = false;
    opts.early_stop = false;
    Profiler profiler(source, *prior_, AvgSpec(), opts);
    stats::Rng rng(seed);
    auto profile = profiler.Generate(MultiGroupCandidates(), rng);
    if (exported != nullptr) *exported = source.ExportStore();
    if (invocations != nullptr) *invocations = source.model_invocations();
    return profile;
  }

  // Fresh source per run so cache state never leaks between thread counts.
  // The source carries a pool of `num_threads` workers (0 = hardware
  // concurrency), which the profiler walks its groups on.
  util::Result<Profile> RunGenerate(int num_threads, uint64_t seed, bool correction) {
    util::ThreadPool pool(num_threads);
    query::FrameOutputSource source(*dataset_, yolo_, ObjectClass::kCar);
    source.set_thread_pool(&pool);
    ProfilerOptions opts;
    opts.use_correction_set = correction;
    if (correction) opts.correction_set_size = 60;
    opts.early_stop = false;
    Profiler profiler(source, *prior_, AvgSpec(), opts);
    stats::Rng rng(seed);
    auto profile = profiler.Generate(MultiGroupCandidates(), rng);
    last_report_ = profiler.last_report();
    return profile;
  }

  detect::SimYoloV4 yolo_;
  detect::SimMtcnn mtcnn_;
  std::unique_ptr<video::VideoDataset> dataset_;
  std::unique_ptr<detect::ClassPriorIndex> prior_;
  ProfilerReport last_report_;
};

TEST_F(ParallelProfilerTest, OneVsEightThreadsBitIdentical) {
  auto serial = RunGenerate(1, 77, /*correction=*/false);
  ASSERT_TRUE(serial.ok());
  auto parallel = RunGenerate(8, 77, /*correction=*/false);
  ASSERT_TRUE(parallel.ok());
  ExpectBitIdentical(*serial, *parallel);
}

TEST_F(ParallelProfilerTest, OddThreadCountAlsoBitIdentical) {
  auto serial = RunGenerate(1, 78, /*correction=*/false);
  ASSERT_TRUE(serial.ok());
  auto parallel = RunGenerate(3, 78, /*correction=*/false);
  ASSERT_TRUE(parallel.ok());
  ExpectBitIdentical(*serial, *parallel);
}

TEST_F(ParallelProfilerTest, BitIdenticalWithCorrectionSetAndRepair) {
  // Correction phase runs sequentially on the caller's RNG before the pool;
  // repair must also be scheduling-independent.
  auto serial = RunGenerate(1, 79, /*correction=*/true);
  ASSERT_TRUE(serial.ok());
  auto parallel = RunGenerate(8, 79, /*correction=*/true);
  ASSERT_TRUE(parallel.ok());
  ExpectBitIdentical(*serial, *parallel);
  bool any_repaired = false;
  for (const ProfilePoint& point : parallel->points) any_repaired |= point.repaired;
  EXPECT_TRUE(any_repaired) << "repair path not exercised";
}

TEST_F(ParallelProfilerTest, PointOrderIsCanonicalNotSchedulingOrder) {
  auto profile = RunGenerate(8, 80, /*correction=*/false);
  ASSERT_TRUE(profile.ok());
  // Within one profile, groups appear in canonical (map) order and fractions
  // ascend within each group, so the full point list is deterministic. Check
  // the within-group fraction monotonicity directly.
  for (size_t i = 1; i < profile->points.size(); ++i) {
    const InterventionSet& prev = profile->points[i - 1].interventions;
    const InterventionSet& cur = profile->points[i].interventions;
    if (prev.resolution == cur.resolution && prev.restricted == cur.restricted) {
      EXPECT_LT(prev.sample_fraction, cur.sample_fraction) << "point " << i;
    }
  }
}

TEST_F(ParallelProfilerTest, ReportAccountsForRun) {
  auto profile = RunGenerate(4, 81, /*correction=*/false);
  ASSERT_TRUE(profile.ok());
  EXPECT_EQ(last_report_.num_threads, 4);
  EXPECT_EQ(last_report_.num_groups, 6);  // 3 resolutions x 2 restricted sets.
  EXPECT_GT(last_report_.model_invocations, 0);
  EXPECT_GE(last_report_.total_seconds, last_report_.groups_seconds);
}

TEST_F(ParallelProfilerTest, BatchedProfileBitIdenticalAtEveryBatchSize) {
  // The batch-size knob shapes cost, never results: profiles generated at
  // batch sizes 1 (scalar-equivalent), 7, 64 and unlimited must all be
  // bit-identical, at 1 and at 8 threads.
  auto reference = RunGenerate(1, 90, /*correction=*/false);
  ASSERT_TRUE(reference.ok());
  for (int64_t batch_size : {int64_t{1}, int64_t{7}, int64_t{64}, int64_t{0}}) {
    for (int threads : {1, 8}) {
      auto run = RunGenerateBatched(threads, 90, batch_size, /*warm=*/nullptr);
      ASSERT_TRUE(run.ok());
      ExpectBitIdentical(*reference, *run);
    }
  }
}

TEST_F(ParallelProfilerTest, WarmOutputStoreRunBitIdenticalWithZeroInvocations) {
  // A cold run exports its cache; a warm-started run over the same seed and
  // candidates must reproduce the profile bit-for-bit while invoking the
  // model ZERO times, at 1 and at 8 threads.
  query::OutputStore store;
  auto cold = RunGenerateBatched(1, 91, /*batch_size=*/0, /*warm=*/nullptr, &store);
  ASSERT_TRUE(cold.ok());
  ASSERT_GT(store.TotalEntries(), 0);
  for (int threads : {1, 8}) {
    int64_t warm_invocations = -1;
    auto warm = RunGenerateBatched(threads, 91, /*batch_size=*/0, &store,
                                   /*exported=*/nullptr, &warm_invocations);
    ASSERT_TRUE(warm.ok());
    ExpectBitIdentical(*cold, *warm);
    EXPECT_EQ(warm_invocations, 0) << "threads " << threads;
  }
}

TEST_F(ParallelProfilerTest, BitIdenticalAcrossTheFullWidthSweep) {
  // The executor hands hypercube groups out as ParallelFor chunks; which
  // thread claims which group varies wildly with width, so the sweep —
  // including widths past the machine's core count — pins scheduling
  // independence.
  auto reference = RunGenerate(1, 93, /*correction=*/false);
  ASSERT_TRUE(reference.ok());
  for (int threads : {2, 3, 8, 16}) {
    auto run = RunGenerate(threads, 93, /*correction=*/false);
    ASSERT_TRUE(run.ok()) << "threads " << threads;
    ExpectBitIdentical(*reference, *run);
  }
}

TEST_F(ParallelProfilerTest, ZeroThreadsResolvesToHardwareConcurrency) {
  auto profile = RunGenerate(0, 82, /*correction=*/false);
  ASSERT_TRUE(profile.ok());
  EXPECT_EQ(last_report_.num_threads, util::ThreadPool::ResolveThreadCount(0));
}

TEST_F(ParallelProfilerTest, PoollessSourceWalksSeriallyAndMatchesAPooledOne) {
  query::FrameOutputSource serial_source(*dataset_, yolo_, ObjectClass::kCar);
  ProfilerOptions opts;
  opts.correction_set_size = 60;
  opts.early_stop = false;
  Profiler serial(serial_source, *prior_, AvgSpec(), opts);
  stats::Rng serial_rng(83);
  auto serial_profile = serial.Generate(MultiGroupCandidates(), serial_rng);
  ASSERT_TRUE(serial_profile.ok());
  EXPECT_EQ(serial.last_report().num_threads, 1);

  util::ThreadPool pool(4);
  query::FrameOutputSource pooled_source(*dataset_, yolo_, ObjectClass::kCar);
  pooled_source.set_thread_pool(&pool);
  Profiler pooled(pooled_source, *prior_, AvgSpec(), opts);
  stats::Rng pooled_rng(83);
  auto pooled_profile = pooled.Generate(MultiGroupCandidates(), pooled_rng);
  ASSERT_TRUE(pooled_profile.ok());
  EXPECT_EQ(pooled.last_report().num_threads, 4);

  ExpectBitIdentical(*serial_profile, *pooled_profile);
  EXPECT_EQ(serial.last_report().model_invocations, pooled.last_report().model_invocations);
  EXPECT_EQ(serial.last_report().num_groups, pooled.last_report().num_groups);
}

TEST_F(ParallelProfilerTest, RecordsInItsSourcesRegistryOnly) {
  // The profiler.* instruments bind to the registry of the source the
  // profiler reads; the process default sees nothing of this profile.
  util::MetricsRegistry& defaults = util::MetricsRegistry::Default();
  const char* const kStages[] = {"profiler.stage.correction.seconds",
                                 "profiler.stage.groups.seconds",
                                 "profiler.stage.total.seconds"};
  std::vector<int64_t> default_stage_counts;
  for (const char* stage : kStages) {
    default_stage_counts.push_back(defaults.GetStageHistogram(stage)->TotalCount());
  }
  const int64_t default_calls = defaults.GetCounter("profiler.generate_calls")->Value();

  util::MetricsRegistry registry;
  query::FrameOutputSource source(*dataset_, yolo_, ObjectClass::kCar, &registry);
  ProfilerOptions opts;
  opts.correction_set_size = 60;
  Profiler profiler(source, *prior_, AvgSpec(), opts);
  stats::Rng rng(84);
  ASSERT_TRUE(profiler.Generate(MultiGroupCandidates(), rng).ok());

  for (size_t i = 0; i < std::size(kStages); ++i) {
    SCOPED_TRACE(kStages[i]);
    EXPECT_EQ(registry.GetStageHistogram(kStages[i])->TotalCount(), 1);
    EXPECT_EQ(defaults.GetStageHistogram(kStages[i])->TotalCount(), default_stage_counts[i]);
  }
  EXPECT_DOUBLE_EQ(registry.GetStageHistogram("profiler.stage.total.seconds")->Sum(),
                   profiler.last_report().total_seconds);
  EXPECT_EQ(registry.GetCounter("profiler.generate_calls")->Value(), 1);
  EXPECT_EQ(defaults.GetCounter("profiler.generate_calls")->Value(), default_calls);
}

// ---------------------------------------------------------------------------
// The group walk and the correction-set sizing fold only each prefix's new
// tail into the estimators' statistics. Both must equal a reference that
// fetches every whole prefix afresh and calls EstimateFromOutputs on it.
// ---------------------------------------------------------------------------

/// Generate's group walk, re-done the direct way: every candidate's sample
/// is fetched whole and estimated with EstimateFromOutputs. Groups follow
/// the profiler's canonical (resolution, restricted mask, contrast) order.
util::Result<std::vector<ProfilePoint>> ReferenceWalk(
    query::FrameOutputSource& source, const detect::ClassPriorIndex& prior,
    const query::QuerySpec& spec, const ProfilerOptions& options,
    const std::optional<CorrectionSet>& correction, std::vector<InterventionSet> candidates,
    uint64_t seed) {
  // Generate draws the group-stream seed first from the caller's stream.
  const uint64_t profile_seed = stats::Rng(seed).NextUint64();
  std::map<std::tuple<int, uint8_t, int64_t>, std::vector<InterventionSet>> groups;
  for (const InterventionSet& candidate : candidates) {
    groups[{candidate.resolution, candidate.restricted.mask(),
            static_cast<int64_t>(std::llround(candidate.contrast_scale * 4096.0))}]
        .push_back(candidate);
  }
  const int model_max = source.detector().max_resolution();
  const int64_t original_population = source.dataset().num_frames();
  std::vector<ProfilePoint> points;
  for (auto& [key, group] : groups) {
    std::sort(group.begin(), group.end(), [](const InterventionSet& a, const InterventionSet& b) {
      return a.sample_fraction < b.sample_fraction;
    });
    std::vector<int64_t> eligible = prior.FramesWithoutAny(group.front().restricted);
    stats::Rng group_rng(stats::HashCombine(
        {profile_seed, static_cast<uint64_t>(std::get<0>(key)),
         static_cast<uint64_t>(std::get<1>(key)), static_cast<uint64_t>(std::get<2>(key))}));
    stats::Shuffle(eligible, group_rng);
    const int64_t eligible_population = static_cast<int64_t>(eligible.size());
    double prev_err = std::numeric_limits<double>::infinity();
    for (const InterventionSet& candidate : group) {
      int64_t n = stats::FractionToCount(original_population, candidate.sample_fraction);
      n = std::min(n, eligible_population);
      const int resolution = candidate.EffectiveResolution(model_max);
      std::vector<int64_t> frames(eligible.begin(), eligible.begin() + n);
      query::OutputColumn outputs;
      SMK_RETURN_IF_ERROR(
          source.AppendOutputs(spec, frames, resolution, candidate.contrast_scale, outputs));
      SMK_ASSIGN_OR_RETURN(EstimationResult result,
                           EstimateFromOutputs(spec, outputs.output_span(), eligible_population,
                                               original_population, resolution, options.delta));
      ProfilePoint point;
      point.interventions = candidate;
      point.y_approx = result.estimate.y_approx;
      point.err_uncorrected = result.estimate.err_b;
      point.sample_size = result.sample_size;
      const bool purely_random = candidate.restricted.empty() && resolution == model_max &&
                                 candidate.contrast_scale >= 1.0;
      point.err_bound = point.err_uncorrected;
      if (correction.has_value()) {
        SMK_ASSIGN_OR_RETURN(double repaired_err, RepairErrorBound(spec, result, *correction));
        point.err_bound = purely_random ? std::min(point.err_uncorrected, repaired_err)
                                        : repaired_err;
        point.repaired = purely_random ? repaired_err < point.err_uncorrected : true;
      }
      points.push_back(point);
      if (options.early_stop && std::isfinite(prev_err) &&
          prev_err - point.err_bound < options.early_stop_tolerance) {
        break;
      }
      prev_err = point.err_bound;
    }
  }
  return points;
}

class IncrementalProfilerWalkTest
    : public ::testing::TestWithParam<std::tuple<ScenePreset, query::AggregateFunction>> {
 protected:
  void SetUp() override {
    auto ds = video::MakePresetScaled(std::get<0>(GetParam()), 1500);
    ds.status().CheckOk();
    dataset_ = std::make_unique<video::VideoDataset>(std::move(ds).ValueOrDie());
    auto prior = detect::ClassPriorIndex::Build(*dataset_, yolo_, mtcnn_);
    prior.status().CheckOk();
    prior_ = std::make_unique<detect::ClassPriorIndex>(std::move(prior).ValueOrDie());
    spec_.aggregate = std::get<1>(GetParam());
  }

  // Six nested fractions per group (uneven tails, a one-frame-apart pair)
  // x 2 resolutions x 2 restricted sets.
  static std::vector<InterventionSet> Candidates() {
    std::vector<InterventionSet> candidates;
    for (double f : {0.02, 0.05, 0.0507, 0.1, 0.25, 0.5}) {
      for (int p : {160, 608}) {
        for (const ClassSet& c : {ClassSet::None(), ClassSet({ObjectClass::kFace})}) {
          InterventionSet iv;
          iv.sample_fraction = f;
          iv.resolution = p;
          iv.restricted = c;
          candidates.push_back(iv);
        }
      }
    }
    return candidates;
  }

  detect::SimYoloV4 yolo_;
  detect::SimMtcnn mtcnn_;
  std::unique_ptr<video::VideoDataset> dataset_;
  std::unique_ptr<detect::ClassPriorIndex> prior_;
  query::QuerySpec spec_;
};

TEST_P(IncrementalProfilerWalkTest, EveryPointEqualsPerPrefixReference) {
  for (bool early_stop : {true, false}) {
    for (int threads : {1, 8}) {
      SCOPED_TRACE(::testing::Message() << "early_stop " << early_stop << " threads " << threads);
      util::ThreadPool pool(threads);
      query::FrameOutputSource source(*dataset_, yolo_, ObjectClass::kCar);
      source.set_thread_pool(&pool);
      ProfilerOptions opts;  // Correction set sized by the elbow walk.
      opts.early_stop = early_stop;
      Profiler profiler(source, *prior_, spec_, opts);
      stats::Rng rng(101);
      auto profile = profiler.Generate(Candidates(), rng);
      ASSERT_TRUE(profile.ok()) << profile.status().ToString();
      ASSERT_TRUE(profiler.correction_set().has_value());

      query::FrameOutputSource fresh(*dataset_, yolo_, ObjectClass::kCar);
      auto reference = ReferenceWalk(fresh, *prior_, spec_, opts, profiler.correction_set(),
                                     Candidates(), 101);
      ASSERT_TRUE(reference.ok()) << reference.status().ToString();
      ExpectBitIdentical(*reference, profile->points);
    }
  }
}

TEST_P(IncrementalProfilerWalkTest, CorrectionSizingCurveEqualsPerPrefixReference) {
  query::FrameOutputSource source(*dataset_, yolo_, ObjectClass::kCar);
  stats::Rng rng(202);
  // A zero tolerance never sees an elbow, so the walk runs to the cap and
  // every aggregate folds twenty tails, even where err_b is flat at once.
  auto sizing = DetermineCorrectionSetSize(source, spec_, 0.05, rng, /*max_fraction=*/0.2,
                                           /*plateau_tolerance=*/0.0);
  ASSERT_TRUE(sizing.ok()) << sizing.status().ToString();
  ASSERT_EQ(sizing->curve.size(), 20u);

  // The same permutation, every prefix fetched whole.
  const int64_t population = dataset_->num_frames();
  stats::Rng ref_rng(202);
  auto permutation = stats::SampleWithoutReplacement(population, population, ref_rng);
  ASSERT_TRUE(permutation.ok());
  const int resolution = yolo_.max_resolution();
  const int64_t step = std::max<int64_t>(
      1, static_cast<int64_t>(std::llround(0.01 * static_cast<double>(population))));
  query::FrameOutputSource fresh(*dataset_, yolo_, ObjectClass::kCar);
  for (size_t i = 0; i < sizing->curve.size(); ++i) {
    const int64_t m = step * static_cast<int64_t>(i + 1);
    std::vector<int64_t> frames(permutation->begin(), permutation->begin() + m);
    query::OutputColumn outputs;
    ASSERT_TRUE(fresh.AppendOutputs(spec_, frames, resolution, 1.0, outputs).ok());
    auto expected = EstimateFromOutputs(spec_, outputs.output_span(), population, population,
                                        resolution, 0.05);
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ(sizing->curve[i].first, static_cast<double>(m) / static_cast<double>(population));
    EXPECT_EQ(sizing->curve[i].second, expected->estimate.err_b) << "step " << i;
  }
  EXPECT_EQ(sizing->chosen_size, step * static_cast<int64_t>(sizing->curve.size()));
}

INSTANTIATE_TEST_SUITE_P(
    PresetsAndAggregates, IncrementalProfilerWalkTest,
    ::testing::Combine(::testing::Values(ScenePreset::kUaDetrac, ScenePreset::kNightStreet),
                       ::testing::Values(query::AggregateFunction::kAvg,
                                         query::AggregateFunction::kSum,
                                         query::AggregateFunction::kCount,
                                         query::AggregateFunction::kVar,
                                         query::AggregateFunction::kMax,
                                         query::AggregateFunction::kMin)));

}  // namespace
}  // namespace core
}  // namespace smokescreen
