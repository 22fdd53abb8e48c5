// Property-based tests: parameterized sweeps over seeds, sample fractions,
// datasets and aggregates, checking the system's core invariants.
//
//  P1  Every Smokescreen bound is a valid >= 1-delta upper bound of the
//      realized error under random interventions.
//  P2  The bound is (stochastically) non-increasing in the sample fraction.
//  P3  The repaired bound covers the truth even under systematic bias.
//  P4  Y_approx's harmonic construction satisfies Theorem 3.1's algebra.
//  P5  The quantile (MAX/MIN) bound covers the realized rank error.
//  P6  ResultErrorEst is deterministic given its rng seed, and cached
//      outputs equal fresh ones.
//  P7  The scene index is an exact re-partitioning of the AoS frames.
//  P8  The readers that moved from the AoS frames onto the scene index
//      compute exactly what their AoS definitions do.

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <ostream>
#include <vector>

#include "core/avg_estimator.h"
#include "core/candidate_design.h"
#include "core/estimator_api.h"
#include "core/quantile_estimator.h"
#include "core/repair.h"
#include "degrade/cost_model.h"
#include "degrade/degraded_view.h"
#include "detect/models.h"
#include "query/executor.h"
#include "stats/empirical.h"
#include "stats/rng.h"
#include "stats/sampling.h"
#include "video/presets.h"

namespace smokescreen {
namespace core {
namespace {

using video::ObjectClass;
using video::ScenePreset;

// ---------------------------------------------------------------------------
// P1: bound coverage over synthetic populations, swept over (lambda, n).
// ---------------------------------------------------------------------------

struct CoverageParam {
  double lambda;
  int64_t sample_size;
  double delta;
};

// Names each case by its fields; gtest would otherwise print the struct's
// raw bytes, padding included, which differ from one build to the next.
void PrintTo(const CoverageParam& param, std::ostream* os) {
  *os << "lambda=" << param.lambda << " n=" << param.sample_size << " delta=" << param.delta;
}

class MeanCoverageProperty : public ::testing::TestWithParam<CoverageParam> {};

TEST_P(MeanCoverageProperty, BoundCoversRealizedError) {
  const CoverageParam param = GetParam();
  stats::Rng rng(stats::HashCombine({static_cast<uint64_t>(param.lambda * 100),
                                     static_cast<uint64_t>(param.sample_size)}));
  const int64_t kPop = 6000;
  std::vector<double> population;
  for (int64_t i = 0; i < kPop; ++i) {
    population.push_back(static_cast<double>(rng.NextPoisson(param.lambda)));
  }
  double mu = 0;
  for (double v : population) mu += v;
  mu /= static_cast<double>(kPop);
  ASSERT_GT(mu, 0.0);

  SmokescreenMeanEstimator est;
  const int kTrials = 200;
  int covered = 0;
  for (int t = 0; t < kTrials; ++t) {
    auto idx = stats::SampleWithoutReplacement(kPop, param.sample_size, rng);
    ASSERT_TRUE(idx.ok());
    std::vector<double> sample;
    for (int64_t i : *idx) sample.push_back(population[static_cast<size_t>(i)]);
    auto result = est.EstimateMean(sample, kPop, param.delta);
    ASSERT_TRUE(result.ok());
    double true_err = std::abs(result->y_approx - mu) / mu;
    if (true_err <= result->err_b + 1e-12) ++covered;
  }
  // Nominal coverage 1-delta; allow binomial slack on 200 trials.
  EXPECT_GE(static_cast<double>(covered) / kTrials, 1.0 - param.delta - 0.04)
      << "lambda=" << param.lambda << " n=" << param.sample_size;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MeanCoverageProperty,
    ::testing::Values(CoverageParam{0.5, 30, 0.05}, CoverageParam{0.5, 100, 0.05},
                      CoverageParam{2.0, 30, 0.05}, CoverageParam{2.0, 300, 0.05},
                      CoverageParam{8.0, 50, 0.05}, CoverageParam{8.0, 500, 0.05},
                      CoverageParam{2.0, 100, 0.10}, CoverageParam{2.0, 100, 0.01}));

// ---------------------------------------------------------------------------
// P2: monotonicity of the average bound in the sample fraction.
// ---------------------------------------------------------------------------

class MonotonicityProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MonotonicityProperty, AverageBoundShrinksWithFraction) {
  stats::Rng rng(GetParam());
  const int64_t kPop = 4000;
  std::vector<double> population;
  for (int64_t i = 0; i < kPop; ++i) {
    population.push_back(static_cast<double>(rng.NextPoisson(3.0)));
  }
  SmokescreenMeanEstimator est;
  double prev_avg = std::numeric_limits<double>::infinity();
  for (int64_t n : {40, 160, 640, 2560}) {
    double total = 0;
    const int kTrials = 30;
    for (int t = 0; t < kTrials; ++t) {
      auto idx = stats::SampleWithoutReplacement(kPop, n, rng);
      ASSERT_TRUE(idx.ok());
      std::vector<double> sample;
      for (int64_t i : *idx) sample.push_back(population[static_cast<size_t>(i)]);
      auto result = est.EstimateMean(sample, kPop, 0.05);
      ASSERT_TRUE(result.ok());
      total += result->err_b;
    }
    double avg = total / kTrials;
    EXPECT_LT(avg, prev_avg) << "n=" << n;
    prev_avg = avg;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MonotonicityProperty, ::testing::Values(11u, 22u, 33u, 44u));

// ---------------------------------------------------------------------------
// P3: repaired bounds stay valid under adversarial systematic bias.
// ---------------------------------------------------------------------------

struct BiasParam {
  double bias_factor;  // Multiplicative distortion applied to sampled outputs.
  uint64_t seed;
};

void PrintTo(const BiasParam& param, std::ostream* os) {
  *os << "bias=" << param.bias_factor << " seed=" << param.seed;
}

class RepairProperty : public ::testing::TestWithParam<BiasParam> {};

TEST_P(RepairProperty, RepairedBoundSurvivesSystematicBias) {
  const BiasParam param = GetParam();
  stats::Rng rng(param.seed);
  const int64_t kPop = 5000;
  std::vector<double> population;
  for (int64_t i = 0; i < kPop; ++i) {
    population.push_back(static_cast<double>(rng.NextPoisson(4.0)));
  }
  double mu = 0;
  for (double v : population) mu += v;
  mu /= static_cast<double>(kPop);

  query::QuerySpec spec;
  spec.aggregate = query::AggregateFunction::kAvg;

  SmokescreenMeanEstimator est;
  const int kTrials = 60;
  int covered = 0;
  for (int t = 0; t < kTrials; ++t) {
    // Degraded sample: systematically biased outputs (like low resolution).
    auto idx = stats::SampleWithoutReplacement(kPop, 250, rng);
    ASSERT_TRUE(idx.ok());
    std::vector<double> degraded_sample;
    for (int64_t i : *idx) {
      degraded_sample.push_back(population[static_cast<size_t>(i)] * param.bias_factor);
    }
    auto degraded_est = est.EstimateMean(degraded_sample, kPop, 0.05);
    ASSERT_TRUE(degraded_est.ok());

    // Correction set: unbiased outputs.
    auto v_idx = stats::SampleWithoutReplacement(kPop, 250, rng);
    ASSERT_TRUE(v_idx.ok());
    CorrectionSet correction;
    for (int64_t i : *v_idx) correction.outputs.push_back(population[static_cast<size_t>(i)]);
    correction.size = 250;
    correction.population = kPop;
    auto v_est = est.EstimateMean(correction.outputs, kPop, 0.05);
    ASSERT_TRUE(v_est.ok());
    correction.estimate = *v_est;

    EstimationResult degraded;
    degraded.estimate = *degraded_est;
    auto repaired = RepairErrorBound(spec, degraded, correction);
    ASSERT_TRUE(repaired.ok());
    double true_err = std::abs(degraded_est->y_approx - mu) / mu;
    if (true_err <= *repaired + 1e-12) ++covered;
  }
  EXPECT_GE(static_cast<double>(covered) / kTrials, 0.95)
      << "bias=" << param.bias_factor;
}

INSTANTIATE_TEST_SUITE_P(BiasSweep, RepairProperty,
                         ::testing::Values(BiasParam{0.3, 1}, BiasParam{0.6, 2},
                                           BiasParam{0.9, 3}, BiasParam{1.2, 4},
                                           BiasParam{2.0, 5}));

// ---------------------------------------------------------------------------
// P4: Theorem 3.1 algebra holds for every interval.
// ---------------------------------------------------------------------------

class HarmonicProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HarmonicProperty, TheoremAlgebraHolds) {
  stats::Rng rng(GetParam());
  for (int i = 0; i < 500; ++i) {
    double lb = rng.NextDouble() * 5.0;
    double ub = lb + rng.NextDouble() * 5.0 + 1e-9;
    Estimate est = SmokescreenMeanEstimator::FromBounds(lb, ub, 1.0);
    if (lb <= 0.0) {
      EXPECT_EQ(est.err_b, 1.0);
      continue;
    }
    // |Y| = (1+err)*LB = (1-err)*UB, and err in [0, 1).
    EXPECT_NEAR(est.y_approx, (1.0 + est.err_b) * lb, 1e-9);
    EXPECT_NEAR(est.y_approx, (1.0 - est.err_b) * ub, 1e-9);
    EXPECT_GE(est.err_b, 0.0);
    EXPECT_LT(est.err_b, 1.0);
    // For any mu in [LB, UB], |Y-mu|/mu <= err_b.
    for (double frac : {0.0, 0.25, 0.5, 0.75, 1.0}) {
      double mu = lb + frac * (ub - lb);
      EXPECT_LE(std::abs(est.y_approx - mu) / mu, est.err_b + 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HarmonicProperty, ::testing::Values(101u, 202u, 303u));

// ---------------------------------------------------------------------------
// P5: quantile bound coverage swept over r and aggregates.
// ---------------------------------------------------------------------------

struct QuantileParam {
  double r;
  bool is_max;
  int64_t sample_size;
};

void PrintTo(const QuantileParam& param, std::ostream* os) {
  *os << "r=" << param.r << (param.is_max ? " MAX" : " MIN") << " n=" << param.sample_size;
}

class QuantileCoverageProperty : public ::testing::TestWithParam<QuantileParam> {};

TEST_P(QuantileCoverageProperty, RankErrorCovered) {
  const QuantileParam param = GetParam();
  stats::Rng rng(stats::HashCombine({static_cast<uint64_t>(param.r * 1000),
                                     static_cast<uint64_t>(param.sample_size)}));
  const int64_t kPop = 6000;
  std::vector<double> population;
  for (int64_t i = 0; i < kPop; ++i) {
    population.push_back(static_cast<double>(rng.NextPoisson(7.0)));
  }
  auto pop_dist = stats::EmpiricalDistribution::Create(population);
  ASSERT_TRUE(pop_dist.ok());
  double rank_true = pop_dist->RankFraction(pop_dist->Quantile(param.r));

  SmokescreenQuantileEstimator est;
  const int kTrials = 150;
  int covered = 0;
  for (int t = 0; t < kTrials; ++t) {
    auto idx = stats::SampleWithoutReplacement(kPop, param.sample_size, rng);
    ASSERT_TRUE(idx.ok());
    std::vector<double> sample;
    for (int64_t i : *idx) sample.push_back(population[static_cast<size_t>(i)]);
    auto result = est.EstimateQuantile(sample, kPop, param.r, param.is_max, 0.05);
    ASSERT_TRUE(result.ok());
    double rank_approx = pop_dist->RankFraction(result->y_approx);
    double true_err = std::abs(rank_approx - rank_true) / rank_true;
    if (true_err <= result->err_b + 1e-12) ++covered;
  }
  EXPECT_GE(static_cast<double>(covered) / kTrials, 0.93)
      << "r=" << param.r << " n=" << param.sample_size;
}

INSTANTIATE_TEST_SUITE_P(Sweep, QuantileCoverageProperty,
                         ::testing::Values(QuantileParam{0.99, true, 200},
                                           QuantileParam{0.99, true, 800},
                                           QuantileParam{0.95, true, 200},
                                           QuantileParam{0.01, false, 200},
                                           QuantileParam{0.05, false, 400}));

// ---------------------------------------------------------------------------
// P6: end-to-end determinism of ResultErrorEst given the same rng seed, and
// reuse-vs-fresh equality of cached outputs.
// ---------------------------------------------------------------------------

class PipelineDeterminismProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PipelineDeterminismProperty, SameSeedSameEstimate) {
  auto ds = video::MakePresetScaled(ScenePreset::kNightStreet, 800);
  ds.status().CheckOk();
  detect::SimYoloV4 yolo;
  detect::SimMtcnn mtcnn;
  auto prior = detect::ClassPriorIndex::Build(*ds, yolo, mtcnn);
  prior.status().CheckOk();

  query::QuerySpec spec;
  spec.aggregate = query::AggregateFunction::kAvg;
  degrade::InterventionSet iv;
  iv.sample_fraction = 0.2;
  iv.resolution = 320;

  query::FrameOutputSource source_a(*ds, yolo, ObjectClass::kCar);
  query::FrameOutputSource source_b(*ds, yolo, ObjectClass::kCar);
  stats::Rng rng_a(GetParam()), rng_b(GetParam());
  auto a = ResultErrorEst(source_a, *prior, spec, iv, 0.05, rng_a);
  auto b = ResultErrorEst(source_b, *prior, spec, iv, 0.05, rng_b);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->estimate.y_approx, b->estimate.y_approx);
  EXPECT_EQ(a->estimate.err_b, b->estimate.err_b);
  EXPECT_EQ(a->sample_size, b->sample_size);
  EXPECT_EQ(a->eligible_population, b->eligible_population);

  // The same draw, estimated by the span-based estimator over the sampled
  // outputs, gives the same doubles.
  stats::Rng rng_c(GetParam());
  auto view = degrade::DegradedView::Create(*ds, *prior, iv, yolo.max_resolution(), rng_c);
  ASSERT_TRUE(view.ok());
  query::OutputColumn sampled;
  ASSERT_TRUE(source_b.AppendOutputs(spec, view->sampled_frames(), view->resolution(),
                                     view->contrast_scale(), sampled).ok());
  ASSERT_EQ(static_cast<int64_t>(sampled.size()), a->sample_size);
  SmokescreenMeanEstimator mean_estimator;
  auto direct = mean_estimator.EstimateMean(sampled.outputs, view->eligible_population(), 0.05);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(a->estimate.y_approx, direct->y_approx);
  EXPECT_EQ(a->estimate.err_b, direct->err_b);

  // Cached re-read gives identical outputs (reuse correctness).
  const std::vector<int64_t> frames = {0, 1, 2, 3};
  query::OutputColumn outputs_again;
  query::OutputColumn outputs_fresh;
  ASSERT_TRUE(source_a.AppendOutputs(spec, frames, 320, 1.0, outputs_again).ok());
  ASSERT_TRUE(source_b.AppendOutputs(spec, frames, 320, 1.0, outputs_fresh).ok());
  EXPECT_EQ(outputs_again.outputs, outputs_fresh.outputs);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineDeterminismProperty,
                         ::testing::Values(1u, 7u, 1234567u));

// ---------------------------------------------------------------------------
// P7: the columnar scene index is an exact re-partitioning of the AoS
// frames — same objects, same per-(frame, class) order, same field values
// bit for bit — plus faithful flat per-frame columns. The batch kernel and
// the scalar reference read ONLY the index, so this bijection is what ties
// their counts to the AoS frames.
// ---------------------------------------------------------------------------

struct SceneIndexParam {
  ScenePreset preset;
  uint64_t seed;
};

void PrintTo(const SceneIndexParam& param, std::ostream* os) {
  *os << video::ScenePresetName(param.preset) << " seed=" << param.seed;
}

class SceneIndexPartitionProperty : public ::testing::TestWithParam<SceneIndexParam> {};

TEST_P(SceneIndexPartitionProperty, IndexIsExactRepartitionOfFrames) {
  video::SceneConfig config = video::PresetConfig(GetParam().preset);
  config.seed = GetParam().seed;
  config.num_frames = 1200;
  auto ds = video::SimulateScene(config);
  ds.status().CheckOk();
  const video::VideoDataset& dataset = *ds;
  const video::SceneIndex& index = dataset.scene_index();

  ASSERT_EQ(index.num_frames(), dataset.num_frames());

  // Flat per-frame columns mirror the Frame fields exactly.
  ASSERT_EQ(index.total_objects().size(), static_cast<size_t>(dataset.num_frames()));
  ASSERT_EQ(index.frame_id_words().size(), static_cast<size_t>(dataset.num_frames()));
  ASSERT_EQ(index.scene_contrasts().size(), static_cast<size_t>(dataset.num_frames()));
  for (int64_t f = 0; f < dataset.num_frames(); ++f) {
    const video::Frame& frame = dataset.frame(f);
    EXPECT_EQ(index.total_objects()[static_cast<size_t>(f)], frame.objects.size());
    EXPECT_EQ(index.frame_id_words()[static_cast<size_t>(f)],
              static_cast<uint64_t>(frame.frame_id));
    EXPECT_EQ(index.scene_contrasts()[static_cast<size_t>(f)], frame.scene_contrast);
  }

  // Per class: rebuild the expected columns by the definition (walk frames
  // in order, append class members in their AoS order) and require exact
  // equality — values AND layout.
  int64_t all_classes_total = 0;
  for (int c = 0; c < video::kNumObjectClasses; ++c) {
    const auto cls = static_cast<ObjectClass>(c);
    const video::SceneIndex::ClassColumns& col = index.columns(cls);
    ASSERT_EQ(col.offsets.size(), static_cast<size_t>(dataset.num_frames()) + 1);
    EXPECT_EQ(col.offsets.front(), 0u);

    std::vector<double> want_sizes, want_contrasts;
    std::vector<uint64_t> want_tracks;
    for (int64_t f = 0; f < dataset.num_frames(); ++f) {
      const video::Frame& frame = dataset.frame(f);
      for (const video::GtObject& obj : frame.objects) {
        if (obj.cls != cls) continue;
        want_sizes.push_back(obj.apparent_size);
        want_contrasts.push_back(obj.contrast);
        want_tracks.push_back(static_cast<uint64_t>(obj.track_id));
      }
      // CSR row pointer: everything appended so far belongs to frames
      // [0, f], so offsets[f + 1] must equal the running total.
      ASSERT_EQ(col.offsets[static_cast<size_t>(f) + 1], want_sizes.size())
          << "class " << c << " frame " << f;
    }
    EXPECT_EQ(col.sizes, want_sizes) << "class " << c;
    EXPECT_EQ(col.contrasts, want_contrasts) << "class " << c;
    EXPECT_EQ(col.track_words, want_tracks) << "class " << c;
    EXPECT_EQ(index.class_total(cls), static_cast<int64_t>(want_sizes.size()));
    all_classes_total += index.class_total(cls);
  }

  // Nothing lost, nothing invented: class columns partition the object set.
  int64_t aos_total = 0;
  for (int64_t f = 0; f < dataset.num_frames(); ++f) {
    aos_total += static_cast<int64_t>(dataset.frame(f).objects.size());
  }
  EXPECT_EQ(all_classes_total, aos_total);
}

INSTANTIATE_TEST_SUITE_P(
    PresetsAndSeeds, SceneIndexPartitionProperty,
    ::testing::Values(SceneIndexParam{ScenePreset::kNightStreet, 1u},
                      SceneIndexParam{ScenePreset::kNightStreet, 97u},
                      SceneIndexParam{ScenePreset::kNightStreet, 20260806u},
                      SceneIndexParam{ScenePreset::kUaDetrac, 1u},
                      SceneIndexParam{ScenePreset::kUaDetrac, 97u},
                      SceneIndexParam{ScenePreset::kUaDetrac, 20260806u}));

// ---------------------------------------------------------------------------
// P8: the readers ported from the AoS frames onto the scene index equal, with
// ==, an AoS loop over frames() that restates each one's definition: the
// ground-truth statistics, EstimateSavings' face count over the candidate
// grid's resolutions and restricted sets, and the frame-skipping scan.
// ---------------------------------------------------------------------------

class IndexReaderProperty : public ::testing::TestWithParam<SceneIndexParam> {};

TEST_P(IndexReaderProperty, PortedReadersMatchTheirAosDefinitions) {
  video::SceneConfig config = video::PresetConfig(GetParam().preset);
  config.seed = GetParam().seed;
  config.num_frames = 1200;
  auto ds = video::SimulateScene(config);
  ds.status().CheckOk();
  const video::VideoDataset& dataset = *ds;
  const std::vector<video::Frame>& frames = dataset.frames();
  const double num_frames = static_cast<double>(frames.size());

  for (int c = 0; c < video::kNumObjectClasses; ++c) {
    const auto cls = static_cast<ObjectClass>(c);
    int64_t containing = 0;
    int64_t total = 0;
    for (const video::Frame& frame : frames) {
      if (frame.ContainsGt(cls)) ++containing;
      total += frame.CountGt(cls);
    }
    EXPECT_EQ(dataset.GtContainmentFraction(cls), static_cast<double>(containing) / num_frames)
        << "class " << c;
    EXPECT_EQ(dataset.GtMeanCount(cls), static_cast<double>(total) / num_frames)
        << "class " << c;
  }

  // At sample fraction 1 every eligible frame is transmitted, so the
  // recognizable share is recognizable eligible faces over all faces.
  detect::SimYoloV4 yolo;
  detect::SimMtcnn mtcnn;
  auto prior = detect::ClassPriorIndex::Build(dataset, yolo, mtcnn);
  ASSERT_TRUE(prior.ok());
  auto resolutions = ResolutionCandidates(yolo, 10);
  ASSERT_TRUE(resolutions.ok());
  int64_t grid_faces = 0;
  for (int resolution : *resolutions) {
    for (const video::ClassSet& restricted : RestrictedClassCandidates()) {
      degrade::InterventionSet iv;
      iv.resolution = resolution;
      iv.restricted = restricted;
      auto savings = degrade::EstimateSavings(dataset, *prior, iv, yolo.max_resolution());
      ASSERT_TRUE(savings.ok());
      std::vector<bool> eligible(frames.size(), false);
      for (int64_t f : prior->FramesWithoutAny(restricted)) eligible[static_cast<size_t>(f)] = true;
      const double res_ratio =
          static_cast<double>(resolution) / static_cast<double>(yolo.max_resolution());
      int64_t faces = 0;
      int64_t recognizable = 0;
      for (size_t f = 0; f < frames.size(); ++f) {
        for (const video::GtObject& obj : frames[f].objects) {
          if (obj.cls != ObjectClass::kFace) continue;
          ++faces;
          if (eligible[f] && obj.apparent_size * res_ratio * iv.contrast_scale >=
                                 degrade::kFaceRecognitionSizePx) {
            ++recognizable;
          }
        }
      }
      const double want =
          faces == 0 ? 0.0 : static_cast<double>(recognizable) / static_cast<double>(faces);
      EXPECT_EQ(savings->faces_recognizable_fraction, want) << iv.ToString();
      grid_faces += recognizable;
    }
  }
  EXPECT_GT(grid_faces, 0);

  // The scan processes a frame that starts the dataset or a sequence, or
  // whose target-class track ids differ from the last processed frame's;
  // every other frame reuses that frame's output.
  for (ObjectClass target : {ObjectClass::kCar, ObjectClass::kPerson}) {
    query::QuerySpec spec;
    spec.target_class = target;
    query::FrameOutputSource source(dataset, yolo, target);
    auto scan = query::AllOutputsWithSkipping(source, spec, 320);
    ASSERT_TRUE(scan.ok());
    std::vector<int64_t> all_frames(frames.size());
    std::iota(all_frames.begin(), all_frames.end(), int64_t{0});
    query::OutputColumn all;
    ASSERT_TRUE(source.AppendOutputs(spec, all_frames, 320, 1.0, all).ok());
    int64_t processed = 0;
    size_t last = 0;
    std::vector<int64_t> last_tracks;
    std::vector<double> want_outputs;
    for (size_t f = 0; f < frames.size(); ++f) {
      std::vector<int64_t> tracks;
      for (const video::GtObject& obj : frames[f].objects) {
        if (obj.cls == target) tracks.push_back(obj.track_id);
      }
      if (f == 0 || frames[f].sequence_id != frames[f - 1].sequence_id || tracks != last_tracks) {
        ++processed;
        last = f;
        last_tracks = std::move(tracks);
      }
      want_outputs.push_back(all.outputs[last]);
    }
    EXPECT_GT(scan->skipped, 0) << video::ObjectClassName(target);
    EXPECT_EQ(scan->skipped, static_cast<int64_t>(frames.size()) - processed)
        << video::ObjectClassName(target);
    EXPECT_EQ(scan->outputs, want_outputs) << video::ObjectClassName(target);
  }
}

INSTANTIATE_TEST_SUITE_P(
    PresetsAndSeeds, IndexReaderProperty,
    ::testing::Values(SceneIndexParam{ScenePreset::kNightStreet, 1u},
                      SceneIndexParam{ScenePreset::kNightStreet, 97u},
                      SceneIndexParam{ScenePreset::kNightStreet, 20260806u},
                      SceneIndexParam{ScenePreset::kUaDetrac, 1u},
                      SceneIndexParam{ScenePreset::kUaDetrac, 97u},
                      SceneIndexParam{ScenePreset::kUaDetrac, 20260806u}));

}  // namespace
}  // namespace core
}  // namespace smokescreen
