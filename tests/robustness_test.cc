// Robustness / failure-injection tests: randomized and adversarial inputs
// must surface as Status errors (or be handled), never as crashes, hangs, or
// silently wrong results. The Status/Result discipline of the codebase is
// exactly what these exercise.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "baselines/mean_baselines.h"
#include "baselines/stein.h"
#include "camera/camera.h"
#include "camera/central_system.h"
#include "camera/fault_injector.h"
#include "core/avg_estimator.h"
#include "core/quantile_estimator.h"
#include "core/var_estimator.h"
#include "degrade/intervention.h"
#include "detect/models.h"
#include "query/parser.h"
#include "stats/normal.h"
#include "stats/rng.h"
#include "util/metrics.h"
#include "video/presets.h"
#include "video/scene_simulator.h"

namespace smokescreen {
namespace {

// ---------------------------------------------------------------------------
// Randomized estimator inputs: arbitrary finite samples never crash and
// always yield finite-or-documented outputs.
// ---------------------------------------------------------------------------

class EstimatorFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EstimatorFuzzTest, RandomSamplesNeverCrash) {
  stats::Rng rng(GetParam());
  core::SmokescreenMeanEstimator mean_est;
  core::SmokescreenQuantileEstimator quantile_est;
  core::SmokescreenVarianceEstimator var_est;
  baselines::EbgsEstimator ebgs;
  baselines::HoeffdingEstimator hoeffding;
  baselines::HoeffdingSerflingEstimator hs;
  baselines::CltEstimator clt;
  baselines::CltTEstimator clt_t;
  baselines::SteinQuantileEstimator stein;

  for (int iter = 0; iter < 200; ++iter) {
    int64_t n = 1 + static_cast<int64_t>(rng.NextBounded(50));
    int64_t population = n + static_cast<int64_t>(rng.NextBounded(10000));
    double scale = std::exp(rng.NextGaussian() * 3.0);  // Wild magnitudes.
    std::vector<double> sample;
    for (int64_t i = 0; i < n; ++i) {
      double v = rng.NextGaussian() * scale;
      if (rng.NextBernoulli(0.3)) v = std::abs(v);
      if (rng.NextBernoulli(0.2)) v = 0.0;
      sample.push_back(v);
    }
    double delta = 0.001 + rng.NextDouble() * 0.5;
    double r = rng.NextBernoulli(0.5) ? 0.99 : 0.01;

    auto check_mean = [&](core::MeanEstimator& est) {
      auto result = est.EstimateMean(sample, population, delta);
      if (result.ok()) {
        EXPECT_FALSE(std::isnan(result->y_approx)) << est.name();
        EXPECT_FALSE(std::isnan(result->err_b)) << est.name();
        EXPECT_GE(result->err_b, 0.0) << est.name();
      }
    };
    check_mean(mean_est);
    check_mean(ebgs);
    check_mean(hoeffding);
    check_mean(hs);
    check_mean(clt);
    check_mean(clt_t);

    auto quantile = quantile_est.EstimateQuantile(sample, population, r, r > 0.5, delta);
    if (quantile.ok()) {
      EXPECT_FALSE(std::isnan(quantile->err_b));
      EXPECT_GE(quantile->err_b, 0.0);
    }
    auto stein_result = stein.EstimateQuantile(sample, population, r, r > 0.5, delta);
    if (stein_result.ok()) {
      EXPECT_GE(stein_result->err_b, 0.0);
    }

    auto variance = var_est.EstimateVariance(sample, population, delta);
    if (variance.ok()) {
      EXPECT_GE(variance->y_approx, 0.0);
      EXPECT_GE(variance->err_b, 0.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EstimatorFuzzTest, ::testing::Values(1u, 2u, 3u, 4u));

// ---------------------------------------------------------------------------
// Randomized query strings: the parser must reject or accept, never crash.
// ---------------------------------------------------------------------------

TEST(ParserFuzzTest, RandomTokenSoupNeverCrashes) {
  const std::vector<std::string> vocab = {
      "SELECT", "FROM",  "USING", "WITH", "QUANTILE", "AVG", "MAX",  "COUNT",
      "(",      ")",     ">=",    "car",  "person",   "0.5", "8",    "x",
      "",       "  ",    "-",     "_",    "yolov4",   "VAR", ">=abc"};
  stats::Rng rng(99);
  for (int iter = 0; iter < 3000; ++iter) {
    std::string text;
    int tokens = 1 + static_cast<int>(rng.NextBounded(10));
    for (int t = 0; t < tokens; ++t) {
      text += vocab[rng.NextBounded(vocab.size())];
      text += ' ';
    }
    auto parsed = query::ParseQuery(text);  // ok() or error; never crashes.
    if (parsed.ok()) {
      EXPECT_TRUE(parsed->spec.Validate().ok()) << text;
    }
  }
}

TEST(ParserFuzzTest, GarbageCharactersRejected) {
  for (const char* text : {"SELECT AVG(car) FROM x;", "SELECT * FROM x", "@#$%",
                           "SELECT AVG(car) FROM x\n\n WITH", "((((((((("}) {
    EXPECT_FALSE(query::ParseQuery(text).ok()) << text;
  }
}

// ---------------------------------------------------------------------------
// Randomized intervention sets: Validate() catches everything malformed.
// ---------------------------------------------------------------------------

TEST(InterventionFuzzTest, ValidationPartitionsInputSpace) {
  stats::Rng rng(7);
  int valid = 0, invalid = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    degrade::InterventionSet iv;
    iv.sample_fraction = rng.NextGaussian();  // Often out of (0,1].
    iv.resolution = static_cast<int>(rng.NextBounded(1400)) - 100;
    iv.contrast_scale = rng.NextDouble() * 1.5;
    if (rng.NextBernoulli(0.5)) iv.restricted.Add(video::ObjectClass::kPerson);

    util::Status status = iv.Validate();
    bool expect_valid = iv.sample_fraction > 0.0 && iv.sample_fraction <= 1.0 &&
                        iv.resolution >= 0 && iv.contrast_scale > 0.0 &&
                        iv.contrast_scale <= 1.0;
    EXPECT_EQ(status.ok(), expect_valid) << iv.ToString();
    (status.ok() ? valid : invalid) += 1;
  }
  EXPECT_GT(valid, 50);
  EXPECT_GT(invalid, 50);
}

// ---------------------------------------------------------------------------
// Scene configs: random parameters either validate and simulate, or fail
// cleanly — simulation of a validated config never fails.
// ---------------------------------------------------------------------------

TEST(SceneConfigFuzzTest, ValidatedConfigsAlwaysSimulate) {
  stats::Rng rng(13);
  int simulated = 0;
  for (int iter = 0; iter < 60; ++iter) {
    video::SceneConfig cfg;
    cfg.seed = rng.NextUint64();
    cfg.num_frames = static_cast<int64_t>(rng.NextBounded(400)) + 1;
    cfg.num_sequences = static_cast<int>(rng.NextBounded(6));  // May be 0 -> invalid.
    cfg.car_rate = rng.NextGaussian() * 0.5;                   // May be negative.
    cfg.car_dwell_mean = rng.NextDouble() * 20.0;              // May be < 1.
    cfg.person_rate = rng.NextDouble() * 0.1;
    cfg.person_dwell_mean = 1.0 + rng.NextDouble() * 20.0;
    cfg.face_visible_prob = rng.NextDouble() * 1.4;            // May exceed 1.
    cfg.burstiness = rng.NextDouble() * 1.2;                   // May reach 1.
    cfg.scene_contrast_mean = rng.NextDouble() * 1.1;

    auto result = video::SimulateScene(cfg);
    if (cfg.Validate().ok()) {
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(result->num_frames(), cfg.num_frames);
      ++simulated;
    } else {
      EXPECT_FALSE(result.ok());
    }
  }
  EXPECT_GT(simulated, 3);
}

// ---------------------------------------------------------------------------
// Student-t quantiles: sane across the parameter grid.
// ---------------------------------------------------------------------------

TEST(StudentTTest, MatchesTableValues) {
  EXPECT_NEAR(stats::StudentTQuantile(0.975, 3), 3.182, 0.05);
  EXPECT_NEAR(stats::StudentTQuantile(0.975, 5), 2.571, 0.02);
  EXPECT_NEAR(stats::StudentTQuantile(0.975, 10), 2.228, 0.01);
  EXPECT_NEAR(stats::StudentTQuantile(0.975, 30), 2.042, 0.005);
  EXPECT_NEAR(stats::StudentTQuantile(0.95, 10), 1.812, 0.01);
}

TEST(StudentTTest, ApproachesNormalAsDofGrows) {
  double z = stats::StdNormalQuantile(0.975);
  EXPECT_NEAR(stats::StudentTQuantile(0.975, 100000), z, 1e-3);
}

TEST(StudentTTest, WiderThanNormalAtSmallDof) {
  for (int64_t dof : {3, 5, 10, 30}) {
    EXPECT_GT(stats::StudentTQuantile(0.975, dof), stats::StdNormalQuantile(0.975)) << dof;
  }
}

TEST(StudentTTest, SymmetricAroundMedian) {
  EXPECT_NEAR(stats::StudentTQuantile(0.5, 7), 0.0, 1e-9);
  EXPECT_NEAR(stats::StudentTQuantile(0.9, 7), -stats::StudentTQuantile(0.1, 7), 1e-9);
}

TEST(CltTBaselineTest, WiderThanPlainCltAtSmallSamples) {
  std::vector<double> sample;
  stats::Rng rng(3);
  for (int i = 0; i < 8; ++i) sample.push_back(static_cast<double>(rng.NextPoisson(5.0)));
  baselines::CltEstimator clt;
  baselines::CltTEstimator clt_t;
  auto plain = clt.EstimateMean(sample, 10000, 0.05);
  auto t_based = clt_t.EstimateMean(sample, 10000, 0.05);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(t_based.ok());
  if (std::isfinite(plain->err_b) && std::isfinite(t_based->err_b)) {
    EXPECT_GT(t_based->err_b, plain->err_b);
  }
}

TEST(CltTBaselineTest, RejectsSingleSample) {
  baselines::CltTEstimator clt_t;
  EXPECT_FALSE(clt_t.EstimateMean(std::vector<double>{1.0}, 100, 0.05).ok());
}

// ---------------------------------------------------------------------------
// Deployment fault tolerance: seeded loss/blackout scenarios. The survivors
// of channel faults are still a uniform sample (loss is content-
// independent), so estimates over them must stay inside their widened
// bounds; dead deployments must fail with a Status, never UB.
// ---------------------------------------------------------------------------

class FaultScenarioTest : public ::testing::Test {
 protected:
  // Three homogeneous cameras over the same feed: identical per-camera
  // truth, so a partial answer over any survivor subset estimates the same
  // city-wide quantity and its interval must cover the clean answer.
  void SetUp() override {
    auto feed = video::MakePresetScaled(video::ScenePreset::kUaDetrac, 1500);
    feed.status().CheckOk();
    feed_ = std::make_unique<video::VideoDataset>(std::move(feed).ValueOrDie());
    auto prior = detect::ClassPriorIndex::Build(*feed_, yolo_, mtcnn_);
    prior.status().CheckOk();
    prior_ = std::make_unique<detect::ClassPriorIndex>(std::move(prior).ValueOrDie());
    spec_.aggregate = query::AggregateFunction::kAvg;
    for (int id = 1; id <= 3; ++id) {
      camera::CameraConfig config;
      config.camera_id = id;
      config.interventions.sample_fraction = 0.25;
      cameras_.push_back(
          std::make_unique<camera::Camera>(config, *feed_, *prior_, 608));
    }
  }

  util::Result<camera::CentralSystem> MakeCentral() {
    auto central = camera::CentralSystem::Create(spec_, 0.05);
    if (!central.ok()) return central;
    for (const auto& cam : cameras_) {
      SMK_RETURN_IF_ERROR(central->AddFeed(*cam, yolo_));
    }
    return central;
  }

  detect::SimYoloV4 yolo_;
  detect::SimMtcnn mtcnn_;
  query::QuerySpec spec_;
  std::unique_ptr<video::VideoDataset> feed_;
  std::unique_ptr<detect::ClassPriorIndex> prior_;
  std::vector<std::unique_ptr<camera::Camera>> cameras_;
};

// The headline scenario: ~20% bursty frame loss on two cameras plus a full
// blackout of the third. The partial-policy answer must be valid (interval
// contains the clean-pipeline answer) with coverage < 1, and the legacy
// all-feeds path must refuse with a Status error instead of answering.
TEST_F(FaultScenarioTest, BurstyLossPlusBlackoutKeepsBoundsSound) {
  // Clean pipeline reference.
  auto clean_central = MakeCentral();
  ASSERT_TRUE(clean_central.ok());
  stats::Rng clean_rng(1001);
  camera::NetworkLink clean_link(camera::NetworkLinkConfig{});
  for (const auto& cam : cameras_) {
    auto batch = cam->CaptureAndTransmit(clean_link, clean_rng);
    ASSERT_TRUE(batch.ok());
    ASSERT_TRUE(clean_central->Ingest(*batch).ok());
  }
  auto clean = clean_central->CityWideEstimate();
  ASSERT_TRUE(clean.ok());
  EXPECT_NEAR(clean->coverage, 1.0, 1e-12);

  // Faulty pipeline: Gilbert–Elliott ~20% loss on cameras 1-2, camera 3
  // blacked out for the whole window.
  auto central = MakeCentral();
  ASSERT_TRUE(central.ok());
  stats::Rng rng(1002);
  camera::NetworkLink link(camera::NetworkLinkConfig{});
  camera::TransmitPolicy policy;
  policy.max_attempts = 1;  // No retries: the loss rate hits the sample.

  camera::FaultProfile bursty;
  bursty.loss_prob = 0.05;
  bursty.p_good_to_bad = 0.1;
  bursty.p_bad_to_good = 0.3;
  bursty.bad_loss_prob = 0.8;  // Stationary loss ~ 0.25*0.8 + 0.75*0.05.
  camera::FaultProfile dead;
  dead.blackouts.push_back(camera::FaultProfile::Blackout::Forever());

  for (size_t i = 0; i < cameras_.size(); ++i) {
    camera::FaultProfile profile = (i == 2) ? dead : bursty;
    profile.seed = 2000 + i;
    auto injector = camera::FaultInjector::Create(profile);
    ASSERT_TRUE(injector.ok());
    auto batch = cameras_[i]->CaptureAndTransmit(*injector, link, rng, policy);
    ASSERT_TRUE(batch.ok());
    if (i == 2) {
      EXPECT_EQ(batch->delivered_frames(), 0);
    } else {
      EXPECT_GT(batch->frames_lost, 0);
      EXPECT_LT(batch->DeliveryFraction(), 0.95);
      EXPECT_GT(batch->DeliveryFraction(), 0.6);
    }
    ASSERT_TRUE(central->Ingest(*batch).ok());
  }
  EXPECT_EQ(central->feeds_with_data(), 2);
  EXPECT_EQ(*central->feed_health(3), camera::FeedHealth::kStale);

  // Legacy all-feeds path: a Status error, not a silently wrong number.
  auto strict = central->CityWideEstimate();
  EXPECT_EQ(strict.status().code(), util::StatusCode::kFailedPrecondition);

  // Partial path: valid answer over survivors, honest coverage.
  auto partial = central->CityWideEstimate(camera::PartialPolicy{});
  ASSERT_TRUE(partial.ok());
  EXPECT_LT(partial->coverage, 1.0);
  EXPECT_NEAR(partial->coverage, 2.0 / 3.0, 1e-9);
  EXPECT_EQ(partial->strata_combined, 2);
  EXPECT_EQ(partial->strata_total, 3);
  // The failure budget is reallocated over the live feeds only.
  EXPECT_NEAR(partial->total_delta, 0.05, 1e-9);
  // Soundness: the partial interval contains the clean-pipeline answer, at
  // the price of a wider bound than the full three-camera combination.
  EXPECT_TRUE(core::CoversTruth(partial->estimate, clean->estimate.y_approx))
      << "partial " << partial->estimate.y_approx << " +- "
      << partial->estimate.err_b << " vs clean " << clean->estimate.y_approx;
  EXPECT_GT(partial->estimate.err_b, 0.0);
}

TEST_F(FaultScenarioTest, LossWidensBoundsButKeepsValidity) {
  // Same seed stream, increasing loss: the delivered sample shrinks and the
  // certified bound must widen, while every estimate stays finite and sane.
  double previous_bound = 0.0;
  for (double loss : {0.0, 0.2, 0.5}) {
    auto central = MakeCentral();
    ASSERT_TRUE(central.ok());
    stats::Rng rng(77);  // Identical sampling randomness per loss level.
    camera::NetworkLink link(camera::NetworkLinkConfig{});
    camera::TransmitPolicy policy;
    policy.max_attempts = 1;
    camera::FaultProfile profile;
    profile.loss_prob = loss;
    profile.seed = 4242;
    for (const auto& cam : cameras_) {
      auto injector = camera::FaultInjector::Create(profile);
      ASSERT_TRUE(injector.ok());
      auto batch = cam->CaptureAndTransmit(*injector, link, rng, policy);
      ASSERT_TRUE(batch.ok());
      ASSERT_TRUE(central->Ingest(*batch).ok());
    }
    auto city = central->CityWideEstimate(camera::PartialPolicy{});
    ASSERT_TRUE(city.ok());
    EXPECT_FALSE(std::isnan(city->estimate.y_approx));
    EXPECT_GE(city->estimate.err_b, previous_bound);
    previous_bound = city->estimate.err_b;
  }
}

TEST_F(FaultScenarioTest, AllFeedsDeadReturnsFailedPrecondition) {
  auto central = MakeCentral();
  ASSERT_TRUE(central.ok());
  stats::Rng rng(88);
  camera::NetworkLink link(camera::NetworkLinkConfig{});
  camera::FaultProfile dead;
  dead.blackouts.push_back(camera::FaultProfile::Blackout::Forever());
  for (size_t i = 0; i < cameras_.size(); ++i) {
    dead.seed = 3000 + i;
    auto injector = camera::FaultInjector::Create(dead);
    ASSERT_TRUE(injector.ok());
    auto batch = cameras_[i]->CaptureAndTransmit(*injector, link, rng, camera::TransmitPolicy{});
    ASSERT_TRUE(batch.ok());
    ASSERT_TRUE(central->Ingest(*batch).ok());  // Recorded, demoted to stale.
  }
  EXPECT_EQ(central->feeds_with_data(), 0);
  EXPECT_EQ(central->CityWideEstimate().status().code(),
            util::StatusCode::kFailedPrecondition);
  EXPECT_EQ(central->CityWideEstimate(camera::PartialPolicy{}).status().code(),
            util::StatusCode::kFailedPrecondition);
  for (int id = 1; id <= 3; ++id) {
    EXPECT_EQ(central->CameraEstimate(id).status().code(),
              util::StatusCode::kFailedPrecondition);
  }
}

// ---------------------------------------------------------------------------
// Per-feed ingest circuit breaker: consecutive failures trip it open, the
// open breaker rejects cheaply, a cooled-down probe decides recovery.
// ---------------------------------------------------------------------------

class BreakerTest : public FaultScenarioTest {
 protected:
  camera::CameraBatch BlackoutBatch(int camera_id) {
    camera::CameraBatch batch;
    batch.camera_id = camera_id;
    batch.attempted_frames = 10;  // Tried, delivered nothing.
    return batch;
  }
  camera::CameraBatch GoodBatch(int camera_id) {
    camera::CameraBatch batch;
    batch.camera_id = camera_id;
    batch.frame_indices = {0, 5, 10, 15};
    batch.attempted_frames = 4;
    batch.eligible_population = feed_->num_frames();
    batch.resolution = 608;
    return batch;
  }
  camera::BreakerPolicy Policy(int threshold, int cooldown) {
    camera::BreakerPolicy policy;
    policy.failure_threshold = threshold;
    policy.open_cooldown = cooldown;
    return policy;
  }
};

TEST_F(BreakerTest, PolicyValidation) {
  auto central = MakeCentral();
  ASSERT_TRUE(central.ok());
  EXPECT_FALSE(central->set_breaker_policy(Policy(0, 2)).ok());
  EXPECT_FALSE(central->set_breaker_policy(Policy(3, 0)).ok());
  EXPECT_TRUE(central->set_breaker_policy(Policy(3, 2)).ok());
}

TEST_F(BreakerTest, TripsAfterConsecutiveBlackoutsThenRejects) {
  auto central = MakeCentral();
  ASSERT_TRUE(central.ok());
  ASSERT_TRUE(central->set_breaker_policy(Policy(3, 2)).ok());

  // Two failures: still closed (threshold is 3).
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(central->Ingest(BlackoutBatch(1)).ok());
    EXPECT_EQ(*central->feed_breaker(1), camera::BreakerState::kClosed);
  }
  // Third consecutive failure trips it.
  ASSERT_TRUE(central->Ingest(BlackoutBatch(1)).ok());
  EXPECT_EQ(*central->feed_breaker(1), camera::BreakerState::kOpen);
  EXPECT_EQ(*central->feed_breaker_trips(1), 1);
  EXPECT_EQ(*central->feed_health(1), camera::FeedHealth::kStale);

  // The open breaker rejects without touching the feed — even a GOOD batch.
  const int64_t ingested_before = *central->batches_ingested(1);
  auto rejected = central->Ingest(GoodBatch(1));
  EXPECT_EQ(rejected.code(), util::StatusCode::kUnavailable);
  EXPECT_EQ(*central->batches_ingested(1), ingested_before);
  // Other feeds are untouched by camera 1's breaker.
  EXPECT_EQ(*central->feed_breaker(2), camera::BreakerState::kClosed);
  EXPECT_TRUE(central->Ingest(GoodBatch(2)).ok());
}

TEST_F(BreakerTest, HalfOpenProbeSuccessClosesBreaker) {
  auto central = MakeCentral();
  ASSERT_TRUE(central.ok());
  ASSERT_TRUE(central->set_breaker_policy(Policy(2, 2)).ok());

  ASSERT_TRUE(central->Ingest(BlackoutBatch(1)).ok());
  ASSERT_TRUE(central->Ingest(BlackoutBatch(1)).ok());
  ASSERT_EQ(*central->feed_breaker(1), camera::BreakerState::kOpen);

  // The cooldown absorbs exactly two rejected attempts...
  EXPECT_EQ(central->Ingest(GoodBatch(1)).code(), util::StatusCode::kUnavailable);
  EXPECT_EQ(central->Ingest(GoodBatch(1)).code(), util::StatusCode::kUnavailable);
  // ...then the next batch is admitted as a probe; success closes the
  // breaker and the feed is live again.
  ASSERT_TRUE(central->Ingest(GoodBatch(1)).ok());
  EXPECT_EQ(*central->feed_breaker(1), camera::BreakerState::kClosed);
  EXPECT_EQ(*central->feed_health(1), camera::FeedHealth::kLive);
  EXPECT_TRUE(central->CameraEstimate(1).ok());
}

TEST_F(BreakerTest, HalfOpenProbeFailureReopensBreaker) {
  auto central = MakeCentral();
  ASSERT_TRUE(central.ok());
  ASSERT_TRUE(central->set_breaker_policy(Policy(2, 1)).ok());

  ASSERT_TRUE(central->Ingest(BlackoutBatch(1)).ok());
  ASSERT_TRUE(central->Ingest(BlackoutBatch(1)).ok());
  ASSERT_EQ(*central->feed_breaker(1), camera::BreakerState::kOpen);
  EXPECT_EQ(central->Ingest(GoodBatch(1)).code(), util::StatusCode::kUnavailable);

  // Probe is another blackout: straight back to open, second trip.
  ASSERT_TRUE(central->Ingest(BlackoutBatch(1)).ok());
  EXPECT_EQ(*central->feed_breaker(1), camera::BreakerState::kOpen);
  EXPECT_EQ(*central->feed_breaker_trips(1), 2);
  EXPECT_EQ(central->Ingest(GoodBatch(1)).code(), util::StatusCode::kUnavailable);
}

TEST_F(BreakerTest, UdfErrorsCountAsFailures) {
  auto central = MakeCentral();
  ASSERT_TRUE(central.ok());
  ASSERT_TRUE(central->set_breaker_policy(Policy(2, 1)).ok());

  camera::CameraBatch bad = GoodBatch(1);
  bad.frame_indices = {feed_->num_frames() + 100};  // Out of range: UDF error.
  EXPECT_FALSE(central->Ingest(bad).ok());
  EXPECT_EQ(*central->feed_breaker(1), camera::BreakerState::kClosed);
  EXPECT_FALSE(central->Ingest(bad).ok());
  EXPECT_EQ(*central->feed_breaker(1), camera::BreakerState::kOpen);
}

TEST_F(BreakerTest, SuccessResetsTheFailureRun) {
  auto central = MakeCentral();
  ASSERT_TRUE(central.ok());
  ASSERT_TRUE(central->set_breaker_policy(Policy(3, 1)).ok());

  // failure, failure, SUCCESS, failure, failure: never three in a row.
  ASSERT_TRUE(central->Ingest(BlackoutBatch(1)).ok());
  ASSERT_TRUE(central->Ingest(BlackoutBatch(1)).ok());
  ASSERT_TRUE(central->Ingest(GoodBatch(1)).ok());
  ASSERT_TRUE(central->Ingest(BlackoutBatch(1)).ok());
  ASSERT_TRUE(central->Ingest(BlackoutBatch(1)).ok());
  EXPECT_EQ(*central->feed_breaker(1), camera::BreakerState::kClosed);
  EXPECT_EQ(*central->feed_breaker_trips(1), 0);
}

TEST_F(BreakerTest, ReinstateResetsBreaker) {
  auto central = MakeCentral();
  ASSERT_TRUE(central.ok());
  ASSERT_TRUE(central->set_breaker_policy(Policy(1, 5)).ok());

  ASSERT_TRUE(central->Ingest(BlackoutBatch(1)).ok());
  ASSERT_EQ(*central->feed_breaker(1), camera::BreakerState::kOpen);
  EXPECT_EQ(central->Ingest(GoodBatch(1)).code(), util::StatusCode::kUnavailable);

  // Operator fixed the uplink: reinstatement clears the breaker entirely and
  // the next batch ingests with no cooldown.
  ASSERT_TRUE(central->ReinstateFeed(1).ok());
  EXPECT_EQ(*central->feed_breaker(1), camera::BreakerState::kClosed);
  ASSERT_TRUE(central->Ingest(GoodBatch(1)).ok());
  EXPECT_EQ(*central->feed_health(1), camera::FeedHealth::kLive);
}

TEST_F(BreakerTest, MalformedBatchesDoNotTouchTheBreaker) {
  auto central = MakeCentral();
  ASSERT_TRUE(central.ok());
  ASSERT_TRUE(central->set_breaker_policy(Policy(1, 1)).ok());

  camera::CameraBatch empty;
  empty.camera_id = 1;  // Attempted nothing: caller bug, not a feed failure.
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(central->Ingest(empty).code(), util::StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(*central->feed_breaker(1), camera::BreakerState::kClosed);
  EXPECT_EQ(*central->feed_breaker_trips(1), 0);
}

TEST_F(BreakerTest, FeedsKeepTheirOwnTalliesAndTheRegistrySumsThem) {
  // Each feed's accessors read that feed's own count; the registry counters
  // of the same name, which CentralSystem binds in the default registry,
  // move by the sum over feeds.
  util::MetricsRegistry& registry = util::MetricsRegistry::Default();
  util::Counter* batches = registry.GetCounter("central_system.batches_ingested");
  util::Counter* trips = registry.GetCounter("central_system.breaker_trips");
  const int64_t batches_before = batches->Value();
  const int64_t trips_before = trips->Value();

  auto central = MakeCentral();
  ASSERT_TRUE(central.ok());
  ASSERT_TRUE(central->set_breaker_policy(Policy(1, 1)).ok());
  // Camera 1: a blackout trips the breaker, a good batch is rejected, and
  // the probe blackout re-opens it: 2 batches ingested, 2 trips.
  ASSERT_TRUE(central->Ingest(BlackoutBatch(1)).ok());
  EXPECT_EQ(central->Ingest(GoodBatch(1)).code(), util::StatusCode::kUnavailable);
  ASSERT_TRUE(central->Ingest(BlackoutBatch(1)).ok());
  // Camera 2: three good batches, no trip.
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(central->Ingest(GoodBatch(2)).ok());

  EXPECT_EQ(*central->batches_ingested(1), 2);
  EXPECT_EQ(*central->feed_breaker_trips(1), 2);
  EXPECT_EQ(*central->batches_ingested(2), 3);
  EXPECT_EQ(*central->feed_breaker_trips(2), 0);
  EXPECT_EQ(*central->batches_ingested(3), 0);
  EXPECT_EQ(batches->Value() - batches_before, 5);
  EXPECT_EQ(trips->Value() - trips_before, 2);
}

TEST_F(BreakerTest, EachCentralSystemCountsItsOwnFeedsFromZero) {
  // Two systems register the same camera ids and bind the same registry
  // counters; each feed's tally is its own system's, and the registry
  // counters hold the sum of both.
  util::MetricsRegistry& registry = util::MetricsRegistry::Default();
  util::Counter* batches = registry.GetCounter("central_system.batches_ingested");
  util::Counter* trips = registry.GetCounter("central_system.breaker_trips");
  const int64_t batches_before = batches->Value();
  const int64_t trips_before = trips->Value();

  auto first = MakeCentral();
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->set_breaker_policy(Policy(1, 1)).ok());
  ASSERT_TRUE(first->Ingest(GoodBatch(1)).ok());
  ASSERT_TRUE(first->Ingest(BlackoutBatch(1)).ok());

  auto second = MakeCentral();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*second->batches_ingested(1), 0);
  EXPECT_EQ(*second->feed_breaker_trips(1), 0);
  ASSERT_TRUE(second->Ingest(GoodBatch(1)).ok());

  EXPECT_EQ(*first->batches_ingested(1), 2);
  EXPECT_EQ(*first->feed_breaker_trips(1), 1);
  EXPECT_EQ(*second->batches_ingested(1), 1);
  EXPECT_EQ(*second->feed_breaker_trips(1), 0);
  EXPECT_EQ(batches->Value() - batches_before, 3);
  EXPECT_EQ(trips->Value() - trips_before, 1);
  EXPECT_EQ(second->feed_breaker_trips(99).status().code(), util::StatusCode::kNotFound);
}

// Randomized fault profiles: Validate() partitions the space, and every
// validated profile transmits without crashing while preserving the
// attempted == delivered + lost invariant.
TEST(FaultProfileFuzzTest, ValidatedProfilesAlwaysTransmit) {
  stats::Rng rng(4321);
  int valid = 0, invalid = 0;
  for (int iter = 0; iter < 500; ++iter) {
    camera::FaultProfile profile;
    profile.loss_prob = rng.NextGaussian() * 0.4 + 0.2;  // Often out of [0,1].
    profile.p_good_to_bad = rng.NextDouble() * 1.2 - 0.1;
    profile.p_bad_to_good = rng.NextDouble() * 1.2 - 0.1;
    profile.bad_loss_prob = rng.NextDouble() * 1.2 - 0.1;
    profile.corrupt_prob = rng.NextDouble() * 0.6;
    profile.truncate_prob = rng.NextDouble() * 0.6;
    profile.latency_per_frame_sec = rng.NextGaussian() * 0.01;
    profile.stall_prob = rng.NextDouble();
    profile.stall_sec = rng.NextDouble();
    profile.seed = rng.NextUint64();
    if (rng.NextBernoulli(0.3)) {
      int64_t start = static_cast<int64_t>(rng.NextBounded(100)) - 20;
      profile.blackouts.push_back({start, start + static_cast<int64_t>(rng.NextBounded(50))});
    }

    auto injector = camera::FaultInjector::Create(profile);
    if (!injector.ok()) {
      EXPECT_EQ(injector.status().code(), util::StatusCode::kInvalidArgument);
      ++invalid;
      continue;
    }
    ++valid;
    camera::NetworkLink link(camera::NetworkLinkConfig{});
    int usable = 0;
    for (int i = 0; i < 50; ++i) {
      auto result = injector->TransmitFrame(link, 64);
      if (result.outcome == camera::TransmitOutcome::kDelivered) {
        EXPECT_EQ(result.bytes_delivered, 64);
        ++usable;
      }
      EXPECT_GE(result.latency_sec, 0.0);
    }
    EXPECT_EQ(injector->attempts(), 50);
    EXPECT_EQ(injector->delivered(), usable);
    EXPECT_EQ(link.total_frames(), 50);
  }
  EXPECT_GT(valid, 30);
  EXPECT_GT(invalid, 30);
}

}  // namespace
}  // namespace smokescreen
