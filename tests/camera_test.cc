#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "camera/camera.h"
#include "camera/central_system.h"
#include "camera/fault_injector.h"
#include "camera/network_link.h"
#include "core/combine.h"
#include "detect/models.h"
#include "query/executor.h"
#include "video/presets.h"

namespace smokescreen {
namespace camera {
namespace {

using video::ObjectClass;
using video::ScenePreset;

TEST(NetworkLinkTest, AccountsBytesAndFrames) {
  // Each link keeps its own tallies; the default registry's network_link.*
  // counters sum every link's.
  const util::Counter* registry_bytes =
      util::MetricsRegistry::Default().GetCounter("network_link.bytes");
  const int64_t bytes_before = registry_bytes->Value();
  NetworkLink link(NetworkLinkConfig{});
  link.TransmitFrame(1000);
  link.TransmitFrame(500);
  EXPECT_EQ(link.total_bytes(), 1500);
  EXPECT_EQ(link.total_frames(), 2);
  NetworkLink fresh(NetworkLinkConfig{});
  fresh.TransmitFrame(250);
  EXPECT_EQ(fresh.total_bytes(), 250);
  EXPECT_EQ(fresh.total_frames(), 1);
  EXPECT_EQ(link.total_bytes(), 1500);
  EXPECT_EQ(registry_bytes->Value() - bytes_before, 1750);
}

TEST(NetworkLinkTest, BusyTimeAndEnergy) {
  NetworkLinkConfig config;
  config.bandwidth_bytes_per_sec = 1000.0;
  config.energy_joules_per_byte = 0.001;
  config.energy_joules_per_frame = 0.5;
  NetworkLink link(config);
  link.TransmitFrame(2000);
  EXPECT_NEAR(link.BusySeconds(), 2.0, 1e-12);
  EXPECT_NEAR(link.EnergyJoules(), 2000 * 0.001 + 0.5, 1e-12);
}

TEST(CombineTest, SingleStratumMatchesHarmonicMapping) {
  core::StratumInterval s{1.0, 3.0, 100, 0.05};
  auto combined = core::CombineMeanEstimates({s});
  ASSERT_TRUE(combined.ok());
  EXPECT_NEAR(combined->estimate.y_approx, 1.5, 1e-12);  // 2*3*1/(3+1).
  EXPECT_NEAR(combined->estimate.err_b, 0.5, 1e-12);
  EXPECT_EQ(combined->total_population, 100);
  EXPECT_NEAR(combined->total_delta, 0.05, 1e-12);
}

TEST(CombineTest, WeightsByPopulation) {
  // Camera A: tight interval around 2, 900 frames; B: around 10, 100 frames.
  core::StratumInterval a{2.0, 2.0, 900, 0.025};
  core::StratumInterval b{10.0, 10.0, 100, 0.025};
  auto combined = core::CombineMeanEstimates({a, b});
  ASSERT_TRUE(combined.ok());
  // Degenerate intervals: combined interval is a point at 0.9*2 + 0.1*10.
  EXPECT_NEAR(combined->estimate.y_approx, 2.8, 1e-12);
  EXPECT_NEAR(combined->estimate.err_b, 0.0, 1e-12);
}

TEST(CombineTest, RejectsBadInput) {
  EXPECT_FALSE(core::CombineMeanEstimates({}).ok());
  EXPECT_FALSE(core::CombineMeanEstimates({{1.0, 0.5, 100, 0.05}}).ok());  // lb > ub.
  EXPECT_FALSE(core::CombineMeanEstimates({{-1.0, 1.0, 100, 0.05}}).ok());
  EXPECT_FALSE(core::CombineMeanEstimates({{0.0, 1.0, 0, 0.05}}).ok());
  EXPECT_FALSE(core::CombineMeanEstimates({{0.0, 1.0, 100, 0.0}}).ok());
  EXPECT_FALSE(core::CombineMeanEstimates({{0.0, 1.0, 100, 0.6}, {0.0, 1.0, 100, 0.6}}).ok());
}

class DeploymentTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto a = video::MakePresetScaled(ScenePreset::kUaDetrac, 1000);
    auto b = video::MakePresetScaled(ScenePreset::kNightStreet, 800);
    a.status().CheckOk();
    b.status().CheckOk();
    feed_a_ = std::make_unique<video::VideoDataset>(std::move(a).ValueOrDie());
    feed_b_ = std::make_unique<video::VideoDataset>(std::move(b).ValueOrDie());
    auto prior_a = detect::ClassPriorIndex::Build(*feed_a_, yolo_, mtcnn_);
    auto prior_b = detect::ClassPriorIndex::Build(*feed_b_, yolo_, mtcnn_);
    prior_a.status().CheckOk();
    prior_b.status().CheckOk();
    prior_a_ = std::make_unique<detect::ClassPriorIndex>(std::move(prior_a).ValueOrDie());
    prior_b_ = std::make_unique<detect::ClassPriorIndex>(std::move(prior_b).ValueOrDie());
  }

  CameraConfig Config(int id, double fraction, int resolution = 0) {
    CameraConfig config;
    config.camera_id = id;
    config.interventions.sample_fraction = fraction;
    config.interventions.resolution = resolution;
    return config;
  }

  detect::SimYoloV4 yolo_;
  detect::SimMtcnn mtcnn_;
  std::unique_ptr<video::VideoDataset> feed_a_;
  std::unique_ptr<video::VideoDataset> feed_b_;
  std::unique_ptr<detect::ClassPriorIndex> prior_a_;
  std::unique_ptr<detect::ClassPriorIndex> prior_b_;
};

TEST_F(DeploymentTest, CameraTransmitsExpectedVolume) {
  Camera cam(Config(1, 0.2, 320), *feed_a_, *prior_a_, 608);
  NetworkLink link(NetworkLinkConfig{});
  stats::Rng rng(1);
  auto batch = cam.CaptureAndTransmit(link, rng);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->camera_id, 1);
  EXPECT_EQ(batch->frame_indices.size(), 200u);
  EXPECT_EQ(batch->resolution, 320);
  EXPECT_EQ(link.total_frames(), 200);
  EXPECT_EQ(link.total_bytes(), batch->total_bytes);
  // 0.1 bytes/pixel * 320^2 = 10240 bytes/frame.
  EXPECT_EQ(cam.FrameBytes(), 10240);
}

TEST_F(DeploymentTest, LowerResolutionTransmitsFewerBytes) {
  Camera hi(Config(1, 0.2, 608), *feed_a_, *prior_a_, 608);
  Camera lo(Config(2, 0.2, 128), *feed_a_, *prior_a_, 608);
  EXPECT_GT(hi.FrameBytes(), lo.FrameBytes() * 10);
}

TEST_F(DeploymentTest, CentralSystemEndToEnd) {
  query::QuerySpec spec;
  spec.aggregate = query::AggregateFunction::kAvg;
  auto central = CentralSystem::Create(spec, 0.05);
  ASSERT_TRUE(central.ok());

  Camera cam_a(Config(1, 0.3), *feed_a_, *prior_a_, 608);
  Camera cam_b(Config(2, 0.3), *feed_b_, *prior_b_, 608);
  ASSERT_TRUE(central->AddFeed(cam_a, yolo_).ok());
  ASSERT_TRUE(central->AddFeed(cam_b, yolo_).ok());
  EXPECT_EQ(central->feeds_with_data(), 0);

  NetworkLink link(NetworkLinkConfig{});
  stats::Rng rng(2);
  auto batch_a = cam_a.CaptureAndTransmit(link, rng);
  auto batch_b = cam_b.CaptureAndTransmit(link, rng);
  ASSERT_TRUE(batch_a.ok());
  ASSERT_TRUE(batch_b.ok());
  ASSERT_TRUE(central->Ingest(*batch_a).ok());
  ASSERT_TRUE(central->Ingest(*batch_b).ok());
  EXPECT_EQ(central->feeds_with_data(), 2);

  auto est_a = central->CameraEstimate(1);
  auto est_b = central->CameraEstimate(2);
  ASSERT_TRUE(est_a.ok());
  ASSERT_TRUE(est_b.ok());
  // DETRAC is far busier than night-street.
  EXPECT_GT(est_a->y_approx, est_b->y_approx);

  auto city = central->CityWideEstimate();
  ASSERT_TRUE(city.ok());
  EXPECT_EQ(city->total_population, batch_a->eligible_population +
                                        batch_b->eligible_population);
  // The combined mean lies between the per-camera means.
  EXPECT_GT(city->estimate.y_approx, est_b->y_approx);
  EXPECT_LT(city->estimate.y_approx, est_a->y_approx);
  EXPECT_NEAR(city->total_delta, 0.05, 1e-9);
}

TEST_F(DeploymentTest, CityWideEstimateCoversPooledTruth) {
  query::QuerySpec spec;
  spec.aggregate = query::AggregateFunction::kAvg;
  // Pooled truth across both feeds.
  query::FrameOutputSource source_a(*feed_a_, yolo_, ObjectClass::kCar);
  query::FrameOutputSource source_b(*feed_b_, yolo_, ObjectClass::kCar);
  auto gt_a = query::ComputeGroundTruth(source_a, spec);
  auto gt_b = query::ComputeGroundTruth(source_b, spec);
  ASSERT_TRUE(gt_a.ok());
  ASSERT_TRUE(gt_b.ok());
  double n_a = static_cast<double>(feed_a_->num_frames());
  double n_b = static_cast<double>(feed_b_->num_frames());
  double pooled_truth = (gt_a->y_true * n_a + gt_b->y_true * n_b) / (n_a + n_b);

  auto central = CentralSystem::Create(spec, 0.05);
  ASSERT_TRUE(central.ok());
  Camera cam_a(Config(1, 0.4), *feed_a_, *prior_a_, 608);
  Camera cam_b(Config(2, 0.4), *feed_b_, *prior_b_, 608);
  ASSERT_TRUE(central->AddFeed(cam_a, yolo_).ok());
  ASSERT_TRUE(central->AddFeed(cam_b, yolo_).ok());

  NetworkLink link(NetworkLinkConfig{});
  stats::Rng rng(3);
  int covered = 0;
  const int kTrials = 20;
  for (int t = 0; t < kTrials; ++t) {
    auto batch_a = cam_a.CaptureAndTransmit(link, rng);
    auto batch_b = cam_b.CaptureAndTransmit(link, rng);
    ASSERT_TRUE(batch_a.ok());
    ASSERT_TRUE(batch_b.ok());
    ASSERT_TRUE(central->Ingest(*batch_a).ok());
    ASSERT_TRUE(central->Ingest(*batch_b).ok());
    auto city = central->CityWideEstimate();
    ASSERT_TRUE(city.ok());
    double realized = std::abs(city->estimate.y_approx - pooled_truth) / pooled_truth;
    if (realized <= city->estimate.err_b) ++covered;
  }
  EXPECT_GE(covered, kTrials - 1);
}

TEST_F(DeploymentTest, CentralSystemErrorHandling) {
  query::QuerySpec max_spec;
  max_spec.aggregate = query::AggregateFunction::kMax;
  EXPECT_EQ(CentralSystem::Create(max_spec, 0.05).status().code(),
            util::StatusCode::kNotImplemented);

  query::QuerySpec avg;
  auto central = CentralSystem::Create(avg, 0.05);
  ASSERT_TRUE(central.ok());
  Camera cam(Config(7, 0.2), *feed_a_, *prior_a_, 608);
  ASSERT_TRUE(central->AddFeed(cam, yolo_).ok());
  EXPECT_EQ(central->AddFeed(cam, yolo_).code(), util::StatusCode::kAlreadyExists);

  CameraBatch unknown;
  unknown.camera_id = 99;
  unknown.frame_indices = {0};
  EXPECT_EQ(central->Ingest(unknown).code(), util::StatusCode::kNotFound);

  CameraBatch empty;
  empty.camera_id = 7;
  EXPECT_EQ(central->Ingest(empty).code(), util::StatusCode::kInvalidArgument);

  EXPECT_EQ(central->CameraEstimate(99).status().code(), util::StatusCode::kNotFound);
  EXPECT_EQ(central->CameraEstimate(7).status().code(), util::StatusCode::kFailedPrecondition);
  EXPECT_EQ(central->CityWideEstimate().status().code(),
            util::StatusCode::kFailedPrecondition);
}

TEST(NetworkLinkTest, CreateValidatesConfig) {
  NetworkLinkConfig ok_config;
  EXPECT_TRUE(NetworkLink::Create(ok_config).ok());

  NetworkLinkConfig bad_bandwidth;
  bad_bandwidth.bandwidth_bytes_per_sec = -1.0;
  EXPECT_EQ(NetworkLink::Create(bad_bandwidth).status().code(),
            util::StatusCode::kInvalidArgument);

  NetworkLinkConfig bad_byte_energy;
  bad_byte_energy.energy_joules_per_byte = -1e-9;
  EXPECT_EQ(NetworkLink::Create(bad_byte_energy).status().code(),
            util::StatusCode::kInvalidArgument);

  NetworkLinkConfig bad_frame_energy;
  bad_frame_energy.energy_joules_per_frame = -0.5;
  EXPECT_EQ(NetworkLink::Create(bad_frame_energy).status().code(),
            util::StatusCode::kInvalidArgument);
}

TEST(NetworkLinkTest, TracksRetransmissionsSeparately) {
  NetworkLinkConfig config;
  config.energy_joules_per_byte = 0.001;
  config.energy_joules_per_frame = 0.5;
  auto link = NetworkLink::Create(config);
  ASSERT_TRUE(link.ok());
  link->TransmitFrame(1000);
  link->TransmitFrame(1000, /*is_retransmission=*/true);
  EXPECT_EQ(link->total_bytes(), 2000);
  EXPECT_EQ(link->total_frames(), 2);
  EXPECT_EQ(link->retransmitted_bytes(), 1000);
  EXPECT_EQ(link->retransmitted_frames(), 1);
  EXPECT_NEAR(link->RetransmitEnergyJoules(), 1000 * 0.001 + 0.5, 1e-12);
  // The tallies travel with the link when it moves.
  NetworkLink moved = std::move(*link);
  EXPECT_EQ(moved.retransmitted_bytes(), 1000);
  EXPECT_EQ(moved.retransmitted_frames(), 1);
  EXPECT_EQ(moved.total_frames(), 2);
}

// ---------------------------------------------------------------------------
// FaultInjector
// ---------------------------------------------------------------------------

TEST(FaultInjectorTest, CleanProfileDeliversEverything) {
  auto injector = FaultInjector::Create(FaultProfile::Clean());
  ASSERT_TRUE(injector.ok());
  NetworkLink link(NetworkLinkConfig{});
  for (int i = 0; i < 100; ++i) {
    auto result = injector->TransmitFrame(link, 500);
    EXPECT_EQ(result.outcome, TransmitOutcome::kDelivered);
    EXPECT_EQ(result.bytes_delivered, 500);
    EXPECT_EQ(result.latency_sec, 0.0);
  }
  EXPECT_EQ(injector->attempts(), 100);
  EXPECT_EQ(injector->delivered(), 100);
  EXPECT_EQ(injector->lost(), 0);
  EXPECT_DOUBLE_EQ(injector->DeliveryRate(), 1.0);
  EXPECT_EQ(link.total_frames(), 100);
}

TEST(FaultInjectorTest, RejectsMalformedProfiles) {
  FaultProfile p;
  p.loss_prob = 1.5;
  EXPECT_EQ(FaultInjector::Create(p).status().code(), util::StatusCode::kInvalidArgument);

  p = FaultProfile{};
  p.latency_per_frame_sec = -0.1;
  EXPECT_EQ(FaultInjector::Create(p).status().code(), util::StatusCode::kInvalidArgument);

  p = FaultProfile{};
  p.blackouts.push_back({50, 10});  // end < start.
  EXPECT_EQ(FaultInjector::Create(p).status().code(), util::StatusCode::kInvalidArgument);

  p = FaultProfile{};  // Absorbing bad state must be spelled as a blackout.
  p.bad_loss_prob = 0.9;
  p.p_good_to_bad = 0.1;
  p.p_bad_to_good = 0.0;
  EXPECT_EQ(FaultInjector::Create(p).status().code(), util::StatusCode::kInvalidArgument);
}

TEST(FaultInjectorTest, IidLossMatchesConfiguredRate) {
  FaultProfile p;
  p.loss_prob = 0.3;
  p.seed = 17;
  auto injector = FaultInjector::Create(p);
  ASSERT_TRUE(injector.ok());
  NetworkLink link(NetworkLinkConfig{});
  const int kAttempts = 20000;
  for (int i = 0; i < kAttempts; ++i) injector->TransmitFrame(link, 100);
  EXPECT_NEAR(injector->DeliveryRate(), 0.7, 0.02);
  EXPECT_EQ(injector->delivered() + injector->lost(), kAttempts);
  // Radio-side accounting is fault-blind: all attempts hit the link.
  EXPECT_EQ(link.total_frames(), kAttempts);
}

TEST(FaultInjectorTest, BurstyLossIsBurstyAndMatchesStationaryRate) {
  FaultProfile p;
  p.loss_prob = 0.0;
  p.p_good_to_bad = 0.05;
  p.p_bad_to_good = 0.25;  // Stationary P(bad) = 0.05 / 0.30 = 1/6.
  p.bad_loss_prob = 0.9;
  p.seed = 23;
  auto injector = FaultInjector::Create(p);
  ASSERT_TRUE(injector.ok());
  NetworkLink link(NetworkLinkConfig{});
  const int kAttempts = 30000;
  int longest_loss_run = 0, current_run = 0;
  for (int i = 0; i < kAttempts; ++i) {
    auto result = injector->TransmitFrame(link, 100);
    if (result.outcome == TransmitOutcome::kLost) {
      ++current_run;
      longest_loss_run = std::max(longest_loss_run, current_run);
    } else {
      current_run = 0;
    }
  }
  double loss_rate = static_cast<double>(injector->lost()) / kAttempts;
  EXPECT_NEAR(loss_rate, 0.9 / 6.0, 0.02);
  // Losses cluster in bad-state bursts: at this rate an i.i.d. channel would
  // essentially never produce a 6-loss run (p^6 ~ 1e-5 per position is
  // likely, but 10+ is the bursty signature).
  EXPECT_GE(longest_loss_run, 10);
}

TEST(FaultInjectorTest, BlackoutWindowDropsEverythingInside) {
  FaultProfile p;
  p.blackouts.push_back({10, 20});
  auto injector = FaultInjector::Create(p);
  ASSERT_TRUE(injector.ok());
  NetworkLink link(NetworkLinkConfig{});
  for (int i = 0; i < 30; ++i) {
    auto result = injector->TransmitFrame(link, 100);
    if (i >= 10 && i < 20) {
      EXPECT_EQ(result.outcome, TransmitOutcome::kBlackout) << i;
    } else {
      EXPECT_EQ(result.outcome, TransmitOutcome::kDelivered) << i;
    }
  }
  EXPECT_EQ(injector->blackout_drops(), 10);
  EXPECT_EQ(injector->delivered(), 20);
}

TEST(FaultInjectorTest, TruncationCorruptionAndStallsAccounted) {
  FaultProfile p;
  p.truncate_prob = 0.5;
  p.corrupt_prob = 0.5;  // Of the non-truncated half.
  p.latency_per_frame_sec = 0.01;
  p.stall_prob = 1.0;
  p.stall_sec = 0.09;
  p.seed = 5;
  auto injector = FaultInjector::Create(p);
  ASSERT_TRUE(injector.ok());
  NetworkLink link(NetworkLinkConfig{});
  for (int i = 0; i < 1000; ++i) {
    auto result = injector->TransmitFrame(link, 100);
    EXPECT_NEAR(result.latency_sec, 0.1, 1e-12);
    if (result.outcome == TransmitOutcome::kTruncated) {
      EXPECT_GT(result.bytes_delivered, 0);
      EXPECT_LT(result.bytes_delivered, 100);
    }
  }
  EXPECT_GT(injector->truncated(), 300);
  EXPECT_GT(injector->corrupted(), 100);
  EXPECT_NEAR(injector->total_latency_sec(), 100.0, 1e-6);
  EXPECT_EQ(injector->attempts(),
            injector->delivered() + injector->lost() + injector->corrupted() +
                injector->truncated() + injector->blackout_drops());
}

TEST(TransmitPolicyTest, Validation) {
  EXPECT_TRUE(TransmitPolicy{}.Validate().ok());
  TransmitPolicy p;
  p.max_attempts = 0;
  EXPECT_FALSE(p.Validate().ok());
  p = TransmitPolicy{};
  p.backoff_base_sec = -1.0;
  EXPECT_FALSE(p.Validate().ok());
  p = TransmitPolicy{};
  p.batch_deadline_sec = 0.0;
  EXPECT_FALSE(p.Validate().ok());
}

// ---------------------------------------------------------------------------
// Fault-aware capture, ingest bookkeeping, partial answers.
// ---------------------------------------------------------------------------

TEST_F(DeploymentTest, FaultyTransmitWithRetriesRecoversMostFrames) {
  Camera cam(Config(1, 0.2, 320), *feed_a_, *prior_a_, 608);
  FaultProfile fp;
  fp.loss_prob = 0.3;
  fp.seed = 7;
  auto injector = FaultInjector::Create(fp);
  ASSERT_TRUE(injector.ok());
  NetworkLink link(NetworkLinkConfig{});
  stats::Rng rng(11);
  TransmitPolicy policy;
  policy.max_attempts = 4;
  policy.backoff_base_sec = 0.0;
  auto batch = cam.CaptureAndTransmit(*injector, link, rng, policy);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->attempted_frames, 200);
  // With 4 attempts at 30% loss, per-frame failure probability is 0.3^4.
  EXPECT_GT(batch->DeliveryFraction(), 0.97);
  EXPECT_GT(batch->retransmissions, 0);
  EXPECT_EQ(batch->delivered_frames() + batch->frames_lost, batch->attempted_frames);
  // Retry accounting agrees between batch and link, and every attempt cost
  // radio bytes.
  EXPECT_EQ(link.retransmitted_frames(), batch->retransmissions);
  EXPECT_EQ(link.total_bytes(), batch->total_bytes);
  EXPECT_GT(link.total_bytes(), cam.FrameBytes() * batch->delivered_frames());
  EXPECT_GT(link.RetransmitEnergyJoules(), 0.0);
}

TEST_F(DeploymentTest, SingleAttemptLosesFramesButSurvivorsEstimate) {
  query::QuerySpec spec;
  spec.aggregate = query::AggregateFunction::kAvg;
  auto central = CentralSystem::Create(spec, 0.05);
  ASSERT_TRUE(central.ok());
  Camera cam(Config(1, 0.3), *feed_a_, *prior_a_, 608);
  ASSERT_TRUE(central->AddFeed(cam, yolo_).ok());

  FaultProfile fp;
  fp.loss_prob = 0.3;
  fp.seed = 9;
  auto injector = FaultInjector::Create(fp);
  ASSERT_TRUE(injector.ok());
  NetworkLink link(NetworkLinkConfig{});
  stats::Rng rng(12);
  TransmitPolicy policy;
  policy.max_attempts = 1;
  auto batch = cam.CaptureAndTransmit(*injector, link, rng, policy);
  ASSERT_TRUE(batch.ok());
  EXPECT_GT(batch->frames_lost, 0);
  EXPECT_LT(batch->delivered_frames(), batch->attempted_frames);
  EXPECT_EQ(batch->retransmissions, 0);

  ASSERT_TRUE(central->Ingest(*batch).ok());
  auto delivery = central->feed_delivery(1);
  ASSERT_TRUE(delivery.ok());
  EXPECT_EQ(delivery->first, batch->attempted_frames);
  EXPECT_EQ(delivery->second, batch->delivered_frames());
  auto estimate = central->CameraEstimate(1);
  ASSERT_TRUE(estimate.ok());
  EXPECT_GT(estimate->y_approx, 0.0);
  EXPECT_GT(estimate->err_b, 0.0);
}

TEST_F(DeploymentTest, BatchDeadlineCutsTransmissionShort) {
  Camera cam(Config(1, 0.2, 320), *feed_a_, *prior_a_, 608);
  FaultProfile fp;
  fp.latency_per_frame_sec = 0.1;  // 200 frames would need 20 s.
  auto injector = FaultInjector::Create(fp);
  ASSERT_TRUE(injector.ok());
  NetworkLink link(NetworkLinkConfig{});
  stats::Rng rng(13);
  TransmitPolicy policy;
  policy.batch_deadline_sec = 5.0;
  auto batch = cam.CaptureAndTransmit(*injector, link, rng, policy);
  ASSERT_TRUE(batch.ok());
  EXPECT_GT(batch->frames_lost, 0);
  EXPECT_LT(batch->delivered_frames(), batch->attempted_frames);
  EXPECT_GE(batch->transmit_seconds, 5.0);
  EXPECT_LT(batch->transmit_seconds, 5.5);
  // Frames past the deadline never hit the radio.
  EXPECT_EQ(link.total_frames(), batch->delivered_frames());
}

TEST_F(DeploymentTest, ReingestWarnsAndCountsBatches) {
  query::QuerySpec spec;
  spec.aggregate = query::AggregateFunction::kAvg;
  auto central = CentralSystem::Create(spec, 0.05);
  ASSERT_TRUE(central.ok());
  Camera cam(Config(1, 0.2), *feed_a_, *prior_a_, 608);
  ASSERT_TRUE(central->AddFeed(cam, yolo_).ok());

  NetworkLink link(NetworkLinkConfig{});
  stats::Rng rng(21);
  auto first = cam.CaptureAndTransmit(link, rng);
  auto second = cam.CaptureAndTransmit(link, rng);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(central->Ingest(*first).ok());
  ASSERT_TRUE(central->Ingest(*second).ok());  // Replaces, logs a warning.
  EXPECT_EQ(central->feeds_with_data(), 1);
  auto count = central->batches_ingested(1);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 2);
  EXPECT_EQ(central->batches_ingested(99).status().code(), util::StatusCode::kNotFound);
}

TEST_F(DeploymentTest, EmptyDeliveredBatchDemotesFeedToStale) {
  query::QuerySpec spec;
  spec.aggregate = query::AggregateFunction::kAvg;
  auto central = CentralSystem::Create(spec, 0.05);
  ASSERT_TRUE(central.ok());
  Camera cam(Config(1, 0.2), *feed_a_, *prior_a_, 608);
  ASSERT_TRUE(central->AddFeed(cam, yolo_).ok());

  // A fully blacked-out capture: frames were attempted, none arrived.
  FaultProfile fp;
  fp.blackouts.push_back(FaultProfile::Blackout::Forever());
  auto injector = FaultInjector::Create(fp);
  ASSERT_TRUE(injector.ok());
  NetworkLink link(NetworkLinkConfig{});
  stats::Rng rng(31);
  auto batch = cam.CaptureAndTransmit(*injector, link, rng, TransmitPolicy{});
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->delivered_frames(), 0);
  EXPECT_EQ(batch->frames_lost, batch->attempted_frames);

  ASSERT_TRUE(central->Ingest(*batch).ok());  // Honest failure, not an error.
  auto health = central->feed_health(1);
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(*health, FeedHealth::kStale);
  EXPECT_EQ(central->feeds_with_data(), 0);
  EXPECT_EQ(central->CityWideEstimate().status().code(),
            util::StatusCode::kFailedPrecondition);
  EXPECT_EQ(central->CameraEstimate(1).status().code(),
            util::StatusCode::kFailedPrecondition);

  ASSERT_TRUE(central->ReinstateFeed(1).ok());
  health = central->feed_health(1);
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(*health, FeedHealth::kNoData);
}

TEST_F(DeploymentTest, PartialCityWideEstimateReportsCoverage) {
  query::QuerySpec spec;
  spec.aggregate = query::AggregateFunction::kAvg;
  auto central = CentralSystem::Create(spec, 0.05);
  ASSERT_TRUE(central.ok());
  Camera cam_a(Config(1, 0.3), *feed_a_, *prior_a_, 608);
  Camera cam_b(Config(2, 0.3), *feed_b_, *prior_b_, 608);
  ASSERT_TRUE(central->AddFeed(cam_a, yolo_).ok());
  ASSERT_TRUE(central->AddFeed(cam_b, yolo_).ok());

  NetworkLink link(NetworkLinkConfig{});
  stats::Rng rng(41);
  auto batch_a = cam_a.CaptureAndTransmit(link, rng);
  ASSERT_TRUE(batch_a.ok());
  ASSERT_TRUE(central->Ingest(*batch_a).ok());
  // Camera 2 never delivers: the strict path refuses, the partial path
  // answers with honest coverage.
  auto strict = central->CityWideEstimate();
  EXPECT_EQ(strict.status().code(), util::StatusCode::kFailedPrecondition);

  auto partial = central->CityWideEstimate(PartialPolicy{});
  ASSERT_TRUE(partial.ok());
  EXPECT_EQ(partial->strata_combined, 1);
  EXPECT_EQ(partial->strata_total, 2);
  // feed_a has 1000 of 1800 total frames.
  EXPECT_NEAR(partial->coverage, 1000.0 / 1800.0, 1e-9);
  EXPECT_GT(partial->estimate.y_approx, 0.0);
  // The surviving feed gets the whole budget: delta / 1.
  EXPECT_NEAR(partial->total_delta, 0.05, 1e-9);

  PartialPolicy two_feeds;
  two_feeds.min_live_feeds = 2;
  EXPECT_EQ(central->CityWideEstimate(two_feeds).status().code(),
            util::StatusCode::kFailedPrecondition);
  PartialPolicy high_coverage;
  high_coverage.min_coverage = 0.9;
  EXPECT_EQ(central->CityWideEstimate(high_coverage).status().code(),
            util::StatusCode::kFailedPrecondition);
  PartialPolicy bad_policy;
  bad_policy.min_coverage = 1.5;
  EXPECT_EQ(central->CityWideEstimate(bad_policy).status().code(),
            util::StatusCode::kInvalidArgument);

  // Once the second feed delivers, strict works and partial reports full
  // coverage.
  auto batch_b = cam_b.CaptureAndTransmit(link, rng);
  ASSERT_TRUE(batch_b.ok());
  ASSERT_TRUE(central->Ingest(*batch_b).ok());
  strict = central->CityWideEstimate();
  ASSERT_TRUE(strict.ok());
  auto full = central->CityWideEstimate(PartialPolicy{});
  ASSERT_TRUE(full.ok());
  EXPECT_NEAR(full->coverage, 1.0, 1e-12);
  EXPECT_EQ(full->strata_combined, 2);
}

TEST_F(DeploymentTest, DriftCheckDemotesAndReinstateRevives) {
  query::QuerySpec spec;
  spec.aggregate = query::AggregateFunction::kAvg;
  auto central = CentralSystem::Create(spec, 0.05);
  ASSERT_TRUE(central.ok());
  Camera cam(Config(1, 0.3), *feed_a_, *prior_a_, 608);
  ASSERT_TRUE(central->AddFeed(cam, yolo_).ok());

  EXPECT_EQ(central->CheckFeedDrift(1, 1.0).status().code(),
            util::StatusCode::kFailedPrecondition);
  EXPECT_EQ(central->CheckFeedDrift(99, 1.0).status().code(), util::StatusCode::kNotFound);

  NetworkLink link(NetworkLinkConfig{});
  stats::Rng rng(51);
  auto batch = cam.CaptureAndTransmit(link, rng);
  ASSERT_TRUE(batch.ok());
  ASSERT_TRUE(central->Ingest(*batch).ok());
  auto estimate = central->CameraEstimate(1);
  ASSERT_TRUE(estimate.ok());

  // Consistent reference (the feed's own estimate): stays live.
  auto consistent = central->CheckFeedDrift(1, estimate->y_approx, /*slack=*/0.25);
  ASSERT_TRUE(consistent.ok());
  EXPECT_TRUE(*consistent);
  EXPECT_EQ(*central->feed_health(1), FeedHealth::kLive);

  // Wildly off reference (profiled on very different traffic): demoted.
  auto drifted = central->CheckFeedDrift(1, estimate->y_approx * 100.0);
  ASSERT_TRUE(drifted.ok());
  EXPECT_FALSE(*drifted);
  EXPECT_EQ(*central->feed_health(1), FeedHealth::kStale);
  EXPECT_EQ(central->feeds_with_data(), 0);
  EXPECT_EQ(central->CityWideEstimate().status().code(),
            util::StatusCode::kFailedPrecondition);

  // Re-profile, reinstate, re-ingest: live again.
  ASSERT_TRUE(central->ReinstateFeed(1).ok());
  auto fresh = cam.CaptureAndTransmit(link, rng);
  ASSERT_TRUE(fresh.ok());
  ASSERT_TRUE(central->Ingest(*fresh).ok());
  EXPECT_EQ(*central->feed_health(1), FeedHealth::kLive);
  EXPECT_TRUE(central->CityWideEstimate().ok());
}

TEST_F(DeploymentTest, OverdueFeedIsDemoted) {
  query::QuerySpec spec;
  spec.aggregate = query::AggregateFunction::kAvg;
  auto central = CentralSystem::Create(spec, 0.05);
  ASSERT_TRUE(central.ok());
  Camera cam(Config(1, 0.2), *feed_a_, *prior_a_, 608);
  ASSERT_TRUE(central->AddFeed(cam, yolo_).ok());
  NetworkLink link(NetworkLinkConfig{});
  stats::Rng rng(61);
  auto batch = cam.CaptureAndTransmit(link, rng);
  ASSERT_TRUE(batch.ok());
  ASSERT_TRUE(central->Ingest(*batch).ok());
  EXPECT_EQ(central->feeds_with_data(), 1);

  ASSERT_TRUE(central->MarkFeedOverdue(1).ok());
  EXPECT_EQ(*central->feed_health(1), FeedHealth::kStale);
  EXPECT_EQ(central->feeds_with_data(), 0);
  EXPECT_EQ(central->MarkFeedOverdue(99).code(), util::StatusCode::kNotFound);
}

}  // namespace
}  // namespace camera
}  // namespace smokescreen
