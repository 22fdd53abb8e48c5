#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>

#include "degrade/degraded_view.h"
#include "degrade/intervention.h"
#include "detect/models.h"
#include "video/presets.h"
#include "video/scene_simulator.h"

namespace smokescreen {
namespace degrade {
namespace {

using video::ClassSet;
using video::ObjectClass;
using video::ScenePreset;

TEST(InterventionSetTest, DefaultsAreNoOp) {
  InterventionSet iv = InterventionSet::None();
  EXPECT_TRUE(iv.Validate().ok());
  EXPECT_TRUE(iv.IsPurelyRandom());
  EXPECT_EQ(iv.sample_fraction, 1.0);
  EXPECT_EQ(iv.EffectiveResolution(608), 608);
  EXPECT_NEAR(iv.DegradationScore(608), 0.0, 1e-12);
}

TEST(InterventionSetTest, ValidationRejectsBadKnobs) {
  InterventionSet iv;
  iv.sample_fraction = 0.0;
  EXPECT_FALSE(iv.Validate().ok());
  iv.sample_fraction = 1.5;
  EXPECT_FALSE(iv.Validate().ok());
  iv = InterventionSet::None();
  iv.resolution = -1;
  EXPECT_FALSE(iv.Validate().ok());
  iv = InterventionSet::None();
  iv.contrast_scale = 0.0;
  EXPECT_FALSE(iv.Validate().ok());
  iv.contrast_scale = 1.2;
  EXPECT_FALSE(iv.Validate().ok());
}

TEST(InterventionSetTest, ValidationRejectsNanFraction) {
  InterventionSet iv;
  iv.sample_fraction = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(iv.Validate().code(), util::StatusCode::kInvalidArgument);
}

TEST(InterventionSetTest, ValidationRejectsNanContrast) {
  // A NaN contrast would otherwise key the memo at llround(NaN).
  InterventionSet iv;
  iv.contrast_scale = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(iv.Validate().code(), util::StatusCode::kInvalidArgument);
}

TEST(InterventionSetTest, ValidationRejectsClassesThePriorDoesNotRecord) {
  // The prior records person and face only; a car bit would never be set,
  // so restricting car would silently remove nothing.
  for (const ClassSet& ok : {ClassSet::None(), ClassSet({ObjectClass::kPerson}),
                             ClassSet({ObjectClass::kFace}),
                             ClassSet({ObjectClass::kPerson, ObjectClass::kFace})}) {
    InterventionSet iv;
    iv.restricted = ok;
    EXPECT_TRUE(iv.Validate().ok()) << ok.ToString();
  }
  for (const ClassSet& bad : {ClassSet({ObjectClass::kCar}),
                              ClassSet({ObjectClass::kCar, ObjectClass::kPerson}),
                              ClassSet({ObjectClass::kCar, ObjectClass::kPerson,
                                        ObjectClass::kFace})}) {
    InterventionSet iv;
    iv.restricted = bad;
    util::Status status = iv.Validate();
    EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument) << bad.ToString();
    EXPECT_NE(status.message().find("car"), std::string::npos) << status.message();
  }
}

TEST(InterventionSetTest, PurityClassification) {
  InterventionSet iv;
  iv.sample_fraction = 0.01;  // Heavy sampling is still random.
  EXPECT_TRUE(iv.IsPurelyRandom());

  iv.resolution = 128;
  EXPECT_FALSE(iv.IsPurelyRandom());

  iv = InterventionSet::None();
  iv.restricted.Add(ObjectClass::kPerson);
  EXPECT_FALSE(iv.IsPurelyRandom());

  iv = InterventionSet::None();
  iv.contrast_scale = 0.7;  // Noise addition is non-random.
  EXPECT_FALSE(iv.IsPurelyRandom());
}

TEST(InterventionSetTest, DegradationScoreOrdersSettings) {
  InterventionSet light;
  light.sample_fraction = 0.9;
  InterventionSet heavy;
  heavy.sample_fraction = 0.1;
  heavy.resolution = 128;
  heavy.restricted.Add(ObjectClass::kPerson);
  EXPECT_GT(heavy.DegradationScore(608), light.DegradationScore(608));
}

TEST(InterventionSetTest, ToStringIsReadable) {
  InterventionSet iv;
  iv.sample_fraction = 0.05;
  iv.resolution = 256;
  iv.restricted.Add(ObjectClass::kPerson);
  std::string s = iv.ToString();
  EXPECT_NE(s.find("f=0.05"), std::string::npos);
  EXPECT_NE(s.find("p=256"), std::string::npos);
  EXPECT_NE(s.find("c=person"), std::string::npos);

  EXPECT_NE(InterventionSet::None().ToString().find("p=full"), std::string::npos);
}

TEST(InterventionSetTest, Equality) {
  InterventionSet a, b;
  a.sample_fraction = b.sample_fraction = 0.3;
  a.resolution = b.resolution = 192;
  EXPECT_TRUE(a == b);
  b.restricted.Add(ObjectClass::kFace);
  EXPECT_FALSE(a == b);
}

class DegradedViewTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto ds = video::MakePresetScaled(ScenePreset::kUaDetrac, 1200);
    ds.status().CheckOk();
    dataset_ = std::make_unique<video::VideoDataset>(std::move(ds).ValueOrDie());
    auto prior = detect::ClassPriorIndex::Build(*dataset_, yolo_, mtcnn_);
    prior.status().CheckOk();
    prior_ = std::make_unique<detect::ClassPriorIndex>(std::move(prior).ValueOrDie());
  }

  detect::SimYoloV4 yolo_;
  detect::SimMtcnn mtcnn_;
  std::unique_ptr<video::VideoDataset> dataset_;
  std::unique_ptr<detect::ClassPriorIndex> prior_;
};

TEST_F(DegradedViewTest, SamplingFractionYieldsExpectedCount) {
  stats::Rng rng(1);
  InterventionSet iv;
  iv.sample_fraction = 0.25;
  auto view = DegradedView::Create(*dataset_, *prior_, iv, 608, rng);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->sampled_frames().size(), 300u);  // 0.25 * 1200.
  EXPECT_EQ(view->eligible_population(), 1200);
  EXPECT_EQ(view->original_population(), 1200);
  EXPECT_EQ(view->resolution(), 608);
}

TEST_F(DegradedViewTest, SampledFramesAreDistinctAndInRange) {
  stats::Rng rng(2);
  InterventionSet iv;
  iv.sample_fraction = 0.5;
  auto view = DegradedView::Create(*dataset_, *prior_, iv, 608, rng);
  ASSERT_TRUE(view.ok());
  std::set<int64_t> unique(view->sampled_frames().begin(), view->sampled_frames().end());
  EXPECT_EQ(unique.size(), view->sampled_frames().size());
  EXPECT_GE(*unique.begin(), 0);
  EXPECT_LT(*unique.rbegin(), dataset_->num_frames());
}

TEST_F(DegradedViewTest, ResolutionKnobPropagates) {
  stats::Rng rng(3);
  InterventionSet iv;
  iv.resolution = 192;
  auto view = DegradedView::Create(*dataset_, *prior_, iv, 608, rng);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->resolution(), 192);
}

TEST_F(DegradedViewTest, ImageRemovalExcludesRestrictedFrames) {
  stats::Rng rng(4);
  InterventionSet iv;
  iv.restricted.Add(ObjectClass::kPerson);
  iv.sample_fraction = 1.0;
  auto view = DegradedView::Create(*dataset_, *prior_, iv, 608, rng);
  ASSERT_TRUE(view.ok());
  EXPECT_LT(view->eligible_population(), dataset_->num_frames());
  for (int64_t idx : view->sampled_frames()) {
    EXPECT_FALSE(prior_->Contains(idx, ObjectClass::kPerson)) << "frame " << idx;
  }
}

TEST_F(DegradedViewTest, SampleCappedByEligiblePopulation) {
  // DETRAC: most frames contain persons, so f=0.5 of the ORIGINAL population
  // exceeds what survives removal; the sample must cap at the survivors.
  stats::Rng rng(5);
  InterventionSet iv;
  iv.restricted.Add(ObjectClass::kPerson);
  iv.sample_fraction = 0.9;
  auto view = DegradedView::Create(*dataset_, *prior_, iv, 608, rng);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(static_cast<int64_t>(view->sampled_frames().size()), view->eligible_population());
}

TEST_F(DegradedViewTest, RemovalOfEverythingFails) {
  // A crowd of large, high-contrast pedestrians instead of the fixture's
  // DETRAC: YOLOv4 sees a person in every frame, so restricting person+face
  // leaves nothing to sample.
  video::SceneConfig crowd;
  crowd.name = "crowd";
  crowd.num_frames = 300;
  crowd.car_rate = 0.0;
  crowd.person_rate = 0.5;
  crowd.person_dwell_mean = 100;
  crowd.person_size_mean = 150;
  crowd.face_visible_prob = 0.5;
  crowd.burstiness = 0.0;
  auto dataset = video::SimulateScene(crowd);
  ASSERT_TRUE(dataset.ok());
  detect::SimYoloV4 yolo;
  detect::SimMtcnn mtcnn;
  auto prior = detect::ClassPriorIndex::Build(*dataset, yolo, mtcnn);
  ASSERT_TRUE(prior.ok());
  InterventionSet iv;
  iv.restricted = ClassSet({ObjectClass::kPerson, ObjectClass::kFace});
  ASSERT_TRUE(prior->FramesWithoutAny(iv.restricted).empty())
      << "the prior must mark every frame for this test to mean anything";

  stats::Rng rng(6);
  auto view = DegradedView::Create(*dataset, *prior, iv, 608, rng);
  EXPECT_EQ(view.status().code(), util::StatusCode::kFailedPrecondition);
}

TEST_F(DegradedViewTest, CarRestrictionRejected) {
  stats::Rng rng(8);
  InterventionSet iv;
  iv.restricted.Add(ObjectClass::kCar);
  auto view = DegradedView::Create(*dataset_, *prior_, iv, 608, rng);
  EXPECT_EQ(view.status().code(), util::StatusCode::kInvalidArgument);
}

TEST_F(DegradedViewTest, InvalidInterventionRejected) {
  stats::Rng rng(7);
  InterventionSet iv;
  iv.sample_fraction = -0.5;
  EXPECT_FALSE(DegradedView::Create(*dataset_, *prior_, iv, 608, rng).ok());
}

TEST_F(DegradedViewTest, DifferentRngYieldsDifferentSamples) {
  InterventionSet iv;
  iv.sample_fraction = 0.1;
  stats::Rng rng_a(10), rng_b(11);
  auto a = DegradedView::Create(*dataset_, *prior_, iv, 608, rng_a);
  auto b = DegradedView::Create(*dataset_, *prior_, iv, 608, rng_b);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a->sampled_frames(), b->sampled_frames());
}

TEST_F(DegradedViewTest, ContrastScaleForwarded) {
  stats::Rng rng(12);
  InterventionSet iv;
  iv.contrast_scale = 0.6;
  auto view = DegradedView::Create(*dataset_, *prior_, iv, 608, rng);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->contrast_scale(), 0.6);
}

}  // namespace
}  // namespace degrade
}  // namespace smokescreen
