#include "video/scene_simulator.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <map>

#include "video/presets.h"

namespace smokescreen {
namespace video {
namespace {

SceneConfig BaseConfig() {
  SceneConfig cfg;
  cfg.name = "base";
  cfg.seed = 7;
  cfg.num_frames = 2000;
  cfg.car_rate = 0.4;
  cfg.car_dwell_mean = 5;
  cfg.person_rate = 0.02;
  cfg.person_dwell_mean = 10;
  cfg.face_visible_prob = 0.3;
  return cfg;
}

TEST(SceneConfigTest, ValidationRejectsBadValues) {
  SceneConfig cfg = BaseConfig();
  EXPECT_TRUE(cfg.Validate().ok());

  cfg.num_frames = 0;
  EXPECT_FALSE(cfg.Validate().ok());
  cfg = BaseConfig();
  cfg.num_sequences = 0;
  EXPECT_FALSE(cfg.Validate().ok());
  cfg = BaseConfig();
  cfg.num_sequences = 5000;  // > num_frames
  EXPECT_FALSE(cfg.Validate().ok());
  cfg = BaseConfig();
  cfg.car_rate = -0.1;
  EXPECT_FALSE(cfg.Validate().ok());
  cfg = BaseConfig();
  cfg.car_dwell_mean = 0.5;
  EXPECT_FALSE(cfg.Validate().ok());
  cfg = BaseConfig();
  cfg.face_visible_prob = 1.5;
  EXPECT_FALSE(cfg.Validate().ok());
  cfg = BaseConfig();
  cfg.burstiness = 1.0;
  EXPECT_FALSE(cfg.Validate().ok());
  cfg = BaseConfig();
  cfg.scene_contrast_mean = 0.0;
  EXPECT_FALSE(cfg.Validate().ok());
  cfg = BaseConfig();
  cfg.fps = 0.0;
  EXPECT_FALSE(cfg.Validate().ok());
  cfg = BaseConfig();
  cfg.full_resolution = -1;
  EXPECT_FALSE(cfg.Validate().ok());
}

TEST(SceneSimulatorTest, DeterministicInSeed) {
  SceneConfig cfg = BaseConfig();
  auto a = SimulateScene(cfg);
  auto b = SimulateScene(cfg);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->num_frames(), b->num_frames());
  for (int64_t i = 0; i < a->num_frames(); ++i) {
    ASSERT_EQ(a->frame(i).objects.size(), b->frame(i).objects.size()) << i;
    EXPECT_EQ(a->frame(i).scene_contrast, b->frame(i).scene_contrast);
  }
  EXPECT_EQ(a->dataset_id(), b->dataset_id());
}

TEST(SceneSimulatorTest, DifferentSeedsDiffer) {
  SceneConfig cfg = BaseConfig();
  auto a = SimulateScene(cfg);
  cfg.seed = 8;
  auto b = SimulateScene(cfg);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a->dataset_id(), b->dataset_id());
  int64_t differing = 0;
  for (int64_t i = 0; i < a->num_frames(); ++i) {
    if (a->frame(i).objects.size() != b->frame(i).objects.size()) ++differing;
  }
  EXPECT_GT(differing, 0);
}

TEST(SceneSimulatorTest, CarOccupancyMatchesMGInfinity) {
  // Steady state: mean active cars = rate * dwell.
  SceneConfig cfg = BaseConfig();
  cfg.num_frames = 20000;
  cfg.burstiness = 0.0;  // Disable modulation for a clean check.
  auto ds = SimulateScene(cfg);
  ASSERT_TRUE(ds.ok());
  double expected = cfg.car_rate * cfg.car_dwell_mean;
  EXPECT_NEAR(ds->GtMeanCount(ObjectClass::kCar), expected, expected * 0.1);
}

TEST(SceneSimulatorTest, PersonContainmentMatchesCalibrationIdentity) {
  SceneConfig cfg = BaseConfig();
  cfg.num_frames = 30000;
  cfg.person_rate = 0.05;
  cfg.person_dwell_mean = 8.0;
  auto ds = SimulateScene(cfg);
  ASSERT_TRUE(ds.ok());
  double expected = 1.0 - std::exp(-cfg.person_rate * cfg.person_dwell_mean);
  EXPECT_NEAR(ds->GtContainmentFraction(ObjectClass::kPerson), expected, 0.05);
}

TEST(SceneSimulatorTest, FacesAlwaysAccompanyPersons) {
  SceneConfig cfg = BaseConfig();
  cfg.face_visible_prob = 1.0;
  auto ds = SimulateScene(cfg);
  ASSERT_TRUE(ds.ok());
  int64_t face_frames = 0;
  for (const Frame& f : ds->frames()) {
    if (f.ContainsGt(ObjectClass::kFace)) {
      ++face_frames;
      EXPECT_TRUE(f.ContainsGt(ObjectClass::kPerson)) << "frame " << f.frame_id;
    }
  }
  EXPECT_GT(face_frames, 0);
}

TEST(SceneSimulatorTest, NoFacesWhenProbabilityZero) {
  SceneConfig cfg = BaseConfig();
  cfg.face_visible_prob = 0.0;
  auto ds = SimulateScene(cfg);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->GtContainmentFraction(ObjectClass::kFace), 0.0);
}

TEST(SceneSimulatorTest, TrackIdsAreUniquePerObjectIdentity) {
  auto ds = SimulateScene(BaseConfig());
  ASSERT_TRUE(ds.ok());
  // The same track id must always belong to the same class.
  std::map<int64_t, ObjectClass> classes;
  for (const Frame& f : ds->frames()) {
    for (const GtObject& obj : f.objects) {
      auto [it, inserted] = classes.emplace(obj.track_id, obj.cls);
      if (!inserted) {
        EXPECT_EQ(it->second, obj.cls) << "track " << obj.track_id;
      }
    }
  }
  EXPECT_GT(classes.size(), 10u);
}

TEST(SceneSimulatorTest, ObjectSizesWithinClamps) {
  auto ds = SimulateScene(BaseConfig());
  ASSERT_TRUE(ds.ok());
  for (const Frame& f : ds->frames()) {
    for (const GtObject& obj : f.objects) {
      EXPECT_GE(obj.apparent_size, 2.0);
      EXPECT_LE(obj.apparent_size, 450.0);
      EXPECT_GT(obj.contrast, 0.0);
      EXPECT_LE(obj.contrast, 1.0);
    }
  }
}

// FNV-1a over every field a consumer of a simulated dataset reads: frame id,
// sequence id, timestamp and scene contrast, then each object's class, track
// id, size and contrast, in object order.
uint64_t DatasetFingerprint(const VideoDataset& ds) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  auto mix = [&hash](uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (word >> (8 * byte)) & 0xff;
      hash *= 0x100000001b3ULL;
    }
  };
  auto bits = [](double value) {
    uint64_t word = 0;
    std::memcpy(&word, &value, sizeof(word));
    return word;
  };
  for (const Frame& f : ds.frames()) {
    mix(static_cast<uint64_t>(f.frame_id));
    mix(static_cast<uint64_t>(f.sequence_id));
    mix(bits(f.timestamp_sec));
    mix(bits(f.scene_contrast));
    for (const GtObject& obj : f.objects) {
      mix(static_cast<uint64_t>(obj.cls));
      mix(static_cast<uint64_t>(obj.track_id));
      mix(bits(obj.apparent_size));
      mix(bits(obj.contrast));
    }
  }
  return hash;
}

TEST(SceneSimulatorTest, PresetFingerprintsArePinned) {
  // The simulator must draw exactly the random numbers it always has, in
  // the same order, including draws no field keeps: every pinned profile,
  // invocation count and calibration figure depends on these datasets.
  // A dropped, added or reordered draw changes both fingerprints.
  auto a = MakePreset(ScenePreset::kMvi40771);
  auto b = MakePreset(ScenePreset::kMvi40775);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(DatasetFingerprint(*a), 0xdde6c06b8d66d199ULL);
  EXPECT_EQ(DatasetFingerprint(*b), 0xfdfb36bbfd5a46bdULL);
}

TEST(SceneSimulatorTest, SceneContrastTracksConfig) {
  SceneConfig night = BaseConfig();
  night.scene_contrast_mean = 0.55;
  night.scene_contrast_jitter = 0.03;
  auto ds = SimulateScene(night);
  ASSERT_TRUE(ds.ok());
  double sum = 0;
  for (const Frame& f : ds->frames()) sum += f.scene_contrast;
  EXPECT_NEAR(sum / static_cast<double>(ds->num_frames()), 0.55, 0.02);
}

TEST(SceneSimulatorTest, SequencesStartPopulated) {
  // Warm-up must avoid empty starts in dense scenes.
  SceneConfig cfg = BaseConfig();
  cfg.car_rate = 2.0;
  cfg.car_dwell_mean = 20;
  cfg.num_sequences = 4;
  auto ds = SimulateScene(cfg);
  ASSERT_TRUE(ds.ok());
  for (const SequenceInfo& seq : ds->sequences()) {
    EXPECT_GT(ds->frame(seq.first_frame).CountGt(ObjectClass::kCar), 0)
        << "sequence " << seq.name << " starts empty";
  }
}

// --- Preset calibration: the statistics the paper reports ---

TEST(PresetTest, NightStreetShape) {
  auto ds = MakePreset(ScenePreset::kNightStreet);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->num_frames(), 19463);
  EXPECT_EQ(ds->sequences().size(), 1u);
  EXPECT_EQ(ds->full_resolution(), 640);
  // Night scene.
  EXPECT_LT(ds->frame(0).scene_contrast, 0.75);
}

TEST(PresetTest, NightStreetClassContainment) {
  auto ds = MakePreset(ScenePreset::kNightStreet);
  ASSERT_TRUE(ds.ok());
  // Paper: 14.18% person, 4.02% face (detected); GT targets sit slightly
  // above to absorb recall losses.
  EXPECT_NEAR(ds->GtContainmentFraction(ObjectClass::kPerson), 0.16, 0.035);
  EXPECT_NEAR(ds->GtContainmentFraction(ObjectClass::kFace), 0.048, 0.02);
}

TEST(PresetTest, UaDetracShape) {
  auto ds = MakePreset(ScenePreset::kUaDetrac);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->num_frames(), 15210);
  EXPECT_EQ(ds->sequences().size(), 12u);
  EXPECT_EQ(ds->full_resolution(), 608);
  // Daytime scene, busy traffic.
  EXPECT_GT(ds->frame(0).scene_contrast, 0.6);
  EXPECT_GT(ds->GtMeanCount(ObjectClass::kCar), 4.0);
}

TEST(PresetTest, UaDetracClassContainment) {
  auto ds = MakePreset(ScenePreset::kUaDetrac);
  ASSERT_TRUE(ds.ok());
  // Paper: 65.86% person, 2.48% face (detected).
  EXPECT_NEAR(ds->GtContainmentFraction(ObjectClass::kPerson), 0.77, 0.08);
  EXPECT_NEAR(ds->GtContainmentFraction(ObjectClass::kFace), 0.028, 0.015);
}

TEST(PresetTest, Figure10Sequences) {
  auto a = MakePreset(ScenePreset::kMvi40771);
  auto b = MakePreset(ScenePreset::kMvi40775);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->num_frames(), 1720);  // Paper's MVI_40771.
  EXPECT_EQ(b->num_frames(), 975);   // Paper's MVI_40775.
  // Visually similar: both busy daytime intersections with similar density.
  double density_a = a->GtMeanCount(ObjectClass::kCar);
  double density_b = b->GtMeanCount(ObjectClass::kCar);
  EXPECT_GT(density_a, 4.0);
  EXPECT_GT(density_b, 4.0);
  EXPECT_LT(std::abs(density_a - density_b) / density_a, 0.5);
}

TEST(PresetTest, ScaledPresetKeepsStatistics) {
  auto small = MakePresetScaled(ScenePreset::kNightStreet, 3000);
  ASSERT_TRUE(small.ok());
  EXPECT_EQ(small->num_frames(), 3000);
  EXPECT_NEAR(small->GtContainmentFraction(ObjectClass::kPerson), 0.16, 0.06);
}

TEST(PresetTest, PresetNames) {
  EXPECT_STREQ(ScenePresetName(ScenePreset::kNightStreet), "night-street");
  EXPECT_STREQ(ScenePresetName(ScenePreset::kUaDetrac), "ua-detrac");
  EXPECT_STREQ(ScenePresetName(ScenePreset::kMvi40771), "MVI_40771");
  EXPECT_STREQ(ScenePresetName(ScenePreset::kMvi40775), "MVI_40775");
}

}  // namespace
}  // namespace video
}  // namespace smokescreen
