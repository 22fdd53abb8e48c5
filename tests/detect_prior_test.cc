#include "detect/class_prior_index.h"

#include <gtest/gtest.h>

#include "detect/models.h"
#include "video/presets.h"

namespace smokescreen {
namespace detect {
namespace {

using video::ClassSet;
using video::ObjectClass;
using video::ScenePreset;
using video::VideoDataset;

struct PriorFixture {
  VideoDataset dataset;
  ClassPriorIndex prior;
};

PriorFixture MakeFixture(ScenePreset preset, int64_t frames) {
  auto ds = video::MakePresetScaled(preset, frames);
  ds.status().CheckOk();
  SimYoloV4 yolo;
  SimMtcnn mtcnn;
  auto prior = ClassPriorIndex::Build(*ds, yolo, mtcnn);
  prior.status().CheckOk();
  return {std::move(ds).ValueOrDie(), std::move(prior).ValueOrDie()};
}

TEST(ClassPriorIndexTest, CoversAllFrames) {
  PriorFixture fx = MakeFixture(ScenePreset::kNightStreet, 800);
  EXPECT_EQ(fx.prior.num_frames(), fx.dataset.num_frames());
}

TEST(ClassPriorIndexTest, ContainmentConsistentWithContains) {
  PriorFixture fx = MakeFixture(ScenePreset::kNightStreet, 800);
  int64_t persons = 0;
  for (int64_t i = 0; i < fx.prior.num_frames(); ++i) {
    if (fx.prior.Contains(i, ObjectClass::kPerson)) ++persons;
  }
  EXPECT_NEAR(static_cast<double>(persons) / static_cast<double>(fx.prior.num_frames()),
              fx.prior.ContainmentFraction(ObjectClass::kPerson), 1e-12);
}

TEST(ClassPriorIndexTest, ContainsAnyMatchesUnion) {
  PriorFixture fx = MakeFixture(ScenePreset::kNightStreet, 500);
  ClassSet both({ObjectClass::kPerson, ObjectClass::kFace});
  for (int64_t i = 0; i < fx.prior.num_frames(); ++i) {
    bool expected = fx.prior.Contains(i, ObjectClass::kPerson) ||
                    fx.prior.Contains(i, ObjectClass::kFace);
    EXPECT_EQ(fx.prior.ContainsAny(i, both), expected) << i;
  }
}

TEST(ClassPriorIndexTest, EmptySetMatchesNothing) {
  PriorFixture fx = MakeFixture(ScenePreset::kNightStreet, 300);
  for (int64_t i = 0; i < fx.prior.num_frames(); ++i) {
    EXPECT_FALSE(fx.prior.ContainsAny(i, ClassSet::None()));
  }
  EXPECT_EQ(fx.prior.FramesWithoutAny(ClassSet::None()).size(),
            static_cast<size_t>(fx.prior.num_frames()));
}

TEST(ClassPriorIndexTest, FramesWithoutAnyExcludesExactlyContainingFrames) {
  PriorFixture fx = MakeFixture(ScenePreset::kUaDetrac, 800);
  ClassSet person({ObjectClass::kPerson});
  std::vector<int64_t> kept = fx.prior.FramesWithoutAny(person);
  for (int64_t idx : kept) {
    EXPECT_FALSE(fx.prior.Contains(idx, ObjectClass::kPerson));
  }
  int64_t containing = 0;
  for (int64_t i = 0; i < fx.prior.num_frames(); ++i) {
    if (fx.prior.Contains(i, ObjectClass::kPerson)) ++containing;
  }
  EXPECT_EQ(static_cast<int64_t>(kept.size()) + containing, fx.prior.num_frames());
}

TEST(ClassPriorIndexTest, EqualsScalarOracle) {
  // Build counts in fixed chunks with the batched kernel; the oracle asks
  // the scalar path one frame at a time. Two full chunks plus a partial one.
  constexpr int64_t kFrames = 2 * 4096 + 123;
  SimYoloV4 yolo;
  SimMtcnn mtcnn;
  for (ScenePreset preset : {ScenePreset::kNightStreet, ScenePreset::kUaDetrac}) {
    auto ds = video::MakePresetScaled(preset, kFrames);
    ASSERT_TRUE(ds.ok());
    auto prior = ClassPriorIndex::Build(*ds, yolo, mtcnn);
    ASSERT_TRUE(prior.ok());
    ASSERT_EQ(prior->num_frames(), kFrames);
    int64_t persons = 0;
    int64_t faces = 0;
    for (int64_t i = 0; i < kFrames; ++i) {
      auto person =
          yolo.CountDetections(*ds, i, yolo.max_resolution(), ObjectClass::kPerson, 1.0);
      auto face = mtcnn.CountDetections(*ds, i, mtcnn.max_resolution(), ObjectClass::kFace, 1.0);
      ASSERT_TRUE(person.ok());
      ASSERT_TRUE(face.ok());
      ASSERT_EQ(prior->Contains(i, ObjectClass::kPerson), *person > 0)
          << video::ScenePresetName(preset) << " frame " << i;
      ASSERT_EQ(prior->Contains(i, ObjectClass::kFace), *face > 0)
          << video::ScenePresetName(preset) << " frame " << i;
      ASSERT_FALSE(prior->Contains(i, ObjectClass::kCar)) << "car is not recorded";
      persons += *person > 0;
      faces += *face > 0;
    }
    // Both classes occur, so the comparison above is not vacuous.
    EXPECT_GT(persons, 0);
    EXPECT_GT(faces, 0);
  }
}

TEST(ClassPriorIndexTest, NightStreetPriorsNearPaperNumbers) {
  // Full-size dataset: paper reports 14.18% person, 4.02% face.
  auto ds = video::MakePreset(ScenePreset::kNightStreet);
  ds.status().CheckOk();
  SimYoloV4 yolo;
  SimMtcnn mtcnn;
  auto prior = ClassPriorIndex::Build(*ds, yolo, mtcnn);
  prior.status().CheckOk();
  EXPECT_NEAR(prior->ContainmentFraction(ObjectClass::kPerson), 0.1418, 0.03);
  EXPECT_NEAR(prior->ContainmentFraction(ObjectClass::kFace), 0.0402, 0.015);
}

TEST(ClassPriorIndexTest, UaDetracPriorsNearPaperNumbers) {
  // Paper reports 65.86% person, 2.48% face.
  auto ds = video::MakePreset(ScenePreset::kUaDetrac);
  ds.status().CheckOk();
  SimYoloV4 yolo;
  SimMtcnn mtcnn;
  auto prior = ClassPriorIndex::Build(*ds, yolo, mtcnn);
  prior.status().CheckOk();
  EXPECT_NEAR(prior->ContainmentFraction(ObjectClass::kPerson), 0.6586, 0.06);
  EXPECT_NEAR(prior->ContainmentFraction(ObjectClass::kFace), 0.0248, 0.012);
}

TEST(ClassPriorIndexTest, UaDetracPersonRemovalLeavesMinority) {
  // §5.2.2's constraint: frames without "person" are fewer than half, which
  // forces the restricted-class sweep to sample fraction 0.1.
  auto ds = video::MakePreset(ScenePreset::kUaDetrac);
  ds.status().CheckOk();
  SimYoloV4 yolo;
  SimMtcnn mtcnn;
  auto prior = ClassPriorIndex::Build(*ds, yolo, mtcnn);
  prior.status().CheckOk();
  auto kept = prior->FramesWithoutAny(ClassSet({ObjectClass::kPerson}));
  EXPECT_LT(static_cast<double>(kept.size()), 0.5 * static_cast<double>(ds->num_frames()));
}

TEST(ClassPriorIndexTest, PersonRemovalIsStricterThanFaceRemoval) {
  // The paper: restricting "person" is usually stricter because people can
  // appear with unclear faces.
  PriorFixture fx = MakeFixture(ScenePreset::kNightStreet, 3000);
  auto no_person = fx.prior.FramesWithoutAny(ClassSet({ObjectClass::kPerson}));
  auto no_face = fx.prior.FramesWithoutAny(ClassSet({ObjectClass::kFace}));
  EXPECT_LT(no_person.size(), no_face.size());
}

}  // namespace
}  // namespace detect
}  // namespace smokescreen
