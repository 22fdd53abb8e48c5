#include "video/dataset.h"

#include <gtest/gtest.h>

#include <utility>

#include "video/presets.h"
#include "video/scene_simulator.h"

namespace smokescreen {
namespace video {
namespace {

VideoDataset MakeSmallDataset() {
  SceneConfig cfg;
  cfg.name = "tiny";
  cfg.seed = 42;
  cfg.num_frames = 120;
  cfg.num_sequences = 3;
  cfg.car_rate = 0.5;
  cfg.car_dwell_mean = 5;
  cfg.person_rate = 0.05;
  cfg.person_dwell_mean = 5;
  cfg.face_visible_prob = 0.5;
  auto result = SimulateScene(cfg);
  result.status().CheckOk();
  return std::move(result).ValueOrDie();
}

TEST(VideoDatasetTest, BasicAccessors) {
  VideoDataset ds = MakeSmallDataset();
  EXPECT_EQ(ds.name(), "tiny");
  EXPECT_EQ(ds.num_frames(), 120);
  EXPECT_EQ(ds.sequences().size(), 3u);
  EXPECT_GT(ds.dataset_id(), 0u);
  EXPECT_EQ(ds.frame(0).frame_id, 0);
  EXPECT_EQ(ds.frame(119).frame_id, 119);
}

TEST(VideoDatasetTest, SequencePartitionCoversAllFrames) {
  VideoDataset ds = MakeSmallDataset();
  int64_t total = 0;
  int64_t expected_start = 0;
  for (const SequenceInfo& seq : ds.sequences()) {
    EXPECT_EQ(seq.first_frame, expected_start);
    expected_start += seq.num_frames;
    total += seq.num_frames;
  }
  EXPECT_EQ(total, ds.num_frames());
}

TEST(VideoDatasetTest, FrameSequenceIdsMatchPartition) {
  VideoDataset ds = MakeSmallDataset();
  for (size_t s = 0; s < ds.sequences().size(); ++s) {
    const SequenceInfo& seq = ds.sequences()[s];
    for (int64_t i = seq.first_frame; i < seq.first_frame + seq.num_frames; ++i) {
      EXPECT_EQ(ds.frame(i).sequence_id, static_cast<int32_t>(s));
    }
  }
}

TEST(VideoDatasetTest, GtStatistics) {
  VideoDataset ds = MakeSmallDataset();
  double car_frac = ds.GtContainmentFraction(ObjectClass::kCar);
  EXPECT_GE(car_frac, 0.0);
  EXPECT_LE(car_frac, 1.0);
  EXPECT_GE(ds.GtMeanCount(ObjectClass::kCar), 0.0);
  // Faces only occur with persons in this simulator.
  EXPECT_LE(ds.GtContainmentFraction(ObjectClass::kFace),
            ds.GtContainmentFraction(ObjectClass::kPerson) + 1e-12);
}

}  // namespace
}  // namespace video
}  // namespace smokescreen
