#include "video/dataset.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

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

TEST(VideoDatasetTest, ExtractSequence) {
  VideoDataset ds = MakeSmallDataset();
  auto sub = ds.ExtractSequence("tiny_seq1");
  ASSERT_TRUE(sub.ok());
  EXPECT_EQ(sub->num_frames(), ds.sequences()[1].num_frames);
  // Frame ids are preserved so detector outputs stay identical.
  EXPECT_EQ(sub->frame(0).frame_id, ds.sequences()[1].first_frame);
  EXPECT_EQ(sub->dataset_id(), ds.dataset_id());
}

TEST(VideoDatasetTest, ExtractMissingSequenceFails) {
  VideoDataset ds = MakeSmallDataset();
  EXPECT_FALSE(ds.ExtractSequence("nope").ok());
}

TEST(VideoDatasetTest, SaveLoadRoundTrip) {
  VideoDataset ds = MakeSmallDataset();
  std::string path = testing::TempDir() + "/smk_ds_roundtrip.bin";
  ASSERT_TRUE(ds.SaveTo(path).ok());
  auto loaded = VideoDataset::LoadFrom(path);
  ASSERT_TRUE(loaded.ok());

  EXPECT_EQ(loaded->name(), ds.name());
  EXPECT_EQ(loaded->dataset_id(), ds.dataset_id());
  EXPECT_EQ(loaded->full_resolution(), ds.full_resolution());
  EXPECT_EQ(loaded->fps(), ds.fps());
  ASSERT_EQ(loaded->num_frames(), ds.num_frames());
  ASSERT_EQ(loaded->sequences().size(), ds.sequences().size());

  for (int64_t i = 0; i < ds.num_frames(); ++i) {
    const Frame& a = ds.frame(i);
    const Frame& b = loaded->frame(i);
    ASSERT_EQ(a.objects.size(), b.objects.size()) << "frame " << i;
    EXPECT_EQ(a.frame_id, b.frame_id);
    EXPECT_EQ(a.sequence_id, b.sequence_id);
    EXPECT_EQ(a.timestamp_sec, b.timestamp_sec);
    EXPECT_EQ(a.scene_contrast, b.scene_contrast);
    for (size_t j = 0; j < a.objects.size(); ++j) {
      EXPECT_EQ(a.objects[j].cls, b.objects[j].cls);
      EXPECT_EQ(a.objects[j].track_id, b.objects[j].track_id);
      EXPECT_EQ(a.objects[j].apparent_size, b.objects[j].apparent_size);
      EXPECT_EQ(a.objects[j].contrast, b.objects[j].contrast);
    }
  }
  std::remove(path.c_str());
}

TEST(VideoDatasetTest, LoadMissingFileFails) {
  EXPECT_FALSE(VideoDataset::LoadFrom("/nonexistent/nowhere.bin").ok());
}

TEST(VideoDatasetTest, LoadCorruptFileFails) {
  std::string path = testing::TempDir() + "/smk_ds_corrupt.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out << "not a dataset";
  }
  EXPECT_FALSE(VideoDataset::LoadFrom(path).ok());
  std::remove(path.c_str());
}

TEST(VideoDatasetTest, LoadTruncatedFileFails) {
  VideoDataset ds = MakeSmallDataset();
  std::string path = testing::TempDir() + "/smk_ds_trunc.bin";
  ASSERT_TRUE(ds.SaveTo(path).ok());
  // Truncate to half size.
  {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    auto size = in.tellg();
    std::vector<char> half(static_cast<size_t>(size) / 2);
    in.seekg(0);
    in.read(half.data(), static_cast<std::streamsize>(half.size()));
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(half.data(), static_cast<std::streamsize>(half.size()));
  }
  EXPECT_FALSE(VideoDataset::LoadFrom(path).ok());
  std::remove(path.c_str());
}

// Byte offsets of the counts in a file SaveTo wrote for `ds`: the sequence
// count follows the header (magic, version, name, id, resolution, fps), the
// first sequence's first_frame follows its name, the frame count follows the
// sequence table, and the first frame's object count follows that frame's
// four scalars.
struct CountOffsets {
  size_t sequences;
  size_t first_sequence_start;
  size_t frames;
  size_t first_frame_objects;
};

CountOffsets OffsetsFor(const VideoDataset& ds) {
  CountOffsets at;
  at.sequences = 4 + 4 + 8 + ds.name().size() + 8 + 4 + 8;
  at.first_sequence_start = at.sequences + 8 + 8 + ds.sequences().front().name.size();
  at.frames = at.sequences + 8;
  for (const SequenceInfo& seq : ds.sequences()) at.frames += 8 + seq.name.size() + 8 + 8;
  at.first_frame_objects = at.frames + 8 + 8 + 4 + 8 + 8;
  return at;
}

// Saves `ds`, then overwrites the bytes at `offset` with `value`.
template <typename T>
std::string SaveAndPatch(const VideoDataset& ds, const std::string& file, size_t offset,
                         T value) {
  std::string path = testing::TempDir() + "/" + file;
  EXPECT_TRUE(ds.SaveTo(path).ok());
  std::fstream io(path, std::ios::binary | std::ios::in | std::ios::out);
  io.seekp(static_cast<std::streamoff>(offset));
  io.write(reinterpret_cast<const char*>(&value), sizeof(value));
  EXPECT_TRUE(static_cast<bool>(io));
  return path;
}

TEST(VideoDatasetTest, LoadRejectsSequenceCountBeyondFile) {
  VideoDataset ds = MakeSmallDataset();
  std::string path =
      SaveAndPatch(ds, "smk_ds_seqs.bin", OffsetsFor(ds).sequences, uint64_t{1} << 62);
  auto loaded = VideoDataset::LoadFrom(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("sequences"), std::string::npos)
      << loaded.status().message();
  std::remove(path.c_str());
}

TEST(VideoDatasetTest, LoadRejectsFrameCountBeyondFile) {
  VideoDataset ds = MakeSmallDataset();
  std::string path =
      SaveAndPatch(ds, "smk_ds_frames.bin", OffsetsFor(ds).frames, uint64_t{1} << 62);
  auto loaded = VideoDataset::LoadFrom(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("frames"), std::string::npos)
      << loaded.status().message();
  std::remove(path.c_str());
}

TEST(VideoDatasetTest, LoadRejectsObjectCountBeyondFile) {
  VideoDataset ds = MakeSmallDataset();
  std::string path = SaveAndPatch(ds, "smk_ds_objects.bin", OffsetsFor(ds).first_frame_objects,
                                  uint32_t{0xffffffff});
  auto loaded = VideoDataset::LoadFrom(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("objects"), std::string::npos)
      << loaded.status().message();
  std::remove(path.c_str());
}

TEST(VideoDatasetTest, LoadRejectsSequenceRangeOutsideFrames) {
  // A sequence's first_frame and num_frames are followed by the frame count
  // they must fit inside; ExtractSequence would slice past the frames.
  VideoDataset ds = MakeSmallDataset();
  const size_t start = OffsetsFor(ds).first_sequence_start;
  const size_t length = start + 8;
  for (const auto& [offset, value] : std::vector<std::pair<size_t, int64_t>>{
           {start, -1},
           {length, -1},
           {length, int64_t{1} << 62},
           {length, ds.num_frames() + 1},
           {start, ds.num_frames() + 1}}) {
    SCOPED_TRACE("offset " + std::to_string(offset) + " value " + std::to_string(value));
    std::string path = SaveAndPatch(ds, "smk_ds_seq_range.bin", offset, value);
    auto loaded = VideoDataset::LoadFrom(path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_NE(loaded.status().message().find("claims first frame"), std::string::npos)
        << loaded.status().message();
    std::remove(path.c_str());
  }
  // The unpatched file still loads, and every sequence extracts.
  std::string path = SaveAndPatch(ds, "smk_ds_seq_range.bin", start, int64_t{0});
  auto loaded = VideoDataset::LoadFrom(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  for (const SequenceInfo& seq : loaded->sequences()) {
    EXPECT_TRUE(loaded->ExtractSequence(seq.name).ok());
  }
  std::remove(path.c_str());
}

TEST(VideoDatasetTest, LoadRejectsNameLengthBeyondFile) {
  VideoDataset ds = MakeSmallDataset();
  // The name length sits right after the magic and version words.
  std::string path = SaveAndPatch(ds, "smk_ds_name.bin", 8, uint64_t{1} << 40);
  EXPECT_FALSE(VideoDataset::LoadFrom(path).ok());
  std::remove(path.c_str());
}

TEST(VideoDatasetTest, LoadRefusesVersion1File) {
  // Version 1 stored two position doubles per object; this build neither
  // writes nor reads them.
  VideoDataset ds = MakeSmallDataset();
  std::string path = SaveAndPatch(ds, "smk_ds_v1.bin", 4, uint32_t{1});
  auto loaded = VideoDataset::LoadFrom(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("version 1"), std::string::npos)
      << loaded.status().message();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace video
}  // namespace smokescreen
