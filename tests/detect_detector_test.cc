#include "detect/detector.h"

#include <gtest/gtest.h>

#include <ostream>

#include "detect/models.h"
#include "detect/registry.h"
#include "video/presets.h"
#include "video/scene_simulator.h"

namespace smokescreen {
namespace detect {
namespace {

using video::ObjectClass;
using video::ScenePreset;
using video::VideoDataset;

VideoDataset SmallNight() {
  auto ds = video::MakePresetScaled(ScenePreset::kNightStreet, 1500);
  ds.status().CheckOk();
  return std::move(ds).ValueOrDie();
}

VideoDataset SmallDetrac() {
  auto ds = video::MakePresetScaled(ScenePreset::kUaDetrac, 1500);
  ds.status().CheckOk();
  return std::move(ds).ValueOrDie();
}

TEST(DetectorModelTest, MetadataMatchesPaperSetting) {
  SimYoloV4 yolo;
  EXPECT_EQ(yolo.max_resolution(), 608);
  EXPECT_EQ(yolo.resolution_stride(), 32);
  EXPECT_EQ(yolo.name(), "SimYoloV4");

  SimMaskRcnn mask;
  EXPECT_EQ(mask.max_resolution(), 640);
  EXPECT_EQ(mask.resolution_stride(), 64);  // "multiples of 64" per the paper.

  SimMtcnn mtcnn;
  EXPECT_EQ(mtcnn.max_resolution(), 640);
}

TEST(DetectorModelTest, ResolutionValidation) {
  SimMaskRcnn mask;
  EXPECT_TRUE(mask.ValidateResolution(128).ok());
  EXPECT_TRUE(mask.ValidateResolution(640).ok());
  EXPECT_FALSE(mask.ValidateResolution(130).ok());  // Not a multiple of 64.
  EXPECT_FALSE(mask.ValidateResolution(704).ok());  // Above max.
  EXPECT_FALSE(mask.ValidateResolution(0).ok());
  EXPECT_FALSE(mask.ValidateResolution(-64).ok());

  SimYoloV4 yolo;
  EXPECT_TRUE(yolo.ValidateResolution(416).ok());   // Multiple of 32.
  EXPECT_FALSE(yolo.ValidateResolution(640).ok());  // Above YOLO's 608 max.
}

TEST(DetectorModelTest, OutputsAreDeterministic) {
  VideoDataset ds = SmallNight();
  SimYoloV4 yolo;
  for (int64_t i = 0; i < 50; ++i) {
    auto a = yolo.CountDetections(ds, i, 320, ObjectClass::kCar, 1.0);
    auto b = yolo.CountDetections(ds, i, 320, ObjectClass::kCar, 1.0);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(*a, *b) << "frame " << i;
  }
}

TEST(DetectorModelTest, OutputsVaryWithResolution) {
  VideoDataset ds = SmallDetrac();
  SimYoloV4 yolo;
  int64_t differing = 0;
  for (int64_t i = 0; i < 200; ++i) {
    auto hi = yolo.CountDetections(ds, i, 608, ObjectClass::kCar, 1.0);
    auto lo = yolo.CountDetections(ds, i, 64, ObjectClass::kCar, 1.0);
    ASSERT_TRUE(hi.ok());
    ASSERT_TRUE(lo.ok());
    if (*hi != *lo) ++differing;
  }
  EXPECT_GT(differing, 50);
}

TEST(DetectorModelTest, LowResolutionSystematicallyUndercounts) {
  // The non-random nature of the resolution intervention: mean counts drop.
  VideoDataset ds = SmallDetrac();
  SimYoloV4 yolo;
  double total_hi = 0, total_lo = 0;
  for (int64_t i = 0; i < ds.num_frames(); ++i) {
    total_hi += *yolo.CountDetections(ds, i, 608, ObjectClass::kCar, 1.0);
    total_lo += *yolo.CountDetections(ds, i, 128, ObjectClass::kCar, 1.0);
  }
  EXPECT_LT(total_lo, 0.75 * total_hi);
}

TEST(DetectorModelTest, RecallMonotoneInResolutionAwayFromQuirk) {
  SimYoloV4 yolo;
  video::GtObject obj;
  obj.cls = ObjectClass::kCar;
  obj.apparent_size = 60.0;
  obj.contrast = 0.8;
  double prev = 0.0;
  for (int res : {64, 128, 192, 256, 320}) {
    double recall = yolo.ObjectRecall(obj.cls, obj.apparent_size, obj.contrast, res, 608, 1.0);
    EXPECT_GE(recall, prev) << "res " << res;
    prev = recall;
  }
  EXPECT_GT(prev, 0.9);  // Large clear object nearly always found.
}

TEST(DetectorModelTest, ContrastScaleReducesRecall) {
  SimMaskRcnn mask;
  video::GtObject obj;
  obj.cls = ObjectClass::kCar;
  obj.apparent_size = 30.0;
  obj.contrast = 0.8;
  double clean = mask.ObjectRecall(obj.cls, obj.apparent_size, obj.contrast, 320, 640, 1.0);
  double noisy = mask.ObjectRecall(obj.cls, obj.apparent_size, obj.contrast, 320, 640, 0.5);
  EXPECT_LT(noisy, clean);
}

TEST(DetectorModelTest, MaskRcnnBetterAtSmallObjectsThanYolo) {
  SimYoloV4 yolo;
  SimMaskRcnn mask;
  video::GtObject obj;
  obj.cls = ObjectClass::kCar;
  obj.apparent_size = 18.0;
  obj.contrast = 0.9;
  EXPECT_GT(mask.ObjectRecall(obj.cls, obj.apparent_size, obj.contrast, 320, 640, 1.0),
            yolo.ObjectRecall(obj.cls, obj.apparent_size, obj.contrast, 320, 640, 1.0));
}

TEST(DetectorModelTest, YoloNightAnomalyAt384) {
  // Figure 7/8: on night scenes the 384px output deviates more than 320px.
  VideoDataset ds = SmallNight();
  SimYoloV4 yolo;
  double avg_608 = 0, avg_384 = 0, avg_320 = 0;
  for (int64_t i = 0; i < ds.num_frames(); ++i) {
    avg_608 += *yolo.CountDetections(ds, i, 608, ObjectClass::kCar, 1.0);
    avg_384 += *yolo.CountDetections(ds, i, 384, ObjectClass::kCar, 1.0);
    avg_320 += *yolo.CountDetections(ds, i, 320, ObjectClass::kCar, 1.0);
  }
  double n = static_cast<double>(ds.num_frames());
  avg_608 /= n;
  avg_384 /= n;
  avg_320 /= n;
  double err_384 = std::abs(avg_384 - avg_608) / avg_608;
  double err_320 = std::abs(avg_320 - avg_608) / avg_608;
  EXPECT_GT(err_384, err_320) << "384 anomaly missing";
  EXPECT_GT(avg_384, avg_608) << "anomaly should overcount (duplicates)";
}

TEST(DetectorModelTest, YoloAnomalyAbsentOnDaytimeScenes) {
  VideoDataset ds = SmallDetrac();
  SimYoloV4 yolo;
  double avg_608 = 0, avg_384 = 0, avg_320 = 0;
  for (int64_t i = 0; i < ds.num_frames(); ++i) {
    avg_608 += *yolo.CountDetections(ds, i, 608, ObjectClass::kCar, 1.0);
    avg_384 += *yolo.CountDetections(ds, i, 384, ObjectClass::kCar, 1.0);
    avg_320 += *yolo.CountDetections(ds, i, 320, ObjectClass::kCar, 1.0);
  }
  // Monotone degradation, no overcount spike.
  EXPECT_LT(avg_384, avg_608 * 1.02);
  EXPECT_LT(avg_320, avg_384);
}

TEST(DetectorModelTest, MtcnnOnlyDetectsFaces) {
  VideoDataset ds = SmallDetrac();
  SimMtcnn mtcnn;
  for (int64_t i = 0; i < 100; ++i) {
    auto cars = mtcnn.CountDetections(ds, i, 640, ObjectClass::kCar, 1.0);
    ASSERT_TRUE(cars.ok());
    EXPECT_EQ(*cars, 0);
    auto persons = mtcnn.CountDetections(ds, i, 640, ObjectClass::kPerson, 1.0);
    ASSERT_TRUE(persons.ok());
    EXPECT_EQ(*persons, 0);
  }
}

TEST(DetectorModelTest, MtcnnValidatesEveryClass) {
  // A face-only model still validates car and person requests: a bad
  // resolution or frame fails for them exactly as it does for face (and as
  // it does on every other model).
  VideoDataset ds = SmallNight();
  SimMtcnn mtcnn;
  for (ObjectClass cls : {ObjectClass::kCar, ObjectClass::kPerson, ObjectClass::kFace}) {
    SCOPED_TRACE(video::ObjectClassName(cls));
    EXPECT_EQ(mtcnn.CountDetections(ds, 0, 7, cls, 1.0).status().code(),
              util::StatusCode::kInvalidArgument);
    EXPECT_EQ(mtcnn.CountDetections(ds, 0, 656, cls, 1.0).status().code(),
              util::StatusCode::kInvalidArgument);
    EXPECT_EQ(mtcnn.CountDetections(ds, -1, 7, cls, 1.0).status().code(),
              util::StatusCode::kInvalidArgument);
    EXPECT_EQ(mtcnn.CountDetections(ds, -1, 320, cls, 1.0).status().code(),
              util::StatusCode::kOutOfRange);
    EXPECT_EQ(mtcnn.CountDetections(ds, ds.num_frames(), 320, cls, 1.0).status().code(),
              util::StatusCode::kOutOfRange);
    EXPECT_TRUE(mtcnn.CountDetections(ds, ds.num_frames() - 1, 320, cls, 1.0).ok());
  }
}

TEST(DetectorModelTest, OutOfRangeFrameFails) {
  VideoDataset ds = SmallNight();
  SimYoloV4 yolo;
  EXPECT_FALSE(yolo.CountDetections(ds, -1, 320, ObjectClass::kCar, 1.0).ok());
  EXPECT_FALSE(yolo.CountDetections(ds, ds.num_frames(), 320, ObjectClass::kCar, 1.0).ok());
}

TEST(DetectorModelTest, InvalidResolutionFailsThroughCountDetections) {
  VideoDataset ds = SmallNight();
  SimMaskRcnn mask;
  EXPECT_FALSE(mask.CountDetections(ds, 0, 100, ObjectClass::kCar, 1.0).ok());
}

TEST(RegistryTest, KnownNames) {
  for (const std::string& name : RegisteredDetectorNames()) {
    auto det = MakeDetector(name);
    ASSERT_TRUE(det.ok()) << name;
    EXPECT_NE((*det).get(), nullptr);
  }
  EXPECT_EQ(RegisteredDetectorNames().size(), 4u);
}

TEST(RegistryTest, UnknownNameFails) {
  EXPECT_FALSE(MakeDetector("resnet").ok());
  EXPECT_FALSE(MakeDetector("").ok());
  EXPECT_FALSE(MakeDetector("YOLOV4").ok());  // Case-sensitive.
}

TEST(RegistryTest, SsdIsWorseAtSmallObjects) {
  SimSsd ssd;
  SimYoloV4 yolo;
  EXPECT_EQ(ssd.max_resolution(), 512);
  video::GtObject obj;
  obj.cls = ObjectClass::kCar;
  obj.apparent_size = 20.0;
  obj.contrast = 0.9;
  EXPECT_LT(ssd.ObjectRecall(obj.cls, obj.apparent_size, obj.contrast, 320, 608, 1.0),
            yolo.ObjectRecall(obj.cls, obj.apparent_size, obj.contrast, 320, 608, 1.0));
}

TEST(RegistryTest, FactoriesMatchClasses) {
  auto yolo = MakeDetector("yolov4");
  ASSERT_TRUE(yolo.ok());
  EXPECT_EQ((*yolo)->max_resolution(), 608);
  auto mask = MakeDetector("maskrcnn");
  ASSERT_TRUE(mask.ok());
  EXPECT_EQ((*mask)->max_resolution(), 640);
}

// ---------------------------------------------------------------------------
// Columnar batch kernel: CountBatch must be bit-identical to per-frame
// CountDetections for every (model, resolution, class, contrast) the
// calibrated path can take — plateau classes, the zero-plateau MTCNN car
// column, the YOLO 384px duplicate quirk, contrast-degraded inputs, and
// both band-decision regimes (deep miss region at tiny resolutions, plateau
// region at full resolution).
// ---------------------------------------------------------------------------

void ExpectBatchMatchesScalar(const Detector& model, const VideoDataset& ds, int resolution,
                              ObjectClass cls, double contrast) {
  std::vector<int64_t> frames(static_cast<size_t>(ds.num_frames()));
  for (size_t i = 0; i < frames.size(); ++i) frames[i] = static_cast<int64_t>(i);
  std::vector<int> batch(frames.size(), -1);
  ASSERT_TRUE(model
                  .CountBatch(ds, frames, resolution, cls, contrast,
                              std::span<int>(batch.data(), batch.size()))
                  .ok())
      << model.name() << " res " << resolution;
  for (size_t i = 0; i < frames.size(); ++i) {
    auto direct = model.CountDetections(ds, frames[i], resolution, cls, contrast);
    ASSERT_TRUE(direct.ok());
    ASSERT_EQ(batch[i], *direct) << model.name() << " frame " << i << " res " << resolution
                                 << " cls " << static_cast<int>(cls) << " contrast "
                                 << contrast;
  }
}

TEST(CountBatchTest, BitIdenticalToScalarAcrossSweep) {
  const VideoDataset night = SmallNight();
  const VideoDataset detrac = SmallDetrac();
  SimYoloV4 yolo;
  SimMaskRcnn mask;
  SimSsd ssd;
  SimMtcnn mtcnn;
  for (const VideoDataset* ds : {&night, &detrac}) {
    for (ObjectClass cls : {ObjectClass::kCar, ObjectClass::kPerson, ObjectClass::kFace}) {
      // 384 exercises the YOLO duplicate bump (on night scenes), 96 the deep
      // miss region, 608 the plateau.
      for (int resolution : {96, 384, 608}) {
        for (double contrast : {1.0, 0.6}) {
          ExpectBatchMatchesScalar(yolo, *ds, resolution, cls, contrast);
        }
      }
      ExpectBatchMatchesScalar(mask, *ds, 256, cls, 1.0);
      ExpectBatchMatchesScalar(mask, *ds, 640, cls, 0.7);
      ExpectBatchMatchesScalar(ssd, *ds, 512, cls, 1.0);
      // MTCNN: kCar/kPerson run the same kernel with a zero plateau and no
      // false positives.
      ExpectBatchMatchesScalar(mtcnn, *ds, 320, cls, 1.0);
    }
  }
}

TEST(CountBatchTest, ChunkingAndOrderInvariant) {
  // Split/duplicate/reorder the frame list: each output position must still
  // equal the per-frame call (counts are a pure function of the key).
  const VideoDataset ds = SmallNight();
  SimYoloV4 yolo;
  std::vector<int64_t> frames = {5, 3, 3, 1499, 0, 700, 700, 700, 2};
  std::vector<int> out(frames.size(), -1);
  ASSERT_TRUE(yolo.CountBatch(ds, frames, 384, ObjectClass::kCar, 1.0,
                              std::span<int>(out.data(), out.size()))
                  .ok());
  for (size_t i = 0; i < frames.size(); ++i) {
    auto direct = yolo.CountDetections(ds, frames[i], 384, ObjectClass::kCar, 1.0);
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(out[i], *direct) << "position " << i;
  }
  // Empty batch is a no-op success.
  EXPECT_TRUE(yolo.CountBatch(ds, {}, 384, ObjectClass::kCar, 1.0, {}).ok());
}

TEST(CountBatchTest, ErrorLeavesOutputUntouched) {
  // CountBatch validates the WHOLE request before writing: a bad resolution,
  // any out-of-range frame (even mid-batch), or a length mismatch must
  // return an error with `out` byte-for-byte intact — callers install
  // results from `out` on non-OK paths being impossible.
  const VideoDataset ds = SmallNight();
  SimYoloV4 yolo;
  const std::vector<int> sentinel(5, -777);

  // Bad resolution (not a stride multiple).
  {
    std::vector<int> out = sentinel;
    std::vector<int64_t> frames = {0, 1, 2, 3, 4};
    EXPECT_FALSE(yolo.CountBatch(ds, frames, 321, ObjectClass::kCar, 1.0,
                                 std::span<int>(out.data(), out.size()))
                     .ok());
    EXPECT_EQ(out, sentinel);
  }
  // Out-of-range frame in the MIDDLE of the batch: earlier valid frames
  // must not have been written either.
  {
    std::vector<int> out = sentinel;
    std::vector<int64_t> frames = {0, 1, ds.num_frames(), 3, 4};
    EXPECT_FALSE(yolo.CountBatch(ds, frames, 320, ObjectClass::kCar, 1.0,
                                 std::span<int>(out.data(), out.size()))
                     .ok());
    EXPECT_EQ(out, sentinel);
  }
  // Negative frame index.
  {
    std::vector<int> out = sentinel;
    std::vector<int64_t> frames = {0, -1, 2, 3, 4};
    EXPECT_FALSE(yolo.CountBatch(ds, frames, 320, ObjectClass::kCar, 1.0,
                                 std::span<int>(out.data(), out.size()))
                     .ok());
    EXPECT_EQ(out, sentinel);
  }
  // Length mismatch between frames and out.
  {
    std::vector<int> out = sentinel;
    std::vector<int64_t> frames = {0, 1, 2};
    EXPECT_FALSE(yolo.CountBatch(ds, frames, 320, ObjectClass::kCar, 1.0,
                                 std::span<int>(out.data(), out.size()))
                     .ok());
    EXPECT_EQ(out, sentinel);
  }
  // Same contract for MTCNN's non-face classes, which count zero: length
  // mismatch, bad resolution and out-of-range frames.
  SimMtcnn mtcnn;
  for (ObjectClass cls : {ObjectClass::kCar, ObjectClass::kPerson}) {
    SCOPED_TRACE(video::ObjectClassName(cls));
    {
      std::vector<int> out = sentinel;
      std::vector<int64_t> frames = {0, 1, 2};
      EXPECT_EQ(mtcnn.CountBatch(ds, frames, 320, cls, 1.0,
                                 std::span<int>(out.data(), out.size()))
                    .code(),
                util::StatusCode::kInvalidArgument);
      EXPECT_EQ(out, sentinel);
    }
    {
      std::vector<int> out = sentinel;
      std::vector<int64_t> frames = {0, 1, 2, 3, 4};
      EXPECT_EQ(mtcnn.CountBatch(ds, frames, 7, cls, 1.0,
                                 std::span<int>(out.data(), out.size()))
                    .code(),
                util::StatusCode::kInvalidArgument);
      EXPECT_EQ(out, sentinel);
    }
    {
      std::vector<int> out(2, -777);
      std::vector<int64_t> frames = {-5, 1000000};
      EXPECT_EQ(mtcnn.CountBatch(ds, frames, 320, cls, 1.0,
                                 std::span<int>(out.data(), out.size()))
                    .code(),
                util::StatusCode::kOutOfRange);
      EXPECT_EQ(out, std::vector<int>(2, -777));
    }
    {
      std::vector<int> out = sentinel;
      std::vector<int64_t> frames = {0, 1, ds.num_frames(), 3, 4};
      EXPECT_EQ(mtcnn.CountBatch(ds, frames, 320, cls, 1.0,
                                 std::span<int>(out.data(), out.size()))
                    .code(),
                util::StatusCode::kOutOfRange);
      EXPECT_EQ(out, sentinel);
    }
    // A valid request still counts zero.
    std::vector<int> out = sentinel;
    std::vector<int64_t> frames = {0, 1, 2, 3, 4};
    ASSERT_TRUE(mtcnn.CountBatch(ds, frames, 320, cls, 1.0,
                                 std::span<int>(out.data(), out.size()))
                    .ok());
    EXPECT_EQ(out, std::vector<int>(5, 0));
  }
}

// ---------------------------------------------------------------------------
// The scalar reference, pinned. CountBatchTest ties the kernel to
// CountDetections; these digests tie CountDetections to fixed values over
// every class, three resolutions and two contrasts, for each model on
// 1,500 frames of each preset. They were recorded from the model's
// per-frame AoS implementation, which walked Frame::objects, before the
// reference moved onto the scene index; any change to the draws, their hash
// words or the index's layout moves one.
// ---------------------------------------------------------------------------

struct PinnedScalarParam {
  ScenePreset preset;
  const char* model;
  int resolutions[3];
  uint64_t digest;
  int64_t detections;
};

void PrintTo(const PinnedScalarParam& param, std::ostream* os) {
  *os << video::ScenePresetName(param.preset) << " " << param.model;
}

class PinnedScalarReferenceTest : public ::testing::TestWithParam<PinnedScalarParam> {};

TEST_P(PinnedScalarReferenceTest, CountsMatchTheirPinnedDigest) {
  const PinnedScalarParam& param = GetParam();
  const VideoDataset ds =
      param.preset == ScenePreset::kNightStreet ? SmallNight() : SmallDetrac();
  auto model = MakeDetector(param.model);
  ASSERT_TRUE(model.ok());
  uint64_t digest = 0xcbf29ce484222325ULL;  // FNV-1a over the counts.
  int64_t detections = 0;
  for (ObjectClass cls : {ObjectClass::kCar, ObjectClass::kPerson, ObjectClass::kFace}) {
    for (int resolution : param.resolutions) {
      for (double contrast : {1.0, 0.6}) {
        for (int64_t f = 0; f < ds.num_frames(); ++f) {
          auto count = (*model)->CountDetections(ds, f, resolution, cls, contrast);
          ASSERT_TRUE(count.ok());
          digest = (digest ^ static_cast<uint64_t>(*count)) * 0x100000001b3ULL;
          detections += *count;
        }
      }
    }
  }
  EXPECT_EQ(digest, param.digest) << std::hex << digest;
  EXPECT_EQ(detections, param.detections);
}

INSTANTIATE_TEST_SUITE_P(
    PresetsAndModels, PinnedScalarReferenceTest,
    ::testing::Values(
        PinnedScalarParam{ScenePreset::kNightStreet, "yolov4", {96, 384, 608},
                          0xbde820096a52d131ULL, 12842},
        PinnedScalarParam{ScenePreset::kNightStreet, "maskrcnn", {128, 384, 640},
                          0xa599f352685f5822ULL, 12989},
        PinnedScalarParam{ScenePreset::kNightStreet, "ssd", {96, 384, 512},
                          0x9681f44bd31dbfbdULL, 7052},
        PinnedScalarParam{ScenePreset::kNightStreet, "mtcnn", {96, 384, 640},
                          0xa4fb5ddad8ad3215ULL, 104},
        PinnedScalarParam{ScenePreset::kUaDetrac, "yolov4", {96, 384, 608},
                          0x025f5861e9cf060eULL, 65831},
        PinnedScalarParam{ScenePreset::kUaDetrac, "maskrcnn", {128, 384, 640},
                          0xaa0c9cde45a20326ULL, 80841},
        PinnedScalarParam{ScenePreset::kUaDetrac, "ssd", {96, 384, 512},
                          0x21268d5634b0dfbfULL, 46682},
        PinnedScalarParam{ScenePreset::kUaDetrac, "mtcnn", {96, 384, 640},
                          0xb2b31a2a4f40cfb8ULL, 207}));

}  // namespace
}  // namespace detect
}  // namespace smokescreen
