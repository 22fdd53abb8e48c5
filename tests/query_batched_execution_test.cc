// Batched execution correctness: the FillCounts batch core must be
// bit-identical to per-frame CountDetections at EVERY batch size, on both
// presets, including contrast-degraded and restricted-class (COUNT
// predicate) queries — and the invocation/hit counters must tally a batch
// exactly as the scalar path would (N distinct misses = N invocations).

#include "query/output_source.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#include "detect/models.h"
#include "video/presets.h"

namespace smokescreen {
namespace query {
namespace {

using video::ObjectClass;
using video::ScenePreset;

// Raw counts for `frames` through FillCounts, or the request's error.
util::Result<std::vector<int>> Counts(FrameOutputSource& source,
                                      const std::vector<int64_t>& frames, int resolution,
                                      double contrast_scale = 1.0) {
  std::vector<int> out(frames.size());
  SMK_RETURN_IF_ERROR(source.FillCounts(frames, resolution, contrast_scale, out));
  return out;
}

class BatchedExecutionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto ds = video::MakePresetScaled(ScenePreset::kUaDetrac, 400);
    ds.status().CheckOk();
    dataset_ = std::make_unique<video::VideoDataset>(std::move(ds).ValueOrDie());
  }

  FrameOutputSource MakeSource() {
    return FrameOutputSource(*dataset_, yolo_, ObjectClass::kCar);
  }

  detect::SimYoloV4 yolo_;
  std::unique_ptr<video::VideoDataset> dataset_;
};

TEST_F(BatchedExecutionTest, BitIdenticalToScalarAtEveryBatchSize) {
  for (ScenePreset preset : {ScenePreset::kUaDetrac, ScenePreset::kNightStreet}) {
    auto ds = video::MakePresetScaled(preset, 300);
    ASSERT_TRUE(ds.ok());
    for (double contrast : {1.0, 0.5}) {
      // Scalar reference: the detector queried one frame at a time.
      std::vector<int> reference;
      for (int64_t frame = 0; frame < ds->num_frames(); ++frame) {
        auto count = yolo_.CountDetections(*ds, frame, 320, ObjectClass::kCar, contrast);
        ASSERT_TRUE(count.ok());
        reference.push_back(*count);
      }
      std::vector<int64_t> frames(static_cast<size_t>(ds->num_frames()));
      std::iota(frames.begin(), frames.end(), int64_t{0});
      for (int64_t batch_size : {int64_t{1}, int64_t{3}, int64_t{64}, int64_t{0}}) {
        FrameOutputSource batched(*ds, yolo_, ObjectClass::kCar);
        batched.set_max_batch_size(batch_size);
        auto counts = Counts(batched, frames, 320, contrast);
        ASSERT_TRUE(counts.ok());
        EXPECT_EQ(*counts, reference) << "contrast " << contrast << " batch " << batch_size;
        // Identical accounting too: every frame was a distinct miss.
        EXPECT_EQ(batched.model_invocations(), ds->num_frames());
        EXPECT_EQ(batched.cache_hits(), 0);
      }
    }
  }
}

TEST_F(BatchedExecutionTest, RestrictedClassCountQueryMatchesScalarTransform) {
  // A COUNT(person >= 2) query over the face/person restricted classes: the
  // batched AppendOutputs path (FillCounts + column-wise OutputTransform)
  // must reproduce the scalar per-frame TransformOutput exactly.
  detect::SimMtcnn mtcnn;
  QuerySpec spec;
  spec.aggregate = AggregateFunction::kCount;
  spec.target_class = ObjectClass::kFace;
  spec.count_threshold = 2;
  ASSERT_TRUE(spec.Validate().ok());

  std::vector<int64_t> frames;
  for (int64_t frame = 0; frame < 200; ++frame) frames.push_back(frame);

  std::vector<double> reference;
  for (int64_t frame : frames) {
    auto count = mtcnn.CountDetections(*dataset_, frame, 320, ObjectClass::kFace, 1.0);
    ASSERT_TRUE(count.ok());
    reference.push_back(spec.TransformOutput(*count));
  }

  FrameOutputSource batched(*dataset_, mtcnn, ObjectClass::kFace);
  batched.set_max_batch_size(7);
  OutputColumn column;
  ASSERT_TRUE(batched.AppendOutputs(spec, frames, 320, 1.0, column).ok());
  EXPECT_EQ(column.outputs, reference);
}

TEST_F(BatchedExecutionTest, EmptyFrameListIsANoOp) {
  FrameOutputSource source = MakeSource();
  auto counts = Counts(source, {}, 320);
  ASSERT_TRUE(counts.ok());
  EXPECT_TRUE(counts->empty());
  EXPECT_EQ(source.model_invocations(), 0);
  EXPECT_EQ(source.cache_hits(), 0);

  QuerySpec spec;
  OutputColumn column;
  ASSERT_TRUE(source.AppendOutputs(spec, {}, 320, 1.0, column).ok());
  EXPECT_EQ(column.size(), 0u);
}

TEST_F(BatchedExecutionTest, DuplicateFramesComputeOnceAndCountAsHits) {
  // {5, 5, 7, 5}: two distinct keys -> 2 invocations; the two duplicate
  // slots are served from the just-computed entries -> 2 hits, exactly what
  // the scalar path would report.
  FrameOutputSource source = MakeSource();
  auto counts = Counts(source, {5, 5, 7, 5}, 320);
  ASSERT_TRUE(counts.ok());
  ASSERT_EQ(counts->size(), 4u);
  EXPECT_EQ((*counts)[0], (*counts)[1]);
  EXPECT_EQ((*counts)[0], (*counts)[3]);
  auto direct5 = yolo_.CountDetections(*dataset_, 5, 320, ObjectClass::kCar, 1.0);
  auto direct7 = yolo_.CountDetections(*dataset_, 7, 320, ObjectClass::kCar, 1.0);
  EXPECT_EQ((*counts)[0], *direct5);
  EXPECT_EQ((*counts)[2], *direct7);
  EXPECT_EQ(source.model_invocations(), 2);
  EXPECT_EQ(source.cache_hits(), 2);
}

TEST_F(BatchedExecutionTest, OutOfOrderFramesPreserveRequestOrder) {
  FrameOutputSource source = MakeSource();
  std::vector<int64_t> frames = {311, 2, 97, 0, 255, 42, 97};
  auto counts = Counts(source, frames, 320);
  ASSERT_TRUE(counts.ok());
  for (size_t i = 0; i < frames.size(); ++i) {
    auto direct = yolo_.CountDetections(*dataset_, frames[i], 320, ObjectClass::kCar, 1.0);
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ((*counts)[i], *direct) << "slot " << i << " frame " << frames[i];
  }
  EXPECT_EQ(source.model_invocations(), 6);  // 97 repeats.
  EXPECT_EQ(source.cache_hits(), 1);
}

TEST_F(BatchedExecutionTest, OutOfRangeFrameFailsWholeBatch) {
  FrameOutputSource source = MakeSource();
  auto counts = Counts(source, {0, 1, dataset_->num_frames()}, 320);
  EXPECT_FALSE(counts.ok());
}

TEST_F(BatchedExecutionTest, HalfCachedBatchCountsHitsAndMissesExactly) {
  // Warm frames [0, 50), then request [0, 100): the batch must add exactly
  // 50 invocations (the cold half) and 50 hits (the warm half).
  FrameOutputSource source = MakeSource();
  std::vector<int64_t> warm(50);
  std::iota(warm.begin(), warm.end(), int64_t{0});
  ASSERT_TRUE(Counts(source, warm, 320).ok());
  ASSERT_EQ(source.model_invocations(), 50);
  ASSERT_EQ(source.cache_hits(), 0);

  std::vector<int64_t> request(100);
  std::iota(request.begin(), request.end(), int64_t{0});
  auto counts = Counts(source, request, 320);
  ASSERT_TRUE(counts.ok());
  EXPECT_EQ(source.model_invocations(), 100);
  EXPECT_EQ(source.cache_hits(), 50);
}

TEST_F(BatchedExecutionTest, AppendOutputsGrowsColumnAsPrefixExtension) {
  // The profiler's reuse chain: request [0, 30) then extend to [0, 80); the
  // final column must equal a one-shot request for [0, 80).
  FrameOutputSource source = MakeSource();
  QuerySpec spec;
  std::vector<int64_t> frames(80);
  std::iota(frames.begin(), frames.end(), int64_t{0});

  OutputColumn grown;
  std::span<const int64_t> all(frames);
  ASSERT_TRUE(source.AppendOutputs(spec, all.subspan(0, 30), 320, 1.0, grown).ok());
  ASSERT_EQ(grown.size(), 30u);
  ASSERT_TRUE(source.AppendOutputs(spec, all.subspan(30), 320, 1.0, grown).ok());
  ASSERT_EQ(grown.size(), 80u);
  // The extension never re-requests the prefix: 80 invocations, 0 hits.
  EXPECT_EQ(source.model_invocations(), 80);
  EXPECT_EQ(source.cache_hits(), 0);

  FrameOutputSource oneshot = MakeSource();
  OutputColumn whole;
  ASSERT_TRUE(oneshot.AppendOutputs(spec, all, 320, 1.0, whole).ok());
  EXPECT_EQ(grown.outputs, whole.outputs);
  EXPECT_EQ(grown.counts, whole.counts);
}

TEST_F(BatchedExecutionTest, ConcurrentBatchedHammerKeepsExactAccounting) {
  // 8 threads issue overlapping batched requests (windows shifted by 10
  // frames). Every key is computed exactly once, totals balance, and the
  // final counts match the direct detector.
  FrameOutputSource source = MakeSource();
  source.set_max_batch_size(32);
  constexpr int kThreads = 8;
  constexpr int64_t kWindow = 200;
  constexpr int64_t kStride = 10;

  std::atomic<int64_t> total_requested{0};
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<int64_t> window(kWindow);
      std::iota(window.begin(), window.end(), t * kStride);
      for (int repeat = 0; repeat < 3; ++repeat) {
        auto counts = Counts(source, window, 320);
        total_requested.fetch_add(kWindow);
        if (!counts.ok()) failed.store(true);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  ASSERT_FALSE(failed.load());

  // Union of windows: [0, 70 + 200).
  const int64_t distinct = (kThreads - 1) * kStride + kWindow;
  EXPECT_EQ(source.model_invocations(), distinct);
  EXPECT_EQ(source.cache_hits(), total_requested.load() - distinct);

  const std::vector<int64_t> spot = {0, 69, 133, 269};
  auto cached = Counts(source, spot, 320);
  ASSERT_TRUE(cached.ok());
  for (size_t i = 0; i < spot.size(); ++i) {
    auto direct = yolo_.CountDetections(*dataset_, spot[i], 320, ObjectClass::kCar, 1.0);
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ((*cached)[i], *direct) << "frame " << spot[i];
  }
}

TEST_F(BatchedExecutionTest, DetectorCountBatchMatchesScalarCalls) {
  // The Detector::CountBatch contract itself (below the cache): batch output
  // equals per-frame CountDetections calls, and a wrong-size output span is
  // rejected.
  std::vector<int64_t> frames = {0, 3, 9, 27, 81};
  std::vector<int> batch(frames.size());
  ASSERT_TRUE(
      yolo_.CountBatch(*dataset_, frames, 320, ObjectClass::kCar, 0.75, batch).ok());
  for (size_t i = 0; i < frames.size(); ++i) {
    auto direct = yolo_.CountDetections(*dataset_, frames[i], 320, ObjectClass::kCar, 0.75);
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(batch[i], *direct);
  }
  std::vector<int> wrong_size(frames.size() - 1);
  EXPECT_FALSE(
      yolo_.CountBatch(*dataset_, frames, 320, ObjectClass::kCar, 0.75, wrong_size).ok());
}

}  // namespace
}  // namespace query
}  // namespace smokescreen
