// FrameOutputSource memo correctness: every (frame, resolution, contrast)
// key resolves to its own detector output, contrasts within one 1/4096 step
// share a column and read its counts whichever request filled it first, hit
// and invocation accounting stay exact under
// concurrent overlapping callers and pooled miss batches, lock-free hits
// see counts published by other threads, contiguous ranges claim exactly
// their own frames, exports are byte-identical whatever the request order
// and round-trip through preload (past 2^17 frames too), rejected
// resolutions leave no column, a failed model call fails its request and
// releases its claims (a failed serial chunk stops the request there, a
// failed pooled chunk reports the first failure by position, hits already
// served stay tallied, and AppendOutputs leaves its column unchanged), a
// request waiting on another thread's frames computes its own claims first
// and re-claims what a failed owner released, the pool engages at 32 misses
// per worker, and the registry mirrors the accessors, failed requests
// included.

#include "query/output_source.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "detect/models.h"
#include "util/metrics.h"
#include "util/thread_pool.h"
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

// The raw count of one frame through a single-frame FillCounts.
util::Result<int> Count(FrameOutputSource& source, int64_t frame, int resolution,
                        double contrast_scale = 1.0) {
  int out = 0;
  SMK_RETURN_IF_ERROR(source.FillCounts(std::span<const int64_t>(&frame, 1), resolution,
                                        contrast_scale, std::span<int>(&out, 1)));
  return out;
}

class OutputSourceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto ds = video::MakePresetScaled(ScenePreset::kUaDetrac, 400);
    ds.status().CheckOk();
    dataset_ = std::make_unique<video::VideoDataset>(std::move(ds).ValueOrDie());
    source_ = std::make_unique<FrameOutputSource>(*dataset_, yolo_, ObjectClass::kCar);
  }

  detect::SimYoloV4 yolo_;
  std::unique_ptr<video::VideoDataset> dataset_;
  std::unique_ptr<FrameOutputSource> source_;
};

TEST_F(OutputSourceTest, ContrastIsQuantizedAt4096Steps) {
  // Contrasts within one 1/4096 step share a memo entry (intended
  // sharing): the second request is a hit ...
  ASSERT_TRUE(Count(*source_, 1, 320, 0.5).ok());
  ASSERT_TRUE(Count(*source_, 1, 320, 0.5 + 1e-7).ok());
  EXPECT_EQ(source_->model_invocations(), 1);
  EXPECT_EQ(source_->cache_hits(), 1);
  // ... and a contrast in another step is a distinct key.
  ASSERT_TRUE(Count(*source_, 1, 320, 0.51).ok());
  EXPECT_EQ(source_->model_invocations(), 2);
  EXPECT_EQ(source_->cache_hits(), 1);
}

TEST_F(OutputSourceTest, OneContrastStepReadsTheColumnsCountsInEitherOrder) {
  // 0.9 and 3686/4096 fall in one 1/4096 step, so they share a column, and
  // the column computes its misses at its own contrast, 3686/4096, whichever
  // request fills it first. Frame 20985 of 100,000 UA-DETRAC frames tells
  // the two contrasts apart: the model counts 6 cars there at 0.9 and 5 at
  // 3686/4096.
  auto large = video::MakePresetScaled(ScenePreset::kUaDetrac, 100'000);
  ASSERT_TRUE(large.ok());
  constexpr int64_t kFrame = 20985;
  constexpr double kOffGrid = 0.9;
  constexpr double kColumnContrast = 3686.0 / 4096.0;
  auto off_grid = yolo_.CountDetections(*large, kFrame, 608, ObjectClass::kCar, kOffGrid);
  auto column = yolo_.CountDetections(*large, kFrame, 608, ObjectClass::kCar, kColumnContrast);
  ASSERT_TRUE(off_grid.ok() && column.ok());
  ASSERT_EQ(*off_grid, 6);
  ASSERT_EQ(*column, 5);
  for (bool off_grid_first : {true, false}) {
    SCOPED_TRACE(off_grid_first ? "0.9 first" : "3686/4096 first");
    FrameOutputSource source(*large, yolo_, ObjectClass::kCar);
    auto first = Count(source, kFrame, 608, off_grid_first ? kOffGrid : kColumnContrast);
    auto second = Count(source, kFrame, 608, off_grid_first ? kColumnContrast : kOffGrid);
    ASSERT_TRUE(first.ok() && second.ok());
    EXPECT_EQ(*first, 5);
    EXPECT_EQ(*second, 5);
    EXPECT_EQ(source.model_invocations(), 1);
  }
}

TEST_F(OutputSourceTest, ScatteredAndPooledMissesComputeAtTheColumnsContrast) {
  // The claim rounds of a scattered request and the chunks of a pooled one
  // count at the column's contrast too: at 0.9 each frame reads what
  // CountBatch counts at 3686/4096, frame 20985's 5 included (6 at 0.9).
  auto large = video::MakePresetScaled(ScenePreset::kUaDetrac, 100'000);
  ASSERT_TRUE(large.ok());
  std::vector<int64_t> frames = {20985};
  for (int64_t f = 0; f < 127; ++f) frames.push_back(2 * f);
  std::vector<int> want(frames.size());
  ASSERT_TRUE(
      yolo_.CountBatch(*large, frames, 608, ObjectClass::kCar, 3686.0 / 4096.0, want).ok());
  ASSERT_EQ(want[0], 5);
  util::ThreadPool pool(4);
  for (util::ThreadPool* width : {static_cast<util::ThreadPool*>(nullptr), &pool}) {
    SCOPED_TRACE(width == nullptr ? "serial" : "pooled");
    FrameOutputSource source(*large, yolo_, ObjectClass::kCar);
    source.set_thread_pool(width);
    auto counts = Counts(source, frames, 608, 0.9);
    ASSERT_TRUE(counts.ok());
    EXPECT_EQ(*counts, want);
    EXPECT_EQ(source.model_invocations(), static_cast<int64_t>(frames.size()));
  }
}

TEST_F(OutputSourceTest, EveryTripleMatchesDirectDetectorCall) {
  // Sweep a dense block of triples; each cached answer must equal a fresh
  // uncached detector call (any aliasing anywhere would mismatch).
  int64_t distinct = 0;
  for (int64_t frame = 0; frame < 60; ++frame) {
    for (int resolution : {320, 608}) {
      for (double contrast : {1.0, 0.5}) {
        auto cached = Count(*source_, frame, resolution, contrast);
        ASSERT_TRUE(cached.ok());
        auto direct =
            yolo_.CountDetections(*dataset_, frame, resolution, ObjectClass::kCar, contrast);
        ASSERT_TRUE(direct.ok());
        EXPECT_EQ(*cached, *direct)
            << "frame " << frame << " res " << resolution << " contrast " << contrast;
        ++distinct;
      }
    }
  }
  EXPECT_EQ(source_->model_invocations(), distinct);
  EXPECT_EQ(source_->cache_hits(), 0);
}

TEST_F(OutputSourceTest, RepeatLookupsHitCache) {
  ASSERT_TRUE(Count(*source_, 5, 320).ok());
  ASSERT_TRUE(Count(*source_, 5, 320).ok());
  ASSERT_TRUE(Count(*source_, 5, 320).ok());
  EXPECT_EQ(source_->model_invocations(), 1);
  EXPECT_EQ(source_->cache_hits(), 2);
}

TEST_F(OutputSourceTest, ConcurrentHammerKeepsExactAccounting) {
  // 8 threads hammer heavily-overlapping frame windows at two resolutions.
  // Afterwards: every cached count must equal the direct detector output,
  // and the counters must balance exactly — invocations == distinct keys
  // (each key computed exactly once, never double-counted under races) and
  // hits == total calls - invocations.
  constexpr int kThreads = 8;
  constexpr int64_t kWindow = 200;
  constexpr int64_t kStride = 10;  // Thread t covers [t*10, t*10 + 200).
  const std::vector<int> resolutions = {320, 608};

  std::atomic<int64_t> total_calls{0};
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int resolution : resolutions) {
        for (int64_t frame = t * kStride; frame < t * kStride + kWindow; ++frame) {
          auto count = Count(*source_, frame, resolution);
          total_calls.fetch_add(1);
          if (!count.ok()) failed.store(true);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  ASSERT_FALSE(failed.load());

  // Distinct keys: union of the 8 windows is [0, 70 + 200) per resolution.
  std::set<int64_t> frames_touched;
  for (int t = 0; t < kThreads; ++t) {
    for (int64_t frame = t * kStride; frame < t * kStride + kWindow; ++frame) {
      frames_touched.insert(frame);
    }
  }
  const int64_t distinct =
      static_cast<int64_t>(frames_touched.size() * resolutions.size());

  EXPECT_EQ(source_->model_invocations(), distinct);
  EXPECT_EQ(source_->cache_hits(), total_calls.load() - distinct);

  // Spot-check correctness of the surviving cache entries.
  for (int64_t frame : {int64_t{0}, int64_t{37}, int64_t{133}, int64_t{269}}) {
    for (int resolution : resolutions) {
      auto cached = Count(*source_, frame, resolution);
      auto direct =
          yolo_.CountDetections(*dataset_, frame, resolution, ObjectClass::kCar, 1.0);
      ASSERT_TRUE(cached.ok());
      EXPECT_EQ(*cached, *direct) << "frame " << frame << " res " << resolution;
    }
  }
}

// Records every CountBatch span length while delegating to the real model,
// so tests can see how the source chunks its miss-batches.
class ProbeDetector : public detect::SimYoloV4 {
 public:
  util::Status CountBatch(const video::VideoDataset& dataset,
                          std::span<const int64_t> frame_indices, int resolution,
                          video::ObjectClass cls, double contrast_scale,
                          std::span<int> out) const override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      batch_sizes_.push_back(static_cast<int64_t>(frame_indices.size()));
    }
    return detect::SimYoloV4::CountBatch(dataset, frame_indices, resolution, cls,
                                         contrast_scale, out);
  }

  std::vector<int64_t> batch_sizes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return batch_sizes_;
  }

 private:
  mutable std::mutex mu_;
  mutable std::vector<int64_t> batch_sizes_;
};

TEST_F(OutputSourceTest, ParallelMissBatchMatchesSerialBitForBit) {
  // A cold run with the miss-batch fanned out on a pool must produce the
  // same counts and the same invocation accounting as the serial source, at
  // every (thread count, max batch size) combination — including widths
  // well past the machine's core count.
  std::vector<int64_t> frames(static_cast<size_t>(dataset_->num_frames()));
  std::iota(frames.begin(), frames.end(), int64_t{0});

  FrameOutputSource serial(*dataset_, yolo_, ObjectClass::kCar);
  auto want = Counts(serial, frames, 320);
  ASSERT_TRUE(want.ok());

  for (int threads : {1, 2, 3, 8, 16}) {
    for (int64_t max_batch : {int64_t{0}, int64_t{64}, int64_t{113}}) {
      util::ThreadPool pool(threads);
      FrameOutputSource cold(*dataset_, yolo_, ObjectClass::kCar);
      cold.set_thread_pool(&pool);
      cold.set_max_batch_size(max_batch);
      auto got = Counts(cold, frames, 320);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(*got, *want) << "threads " << threads << " max_batch " << max_batch;
      EXPECT_EQ(cold.model_invocations(), dataset_->num_frames())
          << "threads " << threads << " max_batch " << max_batch;
      EXPECT_EQ(cold.cache_hits(), 0);
    }
  }
}

TEST_F(OutputSourceTest, ParallelMissChunksRespectMaxBatchSize) {
  // With a pool attached, a large cold miss-batch is split into chunks —
  // but NO CountBatch call may ever exceed max_batch_size, and the chunk
  // lengths must sum to exactly the number of distinct misses.
  constexpr int64_t kMaxBatch = 50;
  std::vector<int64_t> frames(static_cast<size_t>(dataset_->num_frames()));
  std::iota(frames.begin(), frames.end(), int64_t{0});

  ProbeDetector probe;
  util::ThreadPool pool(4);
  FrameOutputSource source(*dataset_, probe, ObjectClass::kCar);
  source.set_thread_pool(&pool);
  source.set_max_batch_size(kMaxBatch);  // 400 misses engage a 4-wide pool.
  ASSERT_TRUE(Counts(source, frames, 320).ok());

  const std::vector<int64_t> sizes = probe.batch_sizes();
  ASSERT_FALSE(sizes.empty());
  int64_t covered = 0;
  for (int64_t size : sizes) {
    EXPECT_GE(size, 1);
    EXPECT_LE(size, kMaxBatch);
    covered += size;
  }
  EXPECT_EQ(covered, dataset_->num_frames());
  EXPECT_EQ(source.model_invocations(), dataset_->num_frames());
}

TEST_F(OutputSourceTest, ParallelMissConcurrentCallersStayExactlyOnce) {
  // Caller threads with overlapping cold windows AND intra-batch pool
  // fan-out underneath: every key still computed exactly once, counts still
  // bit-identical to the direct detector.
  constexpr int kCallers = 4;
  constexpr int64_t kWindow = 250;
  constexpr int64_t kStride = 50;
  util::ThreadPool pool(2);
  source_->set_thread_pool(&pool);
  source_->set_max_batch_size(64);

  std::atomic<int64_t> total_calls{0};
  std::atomic<bool> failed{false};
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&, t] {
      std::vector<int64_t> window(kWindow);
      std::iota(window.begin(), window.end(), t * kStride);
      auto counts = Counts(*source_, window, 320);
      total_calls.fetch_add(kWindow);
      if (!counts.ok()) failed.store(true);
    });
  }
  for (std::thread& caller : callers) caller.join();
  ASSERT_FALSE(failed.load());

  const int64_t distinct = (kCallers - 1) * kStride + kWindow;
  EXPECT_EQ(source_->model_invocations(), distinct);
  EXPECT_EQ(source_->cache_hits(), total_calls.load() - distinct);
  for (int64_t frame : {int64_t{0}, int64_t{149}, int64_t{399}}) {
    auto cached = Count(*source_, frame, 320);
    auto direct = yolo_.CountDetections(*dataset_, frame, 320, ObjectClass::kCar, 1.0);
    ASSERT_TRUE(cached.ok());
    EXPECT_EQ(*cached, *direct) << "frame " << frame;
  }
}

TEST_F(OutputSourceTest, ConcurrentSameKeyComputesExactlyOnce) {
  // All threads fight over ONE key: the in-flight set must let exactly one
  // of them invoke the model.
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::atomic<bool> failed{false};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        if (!Count(*source_, 11, 320).ok()) failed.store(true);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  ASSERT_FALSE(failed.load());
  EXPECT_EQ(source_->model_invocations(), 1);
  EXPECT_EQ(source_->cache_hits(), kThreads * 50 - 1);
}

TEST_F(OutputSourceTest, PooledMaxBatchSizeShapesBatchesNeverResults) {
  // max_batch_size shapes how a pooled miss-batch is split: the chunks are
  // exactly ceil(misses / max_batch_size) calls of at most max_batch_size
  // frames, whatever the pool width. It must never change counts or
  // accounting.
  std::vector<int64_t> frames(static_cast<size_t>(dataset_->num_frames()));
  std::iota(frames.begin(), frames.end(), int64_t{0});
  auto want = Counts(*source_, frames, 320);
  ASSERT_TRUE(want.ok());

  for (int64_t max_batch : {int64_t{7}, int64_t{50}, int64_t{200}}) {
    ProbeDetector probe;
    util::ThreadPool pool(4);
    FrameOutputSource source(*dataset_, probe, ObjectClass::kCar);
    source.set_thread_pool(&pool);  // 400 misses engage a 4-wide pool.
    source.set_max_batch_size(max_batch);
    auto got = Counts(source, frames, 320);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, *want) << "max_batch " << max_batch;

    const std::vector<int64_t> sizes = probe.batch_sizes();
    EXPECT_EQ(static_cast<int64_t>(sizes.size()),
              (dataset_->num_frames() + max_batch - 1) / max_batch)
        << "max_batch " << max_batch;
    int64_t covered = 0;
    for (int64_t size : sizes) {
      EXPECT_GE(size, 1);
      EXPECT_LE(size, max_batch) << "max_batch " << max_batch;
      covered += size;
    }
    EXPECT_EQ(covered, dataset_->num_frames());
    EXPECT_EQ(source.model_invocations(), dataset_->num_frames());
  }
}

TEST_F(OutputSourceTest, PooledChunksAreAtMost1024Frames) {
  // Without a max_batch_size, a pooled cold batch is split into 1024-frame
  // chunks whatever the pool width, so the CountBatch calls are the same at
  // every width.
  auto large = video::MakePresetScaled(ScenePreset::kUaDetrac, 3000);
  ASSERT_TRUE(large.ok());
  std::vector<int64_t> frames(static_cast<size_t>(large->num_frames()));
  std::iota(frames.begin(), frames.end(), int64_t{0});
  for (int threads : {2, 4}) {
    ProbeDetector probe;
    util::ThreadPool pool(threads);
    FrameOutputSource source(*large, probe, ObjectClass::kCar);
    source.set_thread_pool(&pool);
    ASSERT_TRUE(Counts(source, frames, 320).ok());
    std::vector<int64_t> sizes = probe.batch_sizes();
    std::sort(sizes.begin(), sizes.end());
    EXPECT_EQ(sizes, (std::vector<int64_t>{952, 1024, 1024})) << "threads " << threads;
  }
}

TEST_F(OutputSourceTest, OutOfRangeFramesRejectedWithoutAccounting) {
  auto high = Counts(*source_, {0, dataset_->num_frames()}, 320);
  ASSERT_FALSE(high.ok());
  EXPECT_EQ(high.status().code(), util::StatusCode::kOutOfRange);
  auto low = Counts(*source_, {int64_t{-1}}, 320);
  ASSERT_FALSE(low.ok());
  EXPECT_EQ(low.status().code(), util::StatusCode::kOutOfRange);
  auto single = Count(*source_, dataset_->num_frames(), 320);
  ASSERT_FALSE(single.ok());
  EXPECT_EQ(single.status().code(), util::StatusCode::kOutOfRange);
  // A rejected request installs nothing and tallies nothing.
  EXPECT_EQ(source_->model_invocations(), 0);
  EXPECT_EQ(source_->cache_hits(), 0);
  EXPECT_EQ(source_->ExportStore().TotalEntries(), 0);
}

TEST_F(OutputSourceTest, RejectedResolutionLeavesNoColumn) {
  // The model rejects 7 px before anything is claimed, and the request must
  // not leave an empty memo column behind for ExportStore to persist.
  auto rejected = Counts(*source_, {0, 1, 2}, 7);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_TRUE(source_->ExportStore().columns().empty());
  EXPECT_EQ(source_->model_invocations(), 0);
  EXPECT_EQ(source_->cache_hits(), 0);
}

TEST_F(OutputSourceTest, PreloadSkipsColumnsTheModelRejects) {
  // A store column at a resolution the model rejects is skipped like another
  // class's column: it installs nothing and creates no memo column.
  OutputStore store(dataset_->dataset_id(), yolo_.model_id(), dataset_->num_frames());
  OutputColumnRecord invalid;
  invalid.resolution = 7;
  invalid.cls = static_cast<int>(ObjectClass::kCar);
  invalid.contrast_q = detect::QuantizeContrast(1.0);
  invalid.frames = {0, 1};
  invalid.counts = {3, 4};
  store.AddColumn(invalid);
  OutputColumnRecord valid = invalid;
  valid.resolution = 320;
  store.AddColumn(valid);

  auto loaded = source_->Preload(store);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, 2);
  OutputStore exported = source_->ExportStore();
  ASSERT_EQ(exported.columns().size(), 1u);
  EXPECT_EQ(exported.columns()[0].resolution, 320);
}

TEST_F(OutputSourceTest, ExportPreloadRoundTripsSparseColumns) {
  // Sparse frames in two columns, one at a non-unit contrast: a source
  // warm-started from the export answers them with zero invocations, and
  // exports the same store again (columns and frames in the same order).
  const std::vector<int64_t> frames = {0, 1, 2, 3, 50, 399};
  auto cold = Counts(*source_, frames, 320);
  ASSERT_TRUE(cold.ok());
  ASSERT_TRUE(Counts(*source_, {7, 5}, 608, 0.5).ok());
  OutputStore exported = source_->ExportStore();
  EXPECT_EQ(exported.TotalEntries(), 8);

  FrameOutputSource warm(*dataset_, yolo_, ObjectClass::kCar);
  auto loaded = warm.Preload(exported);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, 8);
  auto warm_counts = Counts(warm, frames, 320);
  ASSERT_TRUE(warm_counts.ok());
  EXPECT_EQ(*warm_counts, *cold);
  ASSERT_TRUE(Count(warm, 5, 608, 0.5).ok());
  EXPECT_EQ(warm.model_invocations(), 0);  // The 608/0.5 column carried over too.
  EXPECT_EQ(warm.cache_hits(), static_cast<int64_t>(frames.size()) + 1);

  auto original = exported.Serialize();
  auto again = warm.ExportStore().Serialize();
  ASSERT_TRUE(original.ok());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *original);
}

TEST_F(OutputSourceTest, BatchAndScalarHammerKeepsExactAccounting) {
  // Overlapping concurrent callers that mix batched windows with scalar
  // lookups: each key is computed exactly once, and every other request
  // slot is a hit.
  constexpr int kThreads = 6;
  constexpr int64_t kWindow = 120;
  constexpr int64_t kStride = 30;
  std::atomic<int64_t> total_calls{0};
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<int64_t> window(kWindow);
      std::iota(window.begin(), window.end(), t * kStride);
      if (!Counts(*source_, window, 320).ok()) failed.store(true);
      total_calls.fetch_add(kWindow);
      for (int64_t frame = t * kStride; frame < t * kStride + 20; ++frame) {
        if (!Count(*source_, frame, 320).ok()) failed.store(true);
        total_calls.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  ASSERT_FALSE(failed.load());

  const int64_t distinct = (kThreads - 1) * kStride + kWindow;
  EXPECT_EQ(source_->model_invocations(), distinct);
  EXPECT_EQ(source_->cache_hits(), total_calls.load() - distinct);
  for (int64_t frame : {int64_t{0}, int64_t{95}, int64_t{269}}) {
    auto cached = Count(*source_, frame, 320);
    auto direct = yolo_.CountDetections(*dataset_, frame, 320, ObjectClass::kCar, 1.0);
    ASSERT_TRUE(cached.ok());
    EXPECT_EQ(*cached, *direct) << "frame " << frame;
  }
}

TEST_F(OutputSourceTest, DuplicateHeavyConcurrentBatchesStayExact) {
  // Duplicate-heavy batches, concurrently. Each request repeats every frame
  // of its window three times, so the dup-slot fill path — which reads
  // col.counts inside the same col.mu critical section that installed the
  // fresh results — races other threads' installs and waits on every run.
  // Every slot of every request must come back bit-identical to the
  // detector, and the dedup accounting must hold: duplicates and overlaps
  // are hits, each distinct frame is computed exactly once.
  constexpr int kThreads = 6;
  constexpr int64_t kWindow = 80;
  constexpr int64_t kStride = 20;  // Windows overlap across threads.
  std::atomic<bool> failed{false};
  std::atomic<int64_t> total_requested{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<int64_t> frames;
      frames.reserve(3 * kWindow);
      for (int64_t f = t * kStride; f < t * kStride + kWindow; ++f) {
        frames.push_back(f);
        frames.push_back(f);  // In-batch duplicate (dup_slots path).
        frames.push_back(f);
      }
      auto counts = Counts(*source_, frames, 320);
      if (!counts.ok()) {
        failed.store(true);
        return;
      }
      total_requested.fetch_add(static_cast<int64_t>(frames.size()));
      for (size_t i = 0; i < frames.size(); ++i) {
        auto direct = yolo_.CountDetections(*dataset_, frames[i], 320,
                                            ObjectClass::kCar, 1.0);
        if (!direct.ok() || (*counts)[i] != *direct) {
          failed.store(true);
          return;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  ASSERT_FALSE(failed.load());
  const int64_t distinct = (kThreads - 1) * kStride + kWindow;
  EXPECT_EQ(source_->model_invocations(), distinct);
  EXPECT_EQ(source_->cache_hits(), total_requested.load() - distinct);
}

TEST_F(OutputSourceTest, LockFreeHitsSeeCountsPublishedByOtherThreads) {
  // Hits read a memo column without its lock, so only the release/acquire
  // pairing on the ready bits orders a reader after the thread that wrote a
  // count. A writer installs frames 0, 2, 4, ... one request at a time, then
  // adds columns (new contrasts), which republishes the column index.
  // Readers request only frames the writer has announced through a relaxed
  // counter, in descending (non-contiguous) order, so they take no lock and
  // nothing else synchronizes them with the writer; a ThreadSanitizer build
  // checks that ordering. Every read must equal the detector and every
  // reader request must be served from the memo.
  constexpr int64_t kFrames = 150;
  constexpr int kReaders = 4;
  constexpr int kNewColumns = 4;
  std::vector<int> expected;
  for (int64_t k = 0; k < kFrames; ++k) {
    expected.push_back(*yolo_.CountDetections(*dataset_, 2 * k, 320, ObjectClass::kCar, 1.0));
  }
  std::atomic<int64_t> published{0};
  std::atomic<int64_t> reader_frames{0};
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    for (int64_t k = 0; k < kFrames; ++k) {
      // The repeat keeps the request off the contiguous fast path.
      auto counts = Counts(*source_, {2 * k, 2 * k}, 320);
      if (!counts.ok() || (*counts)[0] != expected[k] || (*counts)[1] != expected[k]) {
        failed.store(true);
      }
      published.store(k + 1, std::memory_order_relaxed);
    }
    for (int c = 0; c < kNewColumns; ++c) {
      if (!Counts(*source_, {0, 2}, 320, 0.5 + 0.05 * c).ok()) failed.store(true);
    }
  });
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&] {
      for (int64_t n = 0; n < kFrames;) {
        n = published.load(std::memory_order_relaxed);
        if (n < 2) continue;
        std::vector<int64_t> frames;
        for (int64_t k = n - 1; k >= 0; --k) frames.push_back(2 * k);
        auto counts = Counts(*source_, frames, 320);
        reader_frames.fetch_add(n);
        for (int64_t k = 0; k < n && counts.ok(); ++k) {
          if ((*counts)[static_cast<size_t>(n - 1 - k)] != expected[k]) failed.store(true);
        }
        if (!counts.ok()) failed.store(true);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  ASSERT_FALSE(failed.load());
  EXPECT_EQ(source_->model_invocations(), kFrames + 2 * kNewColumns);
  EXPECT_EQ(source_->cache_hits(), kFrames + reader_frames.load());
}

TEST_F(OutputSourceTest, ContiguousColdRangeMarksExactlyItsFrames) {
  // A contiguous all-cold request is claimed and published word-wise. A
  // range that starts and ends inside 64-frame words, with whole words in
  // between, must mark exactly its own frames: the neighbours on either
  // side stay cold.
  std::vector<int64_t> range(200);
  std::iota(range.begin(), range.end(), int64_t{70});  // [70, 270).
  ProbeDetector probe;
  FrameOutputSource source(*dataset_, probe, ObjectClass::kCar);
  auto counts = Counts(source, range, 320);
  ASSERT_TRUE(counts.ok());
  EXPECT_EQ(probe.batch_sizes(), std::vector<int64_t>{200});  // One batch.
  EXPECT_EQ(source.model_invocations(), 200);
  for (size_t i = 0; i < range.size(); ++i) {
    auto direct = yolo_.CountDetections(*dataset_, range[i], 320, ObjectClass::kCar, 1.0);
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ((*counts)[i], *direct) << "frame " << range[i];
  }
  OutputStore exported = source.ExportStore();
  ASSERT_EQ(exported.columns().size(), 1u);
  EXPECT_EQ(exported.columns()[0].frames, range);

  // The first and last frames are hits; the frames just outside are misses.
  for (int64_t frame : {69, 70, 269, 270}) ASSERT_TRUE(Count(source, frame, 320).ok());
  EXPECT_EQ(source.model_invocations(), 202);
  EXPECT_EQ(source.cache_hits(), 2);
}

TEST_F(OutputSourceTest, ContiguousRangeOverPartlyWarmColumnStaysExact) {
  // A contiguous request over a column that already holds some of its
  // frames (here on both sides of a word boundary) cannot claim the range
  // whole: it serves the warm frames as hits and computes the cold ones in
  // one batch.
  ProbeDetector probe;
  FrameOutputSource source(*dataset_, probe, ObjectClass::kCar);
  ASSERT_TRUE(Counts(source, {63, 64, 130}, 320).ok());  // One batch of 3.
  std::vector<int64_t> range(140);
  std::iota(range.begin(), range.end(), int64_t{60});  // [60, 200).
  auto counts = Counts(source, range, 320);
  ASSERT_TRUE(counts.ok());
  EXPECT_EQ(probe.batch_sizes(), (std::vector<int64_t>{3, 137}));
  EXPECT_EQ(source.model_invocations(), 3 + 137);
  EXPECT_EQ(source.cache_hits(), 3);
  for (size_t i = 0; i < range.size(); ++i) {
    auto direct = yolo_.CountDetections(*dataset_, range[i], 320, ObjectClass::kCar, 1.0);
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ((*counts)[i], *direct) << "frame " << range[i];
  }

  // The whole range is warm now: a replay is all hits and calls no batch.
  auto replay = Counts(source, range, 320);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(*replay, *counts);
  EXPECT_EQ(probe.batch_sizes().size(), 2u);
  EXPECT_EQ(source.model_invocations(), 3 + 137);
  EXPECT_EQ(source.cache_hits(), 3 + 140);
}

TEST_F(OutputSourceTest, ConcurrentIdenticalColdRangesComputeEachFrameOnce) {
  // Threads request the same contiguous cold range at once. Exactly one of
  // them claims it word-wise; the others find its frames in flight or ready
  // and wait or hit. So the model sees one batch, every frame is computed
  // once, and every other slot is a hit.
  constexpr int kThreads = 8;
  std::vector<int64_t> range(static_cast<size_t>(dataset_->num_frames()));
  std::iota(range.begin(), range.end(), int64_t{0});
  std::vector<int> want;
  for (int64_t frame : range) {
    want.push_back(*yolo_.CountDetections(*dataset_, frame, 608, ObjectClass::kCar, 1.0));
  }
  ProbeDetector probe;
  FrameOutputSource source(*dataset_, probe, ObjectClass::kCar);
  std::atomic<int> arrived{0};
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      arrived.fetch_add(1);
      while (arrived.load() < kThreads) std::this_thread::yield();
      auto counts = Counts(source, range, 608);
      if (!counts.ok() || *counts != want) failed.store(true);
    });
  }
  for (std::thread& thread : threads) thread.join();
  ASSERT_FALSE(failed.load());
  EXPECT_EQ(probe.batch_sizes(), std::vector<int64_t>{dataset_->num_frames()});
  EXPECT_EQ(source.model_invocations(), dataset_->num_frames());
  EXPECT_EQ(source.cache_hits(), (kThreads - 1) * dataset_->num_frames());
}

TEST_F(OutputSourceTest, ExportIsIndependentOfRequestOrder) {
  // Two sources memoize the same keys in different orders: columns created
  // in opposite orders, frames batched forward vs one at a time backward.
  // Both export the same bytes, with columns sorted by (resolution,
  // contrast step) and frames ascending within each column.
  const std::vector<int64_t> frames = {5, 399, 64, 63, 0, 200};
  const std::vector<std::pair<int, double>> columns = {
      {608, 1.0}, {320, 0.5}, {416, 0.75}, {320, 1.0}};
  FrameOutputSource forward(*dataset_, yolo_, ObjectClass::kCar);
  FrameOutputSource backward(*dataset_, yolo_, ObjectClass::kCar);
  for (const auto& [resolution, contrast] : columns) {
    ASSERT_TRUE(Counts(forward, frames, resolution, contrast).ok());
  }
  for (auto column = columns.rbegin(); column != columns.rend(); ++column) {
    for (auto frame = frames.rbegin(); frame != frames.rend(); ++frame) {
      ASSERT_TRUE(Count(backward, *frame, column->first, column->second).ok());
    }
  }

  OutputStore exported = forward.ExportStore();
  std::vector<int64_t> sorted_frames = frames;
  std::sort(sorted_frames.begin(), sorted_frames.end());
  std::vector<std::pair<int, int64_t>> order;
  for (const OutputColumnRecord& column : exported.columns()) {
    order.emplace_back(column.resolution, column.contrast_q);
    EXPECT_EQ(column.frames, sorted_frames);
  }
  EXPECT_EQ(order, (std::vector<std::pair<int, int64_t>>{
                       {320, 2048}, {320, 4096}, {416, 3072}, {608, 4096}}));
  auto forward_bytes = exported.Serialize();
  auto backward_bytes = backward.ExportStore().Serialize();
  ASSERT_TRUE(forward_bytes.ok());
  ASSERT_TRUE(backward_bytes.ok());
  EXPECT_EQ(*forward_bytes, *backward_bytes);
}

TEST_F(OutputSourceTest, LargeDatasetKeepsExactCountsAndAccounting) {
  // Memo columns are direct-mapped at every dataset size. Past 2^17 frames
  // an out-of-order request with duplicates, its warm replay and an
  // export/preload round trip behave exactly as on a small dataset.
  constexpr int64_t kFrames = 140'000;
  auto large = video::MakePresetScaled(ScenePreset::kUaDetrac, kFrames);
  ASSERT_TRUE(large.ok());
  FrameOutputSource source(*large, yolo_, ObjectClass::kCar);
  const std::vector<int64_t> request = {kFrames - 1, 7,       131'072, 3, 3,
                                        0,           131'071, 70'000,  7, kFrames - 1};
  auto cold = Counts(source, request, 608);
  ASSERT_TRUE(cold.ok());
  for (size_t i = 0; i < request.size(); ++i) {
    auto direct = yolo_.CountDetections(*large, request[i], 608, ObjectClass::kCar, 1.0);
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ((*cold)[i], *direct) << "frame " << request[i];
  }
  // 7 distinct keys computed once each; the 3 duplicate slots are hits.
  EXPECT_EQ(source.model_invocations(), 7);
  EXPECT_EQ(source.cache_hits(), 3);

  auto warm = Counts(source, request, 608);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(*warm, *cold);
  EXPECT_EQ(source.model_invocations(), 7);
  EXPECT_EQ(source.cache_hits(), 3 + 10);

  OutputStore exported = source.ExportStore();
  ASSERT_EQ(exported.columns().size(), 1u);
  EXPECT_EQ(exported.columns()[0].frames,
            (std::vector<int64_t>{0, 3, 7, 70'000, 131'071, 131'072, kFrames - 1}));
  FrameOutputSource preloaded(*large, yolo_, ObjectClass::kCar);
  auto loaded = preloaded.Preload(exported);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, 7);
  auto replay = Counts(preloaded, request, 608);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(*replay, *cold);
  EXPECT_EQ(preloaded.model_invocations(), 0);
}

// ---------------------------------------------------------------------------
// Failed model calls: the request fails and its claims are released.
// ---------------------------------------------------------------------------

// Fails the first `failures` CountBatch invocations with a transient error,
// then delegates to the real model — a deterministic stand-in for an
// inference service that hiccups and recovers.
class FlakyDetector : public detect::SimYoloV4 {
 public:
  explicit FlakyDetector(int failures) : failures_remaining_(failures) {}

  util::Status CountBatch(const video::VideoDataset& dataset,
                          std::span<const int64_t> frame_indices, int resolution,
                          video::ObjectClass cls, double contrast_scale,
                          std::span<int> out) const override {
    calls_.fetch_add(1, std::memory_order_relaxed);
    if (failures_remaining_.fetch_sub(1, std::memory_order_relaxed) > 0) {
      return util::Status::Internal("transient inference failure");
    }
    return detect::SimYoloV4::CountBatch(dataset, frame_indices, resolution, cls,
                                         contrast_scale, out);
  }

  int calls() const { return calls_.load(std::memory_order_relaxed); }

 private:
  mutable std::atomic<int> failures_remaining_;
  mutable std::atomic<int> calls_{0};
};

TEST_F(OutputSourceTest, FailedModelCallFailsTheRequest) {
  // One model call per chunk: a failure is not retried, it fails the
  // request with the detector's own error.
  FlakyDetector flaky(/*failures=*/1);
  FrameOutputSource source(*dataset_, flaky, ObjectClass::kCar);
  auto got = Counts(source, {0, 1, 2}, 320);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), util::StatusCode::kInternal);
  EXPECT_EQ(flaky.calls(), 1);
}

TEST_F(OutputSourceTest, FailedBatchesReleaseTheirClaims) {
  // A failed batch installs nothing and releases the frames it claimed, on
  // the contiguous path and the general one alike. Preload skips frames
  // still in flight, so it sees a leaked claim without waiting on it.
  std::vector<int64_t> range(100);
  std::iota(range.begin(), range.end(), int64_t{0});
  const std::vector<int64_t> scattered = {300, 250, 250, 399};
  auto want_range = Counts(*source_, range, 320);
  auto want_scattered = Counts(*source_, scattered, 320);
  ASSERT_TRUE(want_range.ok());
  ASSERT_TRUE(want_scattered.ok());
  const OutputStore healthy = source_->ExportStore();

  FlakyDetector down(/*failures=*/2);
  FrameOutputSource preloaded(*dataset_, down, ObjectClass::kCar);
  EXPECT_FALSE(Counts(preloaded, range, 320).ok());
  EXPECT_FALSE(Counts(preloaded, scattered, 320).ok());
  EXPECT_EQ(preloaded.model_invocations(), 0);
  EXPECT_EQ(preloaded.cache_hits(), 0);
  EXPECT_EQ(preloaded.ExportStore().TotalEntries(), 0);
  auto loaded = preloaded.Preload(healthy);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(*loaded, healthy.TotalEntries());

  // A later request re-claims and computes the frames itself.
  FlakyDetector flaky(/*failures=*/2);
  FrameOutputSource source(*dataset_, flaky, ObjectClass::kCar);
  EXPECT_FALSE(Counts(source, range, 320).ok());
  EXPECT_FALSE(Counts(source, scattered, 320).ok());
  auto got_range = Counts(source, range, 320);
  auto got_scattered = Counts(source, scattered, 320);
  ASSERT_TRUE(got_range.ok());
  ASSERT_TRUE(got_scattered.ok());
  EXPECT_EQ(*got_range, *want_range);
  EXPECT_EQ(*got_scattered, *want_scattered);
  EXPECT_EQ(flaky.calls(), 4);
  EXPECT_EQ(source.model_invocations(), 100 + 3);
  EXPECT_EQ(source.cache_hits(), 1);  // The duplicate 250.
  auto again = source.ExportStore().Serialize();
  auto want_bytes = healthy.Serialize();
  ASSERT_TRUE(again.ok());
  ASSERT_TRUE(want_bytes.ok());
  EXPECT_EQ(*again, *want_bytes);
}

// Fails the first CountBatch call that starts at each frame of `fail_at`,
// with an error naming that frame, and delegates every other call to the
// real model. Pooled chunks call it from several threads at once.
class ChunkFailingDetector : public detect::SimYoloV4 {
 public:
  explicit ChunkFailingDetector(std::set<int64_t> fail_at) : fail_at_(std::move(fail_at)) {}

  util::Status CountBatch(const video::VideoDataset& dataset,
                          std::span<const int64_t> frame_indices, int resolution,
                          video::ObjectClass cls, double contrast_scale,
                          std::span<int> out) const override {
    calls_.fetch_add(1);
    const int64_t first = frame_indices.empty() ? -1 : frame_indices.front();
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (fail_at_.erase(first) > 0) {
        return util::Status::Internal("inference failed at frame " + std::to_string(first));
      }
    }
    return detect::SimYoloV4::CountBatch(dataset, frame_indices, resolution, cls,
                                         contrast_scale, out);
  }

  int calls() const { return calls_.load(); }

 private:
  mutable std::mutex mu_;
  mutable std::set<int64_t> fail_at_;
  mutable std::atomic<int> calls_{0};
};

TEST_F(OutputSourceTest, FailedPooledChunkReportsTheFirstByPositionAndReleasesClaims) {
  // A 300-frame cold range on a 4-wide pool runs as six 50-frame chunks.
  // The chunks at frames 100 and 200 fail once each, in whatever order the
  // threads reach them. The request reports the frame-100 error, the first
  // failing chunk by position, installs nothing and releases its claims, so
  // a second request computes the whole range itself.
  std::vector<int64_t> frames(300);
  std::iota(frames.begin(), frames.end(), int64_t{0});
  auto want = Counts(*source_, frames, 320);
  ASSERT_TRUE(want.ok());

  util::ThreadPool pool(4);
  for (int trial = 0; trial < 50; ++trial) {
    ChunkFailingDetector failing({100, 200});
    FrameOutputSource source(*dataset_, failing, ObjectClass::kCar);
    source.set_thread_pool(&pool);  // 300 misses engage a 4-wide pool.
    source.set_max_batch_size(50);

    auto first = Counts(source, frames, 320);
    ASSERT_FALSE(first.ok()) << "trial " << trial;
    EXPECT_EQ(first.status().message(), "inference failed at frame 100") << "trial " << trial;
    EXPECT_EQ(source.model_invocations(), 0) << "trial " << trial;
    EXPECT_EQ(source.ExportStore().TotalEntries(), 0) << "trial " << trial;

    auto second = Counts(source, frames, 320);
    ASSERT_TRUE(second.ok()) << "trial " << trial;
    EXPECT_EQ(*second, *want) << "trial " << trial;
    EXPECT_EQ(source.model_invocations(), 300) << "trial " << trial;
    EXPECT_EQ(failing.calls(), 12) << "trial " << trial;
  }
}

TEST_F(OutputSourceTest, FailedSerialChunkStopsTheRequestAtThatChunk) {
  // Without a pool, a 300-frame cold range runs as six 50-frame chunks in
  // order. The chunk at frame 100 fails: the request reports its error
  // without calling the model for the chunks after it, installs nothing
  // and releases its claims, so a second request computes the whole range.
  std::vector<int64_t> frames(300);
  std::iota(frames.begin(), frames.end(), int64_t{0});
  auto want = Counts(*source_, frames, 320);
  ASSERT_TRUE(want.ok());

  ChunkFailingDetector failing({100});
  FrameOutputSource source(*dataset_, failing, ObjectClass::kCar);
  source.set_max_batch_size(50);
  auto first = Counts(source, frames, 320);
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.status().message(), "inference failed at frame 100");
  EXPECT_EQ(failing.calls(), 3);  // The chunks at frames 0, 50 and 100.
  EXPECT_EQ(source.model_invocations(), 0);
  EXPECT_EQ(source.ExportStore().TotalEntries(), 0);

  auto second = Counts(source, frames, 320);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*second, *want);
  EXPECT_EQ(source.model_invocations(), 300);
  EXPECT_EQ(failing.calls(), 3 + 6);
}

TEST_F(OutputSourceTest, FailedRequestKeepsTheHitsItServed) {
  // A request over warm frames 0-2 and cold frames 50-51 serves its hits
  // before it calls the model. When that call fails the request fails, but
  // the hits it served stay tallied, the warm frames stay in the memo, and
  // the cold ones are left for a later request to compute.
  ChunkFailingDetector failing({50});
  FrameOutputSource source(*dataset_, failing, ObjectClass::kCar);
  ASSERT_TRUE(Counts(source, {0, 1, 2}, 320).ok());
  ASSERT_EQ(source.model_invocations(), 3);

  const std::vector<int64_t> mixed = {0, 1, 2, 50, 51};
  EXPECT_FALSE(Counts(source, mixed, 320).ok());
  EXPECT_EQ(source.cache_hits(), 3);
  EXPECT_EQ(source.model_invocations(), 3);
  EXPECT_EQ(source.ExportStore().TotalEntries(), 3);

  auto got = Counts(source, mixed, 320);
  auto want = Counts(*source_, mixed, 320);
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(*got, *want);
  EXPECT_EQ(source.cache_hits(), 3 + 3);
  EXPECT_EQ(source.model_invocations(), 3 + 2);
  EXPECT_EQ(failing.calls(), 3);
}

TEST_F(OutputSourceTest, AppendOutputsLeavesTheColumnUnchangedWhenTheModelFails) {
  // A prefix-growing caller keeps its column when the model call for an
  // extension fails, and the extension's next attempt lands exactly where a
  // healthy run puts it.
  QuerySpec spec;
  spec.aggregate = AggregateFunction::kCount;
  std::vector<int64_t> prefix(10);
  std::iota(prefix.begin(), prefix.end(), int64_t{0});
  std::vector<int64_t> extension(20);
  std::iota(extension.begin(), extension.end(), int64_t{10});

  OutputColumn want;
  ASSERT_TRUE(source_->AppendOutputs(spec, prefix, 320, 1.0, want).ok());
  ASSERT_TRUE(source_->AppendOutputs(spec, extension, 320, 1.0, want).ok());

  ChunkFailingDetector failing({10});
  FrameOutputSource source(*dataset_, failing, ObjectClass::kCar);
  OutputColumn column;
  ASSERT_TRUE(source.AppendOutputs(spec, prefix, 320, 1.0, column).ok());
  const OutputColumn before = column;
  EXPECT_FALSE(source.AppendOutputs(spec, extension, 320, 1.0, column).ok());
  EXPECT_EQ(column.counts, before.counts);
  EXPECT_EQ(column.outputs, before.outputs);

  ASSERT_TRUE(source.AppendOutputs(spec, extension, 320, 1.0, column).ok());
  EXPECT_EQ(column.counts, want.counts);
  EXPECT_EQ(column.outputs, want.outputs);
  EXPECT_EQ(source.model_invocations(), 30);
}

TEST_F(OutputSourceTest, FailedPooledRequestOverAPartlyWarmColumnReleasesOnlyItsClaims) {
  // The general path on a 4-wide pool. Frames 0, 3, 6, ... are warm, so a
  // request for all 400 frames serves 134 hits and claims the 266 others,
  // which run as pooled 50-miss chunks. The chunks that start at misses 100
  // and 200 (frames 151 and 301) fail once each. The request reports frame
  // 151, keeps the warm frames and the hits it served, and releases only
  // its own claims.
  std::vector<int64_t> all(400);
  std::iota(all.begin(), all.end(), int64_t{0});
  std::vector<int64_t> warm;
  for (int64_t frame = 0; frame < 400; frame += 3) warm.push_back(frame);
  ASSERT_EQ(warm.size(), 134u);
  auto want = Counts(*source_, all, 320);
  ASSERT_TRUE(want.ok());

  util::ThreadPool pool(4);
  for (int trial = 0; trial < 20; ++trial) {
    ChunkFailingDetector failing({151, 301});
    FrameOutputSource source(*dataset_, failing, ObjectClass::kCar);
    source.set_thread_pool(&pool);
    source.set_max_batch_size(50);
    ASSERT_TRUE(Counts(source, warm, 320).ok()) << "trial " << trial;
    ASSERT_EQ(source.model_invocations(), 134) << "trial " << trial;

    auto first = Counts(source, all, 320);
    ASSERT_FALSE(first.ok()) << "trial " << trial;
    EXPECT_EQ(first.status().message(), "inference failed at frame 151") << "trial " << trial;
    EXPECT_EQ(source.model_invocations(), 134) << "trial " << trial;
    EXPECT_EQ(source.cache_hits(), 134) << "trial " << trial;
    EXPECT_EQ(source.ExportStore().TotalEntries(), 134) << "trial " << trial;

    auto second = Counts(source, all, 320);
    ASSERT_TRUE(second.ok()) << "trial " << trial;
    EXPECT_EQ(*second, *want) << "trial " << trial;
    EXPECT_EQ(source.model_invocations(), 400) << "trial " << trial;
    EXPECT_EQ(source.cache_hits(), 134 + 134) << "trial " << trial;
  }
}

TEST_F(OutputSourceTest, ConcurrentRequestsAfterAFailureComputeEachFrameOnce) {
  // A failed request releases its 200 claims. Eight threads then ask for
  // the same frames at once, half as the contiguous range and half in
  // reverse order (the general path): each released frame is claimed again
  // exactly once, and every other slot is a hit.
  std::vector<int64_t> range(200);
  std::iota(range.begin(), range.end(), int64_t{0});
  const std::vector<int64_t> reversed(range.rbegin(), range.rend());
  auto want_range = Counts(*source_, range, 320);
  auto want_reversed = Counts(*source_, reversed, 320);
  ASSERT_TRUE(want_range.ok());
  ASSERT_TRUE(want_reversed.ok());

  FlakyDetector flaky(/*failures=*/1);
  FrameOutputSource source(*dataset_, flaky, ObjectClass::kCar);
  ASSERT_FALSE(Counts(source, range, 320).ok());

  constexpr int kThreads = 8;
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const bool forward = t % 2 == 0;
      auto got = Counts(source, forward ? range : reversed, 320);
      if (!got.ok() || *got != (forward ? *want_range : *want_reversed)) wrong.fetch_add(1);
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(source.model_invocations(), 200);
  EXPECT_EQ(source.cache_hits(), (kThreads - 1) * 200);
}

// Blocks its first CountBatch call until Release() and fails calls 1 to
// `failures` with a transient error; later calls delegate to the real model.
// Lets a test hold a request's claims in flight while another request
// arrives.
class GatedDetector : public detect::SimYoloV4 {
 public:
  explicit GatedDetector(int failures) : failures_(failures) {}

  util::Status CountBatch(const video::VideoDataset& dataset,
                          std::span<const int64_t> frame_indices, int resolution,
                          video::ObjectClass cls, double contrast_scale,
                          std::span<int> out) const override {
    const int call = calls_.fetch_add(1) + 1;
    if (call == 1) {
      entered_.store(true);
      while (!released_.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (call <= failures_) return util::Status::Internal("transient inference failure");
    return detect::SimYoloV4::CountBatch(dataset, frame_indices, resolution, cls,
                                         contrast_scale, out);
  }

  void AwaitFirstCall() const {
    while (!entered_.load()) std::this_thread::yield();
  }
  void Release() { released_.store(true); }
  int calls() const { return calls_.load(); }

 private:
  const int failures_;
  mutable std::atomic<int> calls_{0};
  mutable std::atomic<bool> entered_{false};
  std::atomic<bool> released_{false};
};

// Spins until `counter` reaches `at_least`.
void AwaitCounter(const util::Counter* counter, int64_t at_least) {
  while (counter->Value() < at_least) std::this_thread::yield();
}

TEST_F(OutputSourceTest, WaiterReclaimsAFailedOwnersFrame) {
  // Request A claims {5, 6, 7} and blocks inside the model; request B wants
  // frame 6, finds it in flight and waits. A's model call then fails and
  // A releases its claims. B claims frame 6 itself and computes it through
  // ComputeMisses with a model call of its own.
  util::MetricsRegistry registry;
  GatedDetector gated(/*failures=*/1);
  FrameOutputSource source(*dataset_, gated, ObjectClass::kCar, &registry);

  util::Status a_status;
  util::Result<std::vector<int>> b_counts = util::Status::Internal("not run");
  std::thread a([&] { a_status = Counts(source, {5, 6, 7}, 320).status(); });
  gated.AwaitFirstCall();
  std::thread b([&] { b_counts = Counts(source, {6}, 320); });
  AwaitCounter(registry.GetCounter("output_source.inflight_waits"), 1);
  gated.Release();
  a.join();
  b.join();

  EXPECT_FALSE(a_status.ok());
  ASSERT_TRUE(b_counts.ok()) << b_counts.status().ToString();
  auto direct = yolo_.CountDetections(*dataset_, 6, 320, ObjectClass::kCar, 1.0);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(*b_counts, std::vector<int>{*direct});
  EXPECT_EQ(source.model_invocations(), 1);
  EXPECT_EQ(source.cache_hits(), 0);
  EXPECT_EQ(gated.calls(), 2);
}

TEST_F(OutputSourceTest, WaiterComputesItsOwnClaimsBeforeWaiting) {
  // Request B wants frames 6 and 20 while A holds 6 in flight. B claims and
  // computes 20 first and only then waits; once A installs, B reads 6 as a
  // hit. A request never waits while it holds a claim.
  util::MetricsRegistry registry;
  GatedDetector gated(/*failures=*/0);
  FrameOutputSource source(*dataset_, gated, ObjectClass::kCar, &registry);

  util::Status a_status;
  util::Result<std::vector<int>> b_counts = util::Status::Internal("not run");
  std::thread a([&] { a_status = Counts(source, {5, 6, 7}, 320).status(); });
  gated.AwaitFirstCall();
  std::thread b([&] { b_counts = Counts(source, {6, 20}, 320); });
  AwaitCounter(registry.GetCounter("output_source.inflight_waits"), 1);
  EXPECT_EQ(gated.calls(), 2);  // B's own claim was computed before it waited.
  gated.Release();
  a.join();
  b.join();

  ASSERT_TRUE(a_status.ok());
  ASSERT_TRUE(b_counts.ok());
  for (size_t i = 0; i < 2; ++i) {
    const int64_t frame = i == 0 ? 6 : 20;
    auto direct = yolo_.CountDetections(*dataset_, frame, 320, ObjectClass::kCar, 1.0);
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ((*b_counts)[i], *direct) << "frame " << frame;
  }
  EXPECT_EQ(source.model_invocations(), 4);
  EXPECT_EQ(source.cache_hits(), 1);
  EXPECT_EQ(gated.calls(), 2);
}

TEST_F(OutputSourceTest, WaiterReclaimsAFrameAFailedScatteredOwnerReleased) {
  // As WaiterReclaimsAFailedOwnersFrame, but request A's frames {5, 9, 13}
  // are not contiguous, so A claims and releases them on the general path.
  util::MetricsRegistry registry;
  GatedDetector gated(/*failures=*/1);
  FrameOutputSource source(*dataset_, gated, ObjectClass::kCar, &registry);

  util::Status a_status;
  util::Result<std::vector<int>> b_counts = util::Status::Internal("not run");
  std::thread a([&] { a_status = Counts(source, {5, 9, 13}, 320).status(); });
  gated.AwaitFirstCall();
  std::thread b([&] { b_counts = Counts(source, {9}, 320); });
  AwaitCounter(registry.GetCounter("output_source.inflight_waits"), 1);
  gated.Release();
  a.join();
  b.join();

  EXPECT_FALSE(a_status.ok());
  ASSERT_TRUE(b_counts.ok()) << b_counts.status().ToString();
  auto direct = yolo_.CountDetections(*dataset_, 9, 320, ObjectClass::kCar, 1.0);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(*b_counts, std::vector<int>{*direct});
  EXPECT_EQ(source.model_invocations(), 1);
  EXPECT_EQ(source.cache_hits(), 0);
  EXPECT_EQ(gated.calls(), 2);
  EXPECT_EQ(source.ExportStore().TotalEntries(), 1);
}

TEST_F(OutputSourceTest, PoolEngagesAtThirtyTwoMissesPerWorker) {
  // A 4-wide pool engages for a cold batch of 32 x 4 = 128 distinct misses,
  // split into max_batch_size chunks; one miss fewer runs serially and never
  // touches the pool.
  util::MetricsRegistry registry;
  util::ThreadPool pool(4, &registry);
  FrameOutputSource source(*dataset_, yolo_, ObjectClass::kCar);
  source.set_thread_pool(&pool);
  source.set_max_batch_size(32);
  const util::Counter* tasks_run = registry.GetCounter("thread_pool.tasks_run");

  std::vector<int64_t> below(127);
  std::iota(below.begin(), below.end(), int64_t{0});
  ASSERT_TRUE(Counts(source, below, 320).ok());
  EXPECT_EQ(tasks_run->Value(), 0);

  std::vector<int64_t> at(128);
  std::iota(at.begin(), at.end(), int64_t{127});
  ASSERT_TRUE(Counts(source, at, 320).ok());
  EXPECT_EQ(tasks_run->Value(), 4);
  EXPECT_EQ(source.model_invocations(), 127 + 128);
}

// ---------------------------------------------------------------------------
// Metrics accounting: the accessors read the source's own counters, whose
// every add also lands in the registry counter of the same name. With one
// source on a registry the two agree BIT-EXACTLY at any thread count, on any
// path (serial hit/miss, pooled miss-batches); with several, the registry
// holds the sum.
// ---------------------------------------------------------------------------

TEST_F(OutputSourceTest, SourcesOnOneRegistryKeepTheirOwnCountsAndTheRegistrySums) {
  util::MetricsRegistry registry;
  FrameOutputSource first(*dataset_, yolo_, ObjectClass::kCar, &registry);
  FrameOutputSource second(*dataset_, yolo_, ObjectClass::kCar, &registry);
  ASSERT_TRUE(Counts(first, {0, 1, 2, 3}, 320).ok());            // 4 misses.
  ASSERT_TRUE(Counts(first, {0, 1}, 320).ok());                  // 2 hits.
  ASSERT_TRUE(Counts(second, {0, 1, 2, 3, 4, 5, 6}, 608).ok());  // 7 misses.
  ASSERT_TRUE(Counts(second, {4, 4, 5}, 608).ok());              // 3 hits.

  EXPECT_EQ(first.model_invocations(), 4);
  EXPECT_EQ(first.cache_hits(), 2);
  EXPECT_EQ(second.model_invocations(), 7);
  EXPECT_EQ(second.cache_hits(), 3);
  util::MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.counter("output_source.model_invocations"), 4 + 7);
  EXPECT_EQ(snapshot.counter("output_source.cache_hits"), 2 + 3);
  EXPECT_EQ(&first.registry(), &registry);
}

TEST_F(OutputSourceTest, MetricsMirrorAccessorsSingleThreaded) {
  util::MetricsRegistry registry;
  FrameOutputSource source(*dataset_, yolo_, ObjectClass::kCar, &registry);

  // Mixed workload: cold misses, repeat hits, a batched call with duplicates.
  for (int64_t frame = 0; frame < 40; ++frame) {
    ASSERT_TRUE(Count(source, frame, 320).ok());
  }
  for (int64_t frame = 0; frame < 40; ++frame) {
    ASSERT_TRUE(Count(source, frame, 320).ok());  // All hits.
  }
  ASSERT_TRUE(Counts(source, {0, 1, 1, 2, 90, 91, 90}, 608).ok());

  util::MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.counter("output_source.model_invocations"),
            source.model_invocations());
  EXPECT_EQ(snapshot.counter("output_source.cache_hits"), source.cache_hits());
  EXPECT_GT(source.model_invocations(), 0);
  EXPECT_GT(source.cache_hits(), 0);
}

TEST_F(OutputSourceTest, MetricsMirrorAccessorsAtEightThreads) {
  util::MetricsRegistry registry;
  FrameOutputSource source(*dataset_, yolo_, ObjectClass::kCar, &registry);

  // Overlapping windows from 8 caller threads: races through the hit path,
  // the in-flight wait path and the batch-install path all at once.
  constexpr int kThreads = 8;
  constexpr int64_t kWindow = 150;
  constexpr int64_t kStride = 20;
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<int64_t> window(kWindow);
      std::iota(window.begin(), window.end(), t * kStride);
      if (!Counts(source, window, 320).ok()) failed.store(true);
      for (int64_t frame = t * kStride; frame < t * kStride + 40; ++frame) {
        if (!Count(source, frame, 320).ok()) failed.store(true);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  ASSERT_FALSE(failed.load());

  util::MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.counter("output_source.model_invocations"),
            source.model_invocations());
  EXPECT_EQ(snapshot.counter("output_source.cache_hits"), source.cache_hits());
  // Sanity: the workload exercised both sides of the cache.
  EXPECT_EQ(source.model_invocations(), (kThreads - 1) * kStride + kWindow);
  EXPECT_GT(source.cache_hits(), 0);
}

TEST_F(OutputSourceTest, MetricsBatchHistogramCountsMissBatches) {
  util::MetricsRegistry registry;
  FrameOutputSource source(*dataset_, yolo_, ObjectClass::kCar, &registry);
  // Two batched calls with misses -> two observations whose sum is the total
  // number of distinct misses; a fully-hit call adds no observation.
  ASSERT_TRUE(Counts(source, {0, 1, 2, 3}, 320).ok());
  ASSERT_TRUE(Counts(source, {4, 5}, 320).ok());
  ASSERT_TRUE(Counts(source, {0, 1}, 320).ok());  // All hits.

  util::MetricsSnapshot snapshot = registry.Snapshot();
  const util::HistogramSnapshot* miss_batch = nullptr;
  for (const util::HistogramSnapshot& h : snapshot.histograms) {
    if (h.name == "output_source.miss_batch.frames") miss_batch = &h;
  }
  ASSERT_NE(miss_batch, nullptr);
  EXPECT_EQ(miss_batch->count, 2);
  EXPECT_DOUBLE_EQ(miss_batch->sum, 6.0);
  EXPECT_EQ(snapshot.counter("output_source.model_invocations"), 6);
}

TEST_F(OutputSourceTest, MetricsMirrorAccessorsAcrossFailedRequests) {
  // A failed request adds no invocation and observes no miss batch, on the
  // general path and the contiguous one; the hits it served before failing
  // are counted in the registry as in the accessor.
  util::MetricsRegistry registry;
  ChunkFailingDetector failing({10, 40});
  FrameOutputSource source(*dataset_, failing, ObjectClass::kCar, &registry);
  std::vector<int64_t> range(20);
  std::iota(range.begin(), range.end(), int64_t{40});

  ASSERT_TRUE(Counts(source, {0, 1, 2, 3}, 320).ok());       // 4 misses.
  EXPECT_FALSE(Counts(source, {0, 1, 10, 11}, 320).ok());    // 2 hits, then fails.
  EXPECT_FALSE(Counts(source, range, 320).ok());             // Cold range fails.
  ASSERT_TRUE(Counts(source, {0, 1, 10, 11}, 320).ok());     // 2 hits, 2 misses.
  ASSERT_TRUE(Counts(source, range, 320).ok());              // 20 misses.

  util::MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(source.model_invocations(), 4 + 2 + 20);
  EXPECT_EQ(source.cache_hits(), 2 + 2);
  EXPECT_EQ(snapshot.counter("output_source.model_invocations"), source.model_invocations());
  EXPECT_EQ(snapshot.counter("output_source.cache_hits"), source.cache_hits());
  const util::HistogramSnapshot* miss_batch = nullptr;
  for (const util::HistogramSnapshot& h : snapshot.histograms) {
    if (h.name == "output_source.miss_batch.frames") miss_batch = &h;
  }
  ASSERT_NE(miss_batch, nullptr);
  EXPECT_EQ(miss_batch->count, 3);
  EXPECT_DOUBLE_EQ(miss_batch->sum, 4.0 + 2.0 + 20.0);
  EXPECT_EQ(failing.calls(), 5);
}

}  // namespace
}  // namespace query
}  // namespace smokescreen
