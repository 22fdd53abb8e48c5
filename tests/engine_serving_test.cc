// Serving-layer tests: engine::Runtime / engine::Session / ProfileCache.
//
// The load-bearing claims under test:
//  * Bit-identity: N concurrent sessions over one shared workload produce
//    profiles bit-identical to the serial single-session path, at any
//    executor width.
//  * Exactly-once cross-session computation: the shared source's
//    model_invocations equals the number of DISTINCT cache keys — the same
//    total the serial path pays — regardless of interleaving, and the
//    injected registry, which the sessions' profilers record in too, holds
//    the same count.
//  * ProfileCache: LRU hit/evict behavior, the runtime's 16-profile
//    capacity, and the provenance check that turns a key collision between
//    different corpora into a miss.
//  * Sessions run directly: concurrent sessions are never queued behind one
//    another, and a failed model call fails its request, caches nothing and
//    leaves the workload servable.
//  * Runtime options: Create rejects a negative max_batch_size.
//  * One heal path: a store whose counts rot on disk warm-starts with the
//    damage reported, the next request recomputes exactly the lost entries
//    at its own contrast, and the next save writes the undamaged bytes. A
//    rotten frame list, a torn tail and rotten column metadata heal the same
//    way; a quarantined column no request touches is not rewritten; a store
//    of another workload, of version 1 or with a rotten header fails the
//    warm start and is left as it is.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "detect/class_prior_index.h"
#include "detect/models.h"
#include "engine/profile_cache.h"
#include "engine/runtime.h"
#include "engine/session.h"
#include "query/output_store.h"
#include "util/env.h"
#include "util/metrics.h"
#include "video/presets.h"

namespace smokescreen {
namespace engine {
namespace {

core::ProfileHandle TestProfile(const std::string& dataset_name) {
  core::Profile profile;
  profile.dataset_name = dataset_name;
  core::ProfilePoint point;
  point.interventions.sample_fraction = 0.25;
  point.err_bound = 0.1;
  profile.points.push_back(point);
  return core::MakeProfileHandle(std::move(profile));
}

ProfileKey KeyFor(const std::string& workload, uint64_t seed = 1) {
  ProfileKey key;
  key.workload = workload;
  key.query = "AVG";
  key.grid_hash = 42;
  key.options_hash = 7;
  key.seed = seed;
  return key;
}

ProfileProvenance ProvenanceFor(uint64_t dataset_id) {
  ProfileProvenance provenance;
  provenance.dataset_id = dataset_id;
  provenance.model_id = 5;
  provenance.num_frames = 100;
  return provenance;
}

// A small but non-trivial candidate grid (two knobs, four points).
std::vector<degrade::InterventionSet> SmallGrid() {
  std::vector<degrade::InterventionSet> grid;
  for (double fraction : {0.1, 0.2}) {
    for (int resolution : {320, 608}) {
      degrade::InterventionSet iv;
      iv.sample_fraction = fraction;
      iv.resolution = resolution;
      grid.push_back(iv);
    }
  }
  return grid;
}

SessionConfig FastConfig(query::AggregateFunction aggregate, uint64_t seed,
                         bool use_cache = true) {
  SessionConfig config;
  config.spec.aggregate = aggregate;
  config.seed = seed;
  config.use_profile_cache = use_cache;
  config.profiler.use_correction_set = false;
  config.profiler.early_stop = false;
  return config;
}

// Adopts UA-DETRAC scaled to `frames`, counted by `detector`, into `runtime`.
util::Result<WorkloadHandle> AdoptDetrac(Runtime& runtime, int64_t frames,
                                         std::unique_ptr<detect::Detector> detector) {
  SMK_ASSIGN_OR_RETURN(video::VideoDataset dataset,
                       video::MakePresetScaled(video::ScenePreset::kUaDetrac, frames));
  auto owned = std::make_unique<video::VideoDataset>(std::move(dataset));
  detect::SimYoloV4 person_detector;
  detect::SimMtcnn face_detector;
  SMK_ASSIGN_OR_RETURN(detect::ClassPriorIndex prior,
                       detect::ClassPriorIndex::Build(*owned, person_detector, face_detector));
  return runtime.AdoptWorkload("detrac", std::move(owned), std::move(detector),
                               std::make_unique<detect::ClassPriorIndex>(std::move(prior)),
                               video::ObjectClass::kCar);
}

// Fails its first `failures` CountBatch calls, then counts like the real
// model.
class FailingFirstCallsDetector : public detect::SimYoloV4 {
 public:
  explicit FailingFirstCallsDetector(int failures) : failures_remaining_(failures) {}

  util::Status CountBatch(const video::VideoDataset& dataset,
                          std::span<const int64_t> frame_indices, int resolution,
                          video::ObjectClass cls, double contrast_scale,
                          std::span<int> out) const override {
    if (failures_remaining_.fetch_sub(1) > 0) return util::Status::Internal("inference failed");
    return detect::SimYoloV4::CountBatch(dataset, frame_indices, resolution, cls,
                                         contrast_scale, out);
  }

 private:
  mutable std::atomic<int> failures_remaining_;
};

// ---------------------------------------------------------------------------
// ProfileCache

TEST(ProfileCacheTest, PutThenGetHits) {
  util::MetricsRegistry registry;
  ProfileCache cache(4, &registry);
  cache.Put(KeyFor("w"), ProvenanceFor(1), TestProfile("w"));
  core::ProfileHandle hit = cache.Get(KeyFor("w"), ProvenanceFor(1));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->dataset_name, "w");
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(cache.misses(), 0);
  EXPECT_EQ(registry.GetCounter("engine.profile_cache.hits")->Value(), 1);
}

TEST(ProfileCacheTest, MissOnUnknownKeyAndEveryKeyComponentMatters) {
  util::MetricsRegistry registry;
  ProfileCache cache(4, &registry);
  cache.Put(KeyFor("w", 1), ProvenanceFor(1), TestProfile("w"));

  ProfileKey other_seed = KeyFor("w", 2);
  ProfileKey other_grid = KeyFor("w", 1);
  other_grid.grid_hash = 43;
  ProfileKey other_query = KeyFor("w", 1);
  other_query.query = "SUM";
  EXPECT_EQ(cache.Get(KeyFor("x", 1), ProvenanceFor(1)), nullptr);
  EXPECT_EQ(cache.Get(other_seed, ProvenanceFor(1)), nullptr);
  EXPECT_EQ(cache.Get(other_grid, ProvenanceFor(1)), nullptr);
  EXPECT_EQ(cache.Get(other_query, ProvenanceFor(1)), nullptr);
  EXPECT_EQ(cache.misses(), 4);
}

TEST(ProfileCacheTest, LruEvictsLeastRecentlyUsed) {
  util::MetricsRegistry registry;
  ProfileCache cache(2, &registry);
  cache.Put(KeyFor("a"), ProvenanceFor(1), TestProfile("a"));
  cache.Put(KeyFor("b"), ProvenanceFor(1), TestProfile("b"));
  // Touch "a" so "b" becomes the LRU entry.
  ASSERT_NE(cache.Get(KeyFor("a"), ProvenanceFor(1)), nullptr);
  cache.Put(KeyFor("c"), ProvenanceFor(1), TestProfile("c"));

  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1);
  EXPECT_NE(cache.Get(KeyFor("a"), ProvenanceFor(1)), nullptr);
  EXPECT_NE(cache.Get(KeyFor("c"), ProvenanceFor(1)), nullptr);
  EXPECT_EQ(cache.Get(KeyFor("b"), ProvenanceFor(1)), nullptr);
  EXPECT_EQ(registry.GetCounter("engine.profile_cache.evictions")->Value(), 1);
  EXPECT_EQ(registry.GetGauge("engine.profile_cache.entries")->Value(), 2);
}

TEST(ProfileCacheTest, ProvenanceMismatchEvictsAndCounts) {
  util::MetricsRegistry registry;
  ProfileCache cache(4, &registry);
  cache.Put(KeyFor("w"), ProvenanceFor(1), TestProfile("w"));

  // Same key, different corpus underneath: must MISS and drop the stale entry.
  EXPECT_EQ(cache.Get(KeyFor("w"), ProvenanceFor(2)), nullptr);
  EXPECT_EQ(cache.provenance_mismatches(), 1);
  EXPECT_EQ(cache.size(), 0u);
  // Even the original provenance now misses: the entry is gone, not hidden.
  EXPECT_EQ(cache.Get(KeyFor("w"), ProvenanceFor(1)), nullptr);
  EXPECT_EQ(registry.GetCounter("engine.profile_cache.provenance_mismatches")->Value(), 1);
}

TEST(ProfileCacheTest, ZeroCapacityDisablesCaching) {
  util::MetricsRegistry registry;
  ProfileCache cache(0, &registry);
  cache.Put(KeyFor("w"), ProvenanceFor(1), TestProfile("w"));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.Get(KeyFor("w"), ProvenanceFor(1)), nullptr);
}

// ---------------------------------------------------------------------------
// Runtime: options, workload sharing, stores

TEST(EngineRuntimeTest, CreateValidatesOptions) {
  RuntimeOptions negative_batch;
  negative_batch.max_batch_size = -1;
  EXPECT_FALSE(Runtime::Create(negative_batch).ok());

  EXPECT_TRUE(Runtime::Create(RuntimeOptions{}).ok());
}

TEST(EngineRuntimeTest, SharedWorkloadMaterializesExactlyOnce) {
  util::MetricsRegistry registry;
  RuntimeOptions options;
  options.registry = &registry;
  auto runtime = Runtime::Create(options);
  ASSERT_TRUE(runtime.ok());

  WorkloadDesc desc;
  desc.preset = video::ScenePreset::kUaDetrac;
  desc.frames = 200;

  // Concurrent first requests: exactly one materialization, one instance.
  constexpr int kThreads = 8;
  std::vector<WorkloadHandle> handles(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      auto handle = (*runtime)->GetWorkload(desc);
      ASSERT_TRUE(handle.ok());
      handles[i] = *handle;
    });
  }
  for (std::thread& t : threads) t.join();
  for (int i = 1; i < kThreads; ++i) {
    EXPECT_EQ(handles[0].get(), handles[i].get());
  }
  EXPECT_EQ(registry.GetCounter("engine.workloads.materialized")->Value(), 1);

  // An isolated workload is a distinct, cold instance of the same spec.
  auto isolated = (*runtime)->CreateIsolatedWorkload(desc);
  ASSERT_TRUE(isolated.ok());
  EXPECT_NE(isolated->get(), handles[0].get());
  EXPECT_EQ((*isolated)->source().model_invocations(), 0);
  EXPECT_EQ((*isolated)->share_key(), handles[0]->share_key());
}

TEST(EngineRuntimeTest, WorkloadStoreRoundTripAndBadDirectoryFailsEarly) {
  std::string path = testing::TempDir() + "/engine_store_roundtrip.smkc";
  std::remove(path.c_str());
  WorkloadDesc desc;
  desc.preset = video::ScenePreset::kUaDetrac;
  desc.frames = 150;
  desc.output_store_path = path;

  {
    auto runtime = Runtime::Create(RuntimeOptions{});
    ASSERT_TRUE(runtime.ok());
    auto workload = (*runtime)->GetWorkload(desc);
    ASSERT_TRUE(workload.ok());
    EXPECT_EQ((*workload)->warm_start_entries(), 0);
    // Compute something so the store is non-empty, then persist it.
    std::vector<int64_t> frames = {0, 1, 2, 3, 4};
    std::vector<int> counts(frames.size(), 0);
    ASSERT_TRUE((*workload)->source().FillCounts(frames, 320, 1.0, counts).ok());
    ASSERT_TRUE((*runtime)->SaveStore(*workload).ok());
  }
  {
    auto runtime = Runtime::Create(RuntimeOptions{});
    ASSERT_TRUE(runtime.ok());
    auto workload = (*runtime)->GetWorkload(desc);
    ASSERT_TRUE(workload.ok());
    EXPECT_EQ((*workload)->warm_start_entries(), 5);
    EXPECT_TRUE((*workload)->warm_start_damage().empty());
  }
  std::remove(path.c_str());

  WorkloadDesc bad = desc;
  bad.output_store_path = testing::TempDir() + "/no_such_dir_xyz/store.smkc";
  auto runtime = Runtime::Create(RuntimeOptions{});
  ASSERT_TRUE(runtime.ok());
  auto workload = (*runtime)->GetWorkload(bad);
  ASSERT_FALSE(workload.ok());
  EXPECT_EQ(workload.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(EngineRuntimeTest, ProfileOfZeroFrameWorkloadIsInvalidArgument) {
  // An adopted workload may hold no frames. Profiling it with the default,
  // automatically sized correction set must fail cleanly, not crash.
  auto runtime = Runtime::Create(RuntimeOptions{});
  ASSERT_TRUE(runtime.ok());
  auto dataset = std::make_unique<video::VideoDataset>(
      "empty", 99, 608, 30.0, std::vector<video::Frame>{}, std::vector<video::SequenceInfo>{});
  auto detector = std::make_unique<detect::SimYoloV4>();
  detect::SimMtcnn mtcnn;
  auto prior = detect::ClassPriorIndex::Build(*dataset, *detector, mtcnn);
  ASSERT_TRUE(prior.ok());
  auto workload = (*runtime)->AdoptWorkload(
      "empty", std::move(dataset), std::move(detector),
      std::make_unique<detect::ClassPriorIndex>(std::move(prior).ValueOrDie()),
      video::ObjectClass::kCar);
  ASSERT_TRUE(workload.ok());
  SessionConfig config;
  config.spec.aggregate = query::AggregateFunction::kAvg;
  config.seed = 1;
  ASSERT_TRUE(config.profiler.use_correction_set);
  ASSERT_EQ(config.profiler.correction_set_size, 0);
  auto session = (*runtime)->StartSession(*workload, config);
  ASSERT_TRUE(session.ok());
  auto profile = (*session)->Profile(SmallGrid());
  EXPECT_EQ(profile.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_EQ((*workload)->source().model_invocations(), 0);
}

TEST(EngineRuntimeTest, SaveStoreIsTimedInTheInjectedRegistry) {
  const std::string path = testing::TempDir() + "/engine_store_timed.smkc";
  std::remove(path.c_str());
  util::MetricsRegistry registry;
  RuntimeOptions options;
  options.registry = &registry;
  auto runtime = Runtime::Create(options);
  ASSERT_TRUE(runtime.ok());
  WorkloadDesc desc;
  desc.preset = video::ScenePreset::kUaDetrac;
  desc.frames = 150;
  desc.output_store_path = path;
  auto workload = (*runtime)->GetWorkload(desc);
  ASSERT_TRUE(workload.ok());
  std::vector<int64_t> frames = {0, 1, 2};
  std::vector<int> counts(frames.size(), 0);
  ASSERT_TRUE((*workload)->source().FillCounts(frames, 320, 1.0, counts).ok());

  ASSERT_TRUE((*runtime)->SaveStore(*workload).ok());
  ASSERT_TRUE((*runtime)->SaveStore(*workload).ok());
  const util::Histogram* saves = registry.GetStageHistogram("engine.store.save.seconds");
  EXPECT_EQ(saves->TotalCount(), 2);
  std::remove(path.c_str());
}

TEST(EngineRuntimeTest, DamagedStoreHealsThroughTheWarmStart) {
  const std::string path = testing::TempDir() + "/engine_heal_" +
                           testing::UnitTest::GetInstance()->current_test_info()->name() +
                           ".smkc";
  std::remove(path.c_str());
  WorkloadDesc desc;
  desc.preset = video::ScenePreset::kUaDetrac;
  desc.frames = 100000;
  desc.detector_name = "yolov4";
  desc.target_class = video::ObjectClass::kCar;
  desc.output_store_path = path;
  constexpr int64_t kFrames = 25000;
  std::vector<int64_t> frames(kFrames);
  std::iota(frames.begin(), frames.end(), int64_t{0});
  util::Env& env = util::Env::Default();

  std::vector<int> cold_counts(kFrames);
  {
    auto runtime = Runtime::Create(RuntimeOptions{});
    ASSERT_TRUE(runtime.ok());
    auto workload = (*runtime)->GetWorkload(desc);
    ASSERT_TRUE(workload.ok());
    ASSERT_TRUE((*workload)->source().FillCounts(frames, 608, 0.9, cold_counts).ok());
    ASSERT_TRUE((*runtime)->SaveStore(*workload).ok());
  }
  auto undamaged = env.ReadFileBytes(path);
  ASSERT_TRUE(undamaged.ok());
  std::vector<unsigned char> rotten = *undamaged;
  rotten.back() ^= 0x20;  // A byte of the last count of the only column.
  ASSERT_TRUE(env.WriteFileAtomic(path, rotten).ok());

  auto runtime = Runtime::Create(RuntimeOptions{});
  ASSERT_TRUE(runtime.ok());
  auto workload = (*runtime)->GetWorkload(desc);
  ASSERT_TRUE(workload.ok());
  EXPECT_NE((*workload)->warm_start_damage().find("counts-corrupt"), std::string::npos)
      << (*workload)->warm_start_damage();
  EXPECT_EQ((*workload)->warm_start_entries(), 0);

  // The request recomputes its lost frames as misses, at the column's
  // contrast: 0.9 quantized to 3686/4096. Frame 20985 tells that apart from
  // a recompute at the exact 0.9: the model counts 6 cars there at 0.9 and 5
  // at 3686/4096.
  std::vector<int> counts(kFrames);
  ASSERT_TRUE((*workload)->source().FillCounts(frames, 608, 0.9, counts).ok());
  EXPECT_EQ((*workload)->source().model_invocations(), kFrames);
  EXPECT_EQ(counts, cold_counts);
  EXPECT_EQ(counts[20985], 5);
  const int64_t probe = 20985;
  int quantized = 0;
  ASSERT_TRUE((*workload)
                  ->detector()
                  .CountBatch((*workload)->dataset(), std::span<const int64_t>(&probe, 1), 608,
                              video::ObjectClass::kCar, 3686.0 / 4096.0,
                              std::span<int>(&quantized, 1))
                  .ok());
  EXPECT_EQ(quantized, 5);

  ASSERT_TRUE((*runtime)->SaveStore(*workload).ok());
  auto healed = env.ReadFileBytes(path);
  ASSERT_TRUE(healed.ok());
  EXPECT_EQ(*healed, *undamaged);
  std::remove(path.c_str());
}

// The heal path for each kind of damage, at 2,000 frames. A cold Runtime
// computes two requests, all frames at 320 px and contrast 1.0 and the first
// quarter at 608 px and contrast 0.9, and saves them as two columns. Each
// test damages that file; a new Runtime warm-starts from it.
class StoreHealTest : public ::testing::Test {
 protected:
  static constexpr int64_t kFrames = 2000;
  static constexpr int64_t kDimFrames = kFrames / 4;
  static constexpr size_t kHeaderSize = 40;
  static constexpr size_t kColumnMetaSize = 36;

  void SetUp() override {
    path_ = testing::TempDir() + "/engine_heal_" +
            testing::UnitTest::GetInstance()->current_test_info()->name() + ".smkc";
    std::remove(path_.c_str());
    desc_.preset = video::ScenePreset::kUaDetrac;
    desc_.frames = kFrames;
    desc_.output_store_path = path_;
    all_.resize(kFrames);
    std::iota(all_.begin(), all_.end(), int64_t{0});
    dim_.assign(all_.begin(), all_.begin() + kDimFrames);

    auto runtime = Runtime::Create(RuntimeOptions{});
    ASSERT_TRUE(runtime.ok());
    auto workload = (*runtime)->GetWorkload(desc_);
    ASSERT_TRUE(workload.ok());
    cold_all_.resize(all_.size());
    cold_dim_.resize(dim_.size());
    ASSERT_TRUE((*workload)->source().FillCounts(all_, 320, 1.0, cold_all_).ok());
    ASSERT_TRUE((*workload)->source().FillCounts(dim_, 608, 0.9, cold_dim_).ok());
    ASSERT_TRUE((*runtime)->SaveStore(*workload).ok());
    auto bytes = util::Env::Default().ReadFileBytes(path_);
    ASSERT_TRUE(bytes.ok());
    undamaged_ = std::move(*bytes);
    ASSERT_EQ(undamaged_.size(),
              kHeaderSize + 2 * kColumnMetaSize + (kFrames + kDimFrames) * 12);
  }

  void TearDown() override { std::remove(path_.c_str()); }

  // Byte offsets in the undamaged file: column 0 holds the 320 px request,
  // column 1 the 608 px one (export order is by resolution).
  static size_t ColumnStart(int column) {
    return column == 0 ? kHeaderSize : kHeaderSize + kColumnMetaSize + kFrames * 12;
  }
  static size_t FramesStart(int column) { return ColumnStart(column) + kColumnMetaSize; }
  static size_t CountsStart(int column) {
    return FramesStart(column) + (column == 0 ? kFrames : kDimFrames) * 8;
  }

  void WriteStore(const std::vector<unsigned char>& bytes) {
    ASSERT_TRUE(util::Env::Default().WriteFileAtomic(path_, bytes).ok());
  }
  std::vector<unsigned char> ReadStore() {
    auto bytes = util::Env::Default().ReadFileBytes(path_);
    EXPECT_TRUE(bytes.ok());
    return bytes.ok() ? std::move(*bytes) : std::vector<unsigned char>{};
  }

  // Re-issues both requests, which must return the cold counts and invoke
  // the model exactly `expected_invocations` times.
  void ExpectReissueInvokes(Workload& workload, int64_t expected_invocations) {
    std::vector<int> counts_all(all_.size());
    std::vector<int> counts_dim(dim_.size());
    ASSERT_TRUE(workload.source().FillCounts(all_, 320, 1.0, counts_all).ok());
    ASSERT_TRUE(workload.source().FillCounts(dim_, 608, 0.9, counts_dim).ok());
    EXPECT_EQ(workload.source().model_invocations(), expected_invocations);
    EXPECT_EQ(counts_all, cold_all_);
    EXPECT_EQ(counts_dim, cold_dim_);
  }

  std::string path_;
  WorkloadDesc desc_;
  std::vector<int64_t> all_;
  std::vector<int64_t> dim_;
  std::vector<int> cold_all_;
  std::vector<int> cold_dim_;
  std::vector<unsigned char> undamaged_;
};

TEST_F(StoreHealTest, CorruptFrameListHealsThroughTheWarmStart) {
  std::vector<unsigned char> bytes = undamaged_;
  bytes[FramesStart(1) + 8 * 100] ^= 0x01;
  WriteStore(bytes);

  auto runtime = Runtime::Create(RuntimeOptions{});
  ASSERT_TRUE(runtime.ok());
  auto workload = (*runtime)->GetWorkload(desc_);
  ASSERT_TRUE(workload.ok());
  EXPECT_EQ((*workload)->warm_start_damage(),
            "v2: 1/2 columns (2000 entries) loaded; quarantined: frames-corrupt");
  EXPECT_EQ((*workload)->warm_start_entries(), kFrames);
  ExpectReissueInvokes(**workload, kDimFrames);
  ASSERT_TRUE((*runtime)->SaveStore(*workload).ok());
  EXPECT_EQ(ReadStore(), undamaged_);
}

TEST_F(StoreHealTest, TruncatedStoreHealsThroughTheWarmStart) {
  // A torn tail: the file ends inside the second column's frame list.
  std::vector<unsigned char> bytes = undamaged_;
  bytes.resize(FramesStart(1) + 8 * 10);
  WriteStore(bytes);

  auto runtime = Runtime::Create(RuntimeOptions{});
  ASSERT_TRUE(runtime.ok());
  auto workload = (*runtime)->GetWorkload(desc_);
  ASSERT_TRUE(workload.ok());
  EXPECT_EQ((*workload)->warm_start_damage(),
            "v2: 1/2 columns (2000 entries) loaded; quarantined: truncated");
  EXPECT_EQ((*workload)->warm_start_entries(), kFrames);
  ExpectReissueInvokes(**workload, kDimFrames);
  ASSERT_TRUE((*runtime)->SaveStore(*workload).ok());
  EXPECT_EQ(ReadStore(), undamaged_);
}

TEST_F(StoreHealTest, CorruptMetadataHealsTheColumnsBehindItToo) {
  // Untrusted lengths in the first column make the second unreachable:
  // nothing preloads, and the requests recompute both columns.
  std::vector<unsigned char> bytes = undamaged_;
  bytes[ColumnStart(0) + 8] ^= 0x01;  // contrast_q of column 0.
  WriteStore(bytes);

  auto runtime = Runtime::Create(RuntimeOptions{});
  ASSERT_TRUE(runtime.ok());
  auto workload = (*runtime)->GetWorkload(desc_);
  ASSERT_TRUE(workload.ok());
  EXPECT_EQ((*workload)->warm_start_damage(),
            "v2: 0/2 columns (0 entries) loaded; quarantined: meta-corrupt truncated");
  EXPECT_EQ((*workload)->warm_start_entries(), 0);
  ExpectReissueInvokes(**workload, kFrames + kDimFrames);
  ASSERT_TRUE((*runtime)->SaveStore(*workload).ok());
  EXPECT_EQ(ReadStore(), undamaged_);
}

TEST_F(StoreHealTest, QuarantinedColumnNoRequestTouchesIsNotRewritten) {
  std::vector<unsigned char> bytes = undamaged_;
  bytes.back() ^= 0x01;  // Last count of column 1.
  WriteStore(bytes);

  {
    auto runtime = Runtime::Create(RuntimeOptions{});
    ASSERT_TRUE(runtime.ok());
    auto workload = (*runtime)->GetWorkload(desc_);
    ASSERT_TRUE(workload.ok());
    EXPECT_EQ((*workload)->warm_start_damage(),
              "v2: 1/2 columns (2000 entries) loaded; quarantined: counts-corrupt");
    // Only the 320 px request comes back: it is served from the store.
    std::vector<int> counts(all_.size());
    ASSERT_TRUE((*workload)->source().FillCounts(all_, 320, 1.0, counts).ok());
    EXPECT_EQ((*workload)->source().model_invocations(), 0);
    EXPECT_EQ(counts, cold_all_);
    ASSERT_TRUE((*runtime)->SaveStore(*workload).ok());
  }
  // The save holds the verified column alone, and it loads strictly.
  auto saved = query::OutputStore::Load(path_);
  ASSERT_TRUE(saved.ok());
  ASSERT_EQ(saved->columns().size(), 1u);
  EXPECT_EQ(saved->columns()[0].resolution, 320);
  EXPECT_EQ(saved->columns()[0].counts, cold_all_);

  // A later warm start is clean; the 608 px request costs what it costs cold.
  auto runtime = Runtime::Create(RuntimeOptions{});
  ASSERT_TRUE(runtime.ok());
  auto workload = (*runtime)->GetWorkload(desc_);
  ASSERT_TRUE(workload.ok());
  EXPECT_TRUE((*workload)->warm_start_damage().empty());
  EXPECT_EQ((*workload)->warm_start_entries(), kFrames);
  ExpectReissueInvokes(**workload, kDimFrames);
}

TEST_F(StoreHealTest, HealedStoreWarmStartsCleanAndNeedsNoModel) {
  std::vector<unsigned char> bytes = undamaged_;
  bytes[CountsStart(0) + 4 * 1000] ^= 0x10;  // Count of frame 1000, column 0.
  WriteStore(bytes);
  {
    auto runtime = Runtime::Create(RuntimeOptions{});
    ASSERT_TRUE(runtime.ok());
    auto workload = (*runtime)->GetWorkload(desc_);
    ASSERT_TRUE(workload.ok());
    EXPECT_EQ((*workload)->warm_start_damage(),
              "v2: 1/2 columns (500 entries) loaded; quarantined: counts-corrupt");
    ExpectReissueInvokes(**workload, kFrames);
    ASSERT_TRUE((*runtime)->SaveStore(*workload).ok());
  }

  util::MetricsRegistry registry;
  RuntimeOptions options;
  options.registry = &registry;
  auto runtime = Runtime::Create(options);
  ASSERT_TRUE(runtime.ok());
  auto workload = (*runtime)->GetWorkload(desc_);
  ASSERT_TRUE(workload.ok());
  EXPECT_TRUE((*workload)->warm_start_damage().empty());
  EXPECT_EQ((*workload)->warm_start_entries(), kFrames + kDimFrames);
  EXPECT_EQ(registry.GetCounter("output_store.salvage.columns_quarantined")->Value(), 0);
  ExpectReissueInvokes(**workload, 0);
  EXPECT_EQ((*workload)->source().cache_hits(), kFrames + kDimFrames);
}

TEST_F(StoreHealTest, StoreOfAnotherWorkloadFailsTheWarmStartAndIsKept) {
  // Another frame count or another model: nothing in the file can be
  // attributed to the workload, so it is neither served nor overwritten.
  WorkloadDesc shorter = desc_;
  shorter.frames = kFrames - 1;
  WorkloadDesc other_model = desc_;
  other_model.detector_name = "ssd";
  for (const WorkloadDesc& desc : {shorter, other_model}) {
    auto runtime = Runtime::Create(RuntimeOptions{});
    ASSERT_TRUE(runtime.ok());
    auto workload = (*runtime)->GetWorkload(desc);
    ASSERT_FALSE(workload.ok()) << desc.detector_name << " " << desc.frames;
    EXPECT_EQ(workload.status().code(), util::StatusCode::kInvalidArgument)
        << workload.status().ToString();
  }
  EXPECT_EQ(ReadStore(), undamaged_);
}

TEST_F(StoreHealTest, VersionOneStoreFailsTheWarmStartAndIsKept) {
  std::vector<unsigned char> bytes = undamaged_;
  const uint32_t version = 1;
  std::memcpy(&bytes[4], &version, sizeof(version));
  const uint32_t header_crc = util::Crc32(bytes.data(), kHeaderSize - 4);
  std::memcpy(&bytes[kHeaderSize - 4], &header_crc, sizeof(header_crc));
  WriteStore(bytes);

  auto runtime = Runtime::Create(RuntimeOptions{});
  ASSERT_TRUE(runtime.ok());
  auto workload = (*runtime)->GetWorkload(desc_);
  ASSERT_FALSE(workload.ok());
  EXPECT_EQ(workload.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_EQ(workload.status().message(), "unsupported output store version 1");
  EXPECT_EQ(ReadStore(), bytes);
}

TEST_F(StoreHealTest, CorruptHeaderFailsTheWarmStartAsDataLoss) {
  std::vector<unsigned char> bytes = undamaged_;
  bytes[8] ^= 0x01;  // dataset_id: the header CRC no longer verifies.
  WriteStore(bytes);

  auto runtime = Runtime::Create(RuntimeOptions{});
  ASSERT_TRUE(runtime.ok());
  auto workload = (*runtime)->GetWorkload(desc_);
  ASSERT_FALSE(workload.ok());
  EXPECT_EQ(workload.status().code(), util::StatusCode::kDataLoss);
  EXPECT_EQ(ReadStore(), bytes);
}

TEST(EngineRuntimeTest, FailedModelCallFailsTheProfileAndCachesNothing) {
  // A model call that fails fails the session's profile with the model's
  // error. Nothing enters the ProfileCache, and the session count comes
  // back down. The workload stays servable: the next session generates the
  // profile a healthy workload gives, and a third one reads it from the
  // cache.
  util::MetricsRegistry registry;
  RuntimeOptions options;
  options.registry = &registry;
  auto runtime = Runtime::Create(options);
  ASSERT_TRUE(runtime.ok());
  auto workload =
      AdoptDetrac(**runtime, 200, std::make_unique<FailingFirstCallsDetector>(/*failures=*/1));
  ASSERT_TRUE(workload.ok());
  const SessionConfig config = FastConfig(query::AggregateFunction::kAvg, 7);
  {
    auto failed = (*runtime)->StartSession(*workload, config);
    ASSERT_TRUE(failed.ok());
    auto profile = (*failed)->Profile(SmallGrid());
    ASSERT_FALSE(profile.ok());
    EXPECT_EQ(profile.status().code(), util::StatusCode::kInternal);
    EXPECT_EQ((*failed)->profile(), nullptr);
  }
  EXPECT_EQ((*runtime)->profile_cache().size(), 0u);
  EXPECT_EQ(registry.GetGauge("engine.sessions.active")->Value(), 0);

  auto reference_runtime = Runtime::Create(RuntimeOptions{});
  ASSERT_TRUE(reference_runtime.ok());
  auto healthy = AdoptDetrac(**reference_runtime, 200, std::make_unique<detect::SimYoloV4>());
  ASSERT_TRUE(healthy.ok());
  auto reference_session = (*reference_runtime)->StartSession(*healthy, config);
  ASSERT_TRUE(reference_session.ok());
  auto reference = (*reference_session)->Profile(SmallGrid());
  ASSERT_TRUE(reference.ok());

  auto retry = (*runtime)->StartSession(*workload, config);
  ASSERT_TRUE(retry.ok());
  auto retried = (*retry)->Profile(SmallGrid());
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_FALSE((*retry)->last_profile_from_cache());
  EXPECT_TRUE(ProfilesBitIdentical(**reference, **retried));

  auto repeat = (*runtime)->StartSession(*workload, config);
  ASSERT_TRUE(repeat.ok());
  auto cached = (*repeat)->Profile(SmallGrid());
  ASSERT_TRUE(cached.ok());
  EXPECT_TRUE((*repeat)->last_profile_from_cache());
  EXPECT_EQ(cached->get(), retried->get());
  EXPECT_EQ(registry.GetCounter("engine.sessions.started")->Value(), 3);
}

TEST(EngineRuntimeTest, ProfileCacheKeepsTheSixteenMostRecentProfiles) {
  // The runtime's ProfileCache holds 16 profiles. A 17th distinct request
  // evicts the least recently used one, and only that one.
  auto runtime = Runtime::Create(RuntimeOptions{});
  ASSERT_TRUE(runtime.ok());
  EXPECT_EQ((*runtime)->profile_cache().capacity(), 16u);
  WorkloadDesc desc;
  desc.preset = video::ScenePreset::kUaDetrac;
  desc.frames = 150;
  auto workload = (*runtime)->GetWorkload(desc);
  ASSERT_TRUE(workload.ok());
  degrade::InterventionSet iv;
  iv.sample_fraction = 0.2;
  iv.resolution = 320;
  const std::vector<degrade::InterventionSet> grid = {iv};
  // 1 when the profile for `seed` came from the cache, 0 when it was
  // generated, -1 when the request failed.
  auto from_cache = [&](uint64_t seed) {
    auto session =
        (*runtime)->StartSession(*workload, FastConfig(query::AggregateFunction::kAvg, seed));
    if (!session.ok() || !(*session)->Profile(grid).ok()) return -1;
    return (*session)->last_profile_from_cache() ? 1 : 0;
  };

  for (uint64_t seed = 1; seed <= 17; ++seed) EXPECT_EQ(from_cache(seed), 0) << "seed " << seed;
  EXPECT_EQ((*runtime)->profile_cache().size(), 16u);
  EXPECT_EQ((*runtime)->profile_cache().evictions(), 1);
  EXPECT_EQ(from_cache(17), 1);
  EXPECT_EQ(from_cache(2), 1);
  EXPECT_EQ(from_cache(1), 0);  // The first profile was the one evicted.
}

// ---------------------------------------------------------------------------
// Serving: concurrent sessions, bit-identity, exact accounting

class ServingConcurrencyTest : public ::testing::Test {
 protected:
  // The serial reference: a fresh runtime, one session, one generation.
  // Returns the profile and the invocation count the serial path paid.
  static std::pair<core::ProfileHandle, int64_t> SerialReference(
      const WorkloadDesc& desc, query::AggregateFunction aggregate, uint64_t seed) {
    auto runtime = Runtime::Create(RuntimeOptions{});
    runtime.status().CheckOk();
    auto workload = (*runtime)->GetWorkload(desc);
    workload.status().CheckOk();
    auto session = (*runtime)->StartSession(*workload, FastConfig(aggregate, seed, false));
    session.status().CheckOk();
    auto profile = (*session)->Profile(SmallGrid());
    profile.status().CheckOk();
    return {*profile, (*workload)->source().model_invocations()};
  }
};

TEST_F(ServingConcurrencyTest, SixteenSessionsBitIdenticalToSerialWithExactAccounting) {
  WorkloadDesc desc;
  desc.preset = video::ScenePreset::kUaDetrac;
  desc.frames = 300;
  const uint64_t kSeed = 99;
  auto [serial_profile, serial_invocations] =
      SerialReference(desc, query::AggregateFunction::kAvg, kSeed);
  ASSERT_NE(serial_profile, nullptr);
  ASSERT_GT(serial_invocations, 0);

  util::MetricsRegistry registry;
  RuntimeOptions options;
  options.registry = &registry;
  auto runtime = Runtime::Create(options);
  ASSERT_TRUE(runtime.ok());
  auto workload = (*runtime)->GetWorkload(desc);
  ASSERT_TRUE(workload.ok());

  constexpr int kSessions = 16;
  std::vector<core::ProfileHandle> profiles(kSessions);
  std::vector<std::thread> threads;
  for (int i = 0; i < kSessions; ++i) {
    threads.emplace_back([&, i] {
      // The profile cache is OFF: all 16 sessions must really generate, and
      // the only sharing left is the source's exactly-once miss dedup.
      auto session = (*runtime)->StartSession(
          *workload, FastConfig(query::AggregateFunction::kAvg, kSeed, false));
      ASSERT_TRUE(session.ok());
      auto profile = (*session)->Profile(SmallGrid());
      ASSERT_TRUE(profile.ok());
      profiles[i] = *profile;
    });
  }
  for (std::thread& t : threads) t.join();

  for (int i = 0; i < kSessions; ++i) {
    ASSERT_NE(profiles[i], nullptr) << "session " << i;
    EXPECT_TRUE(ProfilesBitIdentical(*serial_profile, *profiles[i])) << "session " << i;
  }
  // Exactly-once across sessions: 16 concurrent generations of the same key
  // set pay the SERIAL invocation bill, at any interleaving. The workload's
  // source is the only one on the runtime-injected registry, so the
  // registry counter equals its accessor, and every session's profiler
  // records its generation there.
  EXPECT_EQ((*workload)->source().model_invocations(), serial_invocations);
  EXPECT_EQ(registry.GetCounter("output_source.model_invocations")->Value(),
            serial_invocations);
  EXPECT_EQ(registry.GetCounter("engine.sessions.started")->Value(), kSessions);
  EXPECT_EQ(registry.GetCounter("profiler.generate_calls")->Value(), kSessions);
}

TEST_F(ServingConcurrencyTest, CrossQuerySessionsShareRawCountComputation) {
  WorkloadDesc desc;
  desc.preset = video::ScenePreset::kNightStreet;
  desc.frames = 300;
  const uint64_t kSeed = 7;
  auto [avg_profile, avg_invocations] =
      SerialReference(desc, query::AggregateFunction::kAvg, kSeed);
  ASSERT_NE(avg_profile, nullptr);

  auto runtime = Runtime::Create(RuntimeOptions{});
  ASSERT_TRUE(runtime.ok());
  auto workload = (*runtime)->GetWorkload(desc);
  ASSERT_TRUE(workload.ok());

  // AVG and SUM sessions concurrently, same seed: the sampled frames match,
  // and raw-count cache keys are aggregate-independent, so the second query
  // rides entirely on the first one's computation.
  const query::AggregateFunction kAggregates[] = {
      query::AggregateFunction::kAvg, query::AggregateFunction::kSum,
      query::AggregateFunction::kAvg, query::AggregateFunction::kSum};
  std::vector<std::thread> threads;
  for (query::AggregateFunction aggregate : kAggregates) {
    threads.emplace_back([&, aggregate] {
      auto session = (*runtime)->StartSession(*workload, FastConfig(aggregate, kSeed, false));
      ASSERT_TRUE(session.ok());
      ASSERT_TRUE((*session)->Profile(SmallGrid()).ok());
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ((*workload)->source().model_invocations(), avg_invocations);
}

TEST_F(ServingConcurrencyTest, ExecutorWidthDoesNotChangeProfiles) {
  WorkloadDesc desc;
  desc.preset = video::ScenePreset::kMvi40771;
  desc.frames = 200;

  core::ProfileHandle narrow, wide;
  for (int threads : {1, 8}) {
    RuntimeOptions options;
    options.num_threads = threads;
    auto runtime = Runtime::Create(options);
    ASSERT_TRUE(runtime.ok());
    auto workload = (*runtime)->GetWorkload(desc);
    ASSERT_TRUE(workload.ok());
    auto session = (*runtime)->StartSession(
        *workload, FastConfig(query::AggregateFunction::kAvg, 5, false));
    ASSERT_TRUE(session.ok());
    auto profile = (*session)->Profile(SmallGrid());
    ASSERT_TRUE(profile.ok());
    (threads == 1 ? narrow : wide) = *profile;
  }
  ASSERT_NE(narrow, nullptr);
  ASSERT_NE(wide, nullptr);
  EXPECT_TRUE(ProfilesBitIdentical(*narrow, *wide));
}

TEST_F(ServingConcurrencyTest, ProfileCacheServesRepeatRequests) {
  util::MetricsRegistry registry;
  RuntimeOptions options;
  options.registry = &registry;
  auto runtime = Runtime::Create(options);
  ASSERT_TRUE(runtime.ok());
  WorkloadDesc desc;
  desc.preset = video::ScenePreset::kUaDetrac;
  desc.frames = 200;
  auto workload = (*runtime)->GetWorkload(desc);
  ASSERT_TRUE(workload.ok());

  auto first = (*runtime)->StartSession(*workload,
                                        FastConfig(query::AggregateFunction::kAvg, 42));
  ASSERT_TRUE(first.ok());
  auto generated = (*first)->Profile(SmallGrid());
  ASSERT_TRUE(generated.ok());
  EXPECT_FALSE((*first)->last_profile_from_cache());

  // Same workload/query/grid/options/seed from a DIFFERENT session: cache hit,
  // the very same engine-owned profile object, no generation report.
  auto second = (*runtime)->StartSession(*workload,
                                         FastConfig(query::AggregateFunction::kAvg, 42));
  ASSERT_TRUE(second.ok());
  auto cached = (*second)->Profile(SmallGrid());
  ASSERT_TRUE(cached.ok());
  EXPECT_TRUE((*second)->last_profile_from_cache());
  EXPECT_EQ(generated->get(), cached->get());
  EXPECT_EQ((*second)->last_report().model_invocations, 0);

  // A different seed is a different key: regenerate.
  auto third = (*runtime)->StartSession(*workload,
                                        FastConfig(query::AggregateFunction::kAvg, 43));
  ASSERT_TRUE(third.ok());
  ASSERT_TRUE((*third)->Profile(SmallGrid()).ok());
  EXPECT_FALSE((*third)->last_profile_from_cache());

  EXPECT_EQ((*runtime)->profile_cache().hits(), 1);
  EXPECT_EQ((*runtime)->profile_cache().misses(), 2);
  EXPECT_EQ(registry.GetCounter("engine.profile_cache.hits")->Value(), 1);
  EXPECT_EQ(registry.GetCounter("engine.profile_cache.misses")->Value(), 2);
  EXPECT_EQ(registry.GetCounter("profiler.generate_calls")->Value(), 2);
}

TEST_F(ServingConcurrencyTest, MixedPresetSessionsServeIndependentWorkloads) {
  WorkloadDesc detrac;
  detrac.preset = video::ScenePreset::kUaDetrac;
  detrac.frames = 200;
  WorkloadDesc night;
  night.preset = video::ScenePreset::kNightStreet;
  night.frames = 200;
  auto [serial_detrac, detrac_invocations] =
      SerialReference(detrac, query::AggregateFunction::kAvg, 1);
  auto [serial_night, night_invocations] =
      SerialReference(night, query::AggregateFunction::kAvg, 1);
  ASSERT_NE(serial_detrac, nullptr);
  ASSERT_NE(serial_night, nullptr);

  auto runtime = Runtime::Create(RuntimeOptions{});
  ASSERT_TRUE(runtime.ok());
  auto workload_a = (*runtime)->GetWorkload(detrac);
  auto workload_b = (*runtime)->GetWorkload(night);
  ASSERT_TRUE(workload_a.ok());
  ASSERT_TRUE(workload_b.ok());

  std::vector<core::ProfileHandle> detrac_profiles(4), night_profiles(4);
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&, i] {
      auto session = (*runtime)->StartSession(
          *workload_a, FastConfig(query::AggregateFunction::kAvg, 1, false));
      ASSERT_TRUE(session.ok());
      auto profile = (*session)->Profile(SmallGrid());
      ASSERT_TRUE(profile.ok());
      detrac_profiles[i] = *profile;
    });
    threads.emplace_back([&, i] {
      auto session = (*runtime)->StartSession(
          *workload_b, FastConfig(query::AggregateFunction::kAvg, 1, false));
      ASSERT_TRUE(session.ok());
      auto profile = (*session)->Profile(SmallGrid());
      ASSERT_TRUE(profile.ok());
      night_profiles[i] = *profile;
    });
  }
  for (std::thread& t : threads) t.join();
  for (int i = 0; i < 4; ++i) {
    ASSERT_NE(detrac_profiles[i], nullptr);
    ASSERT_NE(night_profiles[i], nullptr);
    EXPECT_TRUE(ProfilesBitIdentical(*serial_detrac, *detrac_profiles[i]));
    EXPECT_TRUE(ProfilesBitIdentical(*serial_night, *night_profiles[i]));
  }
  EXPECT_EQ((*workload_a)->source().model_invocations(), detrac_invocations);
  EXPECT_EQ((*workload_b)->source().model_invocations(), night_invocations);
}

TEST_F(ServingConcurrencyTest, SessionLifecycleAndExecuteDeterminism) {
  auto runtime = Runtime::Create(RuntimeOptions{});
  ASSERT_TRUE(runtime.ok());
  WorkloadDesc desc;
  desc.preset = video::ScenePreset::kUaDetrac;
  desc.frames = 200;
  auto workload = (*runtime)->GetWorkload(desc);
  ASSERT_TRUE(workload.ok());

  auto session = (*runtime)->StartSession(*workload,
                                          FastConfig(query::AggregateFunction::kAvg, 3));
  ASSERT_TRUE(session.ok());
  // Admin views and tradeoffs require a profile.
  EXPECT_EQ((*session)->Admin().status().code(), util::StatusCode::kFailedPrecondition);
  EXPECT_EQ((*session)->ChooseTradeoff(0.5).status().code(),
            util::StatusCode::kFailedPrecondition);

  ASSERT_TRUE((*session)->Profile(SmallGrid()).ok());
  auto admin = (*session)->Admin();
  ASSERT_TRUE(admin.ok());
  EXPECT_EQ(admin->profile().get(), (*session)->profile().get());

  // A session's Nth Execute draws a fixed stream: two sessions with the same
  // seed agree call-by-call even though each call differs from the previous.
  auto twin = (*runtime)->StartSession(*workload,
                                       FastConfig(query::AggregateFunction::kAvg, 3));
  ASSERT_TRUE(twin.ok());
  degrade::InterventionSet iv;
  iv.sample_fraction = 0.2;
  for (int call = 0; call < 3; ++call) {
    auto a = (*session)->Execute(iv);
    auto b = (*twin)->Execute(iv);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->estimate.y_approx, b->estimate.y_approx) << "call " << call;
    EXPECT_EQ(a->estimate.err_b, b->estimate.err_b) << "call " << call;
  }
}

// Holds every CountBatch call until `expected` calls are inside at once, or
// 10 s pass, and records the most calls that were ever inside together.
class RendezvousDetector : public detect::SimYoloV4 {
 public:
  explicit RendezvousDetector(int expected) : expected_(expected) {}

  util::Status CountBatch(const video::VideoDataset& dataset,
                          std::span<const int64_t> frame_indices, int resolution,
                          video::ObjectClass cls, double contrast_scale,
                          std::span<int> out) const override {
    const int inside = inside_.fetch_add(1) + 1;
    int peak = peak_.load();
    while (inside > peak && !peak_.compare_exchange_weak(peak, inside)) {
    }
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (peak_.load() < expected_ && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    util::Status status = detect::SimYoloV4::CountBatch(dataset, frame_indices, resolution, cls,
                                                        contrast_scale, out);
    inside_.fetch_sub(1);
    return status;
  }

  int peak() const { return peak_.load(); }

 private:
  const int expected_;
  mutable std::atomic<int> inside_{0};
  mutable std::atomic<int> peak_{0};
};

TEST_F(ServingConcurrencyTest, SessionsRunConcurrentlyWithoutALimit) {
  // Sessions run their work on the calling thread, with no admission queue
  // in front of it: four sessions executing at once are all inside a model
  // call together. Each executes at its own resolution, so no session waits
  // on another's frames, and each answer equals the one a healthy workload
  // gives the same session alone.
  constexpr int kSessions = 4;
  const int kResolutions[kSessions] = {320, 416, 512, 608};
  RuntimeOptions options;
  options.num_threads = 1;  // Every model call runs on its session's thread.
  auto runtime = Runtime::Create(options);
  ASSERT_TRUE(runtime.ok());
  auto rendezvous = std::make_unique<RendezvousDetector>(kSessions);
  const RendezvousDetector* detector = rendezvous.get();
  auto workload = AdoptDetrac(**runtime, 300, std::move(rendezvous));
  ASSERT_TRUE(workload.ok());

  std::vector<util::Result<core::EstimationResult>> answers(
      kSessions, util::Status::Internal("not run"));
  std::vector<std::thread> threads;
  for (int i = 0; i < kSessions; ++i) {
    threads.emplace_back([&, i] {
      auto session =
          (*runtime)->StartSession(*workload, FastConfig(query::AggregateFunction::kAvg, 11));
      if (!session.ok()) return;
      degrade::InterventionSet iv;
      iv.sample_fraction = 0.2;
      iv.resolution = kResolutions[i];
      answers[i] = (*session)->Execute(iv);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(detector->peak(), kSessions);

  auto reference_runtime = Runtime::Create(RuntimeOptions{});
  ASSERT_TRUE(reference_runtime.ok());
  auto healthy = AdoptDetrac(**reference_runtime, 300, std::make_unique<detect::SimYoloV4>());
  ASSERT_TRUE(healthy.ok());
  for (int i = 0; i < kSessions; ++i) {
    ASSERT_TRUE(answers[i].ok()) << "resolution " << kResolutions[i];
    auto session = (*reference_runtime)
                       ->StartSession(*healthy, FastConfig(query::AggregateFunction::kAvg, 11));
    ASSERT_TRUE(session.ok());
    degrade::InterventionSet iv;
    iv.sample_fraction = 0.2;
    iv.resolution = kResolutions[i];
    auto alone = (*session)->Execute(iv);
    ASSERT_TRUE(alone.ok());
    EXPECT_EQ(answers[i]->estimate.y_approx, alone->estimate.y_approx) << kResolutions[i];
    EXPECT_EQ(answers[i]->estimate.err_b, alone->estimate.err_b) << kResolutions[i];
    EXPECT_EQ(answers[i]->sample_size, alone->sample_size) << kResolutions[i];
  }
}

}  // namespace
}  // namespace engine
}  // namespace smokescreen
