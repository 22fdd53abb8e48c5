// Serving-layer tests: engine::Runtime / engine::Session / ProfileCache.
//
// The load-bearing claims under test:
//  * Bit-identity: N concurrent sessions over one shared workload produce
//    profiles bit-identical to the serial single-session path, at any
//    executor width and admission limit.
//  * Exactly-once cross-session computation: the shared source's
//    model_invocations equals the number of DISTINCT cache keys — the same
//    total the serial path pays — regardless of interleaving, and the
//    injected registry mirrors it exactly.
//  * ProfileCache: LRU hit/evict behavior and the provenance check that
//    turns a key collision between different corpora into a miss.
//  * Admission control: FIFO order, concurrency ceiling, and the watchdog
//    budget that fails queued work with kUnavailable.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "detect/class_prior_index.h"
#include "detect/models.h"
#include "engine/profile_cache.h"
#include "engine/runtime.h"
#include "engine/session.h"
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
// Runtime: options, workload sharing, admission control

TEST(EngineRuntimeTest, CreateValidatesOptions) {
  RuntimeOptions negative_sessions;
  negative_sessions.max_concurrent_sessions = -1;
  EXPECT_FALSE(Runtime::Create(negative_sessions).ok());

  RuntimeOptions zero_budget;
  zero_budget.admission_wait_budget_sec = 0.0;
  EXPECT_FALSE(Runtime::Create(zero_budget).ok());

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

TEST(EngineRuntimeTest, AdmissionTimeoutReturnsUnavailable) {
  util::MetricsRegistry registry;
  RuntimeOptions options;
  options.registry = &registry;
  options.max_concurrent_sessions = 1;
  options.admission_wait_budget_sec = 0.05;
  auto runtime = Runtime::Create(options);
  ASSERT_TRUE(runtime.ok());

  auto first = (*runtime)->AdmitWork();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ((*runtime)->active_work(), 1);

  auto second = (*runtime)->AdmitWork();
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), util::StatusCode::kUnavailable);
  EXPECT_EQ((*runtime)->admission_timeouts(), 1);
  EXPECT_EQ(registry.GetCounter("engine.admission.timeouts")->Value(), 1);

  // Releasing the permit opens the slot again — the timed-out waiter left no
  // ghost ticket blocking the queue.
  { Runtime::WorkPermit released = std::move(*first); }
  auto third = (*runtime)->AdmitWork();
  EXPECT_TRUE(third.ok());
}

TEST(EngineRuntimeTest, AdmissionIsFifoAndBoundsConcurrency) {
  RuntimeOptions options;
  options.max_concurrent_sessions = 2;
  auto runtime = Runtime::Create(options);
  ASSERT_TRUE(runtime.ok());

  constexpr int kWorkers = 12;
  std::atomic<int> running{0};
  std::atomic<int> peak{0};
  std::atomic<int> admitted{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kWorkers; ++i) {
    threads.emplace_back([&] {
      auto permit = (*runtime)->AdmitWork();
      ASSERT_TRUE(permit.ok());
      int now = ++running;
      int prev = peak.load();
      while (now > prev && !peak.compare_exchange_weak(prev, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      --running;
      ++admitted;
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(admitted.load(), kWorkers);
  EXPECT_LE(peak.load(), 2);
  EXPECT_EQ((*runtime)->active_work(), 0);
}

TEST(EngineRuntimeTest, AdmissionWakesWaitersInArrivalOrder) {
  RuntimeOptions options;
  options.max_concurrent_sessions = 1;
  auto runtime = Runtime::Create(options);
  ASSERT_TRUE(runtime.ok());

  auto gate = (*runtime)->AdmitWork();
  ASSERT_TRUE(gate.ok());

  std::mutex order_mu;
  std::vector<int> order;
  std::vector<std::thread> waiters;
  for (int i = 0; i < 3; ++i) {
    waiters.emplace_back([&, i] {
      auto permit = (*runtime)->AdmitWork();
      ASSERT_TRUE(permit.ok());
      std::lock_guard<std::mutex> lock(order_mu);
      order.push_back(i);
    });
    // Stagger arrivals so the queue order is deterministic.
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  }
  { Runtime::WorkPermit released = std::move(*gate); }
  for (std::thread& t : waiters) t.join();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
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
  // set pay the SERIAL invocation bill, at any interleaving, and the
  // runtime-injected registry mirrors the accessor bit-exactly.
  EXPECT_EQ((*workload)->source().model_invocations(), serial_invocations);
  EXPECT_EQ(registry.GetCounter("output_source.model_invocations")->Value(),
            serial_invocations);
  EXPECT_EQ(registry.GetCounter("engine.sessions.started")->Value(), kSessions);
  EXPECT_EQ(registry.GetGauge("engine.admission.active_work")->Value(), 0);
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

TEST_F(ServingConcurrencyTest, AdmissionLimitedServingStaysBitIdentical) {
  WorkloadDesc desc;
  desc.preset = video::ScenePreset::kUaDetrac;
  desc.frames = 250;
  const uint64_t kSeed = 123;
  auto [serial_profile, serial_invocations] =
      SerialReference(desc, query::AggregateFunction::kAvg, kSeed);
  ASSERT_NE(serial_profile, nullptr);

  RuntimeOptions options;
  options.max_concurrent_sessions = 2;  // Force queuing under the limit.
  auto runtime = Runtime::Create(options);
  ASSERT_TRUE(runtime.ok());
  auto workload = (*runtime)->GetWorkload(desc);
  ASSERT_TRUE(workload.ok());

  constexpr int kSessions = 8;
  std::vector<core::ProfileHandle> profiles(kSessions);
  std::vector<std::thread> threads;
  for (int i = 0; i < kSessions; ++i) {
    threads.emplace_back([&, i] {
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
    ASSERT_NE(profiles[i], nullptr);
    EXPECT_TRUE(ProfilesBitIdentical(*serial_profile, *profiles[i]));
  }
  EXPECT_EQ((*workload)->source().model_invocations(), serial_invocations);
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
  EXPECT_EQ(registry.GetCounter("engine.profile_cache.hits")->Value(), 1);
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

}  // namespace
}  // namespace engine
}  // namespace smokescreen
