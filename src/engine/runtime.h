// engine::Runtime — the serving layer's single owner of shared state.
//
// The paper frames Smokescreen as a SERVICE: administrators submit (video,
// query, intervention) requests and get tradeoff profiles back (§3.1).
// Before this layer existed every entry point hand-wired its own Env,
// ThreadPool, MetricsRegistry, FrameOutputSource and Profiler, so the
// process could serve exactly one query at a time and nothing was shared
// between requests. BlazeIt and NoScope both locate the serving win in
// sharing inference results ACROSS queries over the same video; our
// FrameOutputSource already dedups misses within one request — the Runtime
// lifts that sharing to the process level:
//
//  * One Runtime per process (or per test). It owns the injected
//    dependencies — util::Env, util::MetricsRegistry, a shared
//    util::ThreadPool executor, the batching default, and the seed policy —
//    and hands them to everything below. No component under a Runtime
//    reaches for a singleton.
//  * One shared Workload per (dataset, frames, model, target class): the
//    dataset, detector, class-prior index and ONE FrameOutputSource. All
//    sessions over the same pair share the columnar memo cache, so a miss
//    computed for session A is a hit for sessions B..Z, and the in-flight
//    claim machinery makes cross-SESSION computation exactly-once, with the
//    same exact invocation/hit accounting it already guarantees within one
//    request (model_invocations() == distinct keys computed, at any
//    interleaving).
//  * A ProfileCache LRU serving repeat profile requests from memory, keyed
//    by (workload, query, candidate grid, profiler options, seed) with
//    provenance checks.
//
// Sessions run their work directly on the calling thread; there is no
// admission queue and no concurrency limit.
//
// Determinism invariant: a profile produced through the Runtime is a pure
// function of (workload, query, candidate grid, profiler options, seed) —
// independent of the executor width, the number of concurrent sessions, and
// their interleaving. Concurrent serving is bit-identical to the serial
// path. (The profiler's per-group RNG streams and the source's exact-key
// memo make this hold; the Runtime adds no scheduling-dependent state.)

#ifndef SMOKESCREEN_ENGINE_RUNTIME_H_
#define SMOKESCREEN_ENGINE_RUNTIME_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "detect/class_prior_index.h"
#include "detect/detector.h"
#include "engine/profile_cache.h"
#include "query/output_source.h"
#include "util/env.h"
#include "util/metrics.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"
#include "video/dataset.h"
#include "video/presets.h"

namespace smokescreen {
namespace engine {

class Session;
struct SessionConfig;

struct RuntimeOptions {
  /// Shared executor width (profiler group fan-out); 0 = hardware
  /// concurrency. Results are bit-identical at every setting.
  int num_threads = 0;
  /// Default frames-per-CountBatch cap for every source (0 = unlimited).
  int64_t max_batch_size = 0;
  /// Seed used by sessions that do not set their own.
  uint64_t default_seed = 2026;
  /// Injected dependencies; nullptr = the process-wide defaults.
  util::Env* env = nullptr;
  util::MetricsRegistry* registry = nullptr;
};

/// Names a (dataset, model) pair the Runtime can materialize by itself.
struct WorkloadDesc {
  video::ScenePreset preset = video::ScenePreset::kUaDetrac;
  /// 0 = the preset's full length; otherwise the preset scaled to N frames.
  int64_t frames = 0;
  std::string detector_name = "yolov4";
  video::ObjectClass target_class = video::ObjectClass::kCar;
  /// Optional persisted-store path: when the file exists the workload
  /// warm-starts from it (salvage-loading past partial damage); the path is
  /// remembered so Runtime::SaveStore can persist the cache back.
  std::string output_store_path;
};

/// A materialized workload: dataset + detector + class prior + the ONE
/// shared FrameOutputSource every session over this workload goes through.
/// Created only by the Runtime; shared via WorkloadHandle. Immutable except
/// for the source's memo cache (which is thread-safe).
class Workload {
 public:
  const video::VideoDataset& dataset() const { return *dataset_; }
  const detect::Detector& detector() const { return *detector_; }
  const detect::ClassPriorIndex& prior() const { return *prior_; }
  query::FrameOutputSource& source() const { return *source_; }
  const std::string& label() const { return label_; }
  /// Identity under which sessions share this workload (and the first
  /// component of every ProfileKey).
  const std::string& share_key() const { return share_key_; }
  ProfileProvenance provenance() const;

  /// Entries preloaded from the persisted store at creation (0 when no
  /// store path was given or the file did not exist).
  int64_t warm_start_entries() const { return warm_start_entries_; }
  /// Human-readable damage summary from the salvage load; empty when the
  /// store was clean or absent.
  const std::string& warm_start_damage() const { return warm_start_damage_; }
  const std::string& output_store_path() const { return store_path_; }

 private:
  friend class Runtime;
  Workload() = default;

  std::string label_;
  std::string share_key_;
  std::string store_path_;
  std::unique_ptr<video::VideoDataset> dataset_;
  std::unique_ptr<detect::Detector> detector_;
  std::unique_ptr<detect::ClassPriorIndex> prior_;
  std::unique_ptr<query::FrameOutputSource> source_;
  int64_t warm_start_entries_ = 0;
  std::string warm_start_damage_;
};

using WorkloadHandle = std::shared_ptr<Workload>;

class Runtime {
 public:
  /// Validates the options and builds the runtime (executor started eagerly;
  /// workloads materialize lazily).
  static util::Result<std::unique_ptr<Runtime>> Create(RuntimeOptions options);
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// The shared workload for `desc`, materializing it on first request.
  /// Subsequent requests with the same (preset, frames, detector, class)
  /// return the SAME workload — same source, same memo cache — regardless of
  /// store path. Concurrent callers are serialized; exactly one materializes.
  util::Result<WorkloadHandle> GetWorkload(const WorkloadDesc& desc)
      SMK_EXCLUDES(workloads_mu_);

  /// A private workload that does NOT enter the share map: its source starts
  /// cold and is never visible to other sessions. This is the bench baseline
  /// ("16 isolated single-session processes") and the cold arm of warm/cold
  /// sweeps.
  util::Result<WorkloadHandle> CreateIsolatedWorkload(const WorkloadDesc& desc);

  /// Wraps caller-built pieces (custom simulated scenes, decorated
  /// detectors) into a runtime-wired workload: the source gets this
  /// runtime's registry, batching and executor. Not entered into the
  /// share map — sharing a custom workload means sharing its handle. All
  /// three pointers must be non-null.
  util::Result<WorkloadHandle> AdoptWorkload(std::string label,
                                             std::unique_ptr<video::VideoDataset> dataset,
                                             std::unique_ptr<detect::Detector> detector,
                                             std::unique_ptr<detect::ClassPriorIndex> prior,
                                             video::ObjectClass target_class);

  /// Opens a session over `workload`. Sessions are cheap; one per client
  /// request. The workload handle is retained by the session.
  util::Result<std::unique_ptr<Session>> StartSession(WorkloadHandle workload,
                                                      SessionConfig config);

  /// Persists `workload`'s memo cache to `path` (empty = the workload's
  /// configured store path) atomically through this runtime's Env. Each call
  /// that reaches the export is timed in `engine.store.save.seconds`.
  util::Status SaveStore(const WorkloadHandle& workload, const std::string& path = "");

  util::Env& env() const { return *env_; }
  util::MetricsRegistry& registry() const { return *registry_; }
  util::ThreadPool& executor() const { return *executor_; }
  ProfileCache& profile_cache() { return *profile_cache_; }
  const RuntimeOptions& options() const { return options_; }

 private:
  friend class Session;
  explicit Runtime(RuntimeOptions options);

  /// Builds the dataset/model/prior/source quartet for `desc`.
  util::Result<std::unique_ptr<Workload>> Materialize(const WorkloadDesc& desc);
  /// A source bound to this runtime's registry, batching default and
  /// executor.
  std::unique_ptr<query::FrameOutputSource> MakeSource(const video::VideoDataset& dataset,
                                                       const detect::Detector& detector,
                                                       video::ObjectClass target_class) const;

  RuntimeOptions options_;
  util::Env* env_ = nullptr;
  util::MetricsRegistry* registry_ = nullptr;
  std::unique_ptr<util::ThreadPool> executor_;
  std::unique_ptr<ProfileCache> profile_cache_;

  util::Mutex workloads_mu_;
  std::map<std::string, WorkloadHandle> workloads_ SMK_GUARDED_BY(workloads_mu_);

  struct Instruments {
    util::Counter* sessions_started = nullptr;
    util::Gauge* sessions_active = nullptr;
    util::Histogram* store_save_seconds = nullptr;
    util::Counter* workloads_materialized = nullptr;
    util::Counter* workloads_shared = nullptr;
  };
  Instruments metrics_;
};

/// Share key / provenance helpers (exposed for tests).
std::string WorkloadShareKey(const WorkloadDesc& desc);

/// Scene preset by CLI name ("ua-detrac", "night-street", "MVI_40771",
/// "MVI_40775"); NotFound otherwise.
util::Result<video::ScenePreset> PresetByName(const std::string& name);

/// Exact structural equality of two profiles (every point's interventions,
/// bounds, estimates and flags) — the serving layer's bit-identity check.
bool ProfilesBitIdentical(const core::Profile& a, const core::Profile& b);

}  // namespace engine
}  // namespace smokescreen

#endif  // SMOKESCREEN_ENGINE_RUNTIME_H_
