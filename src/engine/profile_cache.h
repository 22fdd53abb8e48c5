// ProfileCache: a process-wide LRU of generated degradation profiles.
//
// The admin workflow (§3.1) is request/response: an administrator asks the
// service for the (video, query, intervention-grid) tradeoff profile, studies
// the slices, and frequently asks again — same query, same grid, same seed —
// while fine-tuning elsewhere. Profile generation is the expensive step
// (§5.3.1: minutes of model invocations), so repeat requests must not pay it
// twice. This cache memoizes whole profiles behind the engine::Runtime:
//
//  * Key    — everything the profile is a pure function of: the workload
//             (dataset, frame count, model, target class), the query
//             signature, a hash of the exact candidate grid, a hash of the
//             bound-affecting profiler options, and the RNG seed. Profiles
//             are bit-identical at any thread count (PR 2), so the thread
//             count is deliberately NOT part of the key.
//  * Value  — an engine-owned core::ProfileHandle (shared, immutable), so a
//             cached profile can be handed to any number of concurrent
//             sessions without copies or lifetime hazards.
//  * Provenance — the (dataset_id, model_id, num_frames) the profile was
//             generated against. Two workloads can collide on the KEY (same
//             preset name and model string, different simulated content —
//             e.g. re-registered custom scenes); the provenance check turns
//             that collision into a miss + eviction instead of serving a
//             profile for the wrong video.
//
// Thread safety: all methods may be called concurrently (one mutex; the
// critical sections are map probes and list splices, never generation).

#ifndef SMOKESCREEN_ENGINE_PROFILE_CACHE_H_
#define SMOKESCREEN_ENGINE_PROFILE_CACHE_H_

#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>

#include "core/profiler.h"
#include "util/metrics.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace smokescreen {
namespace engine {

/// Identity of one profile request. See the header comment for what belongs
/// in the key (and why the thread count does not).
struct ProfileKey {
  /// Workload share key: dataset name, frame count, model name, target class.
  std::string workload;
  /// Query signature: spec.ToString() plus the effective quantile parameter.
  std::string query;
  /// Order-sensitive hash over the exact candidate grid.
  uint64_t grid_hash = 0;
  /// Hash over the bound-affecting ProfilerOptions fields.
  uint64_t options_hash = 0;
  uint64_t seed = 0;

  bool operator==(const ProfileKey& other) const {
    return grid_hash == other.grid_hash && options_hash == other.options_hash &&
           seed == other.seed && workload == other.workload && query == other.query;
  }
};

struct ProfileKeyHash {
  size_t operator()(const ProfileKey& key) const;
};

/// What the cached profile was generated against; checked on every Get.
struct ProfileProvenance {
  uint64_t dataset_id = 0;
  uint64_t model_id = 0;
  int64_t num_frames = 0;

  bool operator==(const ProfileProvenance& other) const {
    return dataset_id == other.dataset_id && model_id == other.model_id &&
           num_frames == other.num_frames;
  }
};

class ProfileCache {
 public:
  /// `capacity` is the maximum number of cached profiles (0 disables the
  /// cache: every Get misses, Put is a no-op). Instruments bind to
  /// `registry` (nullptr = MetricsRegistry::Default()).
  explicit ProfileCache(size_t capacity, util::MetricsRegistry* registry = nullptr);

  ProfileCache(const ProfileCache&) = delete;
  ProfileCache& operator=(const ProfileCache&) = delete;

  /// The cached profile for `key`, or nullptr on a miss. A key hit whose
  /// stored provenance differs from `provenance` is a provenance MISMATCH:
  /// the stale entry is evicted, the mismatch is counted, and nullptr is
  /// returned so the caller regenerates against the current workload.
  core::ProfileHandle Get(const ProfileKey& key, const ProfileProvenance& provenance)
      SMK_EXCLUDES(mu_);

  /// Inserts (or replaces) the profile for `key`, evicting the
  /// least-recently-used entry when over capacity.
  void Put(const ProfileKey& key, const ProfileProvenance& provenance,
           core::ProfileHandle profile) SMK_EXCLUDES(mu_);

  size_t size() const SMK_EXCLUDES(mu_);
  size_t capacity() const { return capacity_; }

  /// This cache's exact accounting. Each tally also lands in the registry
  /// counter engine.profile_cache.<name>, which sums every cache bound to
  /// that registry.
  int64_t hits() const { return metrics_.hits.Value(); }
  int64_t misses() const { return metrics_.misses.Value(); }
  int64_t evictions() const { return metrics_.evictions.Value(); }
  int64_t provenance_mismatches() const { return metrics_.provenance_mismatches.Value(); }

 private:
  struct Entry {
    ProfileKey key;
    ProfileProvenance provenance;
    core::ProfileHandle profile;
  };
  using LruList = std::list<Entry>;

  /// This cache's tallies over the registry's counters, and the registry's
  /// entries gauge.
  struct Instruments {
    explicit Instruments(util::MetricsRegistry& registry);
    util::Counter hits;
    util::Counter misses;
    util::Counter evictions;
    util::Counter provenance_mismatches;
    util::Gauge* entries;
  };

  const size_t capacity_;
  Instruments metrics_;

  mutable util::Mutex mu_;
  LruList lru_ SMK_GUARDED_BY(mu_);  // Front = most recently used.
  std::unordered_map<ProfileKey, LruList::iterator, ProfileKeyHash> index_ SMK_GUARDED_BY(mu_);
};

}  // namespace engine
}  // namespace smokescreen

#endif  // SMOKESCREEN_ENGINE_PROFILE_CACHE_H_
