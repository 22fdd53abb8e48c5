#include "engine/profile_cache.h"

#include "stats/rng.h"

namespace smokescreen {
namespace engine {

namespace {

uint64_t HashString(const std::string& s) {
  stats::HashStream stream;
  stream.Absorb(static_cast<uint64_t>(s.size()));
  // Word-at-a-time over the bytes; the tail word is zero-padded. The length
  // word above keeps "ab" + "" distinct from "a" + "b" across fields.
  uint64_t word = 0;
  int shift = 0;
  for (unsigned char c : s) {
    word |= static_cast<uint64_t>(c) << shift;
    shift += 8;
    if (shift == 64) {
      stream.Absorb(word);
      word = 0;
      shift = 0;
    }
  }
  if (shift != 0) stream.Absorb(word);
  return stream.Finalize();
}

}  // namespace

size_t ProfileKeyHash::operator()(const ProfileKey& key) const {
  return static_cast<size_t>(stats::HashCombine({HashString(key.workload),
                                                 HashString(key.query), key.grid_hash,
                                                 key.options_hash, key.seed}));
}

ProfileCache::Instruments::Instruments(util::MetricsRegistry& registry)
    : hits(registry.GetCounter("engine.profile_cache.hits")),
      misses(registry.GetCounter("engine.profile_cache.misses")),
      evictions(registry.GetCounter("engine.profile_cache.evictions")),
      provenance_mismatches(registry.GetCounter("engine.profile_cache.provenance_mismatches")),
      entries(registry.GetGauge("engine.profile_cache.entries")) {}

ProfileCache::ProfileCache(size_t capacity, util::MetricsRegistry* registry)
    : capacity_(capacity), metrics_(util::MetricsRegistry::OrDefault(registry)) {}

core::ProfileHandle ProfileCache::Get(const ProfileKey& key,
                                      const ProfileProvenance& provenance) {
  util::MutexLock lock(&mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    metrics_.misses.Increment();
    return nullptr;
  }
  if (!(it->second->provenance == provenance)) {
    // Same key, different video/model underneath: the entry is stale (e.g. a
    // re-registered custom workload reusing a preset name). Serving it would
    // hand out a profile of the WRONG video, so evict and miss.
    lru_.erase(it->second);
    index_.erase(it);
    metrics_.provenance_mismatches.Increment();
    metrics_.misses.Increment();
    metrics_.entries->Set(static_cast<int64_t>(lru_.size()));
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);  // Move to most-recently-used.
  metrics_.hits.Increment();
  return it->second->profile;
}

void ProfileCache::Put(const ProfileKey& key, const ProfileProvenance& provenance,
                       core::ProfileHandle profile) {
  if (capacity_ == 0 || profile == nullptr) return;
  util::MutexLock lock(&mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->provenance = provenance;
    it->second->profile = std::move(profile);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(Entry{key, provenance, std::move(profile)});
  index_[key] = lru_.begin();
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
    metrics_.evictions.Increment();
  }
  metrics_.entries->Set(static_cast<int64_t>(lru_.size()));
}

size_t ProfileCache::size() const {
  util::MutexLock lock(&mu_);
  return lru_.size();
}

}  // namespace engine
}  // namespace smokescreen
