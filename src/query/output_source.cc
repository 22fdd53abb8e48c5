#include "query/output_source.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <numeric>
#include <thread>
#include <utility>

#include "stats/rng.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace smokescreen {
namespace query {

using util::Result;
using util::Status;

namespace {

/// Pooled miss chunk when parallel_min_chunk is unset. A pure constant —
/// deriving it from the worker count would make the CountBatch call
/// sequence depend on pool width, breaking the determinism contract.
constexpr int64_t kDefaultParallelChunk = 1024;
/// Adaptive engage threshold: frames of miss work per worker below which
/// dispatch overhead beats the parallel win.
constexpr int64_t kParallelMissesPerWorker = 32;

// Dense-tier bitmap primitives. Frames index bits; all range operations are
// word-wise (a 64-frame span of a cold scan costs one load/store).
inline bool TestBit(const std::vector<uint64_t>& bits, int64_t i) {
  return (bits[static_cast<size_t>(i >> 6)] >> (i & 63)) & 1u;
}
inline void SetBit(std::vector<uint64_t>& bits, int64_t i) {
  bits[static_cast<size_t>(i >> 6)] |= uint64_t{1} << (i & 63);
}
inline void ClearBit(std::vector<uint64_t>& bits, int64_t i) {
  bits[static_cast<size_t>(i >> 6)] &= ~(uint64_t{1} << (i & 63));
}

/// Calls fn(word_index, mask) for every word overlapping [first, first+n),
/// with mask covering exactly the in-range bits of that word.
template <typename Fn>
inline void ForEachWord(int64_t first, int64_t n, Fn&& fn) {
  const int64_t last = first + n;  // Exclusive.
  for (int64_t w = first >> 6, wl = (last - 1) >> 6; w <= wl; ++w) {
    const int64_t lo = std::max(first, w << 6);
    const int64_t hi = std::min(last, (w + 1) << 6);
    const int len = static_cast<int>(hi - lo);
    const uint64_t mask = (len == 64 ? ~uint64_t{0} : ((uint64_t{1} << len) - 1))
                          << (lo & 63);
    fn(static_cast<size_t>(w), mask);
  }
}

inline void SetRange(std::vector<uint64_t>& bits, int64_t first, int64_t n) {
  ForEachWord(first, n, [&bits](size_t w, uint64_t mask) { bits[w] |= mask; });
}
inline void ClearRange(std::vector<uint64_t>& bits, int64_t first, int64_t n) {
  ForEachWord(first, n, [&bits](size_t w, uint64_t mask) { bits[w] &= ~mask; });
}

// A dense column's ready bits are published with release ordering after the
// counts they cover are written, and read with acquire ordering (see
// FrameOutputSource::DenseColumn). Only holders of the column's mutex set
// bits, so publishing is a plain load-or-store, not an atomic
// read-modify-write.
using ReadyBits = std::vector<std::atomic<uint64_t>>;
inline bool IsReady(const ReadyBits& ready, int64_t i) {
  return (ready[static_cast<size_t>(i >> 6)].load(std::memory_order_acquire) >> (i & 63)) & 1u;
}
inline void PublishReadyMask(std::atomic<uint64_t>& word, uint64_t mask) {
  word.store(word.load(std::memory_order_relaxed) | mask, std::memory_order_release);
}
inline void PublishReady(ReadyBits& ready, int64_t i) {
  PublishReadyMask(ready[static_cast<size_t>(i >> 6)], uint64_t{1} << (i & 63));
}
inline void PublishReadyRange(ReadyBits& ready, int64_t first, int64_t n) {
  ForEachWord(first, n, [&ready](size_t w, uint64_t mask) { PublishReadyMask(ready[w], mask); });
}
/// True when no frame of [first, first+n) is ready or in flight.
inline bool RangeClear(const ReadyBits& ready, const std::vector<uint64_t>& inflight,
                       int64_t first, int64_t n) {
  bool clear = true;
  ForEachWord(first, n, [&](size_t w, uint64_t mask) {
    clear = clear && ((ready[w].load(std::memory_order_acquire) | inflight[w]) & mask) == 0;
  });
  return clear;
}

}  // namespace

size_t FrameOutputSource::CacheKeyHash::operator()(const CacheKey& key) const {
  // Multiplicative mix, a few cycles per key. The hash only picks the shard
  // and the probe start — equality is decided by the exact composite key —
  // so distribution quality is a performance concern, not a correctness one,
  // and the full HashCombine avalanche would be wasted work on the hot
  // probe path.
  uint64_t h = static_cast<uint64_t>(key.frame) * 0x9e3779b97f4a7c15ULL;
  h ^= static_cast<uint64_t>(key.resolution) * 0xbf58476d1ce4e5b9ULL;
  h ^= static_cast<uint64_t>(key.contrast_q) * 0x94d049bb133111ebULL;
  h ^= h >> 32;
  h *= 0xd6e8feb86659fd93ULL;
  h ^= h >> 32;
  return static_cast<size_t>(h);
}

FrameOutputSource::CacheKey FrameOutputSource::MakeCacheKey(int64_t frame_index, int resolution,
                                                            double contrast_scale) {
  CacheKey key;
  key.frame = frame_index;
  key.resolution = resolution;
  key.contrast_q = std::llround(contrast_scale * 4096.0);
  return key;
}

Status ComputePolicy::Validate() const {
  if (max_attempts < 1) {
    return Status::InvalidArgument("ComputePolicy.max_attempts must be >= 1");
  }
  if (!(backoff_base_sec >= 0.0)) {
    return Status::InvalidArgument("ComputePolicy.backoff_base_sec must be >= 0");
  }
  if (std::isnan(batch_budget_sec) || batch_budget_sec < 0.0) {
    return Status::InvalidArgument("ComputePolicy.batch_budget_sec must be >= 0");
  }
  return Status::OK();
}

FrameOutputSource::FrameOutputSource(const video::VideoDataset& dataset,
                                     const detect::Detector& detector,
                                     video::ObjectClass target_class)
    : dataset_(dataset), detector_(detector), target_class_(target_class) {
  BindMetrics(nullptr);
}

void FrameOutputSource::BindMetrics(util::MetricsRegistry* registry) {
  if (registry == nullptr) registry = &util::MetricsRegistry::Default();
  registry_ = registry;
  metrics_.invocations = registry->GetCounter("output_source.model_invocations");
  metrics_.hits = registry->GetCounter("output_source.cache_hits");
  metrics_.inflight_waits = registry->GetCounter("output_source.inflight_waits");
  metrics_.compute_retries = registry->GetCounter("output_source.compute_retries");
  metrics_.watchdog_trips = registry->GetCounter("output_source.watchdog_trips");
  metrics_.repair_columns_recomputed =
      registry->GetCounter("output_source.repair.columns_recomputed");
  metrics_.repair_entries_recomputed =
      registry->GetCounter("output_source.repair.entries_recomputed");
  metrics_.miss_batch_size =
      registry->GetHistogram("output_source.miss_batch.frames", util::BatchSizeBoundaries());
}

void FrameOutputSource::set_metrics_registry(util::MetricsRegistry* registry) {
  BindMetrics(registry);
}

Status FrameOutputSource::set_compute_policy(const ComputePolicy& policy) {
  SMK_RETURN_IF_ERROR(policy.Validate());
  compute_policy_ = policy;
  return Status::OK();
}

Status FrameOutputSource::RetryCountBatch(std::span<const int64_t> frames, int resolution,
                                          double contrast_scale, std::span<int> out) const {
  const ComputePolicy& policy = compute_policy_;
  const auto start = std::chrono::steady_clock::now();
  auto elapsed_sec = [&start] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  };
  Status status;
  for (int attempt = 1; attempt <= policy.max_attempts; ++attempt) {
    if (attempt > 1) {
      // Budget check BEFORE spending a retry: the first attempt always
      // runs, and a success is never failed retroactively for being slow.
      if (elapsed_sec() >= policy.batch_budget_sec) {
        watchdog_trips_.fetch_add(1, std::memory_order_relaxed);
        metrics_.watchdog_trips->Increment();
        return Status::Unavailable(
            "batch compute watchdog: " + std::to_string(frames.size()) + "-frame batch burned " +
            std::to_string(elapsed_sec()) + "s of a " +
            std::to_string(policy.batch_budget_sec) + "s budget after " +
            std::to_string(attempt - 1) + " attempts; last error: " + status.ToString());
      }
      const double backoff = policy.backoff_base_sec * static_cast<double>(1 << (attempt - 2));
      if (backoff > 0.0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
      }
      compute_retries_.fetch_add(1, std::memory_order_relaxed);
      metrics_.compute_retries->Increment();
    }
    status = detector_.CountBatch(dataset_, frames, resolution, target_class_, contrast_scale,
                                  out);
    if (status.ok()) return status;
  }
  return status;
}

FrameOutputSource::Entry* FrameOutputSource::FindEntry(Shard& shard, const CacheKey& key,
                                                       size_t hash) {
  shard.mu.AssertHeld();
  if (shard.table.empty()) return nullptr;
  const size_t mask = shard.table.size() - 1;
  size_t idx = (hash >> kShardBits) & mask;
  for (;;) {
    Entry& entry = shard.table[idx];
    if (entry.state == kSlotEmpty) return nullptr;
    if (entry.state != kSlotTombstone && entry.key == key) return &entry;
    idx = (idx + 1) & mask;
  }
}

void FrameOutputSource::RehashIfNeeded(Shard& shard, size_t incoming) {
  shard.mu.AssertHeld();
  // Keep occupancy (live + tombstones) at or below 3/4; grow only when the
  // live population warrants it, otherwise rebuild at the same size to shed
  // tombstones (failed claims are rare, so this path almost never runs).
  if (!shard.table.empty() && (shard.slots_used + incoming) * 4 <= shard.table.size() * 3) return;
  size_t new_size = shard.table.empty() ? 64 : shard.table.size();
  while ((shard.live + incoming) * 4 > new_size * 3) new_size *= 2;
  std::vector<Entry> old_table = std::move(shard.table);
  shard.table.assign(new_size, Entry{});
  const size_t mask = new_size - 1;
  for (const Entry& entry : old_table) {
    if (entry.state != kSlotInFlight && entry.state != kSlotReady) continue;
    size_t idx = (static_cast<size_t>(CacheKeyHash{}(entry.key)) >> kShardBits) & mask;
    while (shard.table[idx].state != kSlotEmpty) idx = (idx + 1) & mask;
    shard.table[idx] = entry;
  }
  shard.slots_used = shard.live;
  ++shard.generation;
}

FrameOutputSource::Entry* FrameOutputSource::ClaimEntry(Shard& shard, const CacheKey& key,
                                                        size_t hash, bool& fresh) {
  shard.mu.AssertHeld();
  RehashIfNeeded(shard, 1);
  const size_t mask = shard.table.size() - 1;
  size_t idx = (hash >> kShardBits) & mask;
  Entry* tombstone = nullptr;
  for (;;) {
    Entry& entry = shard.table[idx];
    if (entry.state == kSlotEmpty) {
      Entry* slot = tombstone != nullptr ? tombstone : &entry;
      if (tombstone == nullptr) ++shard.slots_used;
      slot->key = key;
      slot->state = kSlotInFlight;
      ++shard.live;
      fresh = true;
      return slot;
    }
    if (entry.state == kSlotTombstone) {
      if (tombstone == nullptr) tombstone = &entry;
    } else if (entry.key == key) {
      fresh = false;
      return &entry;
    }
    idx = (idx + 1) & mask;
  }
}

Result<int> FrameOutputSource::RawCount(int64_t frame_index, int resolution,
                                        double contrast_scale) {
  if (dense_enabled()) return RawCountDense(frame_index, resolution, contrast_scale);
  const CacheKey key = MakeCacheKey(frame_index, resolution, contrast_scale);
  const size_t hash = CacheKeyHash{}(key);
  Shard& shard = ShardFor(hash);
  {
    util::MutexLock lock(&shard.mu);
    for (;;) {
      bool fresh = false;
      Entry* entry = ClaimEntry(shard, key, hash, fresh);
      if (entry->state == kSlotReady) {
        cache_hits_.fetch_add(1, std::memory_order_relaxed);
        metrics_.hits->Increment();
        return entry->count;
      }
      if (fresh) break;
      // Another thread is invoking the model on this exact key; wait, then
      // re-claim (the computation may have failed — tombstoning its entry —
      // in which case our re-claim takes over).
      metrics_.inflight_waits->Increment();
      shard.cv.Wait(shard.mu);
    }
  }
  // The model runs OUTSIDE the shard lock so that concurrent misses on
  // different keys overlap; the IN_FLIGHT entry keeps this key
  // computed-exactly-once.
  Result<int> count = detector_.CountDetections(dataset_, frame_index, resolution, target_class_,
                                                contrast_scale);
  {
    util::MutexLock lock(&shard.mu);
    // Re-probe: a concurrent insert may have rehashed the table, so no
    // Entry* survives the unlocked section.
    Entry* entry = FindEntry(shard, key, hash);
    if (count.ok()) {
      model_invocations_.fetch_add(1, std::memory_order_relaxed);
      metrics_.invocations->Increment();
      entry->count = *count;
      entry->state = kSlotReady;
    } else {
      entry->state = kSlotTombstone;
      --shard.live;
    }
  }
  shard.cv.NotifyAll();
  return count;
}

Status FrameOutputSource::FillCountsChunk(std::span<const int64_t> frame_indices, int resolution,
                                          double contrast_scale, std::span<int> out) {
  const size_t n = frame_indices.size();
  if (n == 0) return Status::OK();

  // Phase 0: derive keys and partition request slots by shard with a
  // counting sort, so phase 1 can walk each shard's slots contiguously. The
  // key hash is computed once per slot and reused for both the shard pick
  // and the table probes.
  std::vector<CacheKey> keys(n);
  std::vector<size_t> hashes(n);
  std::vector<uint32_t> shard_of(n);
  std::array<uint32_t, kNumShards> shard_count{};
  // Resolution and contrast are chunk constants; only the frame varies.
  const CacheKey base_key = MakeCacheKey(0, resolution, contrast_scale);
  for (size_t i = 0; i < n; ++i) {
    keys[i] = base_key;
    keys[i].frame = frame_indices[i];
    hashes[i] = CacheKeyHash{}(keys[i]);
    shard_of[i] = static_cast<uint32_t>(hashes[i] & static_cast<size_t>(kNumShards - 1));
    ++shard_count[shard_of[i]];
  }
  std::array<uint32_t, kNumShards + 1> shard_start{};
  for (int s = 0; s < kNumShards; ++s) shard_start[s + 1] = shard_start[s] + shard_count[s];
  std::vector<uint32_t> slots_by_shard(n);
  {
    std::array<uint32_t, kNumShards> cursor = {};
    for (int s = 0; s < kNumShards; ++s) cursor[s] = shard_start[s];
    for (size_t i = 0; i < n; ++i) slots_by_shard[cursor[shard_of[i]]++] = static_cast<uint32_t>(i);
  }

  // Intra-batch duplicate detection. Within one chunk the resolution and
  // contrast are fixed, so a key duplicates another slot's key exactly when
  // the frames are equal — a flat open-addressed table keyed by frame alone
  // replaces a node-based key map. INT64_MIN is the empty sentinel (never a
  // valid frame index; an invalid request containing it fails validation in
  // CountBatch before duplicates matter).
  const size_t dedup_size = std::bit_ceil(2 * n + 1);
  const size_t dedup_mask = dedup_size - 1;
  std::vector<int64_t> dedup_frame(dedup_size, INT64_MIN);
  std::vector<uint32_t> dedup_ordinal(dedup_size);

  // Phase 1: probe each touched shard under ONE lock acquisition and
  // classify every slot: ready hit, duplicate of a key this call already
  // claimed, in flight on another thread, or a fresh claim. Equal keys
  // always land in the same shard, so one claimed-frame table is race-free.
  std::vector<int64_t> miss_frames;
  std::vector<uint32_t> miss_slot;      // First request slot per claimed key.
  std::vector<uint32_t> miss_shard;     // Shard index per claimed key (nondecreasing).
  std::vector<uint32_t> miss_entry;     // Table index of the claim at claim time.
  miss_frames.reserve(n);
  miss_slot.reserve(n);
  miss_shard.reserve(n);
  miss_entry.reserve(n);
  std::array<uint64_t, kNumShards> shard_generation{};
  std::vector<std::pair<uint32_t, uint32_t>> dup_fills;  // (slot, miss ordinal).
  std::vector<uint32_t> waiter_slots;
  int64_t probe_hits = 0;
  for (int s = 0; s < kNumShards; ++s) {
    if (shard_count[s] == 0) continue;
    Shard& shard = shards_[static_cast<size_t>(s)];
    util::MutexLock lock(&shard.mu);
    // Size the table for the worst case (every slot a fresh claim) up
    // front: at most one rehash per shard per chunk, and ClaimEntry's
    // per-call check stays on its cheap no-op path.
    RehashIfNeeded(shard, shard_count[s]);
    shard_generation[s] = shard.generation;
    for (uint32_t p = shard_start[s]; p < shard_start[s + 1]; ++p) {
      const uint32_t slot = slots_by_shard[p];
      const int64_t frame = frame_indices[slot];
      // Duplicate-of-claimed check first: it is lock-free local state, and a
      // duplicate's shard entry would read IN_FLIGHT (our own claim), which
      // must not be confused with another thread's.
      const size_t fh = static_cast<size_t>(frame) * 0x9e3779b97f4a7c15ULL;
      size_t d = (fh ^ (fh >> 32)) & dedup_mask;
      bool is_dup = false;
      while (dedup_frame[d] != INT64_MIN) {
        if (dedup_frame[d] == frame) {
          dup_fills.emplace_back(slot, dedup_ordinal[d]);
          is_dup = true;
          break;
        }
        d = (d + 1) & dedup_mask;
      }
      if (is_dup) continue;
      bool fresh = false;
      Entry* entry = ClaimEntry(shard, keys[slot], hashes[slot], fresh);
      if (entry->state == kSlotReady) {
        out[slot] = entry->count;
        ++probe_hits;
        continue;
      }
      if (!fresh) {
        // IN_FLIGHT on another thread (our own claims are caught by the
        // dedup table above).
        waiter_slots.push_back(slot);
        continue;
      }
      dedup_frame[d] = frame;
      dedup_ordinal[d] = static_cast<uint32_t>(miss_frames.size());
      miss_slot.push_back(slot);
      miss_shard.push_back(static_cast<uint32_t>(s));
      miss_entry.push_back(static_cast<uint32_t>(entry - shard.table.data()));
      miss_frames.push_back(frame);
    }
  }
  if (probe_hits > 0) {
    cache_hits_.fetch_add(probe_hits, std::memory_order_relaxed);
    metrics_.hits->Add(probe_hits);
  }

  // Phase 2: the claimed misses are computed outside all shard locks — one
  // batched model invocation, or a chunked fan-out on the configured pool
  // when the miss-batch is large (see ComputeMisses).
  std::vector<int> miss_counts(miss_frames.size());
  Status batch_status = Status::OK();
  if (!miss_frames.empty()) {
    batch_status = ComputeMisses(miss_frames, resolution, contrast_scale, miss_counts);
  }

  // Phase 3: install (or on failure, release) the claims shard by shard.
  // miss_shard is nondecreasing because phase 1 visited shards in order, so
  // each shard is locked once here too. Each install re-probes by key and
  // flips the claimed entry in place — concurrent inserts may have rehashed
  // the shard since phase 1, so entry pointers were not retained.
  size_t m = 0;
  while (m < miss_frames.size()) {
    const uint32_t s = miss_shard[m];
    Shard& shard = shards_[s];
    {
      util::MutexLock lock(&shard.mu);
      // Unchanged generation (the common case): claims still sit at their
      // recorded indices. A concurrent insert may have rehashed the shard,
      // moving entries — then fall back to probing by key.
      const bool use_index = shard.generation == shard_generation[s];
      for (; m < miss_frames.size() && miss_shard[m] == s; ++m) {
        const uint32_t slot = miss_slot[m];
        Entry* entry = use_index ? &shard.table[miss_entry[m]]
                                 : FindEntry(shard, keys[slot], hashes[slot]);
        if (batch_status.ok()) {
          entry->count = miss_counts[m];
          entry->state = kSlotReady;
          out[slot] = miss_counts[m];
        } else {
          entry->state = kSlotTombstone;
          --shard.live;
        }
      }
    }
    shard.cv.NotifyAll();
  }
  if (!batch_status.ok()) return batch_status;
  if (!miss_frames.empty()) {
    // A batch over N distinct keys counts as exactly N model invocations —
    // the same total the scalar path reports.
    model_invocations_.fetch_add(static_cast<int64_t>(miss_frames.size()),
                                 std::memory_order_relaxed);
    metrics_.invocations->Add(static_cast<int64_t>(miss_frames.size()));
    metrics_.miss_batch_size->Observe(static_cast<double>(miss_frames.size()));
  }

  // Duplicates of keys this call computed resolve from the fresh results and
  // count as cache hits, matching the scalar path (first occurrence misses,
  // repeats hit).
  for (const auto& [slot, ordinal] : dup_fills) {
    out[slot] = miss_counts[ordinal];
  }
  if (!dup_fills.empty()) {
    cache_hits_.fetch_add(static_cast<int64_t>(dup_fills.size()), std::memory_order_relaxed);
    metrics_.hits->Add(static_cast<int64_t>(dup_fills.size()));
  }

  // Keys another thread had in flight fall back to the scalar wait-and-retry
  // path, which preserves exactly-once compute and exact hit accounting.
  for (uint32_t slot : waiter_slots) {
    SMK_ASSIGN_OR_RETURN(out[slot],
                         RawCount(frame_indices[slot], resolution, contrast_scale));
  }
  return Status::OK();
}

Status FrameOutputSource::ComputeMisses(std::span<const int64_t> miss_frames, int resolution,
                                        double contrast_scale, std::span<int> miss_counts) {
  const int64_t n = static_cast<int64_t>(miss_frames.size());
  // max_batch_size caps the frames per CountBatch call on BOTH paths.
  const int64_t cap = max_batch_size_ > 0 ? std::min<int64_t>(max_batch_size_, n) : n;
  util::ThreadPool* pool = pool_;
  const int64_t engage =
      parallel_min_misses_ > 0
          ? parallel_min_misses_
          : kParallelMissesPerWorker * (pool != nullptr ? pool->num_threads() : 1);
  if (pool == nullptr || pool->num_threads() <= 1 || n < engage) {
    for (int64_t begin = 0; begin < n; begin += cap) {
      const int64_t len = std::min(cap, n - begin);
      SMK_RETURN_IF_ERROR(
          RetryCountBatch(miss_frames.subspan(static_cast<size_t>(begin),
                                              static_cast<size_t>(len)),
                          resolution, contrast_scale,
                          miss_counts.subspan(static_cast<size_t>(begin),
                                              static_cast<size_t>(len))));
    }
    return Status::OK();
  }

  // Bulk dispatch: one ParallelFor over the miss range, one CountBatch per
  // chunk into its disjoint slice. The chunk size is a pure function of
  // (n, max_batch_size, parallel_min_chunk) — NEVER the worker count — so
  // the CountBatch call sequence is identical at every pool width (only the
  // chunk-to-thread assignment varies), and each frame's count is a pure
  // function of its key: the assembled result is bit-identical to the
  // serial path. ParallelFor is synchronous over exactly these chunks (the
  // calling thread participates), so a shared pool never makes this wait on
  // unrelated users' work, and a caller already ON a pool worker runs the
  // same chunk sequence inline.
  const int64_t chunk =
      std::min<int64_t>(cap, parallel_min_chunk_ > 0 ? parallel_min_chunk_
                                                     : kDefaultParallelChunk);
  std::vector<Status> chunk_status(static_cast<size_t>((n + chunk - 1) / chunk));
  pool->ParallelFor(0, n, chunk,
                    [this, miss_frames, miss_counts, resolution, contrast_scale, chunk,
                     &chunk_status](int64_t begin, int64_t end) {
                      chunk_status[static_cast<size_t>(begin / chunk)] = RetryCountBatch(
                          miss_frames.subspan(static_cast<size_t>(begin),
                                              static_cast<size_t>(end - begin)),
                          resolution, contrast_scale,
                          miss_counts.subspan(static_cast<size_t>(begin),
                                              static_cast<size_t>(end - begin)));
                    });
  // First failing chunk (by position, not completion order) wins, keeping
  // the reported error deterministic.
  for (Status& status : chunk_status) {
    if (!status.ok()) return std::move(status);
  }
  return Status::OK();
}

Status FrameOutputSource::FillCounts(std::span<const int64_t> frame_indices, int resolution,
                                     double contrast_scale, std::span<int> out) {
  if (out.size() != frame_indices.size()) {
    return Status::InvalidArgument("FillCounts: out size " + std::to_string(out.size()) +
                                   " != frame count " + std::to_string(frame_indices.size()));
  }
  if (frame_indices.empty()) return Status::OK();
  // ONE probe round over the whole request: max_batch_size caps the frames
  // per CountBatch call (ComputeMisses chunks the miss set), not the probe
  // round, so a large cold request's misses fan out across the whole pool
  // instead of being strangled to one max_batch_size-sized round at a time.
  if (dense_enabled()) {
    return FillCountsDense(frame_indices, resolution, contrast_scale, out);
  }
  return FillCountsChunk(frame_indices, resolution, contrast_scale, out);
}

FrameOutputSource::DenseColumn& FrameOutputSource::DenseColumnFor(int resolution,
                                                                  int64_t contrast_q) {
  const std::pair<int, int64_t> key{resolution, contrast_q};
  // An existing column is found without dense_mu_ (see dense_index_).
  if (const DenseIndex* index = dense_index_.load(std::memory_order_acquire)) {
    auto it = std::lower_bound(index->begin(), index->end(), key,
                               [](const auto& entry, const auto& k) { return entry.first < k; });
    if (it != index->end() && it->first == key) return *it->second;
  }
  util::MutexLock lock(&dense_mu_);
  std::unique_ptr<DenseColumn>& slot = dense_columns_[key];
  if (slot == nullptr) {
    slot = std::make_unique<DenseColumn>();
    const size_t num_frames = static_cast<size_t>(dataset_.num_frames());
    slot->counts.assign(num_frames, 0);
    slot->ready = ReadyBits((num_frames + 63) / 64);  // Value-initialized: all clear.
    slot->inflight.assign((num_frames + 63) / 64, 0);
    auto index = std::make_unique<DenseIndex>();
    index->reserve(dense_columns_.size());
    for (const auto& [column_key, column] : dense_columns_) {
      index->emplace_back(column_key, column.get());
    }
    dense_index_.store(index.get(), std::memory_order_release);
    dense_indexes_.push_back(std::move(index));
  }
  return *slot;
}

Status FrameOutputSource::FillCountsDense(std::span<const int64_t> frame_indices, int resolution,
                                          double contrast_scale, std::span<int> out) {
  const size_t n = frame_indices.size();
  const int64_t num_frames = dataset_.num_frames();
  // Frames must be in range before they index the bitmaps (the sharded tier
  // defers this check to CountBatch; same error either way). The
  // contiguity test rides along in the same pass.
  bool contiguous = true;
  for (size_t i = 0; i < n; ++i) {
    const int64_t frame = frame_indices[i];
    if (frame < 0 || frame >= num_frames) {
      return Status::OutOfRange("frame index " + std::to_string(frame) + " out of [0, " +
                                std::to_string(num_frames) + ")");
    }
    contiguous = contiguous && frame == frame_indices[0] + static_cast<int64_t>(i);
  }

  DenseColumn& col = DenseColumnFor(resolution, std::llround(contrast_scale * 4096.0));

  // Fast path: a contiguous fully cold range (the profiler's full scans,
  // the kernel bench) claims all its bits word-wise, lets the model write
  // counts straight into `out`, and installs with one copy — the memo
  // substrate costs a handful of word operations per 64 frames.
  if (contiguous) {
    const int64_t f0 = frame_indices[0];
    bool claimed = false;
    {
      util::MutexLock lock(&col.mu);
      if (RangeClear(col.ready, col.inflight, f0, static_cast<int64_t>(n))) {
        SetRange(col.inflight, f0, static_cast<int64_t>(n));
        claimed = true;
      }
    }
    if (claimed) {
      Status status = ComputeMisses(frame_indices, resolution, contrast_scale, out);
      {
        util::MutexLock lock(&col.mu);
        if (status.ok()) {
          std::copy(out.begin(), out.end(),
                    col.counts.begin() + static_cast<ptrdiff_t>(f0));
          PublishReadyRange(col.ready, f0, static_cast<int64_t>(n));
        }
        // A failed batch releases its claim (the sharded tier's tombstone).
        ClearRange(col.inflight, f0, static_cast<int64_t>(n));
      }
      col.cv.NotifyAll();
      if (!status.ok()) return status;
      model_invocations_.fetch_add(static_cast<int64_t>(n), std::memory_order_relaxed);
      metrics_.invocations->Add(static_cast<int64_t>(n));
      metrics_.miss_batch_size->Observe(static_cast<double>(n));
      return Status::OK();
    }
  }

  // General path. Ready hits are served first without the lock (see
  // DenseColumn), so a warm request never takes it. The frames left over
  // get per-frame bit probes under one lock acquisition, with the same
  // classification as the sharded tier — ready by now, duplicate of a frame
  // this call already claimed, in flight on another thread, or a fresh
  // claim. The local `ours` bitmap distinguishes this call's own in-flight
  // bits from other threads' (duplicates within the request).
  std::vector<uint32_t> pending;
  int64_t probe_hits = 0;
  for (size_t i = 0; i < n; ++i) {
    const int64_t frame = frame_indices[i];
    if (IsReady(col.ready, frame)) {
      out[i] = col.counts[static_cast<size_t>(frame)];
      ++probe_hits;
    } else {
      pending.push_back(static_cast<uint32_t>(i));
    }
  }
  std::vector<int64_t> miss_frames;
  std::vector<uint32_t> miss_slot;
  std::vector<uint32_t> dup_slots;
  std::vector<uint32_t> waiter_slots;
  if (!pending.empty()) {
    std::vector<uint64_t> ours(static_cast<size_t>((num_frames + 63) / 64), 0);
    util::MutexLock lock(&col.mu);
    for (uint32_t slot : pending) {
      const int64_t frame = frame_indices[slot];
      if (IsReady(col.ready, frame)) {
        out[slot] = col.counts[static_cast<size_t>(frame)];
        ++probe_hits;
        continue;
      }
      if (TestBit(ours, frame)) {
        dup_slots.push_back(slot);
        continue;
      }
      if (TestBit(col.inflight, frame)) {
        waiter_slots.push_back(slot);
        continue;
      }
      SetBit(col.inflight, frame);
      SetBit(ours, frame);
      miss_slot.push_back(slot);
      miss_frames.push_back(frame);
    }
  }
  if (probe_hits > 0) {
    cache_hits_.fetch_add(probe_hits, std::memory_order_relaxed);
    metrics_.hits->Add(probe_hits);
  }

  if (!miss_frames.empty()) {
    std::vector<int> miss_counts(miss_frames.size());
    Status status = ComputeMisses(miss_frames, resolution, contrast_scale, miss_counts);
    {
      util::MutexLock lock(&col.mu);
      if (status.ok()) {
        for (size_t m = 0; m < miss_frames.size(); ++m) {
          col.counts[static_cast<size_t>(miss_frames[m])] = miss_counts[m];
          PublishReady(col.ready, miss_frames[m]);
        }
        // Duplicates of this call's own claims read the freshly installed
        // counts here, under the same lock acquisition that installed them —
        // every counts[] access stays inside col.mu. (A duplicate implies
        // this call claimed the frame, so dup_slots non-empty implies
        // miss_frames non-empty.) They count as cache hits below, matching
        // the scalar path (first occurrence misses, repeats hit).
        for (uint32_t slot : dup_slots) {
          out[slot] = col.counts[static_cast<size_t>(frame_indices[slot])];
        }
      }
      for (int64_t frame : miss_frames) ClearBit(col.inflight, frame);
    }
    col.cv.NotifyAll();
    if (!status.ok()) return status;
    for (size_t m = 0; m < miss_frames.size(); ++m) out[miss_slot[m]] = miss_counts[m];
    // A batch over N distinct keys counts as exactly N model invocations —
    // the same total the scalar path reports.
    model_invocations_.fetch_add(static_cast<int64_t>(miss_frames.size()),
                                 std::memory_order_relaxed);
    metrics_.invocations->Add(static_cast<int64_t>(miss_frames.size()));
    metrics_.miss_batch_size->Observe(static_cast<double>(miss_frames.size()));
  }

  if (!dup_slots.empty()) {
    cache_hits_.fetch_add(static_cast<int64_t>(dup_slots.size()), std::memory_order_relaxed);
    metrics_.hits->Add(static_cast<int64_t>(dup_slots.size()));
  }

  // Frames another thread had in flight fall back to the scalar
  // wait-and-retry path, which preserves exactly-once compute and exact hit
  // accounting.
  for (uint32_t slot : waiter_slots) {
    SMK_ASSIGN_OR_RETURN(out[slot],
                         RawCountDense(frame_indices[slot], resolution, contrast_scale));
  }
  return Status::OK();
}

Result<int> FrameOutputSource::RawCountDense(int64_t frame_index, int resolution,
                                             double contrast_scale) {
  const int64_t num_frames = dataset_.num_frames();
  if (frame_index < 0 || frame_index >= num_frames) {
    return Status::OutOfRange("frame index " + std::to_string(frame_index) + " out of [0, " +
                              std::to_string(num_frames) + ")");
  }
  DenseColumn& col = DenseColumnFor(resolution, std::llround(contrast_scale * 4096.0));
  if (IsReady(col.ready, frame_index)) {  // Lock-free hit (see DenseColumn).
    cache_hits_.fetch_add(1, std::memory_order_relaxed);
    metrics_.hits->Increment();
    return col.counts[static_cast<size_t>(frame_index)];
  }
  {
    util::MutexLock lock(&col.mu);
    for (;;) {
      if (IsReady(col.ready, frame_index)) {
        cache_hits_.fetch_add(1, std::memory_order_relaxed);
        metrics_.hits->Increment();
        return col.counts[static_cast<size_t>(frame_index)];
      }
      if (!TestBit(col.inflight, frame_index)) {
        SetBit(col.inflight, frame_index);
        break;
      }
      // Another thread is invoking the model on this exact key; wait, then
      // re-probe (the computation may have failed — releasing its claim —
      // in which case our re-probe claims it).
      metrics_.inflight_waits->Increment();
      col.cv.Wait(col.mu);
    }
  }
  // The model runs OUTSIDE the column lock so that concurrent misses on
  // different frames overlap; the in-flight bit keeps this key
  // computed-exactly-once.
  Result<int> count = detector_.CountDetections(dataset_, frame_index, resolution, target_class_,
                                                contrast_scale);
  {
    util::MutexLock lock(&col.mu);
    if (count.ok()) {
      model_invocations_.fetch_add(1, std::memory_order_relaxed);
      metrics_.invocations->Increment();
      col.counts[static_cast<size_t>(frame_index)] = *count;
      PublishReady(col.ready, frame_index);
    }
    ClearBit(col.inflight, frame_index);
  }
  col.cv.NotifyAll();
  return count;
}

Result<std::vector<int>> FrameOutputSource::RawCounts(const std::vector<int64_t>& frame_indices,
                                                      int resolution, double contrast_scale) {
  std::vector<int> out(frame_indices.size());
  SMK_RETURN_IF_ERROR(FillCounts(frame_indices, resolution, contrast_scale, out));
  return out;
}

Status FrameOutputSource::AppendOutputs(const QuerySpec& spec,
                                        std::span<const int64_t> frame_indices, int resolution,
                                        double contrast_scale, OutputColumn& column) {
  const size_t old_size = column.counts.size();
  if (column.outputs.size() != old_size) {
    return Status::InvalidArgument("OutputColumn counts/outputs out of sync");
  }
  column.counts.resize(old_size + frame_indices.size());
  std::span<int> new_counts = std::span<int>(column.counts).subspan(old_size);
  Status status = FillCounts(frame_indices, resolution, contrast_scale, new_counts);
  if (!status.ok()) {
    column.counts.resize(old_size);  // Leave the column unchanged on failure.
    return status;
  }
  column.outputs.resize(old_size + frame_indices.size());
  const OutputTransform transform(spec);
  transform.Apply(new_counts, std::span<double>(column.outputs).subspan(old_size));
  return Status::OK();
}

Status FrameOutputSource::OutputsInto(const QuerySpec& spec,
                                      std::span<const int64_t> frame_indices, int resolution,
                                      double contrast_scale, OutputColumn& column) {
  column.Clear();
  return AppendOutputs(spec, frame_indices, resolution, contrast_scale, column);
}

Status FrameOutputSource::AllOutputsInto(const QuerySpec& spec, int resolution,
                                         double contrast_scale, OutputColumn& column) {
  std::vector<int64_t> frames(static_cast<size_t>(dataset_.num_frames()));
  std::iota(frames.begin(), frames.end(), int64_t{0});
  return OutputsInto(spec, frames, resolution, contrast_scale, column);
}

Result<std::vector<double>> FrameOutputSource::Outputs(const QuerySpec& spec,
                                                       const std::vector<int64_t>& frame_indices,
                                                       int resolution, double contrast_scale) {
  OutputColumn column;
  SMK_RETURN_IF_ERROR(OutputsInto(spec, frame_indices, resolution, contrast_scale, column));
  return std::move(column.outputs);
}

Result<FrameOutputSource::SkippedScan> FrameOutputSource::AllOutputsWithSkipping(
    const QuerySpec& spec, int resolution, double contrast_scale) {
  SkippedScan scan;
  scan.outputs.reserve(static_cast<size_t>(dataset_.num_frames()));
  const OutputTransform transform(spec);
  std::vector<int64_t> prev_tracks;
  double prev_output = 0.0;
  bool have_prev = false;
  for (int64_t i = 0; i < dataset_.num_frames(); ++i) {
    // The cheap "frame difference detector": the multiset of target-class
    // track ids (sorted; tracks are emitted in stable order per frame).
    std::vector<int64_t> tracks;
    for (const video::GtObject& obj : dataset_.frame(i).objects) {
      if (obj.cls == target_class_) tracks.push_back(obj.track_id);
    }
    bool same_sequence =
        i > 0 && dataset_.frame(i).sequence_id == dataset_.frame(i - 1).sequence_id;
    if (have_prev && same_sequence && tracks == prev_tracks) {
      scan.outputs.push_back(prev_output);
      ++scan.skipped;
      continue;
    }
    SMK_ASSIGN_OR_RETURN(int count, RawCount(i, resolution, contrast_scale));
    prev_output = transform(count);
    prev_tracks = std::move(tracks);
    have_prev = true;
    scan.outputs.push_back(prev_output);
  }
  return scan;
}

Result<std::vector<double>> FrameOutputSource::AllOutputs(const QuerySpec& spec, int resolution,
                                                          double contrast_scale) {
  OutputColumn column;
  SMK_RETURN_IF_ERROR(AllOutputsInto(spec, resolution, contrast_scale, column));
  return std::move(column.outputs);
}

OutputStore FrameOutputSource::ExportStore() {
  // Group cached entries by (resolution, contrast_q); each group becomes one
  // column with frames sorted ascending, so exports are deterministic
  // regardless of hash-map iteration order.
  std::map<std::pair<int, int64_t>, std::vector<std::pair<int64_t, int>>> groups;
  for (Shard& shard : shards_) {
    util::MutexLock lock(&shard.mu);
    for (const Entry& entry : shard.table) {
      if (entry.state != kSlotReady) continue;
      groups[{entry.key.resolution, entry.key.contrast_q}].emplace_back(entry.key.frame,
                                                                        entry.count);
    }
  }
  // The dense tier holds every entry when it is enabled (and nothing
  // otherwise); scanning both keeps this correct regardless of how the tier
  // threshold was configured. Ready bits are walked in frame order, so the
  // harvested pairs arrive pre-sorted.
  {
    util::MutexLock dense_lock(&dense_mu_);
    for (auto& [group_key, col_ptr] : dense_columns_) {
      DenseColumn& col = *col_ptr;
      util::MutexLock lock(&col.mu);
      std::vector<std::pair<int64_t, int>>& entries = groups[group_key];
      for (size_t w = 0; w < col.ready.size(); ++w) {
        uint64_t bits = col.ready[w].load(std::memory_order_acquire);
        while (bits != 0) {
          const int64_t frame = static_cast<int64_t>(w) * 64 + std::countr_zero(bits);
          entries.emplace_back(frame, col.counts[static_cast<size_t>(frame)]);
          bits &= bits - 1;
        }
      }
    }
  }
  OutputStore store(dataset_.dataset_id(), detector_.model_id(), dataset_.num_frames());
  for (auto& [group_key, entries] : groups) {
    std::sort(entries.begin(), entries.end());
    OutputColumnRecord column;
    column.resolution = group_key.first;
    column.cls = static_cast<int>(target_class_);
    column.contrast_q = group_key.second;
    column.frames.reserve(entries.size());
    column.counts.reserve(entries.size());
    for (const auto& [frame, count] : entries) {
      column.frames.push_back(frame);
      column.counts.push_back(count);
    }
    store.AddColumn(std::move(column));
  }
  return store;
}

Result<int64_t> FrameOutputSource::Preload(const OutputStore& store) {
  if (store.dataset_id() != dataset_.dataset_id()) {
    return Status::InvalidArgument(
        "output store was built for dataset id " + std::to_string(store.dataset_id()) +
        ", this source serves dataset id " + std::to_string(dataset_.dataset_id()));
  }
  if (store.model_id() != detector_.model_id()) {
    return Status::InvalidArgument(
        "output store was built with model id " + std::to_string(store.model_id()) +
        ", this source uses model id " + std::to_string(detector_.model_id()));
  }
  if (store.num_frames() != dataset_.num_frames()) {
    return Status::InvalidArgument(
        "output store covers " + std::to_string(store.num_frames()) + " frames, dataset has " +
        std::to_string(dataset_.num_frames()));
  }
  int64_t loaded = 0;
  for (const OutputColumnRecord& column : store.columns()) {
    if (column.cls != static_cast<int>(target_class_)) continue;  // Other class: not ours.
    if (column.frames.size() != column.counts.size()) {
      return Status::InvalidArgument("output store column has mismatched frame/count arrays");
    }
    if (dense_enabled()) {
      // Dense tier: install the whole column under one lock. Preloaded
      // entries do not bump the counters (they were not computed in this
      // run); entries already present — ready, or in flight on a concurrent
      // thread — are left alone.
      DenseColumn& col = DenseColumnFor(column.resolution, column.contrast_q);
      util::MutexLock lock(&col.mu);
      for (size_t i = 0; i < column.frames.size(); ++i) {
        const int64_t frame = column.frames[i];
        if (frame < 0 || frame >= dataset_.num_frames()) {
          return Status::OutOfRange("output store frame " + std::to_string(frame) +
                                    " out of [0, " + std::to_string(dataset_.num_frames()) +
                                    ")");
        }
        if (IsReady(col.ready, frame) || TestBit(col.inflight, frame)) continue;
        col.counts[static_cast<size_t>(frame)] = column.counts[i];
        PublishReady(col.ready, frame);
        ++loaded;
      }
      continue;
    }
    for (size_t i = 0; i < column.frames.size(); ++i) {
      const int64_t frame = column.frames[i];
      if (frame < 0 || frame >= dataset_.num_frames()) {
        return Status::OutOfRange("output store frame " + std::to_string(frame) +
                                  " out of [0, " + std::to_string(dataset_.num_frames()) + ")");
      }
      CacheKey key;
      key.frame = frame;
      key.resolution = column.resolution;
      key.contrast_q = column.contrast_q;
      const size_t hash = CacheKeyHash{}(key);
      Shard& shard = ShardFor(hash);
      util::MutexLock lock(&shard.mu);
      // Preloaded entries do not bump the counters: they were not computed
      // (nor requested) in this run. An entry already present (ready, or in
      // flight on a concurrent thread) is left alone.
      bool fresh = false;
      Entry* entry = ClaimEntry(shard, key, hash, fresh);
      if (fresh) {
        entry->count = column.counts[i];
        entry->state = kSlotReady;
        ++loaded;
      }
    }
  }
  return loaded;
}

Result<FrameOutputSource::RepairReport> FrameOutputSource::RepairStore(util::Env& env,
                                                                       const std::string& path) {
  SMK_ASSIGN_OR_RETURN(OutputStore::SalvageResult salvaged,
                       OutputStore::Salvage(env, path, registry_));
  // Provenance gate mirrors Preload: recomputing a foreign store's columns
  // would stamp THIS model's outputs under the other store's identity.
  if (salvaged.store.dataset_id() != dataset_.dataset_id() ||
      salvaged.store.model_id() != detector_.model_id() ||
      salvaged.store.num_frames() != dataset_.num_frames()) {
    return Status::InvalidArgument(
        "cannot repair " + path + ": store provenance (dataset " +
        std::to_string(salvaged.store.dataset_id()) + ", model " +
        std::to_string(salvaged.store.model_id()) + ", " +
        std::to_string(salvaged.store.num_frames()) + " frames) does not match this source");
  }

  RepairReport report;
  report.load = std::move(salvaged.report);
  if (report.load.clean()) return report;  // Nothing to heal; file untouched.

  OutputStore repaired(dataset_.dataset_id(), detector_.model_id(), dataset_.num_frames());
  for (const OutputColumnRecord& column : salvaged.store.columns()) {
    OutputColumnRecord copy = column;
    repaired.AddColumn(std::move(copy));
  }
  for (const QuarantinedColumn& q : report.load.quarantined) {
    const bool repairable = q.verdict == ColumnVerdict::kCountsCorrupt &&
                            q.cls == static_cast<int>(target_class_) &&
                            static_cast<int64_t>(q.frames.size()) == q.num_entries;
    if (!repairable) {
      ++report.columns_dropped;
      report.entries_lost += q.num_entries;
      continue;
    }
    // The frame list verified, so the exact lost triples are known; detector
    // outputs are deterministic, so recomputation is bit-identical to what
    // the rotten bytes used to say.
    OutputColumnRecord recomputed;
    recomputed.resolution = q.resolution;
    recomputed.cls = q.cls;
    recomputed.contrast_q = q.contrast_q;
    recomputed.frames = q.frames;
    recomputed.counts.resize(q.frames.size());
    const double contrast_scale = static_cast<double>(q.contrast_q) / 4096.0;
    SMK_RETURN_IF_ERROR(
        FillCounts(recomputed.frames, q.resolution, contrast_scale, recomputed.counts));
    ++report.columns_recomputed;
    report.entries_recomputed += static_cast<int64_t>(recomputed.frames.size());
    metrics_.repair_columns_recomputed->Increment();
    metrics_.repair_entries_recomputed->Add(static_cast<int64_t>(recomputed.frames.size()));
    repaired.AddColumn(std::move(recomputed));
  }
  if (report.columns_dropped > 0) {
    SMK_LOG(WARNING) << "repair of " << path << " dropped " << report.columns_dropped
                     << " unrecoverable columns (" << report.entries_lost << " entries)";
  }
  SMK_RETURN_IF_ERROR(repaired.Save(env, path));
  report.rewritten = true;
  return report;
}

}  // namespace query
}  // namespace smokescreen
