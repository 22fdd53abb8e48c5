#include "query/output_source.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>

#include "util/thread_pool.h"

namespace smokescreen {
namespace query {

using util::Result;
using util::Status;

namespace {

/// Largest pooled miss chunk. A pure constant — deriving it from the worker
/// count would make the CountBatch call sequence depend on pool width,
/// breaking the determinism contract.
constexpr int64_t kParallelChunk = 1024;
/// Engage threshold: frames of miss work per worker below which dispatch
/// overhead beats the parallel win.
constexpr int64_t kParallelMissesPerWorker = 32;

// Column bitmap primitives. Frames index bits; all range operations are
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

// A column's ready bits are published with release ordering after the counts
// they cover are written, and read with acquire ordering (see
// FrameOutputSource::Column). Only holders of the column's mutex set bits, so
// publishing is a plain load-or-store, not an atomic read-modify-write.
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

FrameOutputSource::Instruments::Instruments(util::MetricsRegistry& registry)
    : invocations(registry.GetCounter("output_source.model_invocations")),
      hits(registry.GetCounter("output_source.cache_hits")),
      inflight_waits(registry.GetCounter("output_source.inflight_waits")),
      miss_batch_size(
          registry.GetHistogram("output_source.miss_batch.frames", util::BatchSizeBoundaries())) {
}

FrameOutputSource::FrameOutputSource(const video::VideoDataset& dataset,
                                     const detect::Detector& detector,
                                     video::ObjectClass target_class,
                                     util::MetricsRegistry* registry)
    : dataset_(dataset),
      detector_(detector),
      target_class_(target_class),
      registry_(&util::MetricsRegistry::OrDefault(registry)),
      metrics_(*registry_) {}

Status FrameOutputSource::ComputeMisses(std::span<const int64_t> miss_frames, int resolution,
                                        double contrast_scale, std::span<int> miss_counts) {
  const int64_t n = static_cast<int64_t>(miss_frames.size());
  // max_batch_size caps the frames per CountBatch call on BOTH paths.
  const int64_t cap = max_batch_size_ > 0 ? std::min<int64_t>(max_batch_size_, n) : n;
  // One model call over misses [begin, end), writing their slice of
  // miss_counts.
  auto count_chunk = [&](int64_t begin, int64_t end) {
    const auto offset = static_cast<size_t>(begin);
    const auto len = static_cast<size_t>(end - begin);
    return detector_.CountBatch(dataset_, miss_frames.subspan(offset, len), resolution,
                                target_class_, contrast_scale, miss_counts.subspan(offset, len));
  };
  util::ThreadPool* pool = pool_;
  if (pool == nullptr || pool->num_threads() <= 1 ||
      n < kParallelMissesPerWorker * pool->num_threads()) {
    for (int64_t begin = 0; begin < n; begin += cap) {
      SMK_RETURN_IF_ERROR(count_chunk(begin, std::min(begin + cap, n)));
    }
    return Status::OK();
  }

  // Bulk dispatch: one ParallelFor over the miss range, one CountBatch per
  // chunk into its disjoint slice. The chunk size is a pure function of
  // (n, max_batch_size) — NEVER the worker count — so the CountBatch call
  // sequence is identical at every pool width (only the chunk-to-thread
  // assignment varies), and each frame's count is a pure function of its
  // key: the assembled result is bit-identical to the serial path.
  // ParallelFor is synchronous over exactly these chunks (the calling thread
  // participates), so a shared pool never makes this wait on unrelated
  // users' work, and a caller already ON a pool worker runs the same chunk
  // sequence inline.
  const int64_t chunk = std::min(cap, kParallelChunk);
  std::vector<Status> chunk_status(static_cast<size_t>((n + chunk - 1) / chunk));
  pool->ParallelFor(0, n, chunk, [&count_chunk, &chunk_status, chunk](int64_t begin, int64_t end) {
    chunk_status[static_cast<size_t>(begin / chunk)] = count_chunk(begin, end);
  });
  // First failing chunk (by position, not completion order) wins, keeping
  // the reported error deterministic.
  for (Status& status : chunk_status) {
    if (!status.ok()) return std::move(status);
  }
  return Status::OK();
}

FrameOutputSource::Column& FrameOutputSource::ColumnFor(int resolution, int64_t contrast_q) {
  const std::pair<int, int64_t> key{resolution, contrast_q};
  // An existing column is found without columns_mu_ (see column_index_).
  if (const ColumnIndex* index = column_index_.load(std::memory_order_acquire)) {
    auto it = std::lower_bound(index->begin(), index->end(), key,
                               [](const auto& entry, const auto& k) { return entry.first < k; });
    if (it != index->end() && it->first == key) return *it->second;
  }
  util::MutexLock lock(&columns_mu_);
  std::unique_ptr<Column>& slot = columns_[key];
  if (slot == nullptr) {
    slot = std::make_unique<Column>();
    const size_t num_frames = static_cast<size_t>(dataset_.num_frames());
    slot->counts.assign(num_frames, 0);
    slot->ready = ReadyBits((num_frames + 63) / 64);  // Value-initialized: all clear.
    slot->inflight.assign((num_frames + 63) / 64, 0);
    auto index = std::make_unique<ColumnIndex>();
    index->reserve(columns_.size());
    for (const auto& [column_key, column] : columns_) {
      index->emplace_back(column_key, column.get());
    }
    column_index_.store(index.get(), std::memory_order_release);
    column_indexes_.push_back(std::move(index));
  }
  return *slot;
}

Status FrameOutputSource::FillCounts(std::span<const int64_t> frame_indices, int resolution,
                                     double contrast_scale, std::span<int> out) {
  if (out.size() != frame_indices.size()) {
    return Status::InvalidArgument("FillCounts: out size " + std::to_string(out.size()) +
                                   " != frame count " + std::to_string(frame_indices.size()));
  }
  if (frame_indices.empty()) return Status::OK();
  // max_batch_size caps the frames per CountBatch call (ComputeMisses
  // chunks the miss set), not the claim: a large cold request claims all
  // its misses at once, so they fan out across the whole pool instead of
  // being claimed max_batch_size frames at a time.
  const size_t n = frame_indices.size();
  const int64_t num_frames = dataset_.num_frames();
  // Frames must be in range before they index the bitmaps. The contiguity
  // test rides along in the same pass.
  bool contiguous = true;
  for (size_t i = 0; i < n; ++i) {
    const int64_t frame = frame_indices[i];
    if (frame < 0 || frame >= num_frames) {
      return Status::OutOfRange("frame index " + std::to_string(frame) + " out of [0, " +
                                std::to_string(num_frames) + ")");
    }
    contiguous = contiguous && frame == frame_indices[0] + static_cast<int64_t>(i);
  }
  // A resolution the model rejects must not create a column: an empty one
  // would cost memory and be exported into every later checkpoint.
  SMK_RETURN_IF_ERROR(detector_.ValidateResolution(resolution));

  // Every contrast in one quantization step computes at the column's own
  // contrast, so a column's counts do not depend on which request filled it.
  const int64_t contrast_q = detect::QuantizeContrast(contrast_scale);
  const double column_contrast = static_cast<double>(contrast_q) / detect::kContrastSteps;
  Column& col = ColumnFor(resolution, contrast_q);

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
      Status status = ComputeMisses(frame_indices, resolution, column_contrast, out);
      {
        util::MutexLock lock(&col.mu);
        if (status.ok()) {
          std::copy(out.begin(), out.end(),
                    col.counts.begin() + static_cast<ptrdiff_t>(f0));
          PublishReadyRange(col.ready, f0, static_cast<int64_t>(n));
        }
        // A failed batch releases its claim; a later request re-claims it.
        ClearRange(col.inflight, f0, static_cast<int64_t>(n));
      }
      col.cv.NotifyAll();
      if (!status.ok()) return status;
      metrics_.invocations.Add(static_cast<int64_t>(n));
      metrics_.miss_batch_size->Observe(static_cast<double>(n));
      return Status::OK();
    }
  }

  // General path. Ready hits are served first without the lock (see
  // Column), so a warm request never takes it.
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
  // The frames left over go through rounds of claim -> compute -> install.
  // Each round classifies the unresolved slots under one lock acquisition:
  // ready by now (a hit), duplicate of a frame this request claimed, free
  // (claimed), or in flight on another thread (set aside for the next
  // round). The local `ours` bitmap tells this request's own in-flight bits
  // from other threads'. A round that claimed nothing while frames are in
  // flight elsewhere waits on the column and classifies again; a request
  // never waits while it holds a claim, so two requests cannot wait on each
  // other. With nothing in flight elsewhere there is exactly one round.
  std::vector<uint64_t> ours(pending.empty() ? 0 : static_cast<size_t>((num_frames + 63) / 64));
  std::vector<int64_t> miss_frames;
  std::vector<uint32_t> miss_slot;
  std::vector<uint32_t> dup_slots;
  std::vector<uint32_t> waiter_slots;
  while (!pending.empty()) {
    {
      util::MutexLock lock(&col.mu);
      for (;;) {
        for (uint32_t slot : pending) {
          const int64_t frame = frame_indices[slot];
          if (IsReady(col.ready, frame)) {
            out[slot] = col.counts[static_cast<size_t>(frame)];
            ++probe_hits;
          } else if (TestBit(ours, frame)) {
            dup_slots.push_back(slot);
          } else if (TestBit(col.inflight, frame)) {
            waiter_slots.push_back(slot);
          } else {
            SetBit(col.inflight, frame);
            SetBit(ours, frame);
            miss_slot.push_back(slot);
            miss_frames.push_back(frame);
          }
        }
        if (!miss_frames.empty() || waiter_slots.empty()) break;
        // Everything left is another thread's computation; it installs or
        // releases its claims under this lock and then notifies.
        metrics_.inflight_waits->Increment();
        col.cv.Wait(col.mu);
        pending.swap(waiter_slots);
        waiter_slots.clear();
      }
    }
    if (probe_hits > 0) {
      metrics_.hits.Add(probe_hits);
      probe_hits = 0;
    }

    if (!miss_frames.empty()) {
      std::vector<int> miss_counts(miss_frames.size());
      Status status = ComputeMisses(miss_frames, resolution, column_contrast, miss_counts);
      {
        util::MutexLock lock(&col.mu);
        if (status.ok()) {
          for (size_t m = 0; m < miss_frames.size(); ++m) {
            col.counts[static_cast<size_t>(miss_frames[m])] = miss_counts[m];
            PublishReady(col.ready, miss_frames[m]);
          }
          // Duplicates of this round's claims read the freshly installed
          // counts here, under the same lock acquisition that installed
          // them — every counts[] access stays inside col.mu. (A duplicate
          // implies this round claimed the frame, so dup_slots non-empty
          // implies miss_frames non-empty.) They count as cache hits below:
          // the first occurrence misses, repeats hit.
          for (uint32_t slot : dup_slots) {
            out[slot] = col.counts[static_cast<size_t>(frame_indices[slot])];
          }
        }
        for (int64_t frame : miss_frames) ClearBit(col.inflight, frame);
      }
      col.cv.NotifyAll();
      if (!status.ok()) return status;
      for (size_t m = 0; m < miss_frames.size(); ++m) out[miss_slot[m]] = miss_counts[m];
      // A batch over N distinct keys counts as exactly N model invocations.
      metrics_.invocations.Add(static_cast<int64_t>(miss_frames.size()));
      metrics_.miss_batch_size->Observe(static_cast<double>(miss_frames.size()));
    }
    if (!dup_slots.empty()) metrics_.hits.Add(static_cast<int64_t>(dup_slots.size()));
    // Frames another thread had in flight are classified again next round.
    pending.swap(waiter_slots);
    waiter_slots.clear();
    miss_frames.clear();
    miss_slot.clear();
    dup_slots.clear();
  }
  if (probe_hits > 0) metrics_.hits.Add(probe_hits);
  return Status::OK();
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

OutputStore FrameOutputSource::ExportStore() {
  // The column index is sorted by (resolution, contrast_q), and ready bits
  // are walked in frame order, so the export order is deterministic. Both
  // are read lock-free under the publication protocol (see Column).
  OutputStore store(dataset_.dataset_id(), detector_.model_id(), dataset_.num_frames());
  const ColumnIndex* index = column_index_.load(std::memory_order_acquire);
  if (index == nullptr) return store;
  for (const auto& [key, col] : *index) {
    OutputColumnRecord column;
    column.resolution = key.first;
    column.cls = static_cast<int>(target_class_);
    column.contrast_q = key.second;
    size_t ready_frames = 0;
    for (const std::atomic<uint64_t>& word : col->ready) {
      ready_frames += static_cast<size_t>(std::popcount(word.load(std::memory_order_acquire)));
    }
    column.frames.reserve(ready_frames);
    column.counts.reserve(ready_frames);
    for (size_t w = 0; w < col->ready.size(); ++w) {
      uint64_t bits = col->ready[w].load(std::memory_order_acquire);
      while (bits != 0) {
        const int64_t frame = static_cast<int64_t>(w) * 64 + std::countr_zero(bits);
        column.frames.push_back(frame);
        column.counts.push_back(col->counts[static_cast<size_t>(frame)]);
        bits &= bits - 1;
      }
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
    // A resolution this model rejects could never be requested; a column
    // for it would only cost memory and be exported again.
    if (!detector_.ValidateResolution(column.resolution).ok()) continue;
    if (column.frames.size() != column.counts.size()) {
      return Status::InvalidArgument("output store column has mismatched frame/count arrays");
    }
    // Install the whole column under one lock. Preloaded entries do not
    // bump the counters: they were not computed (nor requested) in this
    // run. Entries already present — ready, or in flight on a concurrent
    // thread — are left alone.
    Column& col = ColumnFor(column.resolution, column.contrast_q);
    util::MutexLock lock(&col.mu);
    for (size_t i = 0; i < column.frames.size(); ++i) {
      const int64_t frame = column.frames[i];
      if (frame < 0 || frame >= dataset_.num_frames()) {
        return Status::OutOfRange("output store frame " + std::to_string(frame) + " out of [0, " +
                                  std::to_string(dataset_.num_frames()) + ")");
      }
      if (IsReady(col.ready, frame) || TestBit(col.inflight, frame)) continue;
      col.counts[static_cast<size_t>(frame)] = column.counts[i];
      PublishReady(col.ready, frame);
      ++loaded;
    }
  }
  return loaded;
}

}  // namespace query
}  // namespace smokescreen
