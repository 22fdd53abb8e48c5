// FrameOutputSource: the "video frame processor" component of the prototype
// (paper §4). It invokes the detection UDF on frames and memoizes outputs
// per (frame, resolution, contrast) so that
//  * outputs for frames sampled at a low rate are reused at higher rates
//    (the §3.3.2 reuse strategy), and
//  * profile generation can report its model-invocation count (§5.3.1).
//
// Two read calls: FillCounts writes raw counts for a list of frames, and
// AppendOutputs appends them with their query-transformed outputs to an
// OutputColumn. Both go through one claim -> compute -> install protocol: a
// request probes the memo column it addresses, claims every miss, and
// issues ONE batched model invocation (Detector::CountBatch) covering all
// of them. A failed model call fails the request and releases its claims.
// Batching changes only the cost shape, never the answer — counts are
// bit-identical to per-frame calls, and the invocation/hit counters tally a
// batch of N distinct misses as exactly N model invocations.
//
// Storage: one direct-mapped column per (resolution, contrast) pair, created
// on first touch, at every dataset size — a flat counts[num_frames] array
// plus ready/in-flight bitmaps, about 4.25 bytes per dataset frame. Contrast
// is quantized to 1/4096 steps (detect::QuantizeContrast), the same
// quantization the profiler groups by, and a column's counts are computed at
// its own quantized contrast, so every contrast in one step reads the same
// counts whichever request filled the column first. Frames index
// the column directly: there is no hashing, so two distinct (frame,
// resolution, contrast) triples can never alias.
//
// Thread safety: every public method may be called concurrently, and the
// invocation/hit counters are lock-free util::Counters. Each column owns a
// mutex for claims, in-flight waits and installs; a miss invokes the model
// OUTSIDE it (misses on different frames overlap), and an in-flight bit
// guarantees each key is computed exactly once, so model_invocations()
// counts distinct computed keys exactly, at any thread count. A request whose frames are in flight
// on another thread computes its own claims first, then waits for the rest
// and claims again whatever a failed batch released; it never waits while
// holding a claim. Hits take no lock at all: a count is written once before
// its ready bit is published with release ordering, and columns are found
// through an immutable sorted index, so concurrent readers of a warm column
// (the serving layer's clients and executor workers) never queue behind one
// another. A contiguous all-cold request (the profiler's full scans, the
// kernel bench) claims its whole range with word-wise bitmap fills, lets the
// model write counts straight into the caller's output span, and installs
// with one copy.

#ifndef SMOKESCREEN_QUERY_OUTPUT_SOURCE_H_
#define SMOKESCREEN_QUERY_OUTPUT_SOURCE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "detect/detector.h"
#include "query/output_store.h"
#include "query/query_spec.h"
#include "util/metrics.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"
#include "video/dataset.h"

namespace smokescreen {
namespace util {
class ThreadPool;
}  // namespace util
namespace query {

/// Reusable columnar result buffer. Callers that grow a sample prefix
/// incrementally (the profiler's nested-prefix reuse chain) append batch
/// extensions into the same column instead of re-materializing vectors.
struct OutputColumn {
  std::vector<int> counts;
  std::vector<double> outputs;

  size_t size() const { return outputs.size(); }
  std::span<const double> output_span() const { return outputs; }
  std::span<const double> output_prefix(size_t n) const {
    return std::span<const double>(outputs.data(), n);
  }
};

class FrameOutputSource {
 public:
  /// Neither reference may outlive this object. The output_source.*
  /// instruments bind to `registry` (nullptr = util::MetricsRegistry::
  /// Default()), as does a core::Profiler reading this source. Each registry
  /// counter sums every source bound to that registry; the accessors below
  /// report this source's own count.
  FrameOutputSource(const video::VideoDataset& dataset, const detect::Detector& detector,
                    video::ObjectClass target_class, util::MetricsRegistry* registry = nullptr);

  /// Raw counts for `frame_indices` written into `out` (same length, same
  /// order). The claimed misses are computed by ONE CountBatch invocation
  /// per batch chunk (see set_max_batch_size), at the column's contrast
  /// QuantizeContrast(contrast_scale) / kContrastSteps.
  /// Duplicate frames, unsorted lists and empty lists are all fine. A frame
  /// outside the dataset (OutOfRange) or a resolution the model rejects
  /// (InvalidArgument) fails the whole request before anything is claimed
  /// or any memo column is created. A failed model call fails the request
  /// and releases its claims; hits already served stay tallied.
  /// Re-entrancy from code already holding a column lock would
  /// self-deadlock; the EXCLUDES annotation machine-checks the expressible
  /// part (the column directory lock).
  util::Status FillCounts(std::span<const int64_t> frame_indices, int resolution,
                          double contrast_scale, std::span<int> out) SMK_EXCLUDES(columns_mu_);

  /// Appends counts and query-transformed outputs for `frame_indices` to
  /// `column` through FillCounts; on failure `column` is left unchanged.
  /// Prefix-growing callers (the profiler's nested-prefix reuse chain)
  /// extend one column batch by batch; others start from an empty column.
  util::Status AppendOutputs(const QuerySpec& spec, std::span<const int64_t> frame_indices,
                             int resolution, double contrast_scale, OutputColumn& column);

  /// Caps the number of frames handed to one Detector::CountBatch call;
  /// larger requests are split into chunks of this size. 0 (the default)
  /// means unlimited. Results are identical at every setting — this is a
  /// cost/latency knob (and the sweep axis of bench/ext_batched_throughput).
  void set_max_batch_size(int64_t max_batch_size) { max_batch_size_ = max_batch_size; }

  /// Intra-batch parallelism: when set, a cold miss-batch of at least 32
  /// distinct keys per pool worker is dispatched as a bulk
  /// ThreadPool::ParallelFor over contiguous chunks of min(the
  /// set_max_batch_size cap or the miss count, 1024) frames (one
  /// Detector::CountBatch per chunk, each writing a disjoint slice), so one
  /// large cold request saturates cores even from a single-threaded caller;
  /// smaller batches run serially, where dispatch overhead would beat the
  /// win. Results and invocation accounting are IDENTICAL to the serial path
  /// at every thread count: chunk boundaries are a pure function of the miss
  /// count and that cap — NEVER of the worker count or scheduling — each
  /// frame's count is a pure function of its key, claims are still made
  /// exactly once before dispatch, and the batch still tallies one
  /// invocation per distinct key. The pool is borrowed,
  /// not owned; it must outlive this source. Callers already running ON a
  /// worker of this pool are safe: ParallelFor detects the nesting and runs
  /// the same chunk sequence inline (this is how the serving layer shares
  /// one executor between sessions, the profiler and this source). nullptr
  /// (the default) restores the serial path. A core::Profiler reading this
  /// source walks its hypercube groups on the same pool.
  void set_thread_pool(util::ThreadPool* pool) { pool_ = pool; }

  /// The pool set by set_thread_pool; nullptr when the source is serial.
  util::ThreadPool* thread_pool() const { return pool_; }
  /// The registry the source's instruments are bound to (never null).
  util::MetricsRegistry& registry() const { return *registry_; }

  /// Snapshots the memo cache into a persistable OutputStore: one column
  /// per (resolution, contrast) pair seen, in (resolution, contrast_q)
  /// order, frames ascending, so equal memos export byte-identical stores.
  /// Takes no lock; a frame installed during the export may be left out.
  OutputStore ExportStore();

  /// Warm-starts the memo cache from a previously saved store. Validates
  /// that the store matches this source's dataset/model, skips columns for
  /// other target classes and for resolutions the model rejects, and does
  /// NOT touch the invocation/hit counters
  /// (preloaded entries were never computed in this run). Returns the number
  /// of entries installed. Preloading a salvaged store is how a damaged
  /// store heals: requests recompute what was quarantined as ordinary
  /// misses, at the column's contrast.
  util::Result<int64_t> Preload(const OutputStore& store);

  /// Total UDF invocations that missed the cache (the paper's N_model).
  /// Exactly the number of distinct keys computed, at any thread count. A
  /// batched invocation over N distinct missing keys counts as N.
  int64_t model_invocations() const { return metrics_.invocations.Value(); }
  /// Invocations answered from the cache (reuse-strategy savings).
  int64_t cache_hits() const { return metrics_.hits.Value(); }

  const video::VideoDataset& dataset() const { return dataset_; }
  const detect::Detector& detector() const { return detector_; }
  video::ObjectClass target_class() const { return target_class_; }

 private:
  /// A direct-mapped memo column: a counts array over every frame of the
  /// dataset plus ready/in-flight bitmaps, one per (resolution, contrast_q)
  /// pair, created lazily on first touch. `inflight` is guarded by mu.
  /// `counts` and `ready` follow a publication protocol the static analysis
  /// cannot express: a frame's count is written once, under mu, before its
  /// ready bit is set with release ordering, and ready bits are never
  /// cleared. A reader that loads the bit with acquire ordering may
  /// therefore read the count without the lock, so warm hits take no lock
  /// and concurrent readers of one column never queue behind each other.
  /// Claims, installs and in-flight waits still happen under mu.
  struct Column {
    util::Mutex mu;
    /// Signalled when in-flight computations land (or fail).
    util::CondVar cv;
    std::vector<int> counts;
    std::vector<std::atomic<uint64_t>> ready;
    std::vector<uint64_t> inflight SMK_GUARDED_BY(mu);
  };

  Column& ColumnFor(int resolution, int64_t contrast_q) SMK_EXCLUDES(columns_mu_);

  /// Computes the claimed misses of one round with one CountBatch call per
  /// chunk: cap-sized serial calls when small or poolless, a bulk
  /// ParallelFor of min(cap, 1024)-sized chunks when large. ParallelFor is
  /// synchronous over exactly these chunks, so no private latch is needed
  /// and a shared pool never makes this wait on unrelated users. A failed
  /// pooled chunk reports the first failure by chunk position.
  util::Status ComputeMisses(std::span<const int64_t> miss_frames, int resolution,
                             double contrast_scale, std::span<int> miss_counts);

  const video::VideoDataset& dataset_;
  const detect::Detector& detector_;
  video::ObjectClass target_class_;
  int64_t max_batch_size_ = 0;
  util::ThreadPool* pool_ = nullptr;

  /// The registry the instruments are bound to (never null).
  util::MetricsRegistry* const registry_;
  struct Instruments {
    explicit Instruments(util::MetricsRegistry& registry);
    /// This source's own tallies behind model_invocations() and
    /// cache_hits(); each add also lands in the registry counter.
    util::Counter invocations;
    util::Counter hits;
    util::Counter* inflight_waits;
    util::Histogram* miss_batch_size;
  };
  Instruments metrics_;
  /// Memo columns, keyed by (resolution, contrast_q). std::map keeps the
  /// index sorted; the unique_ptr keeps Column addresses stable across
  /// inserts (callers hold references outside columns_mu_).
  util::Mutex columns_mu_;
  std::map<std::pair<int, int64_t>, std::unique_ptr<Column>> columns_ SMK_GUARDED_BY(columns_mu_);
  /// What ColumnFor and ExportStore search instead of taking columns_mu_:
  /// an immutable sorted copy of columns_, republished with release
  /// ordering (under columns_mu_) whenever a column is added. Columns are
  /// never removed, so an index never goes stale; superseded ones stay
  /// alive in column_indexes_ because a reader may still be searching one.
  using ColumnIndex = std::vector<std::pair<std::pair<int, int64_t>, Column*>>;
  std::atomic<const ColumnIndex*> column_index_{nullptr};
  std::vector<std::unique_ptr<const ColumnIndex>> column_indexes_ SMK_GUARDED_BY(columns_mu_);
};

}  // namespace query
}  // namespace smokescreen

#endif  // SMOKESCREEN_QUERY_OUTPUT_SOURCE_H_
