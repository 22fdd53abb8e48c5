// util::metrics — the process-wide observability spine.
//
// Every component reports through one registry of named instruments: the
// profiler's stage timers, the output source's invocation/hit counters, the
// thread pool, the profile cache, the network link and the central system's
// breakers. Production video-analytics systems (BlazeIt, Boggart) treat
// per-stage counters and latency histograms the same way: as first-class
// citizens of the serving path.
//
// Three instrument kinds, all safe for concurrent use:
//
//  * Counter   — monotonic int64. The hot path is a single relaxed atomic
//                fetch_add into one of kCells cache-line-padded cells picked
//                by thread identity, so pooled miss paths incrementing the
//                same counter do not bounce one cache line between cores.
//                Value() sums the cells; integer addition is associative, so
//                the total is BIT-EXACT at any thread count — never sampled,
//                never approximate. A component that reports its own count
//                of a fact (one source's model invocations) holds a
//                component Counter built over the registry counter: its
//                Value() is the component's tally, and each Add also lands in
//                the registry counter, which sums every component's adds.
//  * Gauge     — a settable int64 level (queue depth, open breakers).
//  * Histogram — fixed bucket boundaries chosen at creation; Observe() is a
//                branch-free upper_bound over <= 64 boundaries plus one
//                relaxed atomic increment into a per-cell bucket array.
//                Count and bucket counts are exact; Sum() is a double
//                accumulated per cell (exact for the integer-valued
//                batch-size histograms, floating-point-rounded for seconds).
//
// Instruments live in a MetricsRegistry and are looked up BY NAME once, at
// component construction (a mutex-guarded map probe); the returned pointer
// is stable for the registry's lifetime and the per-operation cost is only
// the atomic add. A component binds to the registry it is constructed with;
// nullptr means MetricsRegistry::Default(), the process-wide registry (tests
// pass private registries to assert exact counts in isolation).
//
// Naming scheme: dot-separated "<subsystem>.<object>.<metric>[_<unit>]",
// e.g. "output_source.model_invocations", "profiler.stage.groups.seconds",
// "thread_pool.queue_depth". Stage timers are RAII ScopedSpans that observe
// elapsed seconds into a histogram on Stop()/destruction.
//
// Snapshot() freezes every instrument into plain structs and serializes to
// JSON (WriteJson, via Env::WriteFileAtomic — atomic and chaos-testable).

#ifndef SMOKESCREEN_UTIL_METRICS_H_
#define SMOKESCREEN_UTIL_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "util/env.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"
#include "util/timer.h"

namespace smokescreen {
namespace util {

class MetricsRegistry;

namespace metrics_internal {

/// Cells per instrument: enough to keep an 8-16 thread pool from contending
/// on one cache line, small enough that Value()'s sum stays trivial.
inline constexpr int kNumCells = 16;

/// Stable per-thread cell index (hashed thread id), computed once per thread.
int ThisThreadCell();

}  // namespace metrics_internal

/// Monotonic counter. Add/Increment are lock-free relaxed atomic adds into a
/// per-thread-affine cell; Value() sums all cells (exact — integer adds
/// commute). Counters only go up.
class Counter {
 public:
  /// One component's own tally of the fact `total` counts: Value() is this
  /// component's count, and every Add also lands in `total` (non-null; the
  /// registry counter of the same name, which outlives the component). The
  /// registry counter keeps the adds of components already destroyed.
  explicit Counter(Counter* total) : name_(total->name()), total_(total) {}

  void Add(int64_t n) {
    cells_[metrics_internal::ThisThreadCell()].v.fetch_add(n, std::memory_order_relaxed);
    if (total_ != nullptr) total_->Add(n);
  }
  void Increment() { Add(1); }

  int64_t Value() const {
    int64_t total = 0;
    for (const Cell& cell : cells_) total += cell.v.load(std::memory_order_relaxed);
    return total;
  }

  const std::string& name() const { return name_; }

 private:
  friend class MetricsRegistry;
  explicit Counter(std::string name) : name_(std::move(name)) {}

  struct alignas(64) Cell {
    std::atomic<int64_t> v{0};
  };
  std::array<Cell, metrics_internal::kNumCells> cells_;
  std::string name_;
  /// The registry counter a component counter forwards to; null in the
  /// registry's own counters.
  Counter* total_ = nullptr;
};

/// A settable level. Set/Add are single relaxed atomics — gauges track
/// instantaneous state (queue depth, breakers open), so there is nothing to
/// shard: the latest write wins by design.
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

  const std::string& name() const { return name_; }

 private:
  friend class MetricsRegistry;
  explicit Gauge(std::string name) : name_(std::move(name)) {}

  std::atomic<int64_t> value_{0};
  std::string name_;
};

/// Fixed-boundary histogram. An observation of value v lands in the first
/// bucket whose boundary is >= v; values above the last boundary land in the
/// overflow bucket (so there are boundaries.size() + 1 buckets). Bucket
/// counts and the total count are exact; the sum is a per-cell double.
class Histogram {
 public:
  void Observe(double value);

  int64_t TotalCount() const;
  double Sum() const;
  /// Mean of all observations (0 when empty).
  double Mean() const {
    int64_t n = TotalCount();
    return n == 0 ? 0.0 : Sum() / static_cast<double>(n);
  }
  const std::vector<double>& boundaries() const { return boundaries_; }
  /// boundaries().size() + 1 entries; the last is the overflow bucket.
  std::vector<int64_t> BucketCounts() const;

  const std::string& name() const { return name_; }

 private:
  friend class MetricsRegistry;
  Histogram(std::string name, std::span<const double> boundaries);

  struct alignas(64) Cell {
    /// One slot per bucket; sized at construction, never resized.
    std::unique_ptr<std::atomic<int64_t>[]> buckets;
    std::atomic<int64_t> count{0};
    /// CAS-loop accumulated (fetch_add on atomic<double> is C++20; the CAS
    /// spelling keeps older libstdc++ configurations building).
    std::atomic<double> sum{0.0};
  };

  std::vector<double> boundaries_;  // Ascending, deduplicated.
  std::array<Cell, metrics_internal::kNumCells> cells_;
  std::string name_;
};

/// Default stage-timer boundaries (seconds): ~1us to 60s, roughly
/// quarter-decade steps. Spans over anything from a cache probe wait to a
/// full profile generation resolve to a meaningful bucket.
std::span<const double> LatencyBoundariesSeconds();

/// Default batch-size boundaries: powers of two 1..8192 (the
/// ext_batched_throughput sweep range plus headroom).
std::span<const double> BatchSizeBoundaries();

/// Frozen view of one histogram.
struct HistogramSnapshot {
  std::string name;
  std::vector<double> boundaries;
  std::vector<int64_t> buckets;  // boundaries.size() + 1, last = overflow.
  int64_t count = 0;
  double sum = 0.0;
};

/// Frozen view of a whole registry, decoupled from the live atomics.
/// Counters/gauges are (name, value) sorted by name (the registry map order),
/// so two snapshots of identical state serialize identically.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, int64_t>> counters;
  std::vector<std::pair<std::string, int64_t>> gauges;
  std::vector<HistogramSnapshot> histograms;

  /// Counter value by name; 0 when absent (absent == never incremented).
  int64_t counter(const std::string& name) const;

  /// Serializes to a JSON object:
  ///   {"counters": {name: value, ...},
  ///    "gauges": {name: value, ...},
  ///    "histograms": {name: {"count": c, "sum": s,
  ///                          "buckets": [{"le": b, "count": c}, ...]}, ...}}
  /// The final bucket's "le" is null (overflow).
  std::string ToJson() const;

  /// Atomically writes ToJson() to `path` via Env::WriteFileAtomic — a crash
  /// or injected fault leaves any previous export intact.
  Status WriteJson(Env& env, const std::string& path) const;
};

/// Thread-safe named-instrument registry. Get* registers on first use and
/// returns the existing instrument afterwards; returned pointers stay valid
/// for the registry's lifetime. Lookups take a mutex — bind instruments once
/// at component construction, not per operation.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry (never destroyed, so instruments outlive
  /// static-destruction-order hazards).
  static MetricsRegistry& Default();
  /// `*registry`, or Default() when it is null: what a component binds to.
  static MetricsRegistry& OrDefault(MetricsRegistry* registry) {
    return registry != nullptr ? *registry : Default();
  }

  Counter* GetCounter(const std::string& name) SMK_EXCLUDES(mu_);
  Gauge* GetGauge(const std::string& name) SMK_EXCLUDES(mu_);
  /// First registration fixes the boundaries; later calls with the same name
  /// return the existing histogram regardless of the boundaries argument.
  Histogram* GetHistogram(const std::string& name, std::span<const double> boundaries)
      SMK_EXCLUDES(mu_);
  /// Stage-timer histogram with LatencyBoundariesSeconds().
  Histogram* GetStageHistogram(const std::string& name) {
    return GetHistogram(name, LatencyBoundariesSeconds());
  }

  MetricsSnapshot Snapshot() const SMK_EXCLUDES(mu_);

 private:
  mutable Mutex mu_;
  // std::map: stable pointers (node-based) AND name-sorted snapshots.
  std::map<std::string, std::unique_ptr<Counter>> counters_ SMK_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ SMK_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_ SMK_GUARDED_BY(mu_);
};

/// RAII stage timer: starts on construction, observes elapsed seconds into
/// `hist` exactly once, on Stop() or destruction. A null histogram makes the
/// span a pure stopwatch (callers wire metrics optionally without branching).
class ScopedSpan {
 public:
  explicit ScopedSpan(Histogram* hist) : hist_(hist) {}
  ~ScopedSpan() { Stop(); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Stops the span and records it; returns the elapsed seconds. Further
  /// calls are no-ops returning the same value.
  double Stop() {
    if (!stopped_) {
      elapsed_sec_ = timer_.ElapsedSeconds();
      if (hist_ != nullptr) hist_->Observe(elapsed_sec_);
      stopped_ = true;
    }
    return elapsed_sec_;
  }

 private:
  Histogram* hist_;
  Timer timer_;
  bool stopped_ = false;
  double elapsed_sec_ = 0.0;
};

}  // namespace util
}  // namespace smokescreen

#endif  // SMOKESCREEN_UTIL_METRICS_H_
