// Benchmark-side tracing for the profile-request benchmark.
//
// Spans are recorded around each call the benchmark makes into a src/ layer
// (video, detect, query, core, engine) and, through TimedDetector, around
// every Detector::CountBatch the program issues. Nothing here is compiled
// into src/: the program is measured through its public entry points only.
//
// A span carries its name ("<layer>.<call>"), start and end on the steady
// clock, the id of the span that was open on the same thread when it began
// (its parent), the request it belongs to, and a dense thread index. Spans
// stay in memory and are written as JSON once, at exit.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "detect/detector.h"
#include "util/status.h"

namespace perfbench {

using smokescreen::util::Result;
using smokescreen::util::Status;

int64_t NowNs();

struct SpanRecord {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t id = 0;
  int64_t parent = -1;   // -1: no enclosing span on this thread.
  int64_t request = -1;  // -1: outside any request.
  int thread = 0;
};

class SpanLog {
 public:
  /// Opens a span on the calling thread and returns its id.
  int64_t Open(const char* name, int64_t request);
  /// Closes span `id` (opened on the calling thread).
  void Close(int64_t id);

  /// Request that spans opened on threads with no enclosing span belong to
  /// (executor workers running a single client's kernel calls); -1 = none.
  void set_ambient_request(int64_t request) {
    ambient_request_.store(request, std::memory_order_relaxed);
  }

  std::vector<SpanRecord> Snapshot() const;
  Status WriteJson(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
  std::atomic<int64_t> ambient_request_{-1};
};

/// Times one call into a layer. With a log it records a span; without one
/// (untraced runs) it only reads the clock, so both modes share the timing
/// code and the untraced run pays two clock reads per call.
class Scope {
 public:
  Scope(SpanLog* log, const char* name, int64_t request = -1);
  ~Scope() { Stop(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// Ends the span (idempotent) and returns its length in seconds.
  double Stop();

 private:
  SpanLog* log_;
  int64_t id_ = -1;
  int64_t start_ns_;
  int64_t end_ns_ = -1;
};

/// Forwarding Detector that times the kernel. Every identity accessor is
/// forwarded, so the memo keys, the determinism hash and the profile are the
/// same as with the bare model; only the clock reads are added.
class TimedDetector : public smokescreen::detect::Detector {
 public:
  TimedDetector(std::unique_ptr<smokescreen::detect::Detector> inner, SpanLog* log);

  const std::string& name() const override { return inner_->name(); }
  uint64_t model_id() const override { return inner_->model_id(); }
  int max_resolution() const override { return inner_->max_resolution(); }
  int resolution_stride() const override { return inner_->resolution_stride(); }

  Result<int> CountDetections(const smokescreen::video::VideoDataset& dataset,
                              int64_t frame_index, int resolution,
                              smokescreen::video::ObjectClass cls,
                              double contrast_scale) const override;
  Status CountBatch(const smokescreen::video::VideoDataset& dataset,
                    std::span<const int64_t> frame_indices, int resolution,
                    smokescreen::video::ObjectClass cls, double contrast_scale,
                    std::span<int> out) const override;

  /// Busy time summed over every thread that ran the kernel.
  int64_t busy_ns() const { return busy_ns_.load(std::memory_order_relaxed); }
  int64_t calls() const { return calls_.load(std::memory_order_relaxed); }
  int64_t frames() const { return frames_.load(std::memory_order_relaxed); }

 private:
  std::unique_ptr<smokescreen::detect::Detector> inner_;
  SpanLog* log_;
  mutable std::atomic<int64_t> busy_ns_{0};
  mutable std::atomic<int64_t> calls_{0};
  mutable std::atomic<int64_t> frames_{0};
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
