#include "trace.h"

#include <chrono>
#include <fstream>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

struct OpenSpan {
  int64_t id;
  int64_t request;
};

int ThreadIndex() {
  static std::atomic<int> next{0};
  thread_local int index = next.fetch_add(1);
  return index;
}

/// Spans open on this thread, innermost last.
std::vector<OpenSpan>& OpenStack() {
  thread_local std::vector<OpenSpan> stack;
  return stack;
}

}  // namespace

int64_t SpanLog::Open(const char* name, int64_t request) {
  std::vector<OpenSpan>& stack = OpenStack();
  SpanRecord record;
  record.name = name;
  record.thread = ThreadIndex();
  if (!stack.empty()) {
    record.parent = stack.back().id;
    if (request < 0) request = stack.back().request;
  }
  record.request = request >= 0 ? request : ambient_request_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    record.id = static_cast<int64_t>(spans_.size());
    spans_.push_back(record);
  }
  stack.push_back({record.id, record.request});
  // Read the clock last so the bookkeeping above is outside the span.
  const int64_t start = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(record.id)].start_ns = start;
  return record.id;
}

void SpanLog::Close(int64_t id) {
  const int64_t end = NowNs();
  std::vector<OpenSpan>& stack = OpenStack();
  if (!stack.empty() && stack.back().id == id) stack.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_ns = end;
}

std::vector<SpanRecord> SpanLog::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

Status SpanLog::WriteJson(const std::string& path) const {
  std::vector<SpanRecord> spans = Snapshot();
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::IoError("cannot open " + path);
  out << "{\"spans\": [\n";
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    out << "{\"id\": " << s.id << ", \"name\": \"" << s.name << "\", \"start_ns\": " << s.start_ns
        << ", \"end_ns\": " << s.end_ns << ", \"parent\": " << s.parent
        << ", \"request\": " << s.request << ", \"thread\": " << s.thread << "}"
        << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  out.close();
  if (!out) return Status::IoError("write failed: " + path);
  return Status::OK();
}

Scope::Scope(SpanLog* log, const char* name, int64_t request) : log_(log) {
  if (log_ != nullptr) id_ = log_->Open(name, request);
  start_ns_ = NowNs();
}

double Scope::Stop() {
  if (end_ns_ < 0) {
    end_ns_ = NowNs();
    if (log_ != nullptr) log_->Close(id_);
  }
  return static_cast<double>(end_ns_ - start_ns_) * 1e-9;
}

TimedDetector::TimedDetector(std::unique_ptr<smokescreen::detect::Detector> inner,
                             SpanLog* log)
    : inner_(std::move(inner)), log_(log) {}

Result<int> TimedDetector::CountDetections(const smokescreen::video::VideoDataset& dataset,
                                           int64_t frame_index, int resolution,
                                           smokescreen::video::ObjectClass cls,
                                           double contrast_scale) const {
  Scope scope(log_, "detect.kernel");
  Result<int> count =
      inner_->CountDetections(dataset, frame_index, resolution, cls, contrast_scale);
  busy_ns_.fetch_add(static_cast<int64_t>(scope.Stop() * 1e9), std::memory_order_relaxed);
  calls_.fetch_add(1, std::memory_order_relaxed);
  frames_.fetch_add(1, std::memory_order_relaxed);
  return count;
}

Status TimedDetector::CountBatch(const smokescreen::video::VideoDataset& dataset,
                                 std::span<const int64_t> frame_indices, int resolution,
                                 smokescreen::video::ObjectClass cls, double contrast_scale,
                                 std::span<int> out) const {
  Scope scope(log_, "detect.kernel");
  Status status =
      inner_->CountBatch(dataset, frame_indices, resolution, cls, contrast_scale, out);
  busy_ns_.fetch_add(static_cast<int64_t>(scope.Stop() * 1e9), std::memory_order_relaxed);
  calls_.fetch_add(1, std::memory_order_relaxed);
  frames_.fetch_add(static_cast<int64_t>(frame_indices.size()), std::memory_order_relaxed);
  return status;
}

}  // namespace perfbench
