#include "util/metrics.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <thread>

namespace smokescreen {
namespace util {

namespace metrics_internal {

int ThisThreadCell() {
  // Hash the thread id once per thread; kNumCells is a power of two. A
  // thread keeps its cell for life, so a single-threaded caller touches
  // exactly one cache line per instrument.
  thread_local const int cell = [] {
    const size_t h = std::hash<std::thread::id>{}(std::this_thread::get_id());
    return static_cast<int>((h ^ (h >> 7)) & static_cast<size_t>(kNumCells - 1));
  }();
  return cell;
}

}  // namespace metrics_internal

namespace {

/// CAS-accumulate: relaxed order is enough — readers only ever see a sum
/// some interleaving of completed adds produces.
void AtomicAddDouble(std::atomic<double>& target, double delta) {
  double expected = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(expected, expected + delta, std::memory_order_relaxed)) {
  }
}

}  // namespace

Histogram::Histogram(std::string name, std::span<const double> boundaries)
    : name_(std::move(name)) {
  boundaries_.assign(boundaries.begin(), boundaries.end());
  std::sort(boundaries_.begin(), boundaries_.end());
  boundaries_.erase(std::unique(boundaries_.begin(), boundaries_.end()), boundaries_.end());
  const size_t num_buckets = boundaries_.size() + 1;
  for (Cell& cell : cells_) {
    cell.buckets = std::make_unique<std::atomic<int64_t>[]>(num_buckets);
    for (size_t b = 0; b < num_buckets; ++b) {
      cell.buckets[b].store(0, std::memory_order_relaxed);
    }
  }
}

void Histogram::Observe(double value) {
  const size_t bucket = static_cast<size_t>(
      std::upper_bound(boundaries_.begin(), boundaries_.end(), value) - boundaries_.begin());
  // upper_bound returns the first boundary > value, i.e. one PAST the bucket
  // whose boundary equals value — step back onto it so Observe(boundary)
  // counts as "<= boundary", the Prometheus "le" convention.
  const size_t idx = bucket > 0 && boundaries_[bucket - 1] == value ? bucket - 1 : bucket;
  Cell& cell = cells_[metrics_internal::ThisThreadCell()];
  cell.buckets[idx].fetch_add(1, std::memory_order_relaxed);
  cell.count.fetch_add(1, std::memory_order_relaxed);
  AtomicAddDouble(cell.sum, value);
}

int64_t Histogram::TotalCount() const {
  int64_t total = 0;
  for (const Cell& cell : cells_) total += cell.count.load(std::memory_order_relaxed);
  return total;
}

double Histogram::Sum() const {
  double total = 0.0;
  for (const Cell& cell : cells_) total += cell.sum.load(std::memory_order_relaxed);
  return total;
}

std::vector<int64_t> Histogram::BucketCounts() const {
  std::vector<int64_t> out(boundaries_.size() + 1, 0);
  for (const Cell& cell : cells_) {
    for (size_t b = 0; b < out.size(); ++b) {
      out[b] += cell.buckets[b].load(std::memory_order_relaxed);
    }
  }
  return out;
}

std::span<const double> LatencyBoundariesSeconds() {
  static const double kBounds[] = {1e-6, 3e-6, 1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3,
                                   1e-2, 3e-2, 0.1,  0.3,  1.0,  3.0,  10.0, 30.0,
                                   60.0};
  return kBounds;
}

std::span<const double> BatchSizeBoundaries() {
  static const double kBounds[] = {1,   2,   4,    8,    16,   32,  64,
                                   128, 256, 512,  1024, 2048, 4096, 8192};
  return kBounds;
}

MetricsRegistry& MetricsRegistry::Default() {
  // Leaked on purpose: components may record metrics during static
  // destruction; the registry must outlive every one of them.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  MutexLock lock(&mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(name, std::unique_ptr<Counter>(new Counter(name))).first;
  }
  return it->second.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  MutexLock lock(&mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(name, std::unique_ptr<Gauge>(new Gauge(name))).first;
  }
  return it->second.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         std::span<const double> boundaries) {
  MutexLock lock(&mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(name, std::unique_ptr<Histogram>(new Histogram(name, boundaries)))
             .first;
  }
  return it->second.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  MutexLock lock(&mu_);
  snap.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snap.counters.emplace_back(name, counter->Value());
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges.emplace_back(name, gauge->Value());
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, hist] : histograms_) {
    HistogramSnapshot h;
    h.name = name;
    h.boundaries = hist->boundaries();
    h.buckets = hist->BucketCounts();
    h.count = hist->TotalCount();
    h.sum = hist->Sum();
    snap.histograms.push_back(std::move(h));
  }
  return snap;
}

int64_t MetricsSnapshot::counter(const std::string& name) const {
  for (const auto& [n, v] : counters) {
    if (n == name) return v;
  }
  return 0;
}

namespace {

/// JSON string escape for metric names (dot/alnum in practice, but exports
/// must stay parseable whatever callers register).
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char ch : s) {
    switch (ch) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

/// Shortest-round-trip double — "%.17g" always parses back exactly and
/// stays a valid JSON number for every finite value.
std::string JsonNumber(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters) {
    out += first ? "\n" : ",\n";
    out += "    \"" + JsonEscape(name) + "\": " + std::to_string(value);
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : gauges) {
    out += first ? "\n" : ",\n";
    out += "    \"" + JsonEscape(name) + "\": " + std::to_string(value);
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const HistogramSnapshot& hist : histograms) {
    out += first ? "\n" : ",\n";
    out += "    \"" + JsonEscape(hist.name) + "\": {\"count\": " + std::to_string(hist.count) +
           ", \"sum\": " + JsonNumber(hist.sum) + ", \"buckets\": [";
    for (size_t b = 0; b < hist.buckets.size(); ++b) {
      if (b > 0) out += ", ";
      out += "{\"le\": ";
      out += b < hist.boundaries.size() ? JsonNumber(hist.boundaries[b]) : std::string("null");
      out += ", \"count\": " + std::to_string(hist.buckets[b]) + "}";
    }
    out += "]}";
    first = false;
  }
  out += first ? "}\n}\n" : "\n  }\n}\n";
  return out;
}

Status MetricsSnapshot::WriteJson(Env& env, const std::string& path) const {
  const std::string json = ToJson();
  return env.WriteFileAtomic(
      path, std::span<const unsigned char>(reinterpret_cast<const unsigned char*>(json.data()),
                                           json.size()));
}

}  // namespace util
}  // namespace smokescreen
