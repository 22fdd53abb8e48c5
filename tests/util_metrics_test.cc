// util::metrics: sharded-counter exactness under contention, histogram
// bucket semantics, RAII spans, and snapshot serialization through the Env
// seam (atomic JSON export survives injected faults; the JSON escapes any
// name and carries every bit of its doubles).

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "util/env.h"
#include "util/metrics.h"

namespace smokescreen {
namespace util {
namespace {

std::string ReadAll(const std::string& path) {
  std::ifstream in(path);
  std::stringstream content;
  content << in.rdbuf();
  return content.str();
}

TEST(CounterTest, AddsAndSums) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("test.counter");
  EXPECT_EQ(c->Value(), 0);
  c->Increment();
  c->Add(41);
  EXPECT_EQ(c->Value(), 42);
  EXPECT_EQ(c->name(), "test.counter");
}

TEST(CounterTest, LookupByNameReturnsSameInstrument) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("same.name");
  Counter* b = registry.GetCounter("same.name");
  EXPECT_EQ(a, b);
  a->Increment();
  EXPECT_EQ(b->Value(), 1);
  EXPECT_NE(registry.GetCounter("other.name"), a);
}

TEST(CounterTest, ExactUnderContention) {
  // The acceptance bar for every counter in the system: integer adds into
  // per-thread cells commute, so the summed total is bit-exact at any thread
  // count — never approximate.
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("contended");
  constexpr int kThreads = 8;
  constexpr int kIncrements = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([c] {
      for (int i = 0; i < kIncrements; ++i) c->Increment();
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(c->Value(), int64_t{kThreads} * kIncrements);
}

TEST(CounterTest, ComponentCounterReadsItsOwnTallyAndAddsToTheTotal) {
  // Each component counter reads only its own adds; the registry counter of
  // its name sums every component's, exactly at 8 threads, and keeps the
  // adds of a component that is already gone.
  MetricsRegistry registry;
  Counter* total = registry.GetCounter("component.fact");
  {
    Counter gone(total);
    gone.Add(5);
    EXPECT_EQ(gone.Value(), 5);
    EXPECT_EQ(gone.name(), "component.fact");
  }
  EXPECT_EQ(total->Value(), 5);

  Counter a(total);
  Counter b(total);
  constexpr int kThreads = 8;
  constexpr int kIncrements = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&a, &b] {
      for (int i = 0; i < kIncrements; ++i) {
        a.Increment();
        b.Add(2);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(a.Value(), int64_t{kThreads} * kIncrements);
  EXPECT_EQ(b.Value(), 2 * int64_t{kThreads} * kIncrements);
  EXPECT_EQ(total->Value(), 5 + 3 * int64_t{kThreads} * kIncrements);
  EXPECT_EQ(registry.Snapshot().counter("component.fact"), total->Value());
}

TEST(GaugeTest, SetAndAdd) {
  MetricsRegistry registry;
  Gauge* g = registry.GetGauge("depth");
  g->Set(5);
  EXPECT_EQ(g->Value(), 5);
  g->Add(-2);
  EXPECT_EQ(g->Value(), 3);
  g->Set(0);
  EXPECT_EQ(g->Value(), 0);
}

TEST(HistogramTest, BucketBoundariesAreInclusiveUpperBounds) {
  MetricsRegistry registry;
  const std::vector<double> bounds = {1.0, 10.0, 100.0};
  Histogram* h = registry.GetHistogram("hist", bounds);
  h->Observe(0.5);    // <= 1      -> bucket 0
  h->Observe(1.0);    // == 1      -> bucket 0 (le convention)
  h->Observe(1.0001); // <= 10     -> bucket 1
  h->Observe(10.0);   // == 10     -> bucket 1
  h->Observe(99.0);   // <= 100    -> bucket 2
  h->Observe(1000.0); // overflow  -> bucket 3
  EXPECT_EQ(h->TotalCount(), 6);
  EXPECT_EQ(h->BucketCounts(), (std::vector<int64_t>{2, 2, 1, 1}));
  EXPECT_DOUBLE_EQ(h->Sum(), 0.5 + 1.0 + 1.0001 + 10.0 + 99.0 + 1000.0);
  EXPECT_GT(h->Mean(), 0.0);
}

TEST(HistogramTest, BoundariesAreSortedAndDeduplicated) {
  MetricsRegistry registry;
  const std::vector<double> messy = {10.0, 1.0, 10.0, 5.0};
  Histogram* h = registry.GetHistogram("messy", messy);
  EXPECT_EQ(h->boundaries(), (std::vector<double>{1.0, 5.0, 10.0}));
  EXPECT_EQ(h->BucketCounts().size(), 4u);  // + overflow.
}

TEST(HistogramTest, FirstRegistrationFixesBoundaries) {
  MetricsRegistry registry;
  const std::vector<double> first = {1.0, 2.0};
  const std::vector<double> second = {100.0};
  Histogram* a = registry.GetHistogram("fixed", first);
  Histogram* b = registry.GetHistogram("fixed", second);
  EXPECT_EQ(a, b);
  EXPECT_EQ(b->boundaries(), first);
}

TEST(HistogramTest, ExactCountsUnderContention) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("contended.hist", BatchSizeBoundaries());
  constexpr int kThreads = 8;
  constexpr int kObservations = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([h, t] {
      for (int i = 0; i < kObservations; ++i) h->Observe(static_cast<double>(t + 1));
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(h->TotalCount(), int64_t{kThreads} * kObservations);
  int64_t bucket_total = 0;
  for (int64_t b : h->BucketCounts()) bucket_total += b;
  EXPECT_EQ(bucket_total, h->TotalCount());
}

TEST(ScopedSpanTest, ObservesExactlyOnce) {
  MetricsRegistry registry;
  Histogram* h = registry.GetStageHistogram("span.seconds");
  {
    ScopedSpan span(h);
    double first = span.Stop();
    EXPECT_GE(first, 0.0);
    EXPECT_EQ(span.Stop(), first);  // Idempotent, same value.
  }  // Destructor after Stop(): still one observation.
  EXPECT_EQ(h->TotalCount(), 1);
  {
    ScopedSpan span(h);  // Destructor-only path.
  }
  EXPECT_EQ(h->TotalCount(), 2);
}

TEST(ScopedSpanTest, NullHistogramIsAPureStopwatch) {
  ScopedSpan span(nullptr);
  EXPECT_GE(span.Stop(), 0.0);  // No crash, no observation target.
}

TEST(RegistryTest, SnapshotIsNameSortedAndComplete) {
  MetricsRegistry registry;
  registry.GetCounter("b.counter")->Add(2);
  registry.GetCounter("a.counter")->Add(1);
  registry.GetGauge("z.gauge")->Set(-7);
  registry.GetHistogram("h.hist", std::vector<double>{1.0})->Observe(0.5);
  MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.counters.size(), 2u);
  EXPECT_EQ(snapshot.counters[0].first, "a.counter");
  EXPECT_EQ(snapshot.counters[0].second, 1);
  EXPECT_EQ(snapshot.counters[1].first, "b.counter");
  EXPECT_EQ(snapshot.counters[1].second, 2);
  ASSERT_EQ(snapshot.gauges.size(), 1u);
  EXPECT_EQ(snapshot.gauges[0].second, -7);
  ASSERT_EQ(snapshot.histograms.size(), 1u);
  EXPECT_EQ(snapshot.histograms[0].count, 1);
  EXPECT_EQ(snapshot.histograms[0].buckets, (std::vector<int64_t>{1, 0}));
  // counter() helper: present and absent names.
  EXPECT_EQ(snapshot.counter("a.counter"), 1);
  EXPECT_EQ(snapshot.counter("never.registered"), 0);
}

TEST(RegistryTest, SnapshotsAreFrozenSoDeltasMeasureOneRun) {
  // Counters only go up, so a caller measures one run as the difference of
  // two snapshots. Taking a snapshot disturbs no instrument, and a snapshot
  // keeps its values when the instruments move on.
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("run.calls");
  Histogram* h = registry.GetHistogram("run.frames", std::vector<double>{10.0});
  c->Add(7);
  h->Observe(4.0);
  const MetricsSnapshot before = registry.Snapshot();
  c->Add(5);
  h->Observe(20.0);
  h->Observe(2.0);
  const MetricsSnapshot after = registry.Snapshot();

  EXPECT_EQ(before.counter("run.calls"), 7);
  EXPECT_EQ(after.counter("run.calls") - before.counter("run.calls"), 5);
  EXPECT_EQ(c->Value(), 12);
  ASSERT_EQ(before.histograms.size(), 1u);
  ASSERT_EQ(after.histograms.size(), 1u);
  EXPECT_EQ(before.histograms[0].count, 1);
  EXPECT_EQ(before.histograms[0].buckets, (std::vector<int64_t>{1, 0}));
  EXPECT_EQ(after.histograms[0].count - before.histograms[0].count, 2);
  EXPECT_DOUBLE_EQ(after.histograms[0].sum - before.histograms[0].sum, 22.0);
  EXPECT_EQ(after.histograms[0].buckets, (std::vector<int64_t>{2, 1}));
}

TEST(RegistryTest, DefaultIsAStableSingleton) {
  MetricsRegistry& a = MetricsRegistry::Default();
  MetricsRegistry& b = MetricsRegistry::Default();
  EXPECT_EQ(&a, &b);
}

TEST(SnapshotTest, ToJsonShape) {
  MetricsRegistry registry;
  registry.GetCounter("counts.\"quoted\"")->Add(3);
  registry.GetGauge("depth")->Set(2);
  registry.GetHistogram("lat", std::vector<double>{0.5})->Observe(0.25);
  std::string json = registry.Snapshot().ToJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"counts.\\\"quoted\\\"\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"depth\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos);
  // The overflow bucket's le is null.
  EXPECT_NE(json.find("\"le\": null"), std::string::npos);
}

TEST(SnapshotTest, WriteJsonIsAtomicUnderRenameFaults) {
  MetricsRegistry registry;
  registry.GetCounter("persisted")->Add(9);
  std::string path = testing::TempDir() + "/smk_metrics.json";
  // Seed the path with a previous export.
  ASSERT_TRUE(registry.Snapshot().WriteJson(Env::Default(), path).ok());
  std::string before = ReadAll(path);
  ASSERT_FALSE(before.empty());

  // Now fail every rename: the export must error out and the previous file
  // must be byte-identical — a faulty save never destroys the last export.
  registry.GetCounter("persisted")->Add(1);
  FaultEnvProfile profile;
  profile.rename_fail_prob = 1.0;
  profile.seed = 3;
  auto env = FaultEnv::Create(profile);
  ASSERT_TRUE(env.ok());
  EXPECT_FALSE(registry.Snapshot().WriteJson(*env, path).ok());
  EXPECT_EQ(ReadAll(path), before);

  // A clean env succeeds and replaces the export.
  ASSERT_TRUE(registry.Snapshot().WriteJson(Env::Default(), path).ok());
  EXPECT_NE(ReadAll(path), before);
  std::remove(path.c_str());
}

TEST(SnapshotTest, ToJsonEscapesBackslashesAndControlCharacters) {
  MetricsRegistry registry;
  registry.GetCounter(std::string("a\\b\n\t\r") + '\x01')->Add(1);
  const std::string json = registry.Snapshot().ToJson();
  EXPECT_NE(json.find("\"a\\\\b\\n\\t\\r\\u0001\": 1"), std::string::npos) << json;
}

TEST(SnapshotTest, ToJsonOfAnEmptyRegistryIsThreeEmptyObjects) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.Snapshot().ToJson(),
            "{\n  \"counters\": {},\n  \"gauges\": {},\n  \"histograms\": {}\n}\n");
}

TEST(SnapshotTest, ToJsonHistogramNumbersParseBackExactly) {
  // Sums and bucket bounds are doubles; the export must carry every bit, so
  // a reader of the JSON sees the values the registry holds.
  MetricsRegistry registry;
  Histogram* hist = registry.GetHistogram("h", std::vector<double>{0.1, 1.0 / 3.0});
  hist->Observe(0.1);
  hist->Observe(0.2);
  const MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.histograms.size(), 1u);
  const HistogramSnapshot& frozen = snapshot.histograms[0];
  const std::string json = snapshot.ToJson();

  size_t at = json.find("\"sum\": ");
  ASSERT_NE(at, std::string::npos) << json;
  EXPECT_EQ(std::strtod(json.c_str() + at + 7, nullptr), frozen.sum);
  EXPECT_EQ(frozen.sum, 0.1 + 0.2);
  for (double bound : frozen.boundaries) {
    at = json.find("\"le\": ", at + 1);
    ASSERT_NE(at, std::string::npos) << json;
    EXPECT_EQ(std::strtod(json.c_str() + at + 6, nullptr), bound);
  }
  at = json.find("\"le\": ", at + 1);
  ASSERT_NE(at, std::string::npos) << json;
  EXPECT_EQ(json.compare(at + 6, 4, "null"), 0);
}

TEST(BoundariesTest, DefaultsAreAscending) {
  for (std::span<const double> bounds :
       {LatencyBoundariesSeconds(), BatchSizeBoundaries()}) {
    ASSERT_FALSE(bounds.empty());
    for (size_t i = 1; i < bounds.size(); ++i) EXPECT_LT(bounds[i - 1], bounds[i]);
  }
}

}  // namespace
}  // namespace util
}  // namespace smokescreen
