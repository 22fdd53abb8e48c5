#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "util/metrics.h"

namespace smokescreen {
namespace util {
namespace {

TEST(ThreadPoolTest, ResolveThreadCount) {
  EXPECT_EQ(ThreadPool::ResolveThreadCount(5), 5);
  EXPECT_EQ(ThreadPool::ResolveThreadCount(1), 1);
  EXPECT_GE(ThreadPool::ResolveThreadCount(0), 1);
  EXPECT_GE(ThreadPool::ResolveThreadCount(-3), 1);
}

/// Spins until `count` is positive or 5 s pass. Called from a chunk on the
/// calling thread, it holds that chunk open until a worker has taken one.
void AwaitPositive(const std::atomic<int>& count) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (count.load() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
}

TEST(ThreadPoolTest, SingleThreadRunsInline) {
  // A width-1 pool starts no worker: ParallelFor runs the chunk loop on the
  // calling thread, serially and in chunk order, before it returns.
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::pair<int64_t, int64_t>> chunks;  // Plain: single-threaded by contract.
  pool.ParallelFor(3, 40, 8, [&](int64_t begin, int64_t end) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    chunks.emplace_back(begin, end);
  });
  const std::vector<std::pair<int64_t, int64_t>> expected = {
      {3, 11}, {11, 19}, {19, 27}, {27, 35}, {35, 40}};
  EXPECT_EQ(chunks, expected);
}

TEST(ThreadPoolTest, RunsEveryTask) {
  // Several threads outside the pool call ParallelFor on it at once, as the
  // serving layer's sessions do. Their helper tokens share one queue, yet
  // each call returns only once its own range has run, and runs no chunk of
  // another call.
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  constexpr int kCallers = 4;
  constexpr int kCalls = 50;
  constexpr int64_t kRange = 64;
  std::atomic<int64_t> total{0};
  std::atomic<int> wrong_calls{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&pool, &total, &wrong_calls] {
      for (int call = 0; call < kCalls; ++call) {
        std::atomic<int64_t> covered{0};
        pool.ParallelFor(0, kRange, 4, [&covered](int64_t begin, int64_t end) {
          covered.fetch_add(end - begin);
        });
        if (covered.load() != kRange) wrong_calls.fetch_add(1);
        total.fetch_add(covered.load());
      }
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(wrong_calls.load(), 0);
  EXPECT_EQ(total.load(), kCallers * kCalls * kRange);
}

TEST(ThreadPoolTest, WaitBlocksUntilTasksFinish) {
  // ParallelFor must wait for chunks still running on workers, not only for
  // the last chunk to be claimed. The caller holds its first chunk until a
  // worker has one, and a worker's chunks finish 5 ms after they start, so
  // the caller runs out of chunks while a worker's is still in flight.
  ThreadPool pool(2);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> worker_chunks{0};
  std::atomic<int> done{0};
  pool.ParallelFor(0, 8, 1, [&](int64_t, int64_t) {
    if (std::this_thread::get_id() == caller) {
      AwaitPositive(worker_chunks);
    } else {
      worker_chunks.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    done.fetch_add(1);
  });
  EXPECT_EQ(done.load(), 8);
  EXPECT_GT(worker_chunks.load(), 0);
}

TEST(ThreadPoolTest, TasksWriteToOwnSlots) {
  // The profiler's usage pattern: each chunk writes its own slots of a
  // pre-sized plain vector, and the caller reads them in canonical order
  // once ParallelFor returns. The caller holds its first chunk until a
  // worker has one, so some slots are always written on another thread.
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> worker_chunks{0};
  std::vector<int> slots(64, 0);
  pool.ParallelFor(0, static_cast<int64_t>(slots.size()), 4, [&](int64_t begin, int64_t end) {
    if (std::this_thread::get_id() == caller) {
      AwaitPositive(worker_chunks);
    } else {
      worker_chunks.fetch_add(1);
    }
    for (int64_t i = begin; i < end; ++i) slots[static_cast<size_t>(i)] = static_cast<int>(i) + 1;
  });
  EXPECT_GT(worker_chunks.load(), 0);
  for (size_t i = 0; i < slots.size(); ++i) {
    EXPECT_EQ(slots[i], static_cast<int>(i) + 1) << "slot " << i;
  }
}

// ---------------------------------------------------------------------------
// Bulk ParallelFor: coverage, chunk determinism, nesting, and the queue and
// parking machinery under hostile schedules.
// ---------------------------------------------------------------------------

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr int64_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelFor(0, kN, 64, [&hits](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (int64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, ChunkBoundariesAreAPureFunctionOfTheArguments) {
  // The chunk partition [first + k*min_chunk, ...) must depend only on
  // (first, last, min_chunk) — NEVER on worker count or claim order. This is
  // what lets chunked miss-batches stay bit-identical across pool widths.
  constexpr int64_t kFirst = 5, kLast = 998, kChunk = 64;
  std::set<std::pair<int64_t, int64_t>> expected;
  for (int64_t b = kFirst; b < kLast; b += kChunk) {
    expected.emplace(b, std::min(kLast, b + kChunk));
  }
  for (int threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    std::mutex mu;
    std::set<std::pair<int64_t, int64_t>> seen;
    pool.ParallelFor(kFirst, kLast, kChunk, [&](int64_t begin, int64_t end) {
      std::lock_guard<std::mutex> lock(mu);
      ASSERT_TRUE(seen.emplace(begin, end).second)
          << "duplicate chunk [" << begin << ", " << end << ")";
    });
    EXPECT_EQ(seen, expected) << "threads " << threads;
  }
}

TEST(ParallelForTest, EmptyAndUndersizedRanges) {
  ThreadPool pool(4);
  std::atomic<int64_t> sum{0};
  pool.ParallelFor(3, 3, 16, [&](int64_t, int64_t) { sum.fetch_add(1); });
  EXPECT_EQ(sum.load(), 0);  // Empty range: body never invoked.
  pool.ParallelFor(10, 13, 100, [&](int64_t begin, int64_t end) {
    sum.fetch_add(end - begin);
  });
  EXPECT_EQ(sum.load(), 3);  // One chunk covering the whole short range.
}

TEST(ParallelForTest, SingleChunkRunsOnTheCallerAndQueuesNoToken) {
  // A range that fits one chunk leaves nothing for a worker: the caller
  // runs the chunk itself, no helper token is queued, and the chunk still
  // counts once in tasks_run.
  MetricsRegistry registry;
  const Gauge* depth = registry.GetGauge("thread_pool.queue_depth");
  ThreadPool pool(4, &registry);
  const std::thread::id caller = std::this_thread::get_id();
  const std::vector<std::pair<int64_t, int64_t>> expected = {{0, 10}};
  for (int call = 0; call < 100; ++call) {
    std::vector<std::pair<int64_t, int64_t>> chunks;  // Plain: runs on the caller.
    std::thread::id ran_on;
    pool.ParallelFor(0, 10, 16, [&](int64_t begin, int64_t end) {
      chunks.emplace_back(begin, end);
      ran_on = std::this_thread::get_id();
    });
    ASSERT_EQ(chunks, expected) << "call " << call;
    ASSERT_EQ(ran_on, caller) << "call " << call;
    ASSERT_EQ(depth->Value(), 0) << "call " << call;
  }
  EXPECT_EQ(registry.Snapshot().counter("thread_pool.tasks_run"), 100);
}

TEST(ParallelForTest, NestedCallsRunInlineWithoutDeadlock) {
  // A body that calls ParallelFor on the SAME pool must not deadlock: from a
  // worker thread the nested loop runs inline and serially. This is what
  // makes it safe to hand one shared executor to both the profiler and the
  // output source underneath it.
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> worker_chunks{0};
  std::atomic<int64_t> total{0};
  pool.ParallelFor(0, 8, 1, [&](int64_t begin, int64_t end) {
    const std::thread::id outer = std::this_thread::get_id();
    if (outer == caller) {
      // Hold the caller's chunk until a worker has one, so the inline check
      // below runs at least once.
      AwaitPositive(worker_chunks);
    } else {
      worker_chunks.fetch_add(1);
    }
    for (int64_t i = begin; i < end; ++i) {
      pool.ParallelFor(0, 100, 10, [&](int64_t b, int64_t e) {
        // A worker runs its nested loop on its own thread. The caller is no
        // worker, so its nested chunks may run anywhere.
        if (outer != caller) {
          EXPECT_EQ(std::this_thread::get_id(), outer);
        }
        total.fetch_add(e - b);
      });
    }
  });
  EXPECT_GT(worker_chunks.load(), 0);
  EXPECT_EQ(total.load(), 8 * 100);
}

TEST(ParallelForTest, SkewedWorkloadCompletesViaStealing) {
  // Chunk 0 is three orders of magnitude slower than the rest. With
  // min_chunk 1 every index is a separate chunk, so the other threads must
  // claim the remainder while one is stuck — the loop still returns only
  // when ALL indices ran.
  ThreadPool pool(4);
  constexpr int64_t kN = 2000;
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelFor(0, kN, 1, [&hits](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      if (i == 0) std::this_thread::sleep_for(std::chrono::milliseconds(20));
      hits[i].fetch_add(1);
    }
  });
  for (int64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParkUnparkChurnKeepsExactCounts) {
  // Waves separated by idle gaps long enough for workers to spin out and
  // park; every wave must wake them and lose no chunk.
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  int expected = 0;
  for (int wave = 0; wave < 40; ++wave) {
    pool.ParallelFor(0, 64, 8, [&counter](int64_t begin, int64_t end) {
      counter.fetch_add(static_cast<int>(end - begin));
    });
    expected += 64;
    ASSERT_EQ(counter.load(), expected) << "wave " << wave;
    if (wave % 8 == 0) std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

TEST(ThreadPoolTest, ReusableAcrossWaves) {
  // One pool serves calls of every shape in turn: bulk, single-chunk (run
  // inline), empty, and offset into negative indices. Each call has run,
  // and counted, every chunk of its range by the time it returns.
  MetricsRegistry registry;
  ThreadPool pool(3, &registry);
  struct Shape {
    int64_t first, last, chunk;
  };
  const std::vector<Shape> shapes = {{0, 64, 8}, {0, 5, 10}, {7, 7, 1}, {-40, 61, 3}, {0, 1, 1}};
  std::atomic<int64_t> covered{0};
  int64_t expected_covered = 0;
  int64_t expected_chunks = 0;
  for (int wave = 0; wave < 15; ++wave) {
    const Shape& s = shapes[static_cast<size_t>(wave) % shapes.size()];
    pool.ParallelFor(s.first, s.last, s.chunk, [&covered](int64_t begin, int64_t end) {
      covered.fetch_add(end - begin);
    });
    const int64_t n = s.last - s.first;
    expected_covered += n;
    expected_chunks += (n + s.chunk - 1) / s.chunk;
    ASSERT_EQ(covered.load(), expected_covered) << "wave " << wave;
    ASSERT_EQ(registry.Snapshot().counter("thread_pool.tasks_run"), expected_chunks)
        << "wave " << wave;
  }
}

TEST(ThreadPoolTest, ParkedWorkerWakesForParallelFor) {
  // Regression for a lost wakeup: every third round first sleeps long
  // enough for both workers to spin out and park. Each chunk then waits for
  // the other one to start. The caller can sit in only one of the two
  // chunks, so the other runs only if a parked worker woke for its token;
  // a lost wakeup times the wait out and fails the round instead of
  // hanging the test.
  ThreadPool pool(2);
  for (int round = 0; round < 400; ++round) {
    if (round % 3 == 0) std::this_thread::sleep_for(std::chrono::microseconds(200));
    std::atomic<int> started{0};
    std::atomic<int> met{0};
    pool.ParallelFor(0, 2, 1, [&](int64_t, int64_t) {
      started.fetch_add(1);
      const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
      while (started.load() < 2 && std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
      if (started.load() == 2) met.fetch_add(1);
    });
    ASSERT_EQ(met.load(), 2) << "lost wakeup at round " << round;
  }
}

TEST(ThreadPoolTest, QueueDepthGaugeNeverGoesNegative) {
  // The gauge is incremented BEFORE a helper token becomes dequeuable and
  // decremented only AFTER it is dequeued, so a concurrent sampler must
  // never observe a negative depth. A call queues no more tokens than it
  // has chunks beyond the caller's first, but a token may still be queued
  // when ParallelFor returns if the caller and the awake workers ran every
  // chunk before a parked worker woke for it. A destroyed pool has drained
  // them all, so the depth then reads 0.
  MetricsRegistry registry;
  Gauge* depth = registry.GetGauge("thread_pool.queue_depth");
  std::atomic<bool> stop{false};
  std::atomic<bool> went_negative{false};
  std::thread sampler([&] {
    while (!stop.load()) {
      if (depth->Value() < 0) went_negative.store(true);
    }
  });
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4, &registry);
    for (int wave = 0; wave < 20; ++wave) {
      pool.ParallelFor(0, 500, 16, [&counter](int64_t begin, int64_t end) {
        counter.fetch_add(static_cast<int>(end - begin));
      });
    }
  }
  stop.store(true);
  sampler.join();
  EXPECT_FALSE(went_negative.load());
  EXPECT_EQ(depth->Value(), 0);
  EXPECT_EQ(counter.load(), 20 * 500);
  // tasks_run counts every executed ParallelFor chunk (ceil(500/16) = 32
  // chunks per wave), wherever it ran.
  EXPECT_EQ(registry.Snapshot().counter("thread_pool.tasks_run"), 20 * 32);
}

TEST(ThreadPoolTest, TwoChunkCallLeavesNoTokenQueued) {
  // The caller runs one chunk itself, so a 2-chunk call queues exactly one
  // helper token. Each chunk waits for the other one to start, so a worker
  // has dequeued that token before the call returns, and the depth gauge
  // reads 0 after every call. A token beyond the chunks the workers can use
  // would stay queued and keep the gauge above 0.
  MetricsRegistry registry;
  const Gauge* depth = registry.GetGauge("thread_pool.queue_depth");
  ThreadPool pool(4, &registry);
  for (int call = 0; call < 200; ++call) {
    std::atomic<int> started{0};
    pool.ParallelFor(0, 2, 1, [&started](int64_t, int64_t) {
      started.fetch_add(1);
      const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
      while (started.load() < 2 && std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
    });
    ASSERT_EQ(started.load(), 2) << "call " << call;
    ASSERT_EQ(depth->Value(), 0) << "call " << call;
  }
}

TEST(ThreadPoolTest, DestructorDrainsQueuedTasks) {
  // A 4-chunk call queues three helper tokens, and the caller often
  // finishes every chunk before a worker wakes for one, so ParallelFor
  // returns with tokens still queued; their wake-ups are already signalled.
  // Destroying the pool right then must still drain them: the depth gauge
  // returns to 0, and each token's reference to its call's descriptor is
  // dropped.
  MetricsRegistry registry;
  for (int round = 0; round < 200; ++round) {
    ThreadPool pool(4, &registry);
    pool.ParallelFor(0, 4, 1, [](int64_t, int64_t) {});
  }
  EXPECT_EQ(registry.GetGauge("thread_pool.queue_depth")->Value(), 0);
  EXPECT_EQ(registry.Snapshot().counter("thread_pool.tasks_run"), 200 * 4);
}

/// Observations in the thread_pool.task.seconds histogram of `registry`.
int64_t TaskSecondsCount(MetricsRegistry& registry) {
  MetricsSnapshot snapshot = registry.Snapshot();
  for (const HistogramSnapshot& h : snapshot.histograms) {
    if (h.name == "thread_pool.task.seconds") return h.count;
  }
  ADD_FAILURE() << "no thread_pool.task.seconds histogram";
  return -1;
}

TEST(ThreadPoolTest, NestedInlineChunksCountInsideTheirEnclosingTask) {
  // A worker runs a ParallelFor called from its own chunk inline, while that
  // chunk's span is still open. Telemetry counts only outermost units, so
  // tasks_run and the latency histogram's observation count both equal the
  // number of outer chunks. The caller holds its chunk until a worker has
  // one, so at least one nested call runs inline on a worker.
  MetricsRegistry registry;
  ThreadPool pool(4, &registry);
  const std::thread::id caller = std::this_thread::get_id();
  constexpr int64_t kOuter = 8;
  constexpr int64_t kRange = 100;
  std::atomic<int> worker_chunks{0};
  std::atomic<int64_t> covered{0};
  pool.ParallelFor(0, kOuter, 1, [&](int64_t, int64_t) {
    if (std::this_thread::get_id() == caller) {
      AwaitPositive(worker_chunks);
    } else {
      worker_chunks.fetch_add(1);
    }
    pool.ParallelFor(0, kRange, 10, [&covered](int64_t begin, int64_t end) {
      covered.fetch_add(end - begin);
    });
  });
  EXPECT_GT(worker_chunks.load(), 0);
  EXPECT_EQ(covered.load(), kOuter * kRange);
  EXPECT_EQ(registry.Snapshot().counter("thread_pool.tasks_run"), kOuter);
  EXPECT_EQ(TaskSecondsCount(registry), kOuter);
}

TEST(ThreadPoolTest, CallsInsideAChunkFromOutsideThePoolCountOnlyTheOuterChunks) {
  // The test thread is no worker, so a ParallelFor called inside one of
  // its own chunks takes the bulk path, and the workers left idle by the
  // short outer range join it. Those chunks run inside the outer chunk's
  // span, whichever thread runs them, as do a width-1 pool's inline nested
  // chunks: only the outer chunks count.
  for (int width : {1, 4}) {
    MetricsRegistry registry;
    ThreadPool pool(width, &registry);
    constexpr int64_t kOuter = 4;
    constexpr int64_t kRange = 100;
    std::atomic<int64_t> covered{0};
    pool.ParallelFor(0, kOuter, 1, [&pool, &covered](int64_t, int64_t) {
      pool.ParallelFor(0, kRange, 5, [&covered](int64_t begin, int64_t end) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        covered.fetch_add(end - begin);
      });
    });
    EXPECT_EQ(covered.load(), kOuter * kRange) << "width " << width;
    EXPECT_EQ(registry.Snapshot().counter("thread_pool.tasks_run"), kOuter) << "width " << width;
    EXPECT_EQ(TaskSecondsCount(registry), kOuter) << "width " << width;
  }
}

TEST(ThreadPoolTest, InlinePoolSupportsParallelForAndNesting) {
  // Width 1 never spawns threads: ParallelFor must run inline, on the
  // calling thread, with the same chunk partition as any pooled run.
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int> hits(100, 0);  // Plain ints: single-threaded by contract.
  pool.ParallelFor(0, 100, 7, [&](int64_t begin, int64_t end) {
    pool.ParallelFor(begin, end, 3, [&](int64_t b, int64_t e) {
      EXPECT_EQ(std::this_thread::get_id(), caller);
      for (int64_t i = b; i < e; ++i) hits[i] += 1;
    });
  });
  for (int i = 0; i < 100; ++i) ASSERT_EQ(hits[i], 1) << "index " << i;
}

}  // namespace
}  // namespace util
}  // namespace smokescreen
