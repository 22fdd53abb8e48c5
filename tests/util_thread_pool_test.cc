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

TEST(ThreadPoolTest, SingleThreadRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1);
  int value = 0;
  pool.Submit([&value] { value = 42; });
  // Inline mode: the task already ran, before any Wait().
  EXPECT_EQ(value, 42);
  pool.Wait();  // Must be a no-op, not a deadlock.
}

TEST(ThreadPoolTest, RunsEveryTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitBlocksUntilTasksFinish) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 8; ++i) {
    pool.Submit([&done] {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      done.fetch_add(1);
    });
  }
  pool.Wait();
  EXPECT_EQ(done.load(), 8);
}

TEST(ThreadPoolTest, ReusableAcrossWaves) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int wave = 0; wave < 3; ++wave) {
    for (int i = 0; i < 10; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    pool.Wait();
    EXPECT_EQ(counter.load(), (wave + 1) * 10);
  }
}

TEST(ThreadPoolTest, TasksWriteToOwnSlots) {
  // The profiler's usage pattern: each task owns one pre-sized slot, results
  // are read after Wait() in canonical order.
  ThreadPool pool(4);
  std::vector<int> slots(64, 0);
  for (size_t i = 0; i < slots.size(); ++i) {
    pool.Submit([&slots, i] { slots[i] = static_cast<int>(i) + 1; });
  }
  pool.Wait();
  for (size_t i = 0; i < slots.size(); ++i) {
    EXPECT_EQ(slots[i], static_cast<int>(i) + 1);
  }
}

TEST(ThreadPoolTest, DestructorDrainsQueuedTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 20; ++i) {
      pool.Submit([&counter] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        counter.fetch_add(1);
      });
    }
    // No Wait(): destruction must still run every queued task.
  }
  EXPECT_EQ(counter.load(), 20);
}

// ---------------------------------------------------------------------------
// Bulk ParallelFor: coverage, chunk determinism, nesting, and the
// work-stealing/parking machinery under hostile schedules.
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
  // (first, last, min_chunk) — NEVER on worker count or steal order. This is
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

TEST(ParallelForTest, NestedCallsRunInlineWithoutDeadlock) {
  // A body that calls ParallelFor on the SAME pool must not deadlock: from a
  // worker thread the nested loop runs inline and serially. This is what
  // makes it safe to hand one shared executor to both the profiler and the
  // output source underneath it.
  ThreadPool pool(4);
  std::atomic<int64_t> total{0};
  pool.ParallelFor(0, 8, 1, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      const bool on_worker = pool.OnWorkerThread();
      pool.ParallelFor(0, 100, 10, [&](int64_t b, int64_t e) {
        if (on_worker) {
          // Inline mode: the nested body stays on the outer body's thread.
          EXPECT_TRUE(pool.OnWorkerThread());
        }
        total.fetch_add(e - b);
      });
    }
  });
  EXPECT_EQ(total.load(), 8 * 100);
}

TEST(ParallelForTest, SkewedWorkloadCompletesViaStealing) {
  // Chunk 0 is three orders of magnitude slower than the rest. With
  // min_chunk 1 every index is a separate stealable chunk, so the other
  // workers must drain the remainder while one is stuck — the loop still
  // returns only when ALL indices ran.
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

TEST(ThreadPoolTest, WorkerSubmittedTasksAreStealableAndDrainOnWait) {
  // A submitted task fans out more tasks from the worker thread (they land
  // in that worker's own deque, so peers must steal them). Wait() must cover
  // transitively-spawned work, not just the externally injected root.
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  constexpr int kFanout = 500;
  pool.Submit([&pool, &counter] {
    for (int i = 0; i < kFanout; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
  });
  pool.Wait();
  EXPECT_EQ(counter.load(), kFanout);
}

TEST(ThreadPoolTest, ParkUnparkChurnKeepsExactCounts) {
  // Waves separated by idle gaps long enough for workers to spin out and
  // park; every wave must wake them and lose no task.
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  int expected = 0;
  for (int wave = 0; wave < 40; ++wave) {
    const int burst = 1 + (wave % 7);
    for (int i = 0; i < burst; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    expected += burst;
    pool.ParallelFor(0, 64, 8, [&counter](int64_t begin, int64_t end) {
      counter.fetch_add(static_cast<int>(end - begin));
    });
    expected += 64;
    pool.Wait();
    ASSERT_EQ(counter.load(), expected) << "wave " << wave;
    if (wave % 8 == 0) std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

TEST(ThreadPoolTest, SingleSubmitAfterQuiescenceAlwaysWakes) {
  // Regression for the park-path store-load ordering (a Dekker pattern): the
  // producer bumps work_signal_ THEN reads num_parked_; the parker increments
  // num_parked_ THEN re-reads the signal. With acquire/release alone both
  // sides may read the stale value on weakly-ordered hardware — the producer
  // skips the notify while the worker parks anyway, and with exactly one
  // task in flight there is no second producer to recover: Wait() hangs.
  // All four accesses are seq_cst now; this test hammers precisely that
  // window — full quiescence (workers parked), then ONE Submit.
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int round = 0; round < 400; ++round) {
    if (round % 3 == 0) {
      // Give the workers time to spin out and park.
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    pool.Submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
    pool.Wait();
    ASSERT_EQ(counter.load(), round + 1) << "lost wakeup at round " << round;
  }
}

TEST(ThreadPoolTest, QueueDepthGaugeNeverGoesNegative) {
  // The gauge is incremented BEFORE an item becomes acquirable and
  // decremented only AFTER it is dequeued, so a concurrent sampler must
  // never observe a negative depth — and a drained pool must read 0.
  MetricsRegistry registry;
  ThreadPool pool(4);
  pool.set_metrics_registry(&registry);
  Gauge* depth = registry.GetGauge("thread_pool.queue_depth");

  std::atomic<bool> stop{false};
  std::atomic<bool> went_negative{false};
  std::thread sampler([&] {
    while (!stop.load()) {
      if (depth->Value() < 0) went_negative.store(true);
    }
  });
  std::atomic<int> counter{0};
  for (int wave = 0; wave < 20; ++wave) {
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    pool.ParallelFor(0, 500, 16, [&counter](int64_t begin, int64_t end) {
      counter.fetch_add(static_cast<int>(end - begin));
    });
    pool.Wait();
  }
  stop.store(true);
  sampler.join();
  EXPECT_FALSE(went_negative.load());
  EXPECT_EQ(depth->Value(), 0);
  EXPECT_EQ(counter.load(), 20 * (50 + 500));
  // tasks_run counts every Submit node and every executed ParallelFor chunk
  // (ceil(500/16) = 32 chunks per wave), wherever they ran.
  EXPECT_EQ(registry.Snapshot().counter("thread_pool.tasks_run"), 20 * (50 + 32));
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
  // Each Submit task runs a multi-chunk ParallelFor, which its worker runs
  // inline while the task's own span is still open. Telemetry counts only
  // outermost units, so tasks_run and the latency histogram's observation
  // count both equal the number of submitted tasks.
  MetricsRegistry registry;
  ThreadPool pool(4);
  pool.set_metrics_registry(&registry);
  constexpr int kTasks = 40;
  constexpr int64_t kRange = 100;
  std::atomic<int64_t> covered{0};
  for (int t = 0; t < kTasks; ++t) {
    pool.Submit([&pool, &covered] {
      pool.ParallelFor(0, kRange, 10, [&covered](int64_t begin, int64_t end) {
        covered.fetch_add(end - begin);
      });
    });
  }
  pool.Wait();
  EXPECT_EQ(covered.load(), kTasks * kRange);
  EXPECT_EQ(registry.Snapshot().counter("thread_pool.tasks_run"), kTasks);
  EXPECT_EQ(TaskSecondsCount(registry), kTasks);
}

TEST(ThreadPoolTest, CallsInsideAChunkFromOutsideThePoolCountOnlyTheOuterChunks) {
  // The test thread is no worker, so a ParallelFor called inside one of
  // its own chunks takes the bulk path, and the workers left idle by the
  // short outer range join it. Those chunks run inside the outer chunk's
  // span, whichever thread runs them, as does a width-1 pool's inline
  // Submit task: only the outer chunks count.
  for (int width : {1, 4}) {
    MetricsRegistry registry;
    ThreadPool pool(width);
    pool.set_metrics_registry(&registry);
    constexpr int64_t kOuter = 4;
    constexpr int64_t kRange = 100;
    std::atomic<int64_t> covered{0};
    pool.ParallelFor(0, kOuter, 1, [&pool, &covered](int64_t, int64_t) {
      pool.ParallelFor(0, kRange, 5, [&covered](int64_t begin, int64_t end) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        covered.fetch_add(end - begin);
      });
      if (pool.num_threads() == 1) pool.Submit([&covered] { covered.fetch_add(1); });
    });
    const int64_t submitted = width == 1 ? kOuter : 0;
    EXPECT_EQ(covered.load(), kOuter * kRange + submitted) << "width " << width;
    EXPECT_EQ(registry.Snapshot().counter("thread_pool.tasks_run"), kOuter) << "width " << width;
    EXPECT_EQ(TaskSecondsCount(registry), kOuter) << "width " << width;
  }
}

TEST(ThreadPoolTest, InlinePoolSupportsParallelForAndNesting) {
  // Width 1 never spawns threads: ParallelFor must run inline, immediately,
  // with the same chunk partition as any pooled run.
  ThreadPool pool(1);
  std::vector<int> hits(100, 0);  // Plain ints: single-threaded by contract.
  pool.ParallelFor(0, 100, 7, [&](int64_t begin, int64_t end) {
    pool.ParallelFor(begin, end, 3, [&](int64_t b, int64_t e) {
      for (int64_t i = b; i < e; ++i) hits[i] += 1;
    });
  });
  for (int i = 0; i < 100; ++i) ASSERT_EQ(hits[i], 1) << "index " << i;
  pool.Wait();  // Still a no-op.
}

}  // namespace
}  // namespace util
}  // namespace smokescreen
