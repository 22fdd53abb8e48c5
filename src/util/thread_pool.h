// A work-stealing executor for CPU-parallel fan-out of independent tasks
// (profile hypercube groups, cold miss-batches, per-camera ingest, bench
// sweeps).
//
// The first-generation pool was a central std::deque guarded by one mutex +
// condvar: every task paid a std::function heap allocation, a contended lock
// round-trip on submit AND on dequeue, and a condvar wake. For the columnar
// detector kernel — whose per-chunk work is a few microseconds — that
// overhead ate the entire parallel win (BENCH_kernel.json showed the pooled
// path SLOWER than serial). This executor removes both costs on the hot
// path:
//
//  * Per-worker Chase-Lev deques — each worker owns a bounded lock-free
//    deque; it pushes and pops its own bottom without locks, and idle
//    workers steal from the top with a single CAS. External submitters go
//    through a small mutex-guarded injection queue (the cold path).
//  * Bulk ParallelFor(first, last, min_chunk, body) — dispatches an index
//    range as ONE heap allocation total (a shared bulk descriptor), not one
//    std::function per task. Workers and the calling thread claim fixed
//    [k*min_chunk, (k+1)*min_chunk) chunks with an atomic fetch_add; the
//    caller participates, so ParallelFor makes progress even when every
//    worker is busy with unrelated work, and returns only when the whole
//    range has run.
//  * Spin-then-park idle protocol — an idle worker spins briefly (stealing),
//    then parks on a condvar guarded by an eventcount-style signal word, so
//    a quiescent pool burns no CPU while a busy one never takes the lock.
//
// Determinism contract: ParallelFor's chunk boundaries are a PURE FUNCTION
// of (first, last, min_chunk) — chunk k is [first + k*min_chunk, ...) at
// every thread count, in inline mode, and under any steal interleaving. The
// executor imposes no ordering between chunks; callers that need
// bit-identical results across thread counts make each chunk's output
// independent of scheduling (per-chunk RNG streams from stable keys, results
// written to pre-sized disjoint slots) — then the body call sequence, and
// therefore every side effect that depends on chunk shape (model batch
// sizes, per-chunk accounting), is identical at any width.
//
// Nested parallelism: ParallelFor called from a task already running ON this
// pool executes the chunk loop inline on that worker (serially). This is
// deliberate — a worker that blocked waiting for sub-chunks could deadlock
// the pool against itself — and it is what lets the serving layer hand ONE
// executor to both the profiler's group fan-out and the output source's
// miss-batch fan-out.
//
// Compatibility: Submit(std::function) and Wait() keep their original
// contract, and a pool resolved to one thread runs everything inline at
// call time (no worker threads at all), which keeps single-threaded
// builds/valgrind/TSAN baselines trivial.

#ifndef SMOKESCREEN_UTIL_THREAD_POOL_H_
#define SMOKESCREEN_UTIL_THREAD_POOL_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

#include "util/metrics.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace smokescreen {
namespace util {

class ThreadPool {
 public:
  /// `num_threads` <= 0 resolves to the hardware concurrency (at least 1).
  explicit ThreadPool(int num_threads = 0);
  /// Drains already-queued tasks, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The resolved worker count (>= 1).
  int num_threads() const { return num_threads_; }

  /// Enqueues a task. With one resolved thread the task runs inline before
  /// Submit returns. From a worker of THIS pool the task goes onto that
  /// worker's own deque (lock-free); from any other thread it goes through
  /// the injection queue. Tasks must not call Wait() on the same pool.
  void Submit(std::function<void()> task) SMK_EXCLUDES(inject_mu_, park_mu_);

  /// Blocks until every Submit()ted task has finished. ParallelFor is
  /// synchronous and already complete when it returns, so Wait() tracks only
  /// Submit() tasks. Must not be called from a task running on this pool.
  void Wait() SMK_EXCLUDES(idle_mu_);

  /// Runs `body(chunk_begin, chunk_end)` over every chunk of [first, last),
  /// where chunk k is [first + k*min_chunk, min(first + (k+1)*min_chunk,
  /// last)). Blocks until the whole range has executed. The calling thread
  /// participates in the work; chunks additionally run on any idle worker.
  /// The chunk sequence is identical at every thread count (see the
  /// determinism contract above); only the assignment of chunks to threads
  /// varies. Reentrant calls from a task on this pool run inline serially.
  /// `body` must be safe to invoke concurrently on disjoint chunks.
  template <typename Body>
  void ParallelFor(int64_t first, int64_t last, int64_t min_chunk, Body&& body) {
    using B = std::remove_reference_t<Body>;
    ParallelForImpl(
        first, last, min_chunk,
        [](void* ctx, int64_t b, int64_t e) { (*static_cast<B*>(ctx))(b, e); },
        const_cast<void*>(static_cast<const void*>(std::addressof(body))));
  }

  /// True when the calling thread is one of this pool's workers (used by
  /// callers that must avoid blocking the pool against itself).
  bool OnWorkerThread() const;

  /// 0 (or negative) -> std::thread::hardware_concurrency(), else the
  /// requested count; never less than 1.
  static int ResolveThreadCount(int requested);

  /// Re-points the thread_pool.* instruments (queue-depth gauge, task
  /// latency histogram, tasks-run counter) at `registry`; nullptr restores
  /// util::MetricsRegistry::Default(). Not synchronized against running
  /// workers — bind before the first Submit(). All pools bound to one
  /// registry share the instruments (the gauge is the aggregate depth).
  /// Every outermost unit — a Submit task or one ParallelFor chunk — counts
  /// once in tasks_run and observes once into the latency histogram, so the
  /// totals are bit-exact at any thread count (the counters themselves sum
  /// per-thread cells; see util::metrics). A unit is outermost unless it
  /// runs inside another unit's span: every chunk of a ParallelFor called
  /// from inside a unit (inline on a worker, or on the bulk path from a
  /// caller's own chunk, whichever thread runs it), and a width-1 pool's
  /// inline Submit task run inside a unit, are part of that unit and are not
  /// counted again. Inline runs called from outside any unit (a width-1
  /// pool, or a single-chunk call) are outermost and count.
  void set_metrics_registry(MetricsRegistry* registry) { BindMetrics(registry); }

 private:
  /// A lock-free single-owner deque (Chase-Lev, with the memory orders of
  /// Le et al., "Correct and Efficient Work-Stealing for Weak Memory
  /// Models", spelled as seq_cst accesses instead of standalone fences so
  /// ThreadSanitizer models the synchronization precisely). The owner
  /// pushes/pops `bottom`; thieves CAS `top`. Fixed capacity: a full deque
  /// overflows to the injection queue instead of growing, which bounds
  /// memory and keeps push wait-free.
  struct WsDeque {
    static constexpr size_t kCapacity = 2048;  // Power of two.
    std::atomic<int64_t> top{0};
    std::atomic<int64_t> bottom{0};
    std::unique_ptr<std::atomic<uintptr_t>[]> ring;

    WsDeque() : ring(new std::atomic<uintptr_t>[kCapacity]) {}
    bool Push(uintptr_t item);        // Owner only. False when full.
    bool Pop(uintptr_t* out);         // Owner only.
    bool Steal(uintptr_t* out);       // Any thief. False when empty/lost race.
    bool LooksEmpty() const {
      return bottom.load(std::memory_order_acquire) <=
             top.load(std::memory_order_acquire);
    }
  };

  struct alignas(64) Worker {
    WsDeque deque;
    std::thread thread;
  };

  /// Shared descriptor of one ParallelFor call: workers and the caller claim
  /// chunks via fetch_add on `next`; the thread that completes the final
  /// index signals `cv`. Heap-allocated once per call, freed by the last
  /// reference (caller + one per enqueued helper token).
  struct Bulk {
    void (*fn)(void*, int64_t, int64_t);
    void* ctx;
    int64_t first = 0;
    int64_t last = 0;
    int64_t chunk = 1;
    /// False when the call was made inside a unit: its chunks then record
    /// no telemetry of their own, on any thread.
    bool counted = true;
    std::atomic<int64_t> next{0};
    std::atomic<int64_t> done{0};
    std::atomic<int64_t> refs{0};
    util::Mutex mu;
    util::CondVar cv;
    bool complete SMK_GUARDED_BY(mu) = false;
  };

  /// Heap node carrying one Submit() task through the queues.
  struct SubmitNode {
    std::function<void()> fn;
  };

  // Tagged queue items: low bit 0 -> SubmitNode*, low bit 1 -> Bulk* token.
  static constexpr uintptr_t kBulkTag = 1;

  void ParallelForImpl(int64_t first, int64_t last, int64_t min_chunk,
                       void (*fn)(void*, int64_t, int64_t), void* ctx)
      SMK_EXCLUDES(inject_mu_, park_mu_);
  /// Claims and runs chunks of `bulk` until none remain; signals completion.
  void RunBulkChunks(Bulk* bulk);
  void UnrefBulk(Bulk* bulk);
  void RunSubmitNode(SubmitNode* node);
  void ExecuteItem(uintptr_t item);

  void WorkerLoop(int worker_index);
  /// One full acquisition attempt: own deque, injection queue, then one
  /// steal sweep over every other worker. Returns false only if every queue
  /// looked empty during the sweep.
  bool TryAcquire(int worker_index, uintptr_t* item);
  /// Enqueue from the current thread (own deque when on a worker of this
  /// pool, else injection queue), bump the work signal, wake a parked worker.
  void Enqueue(uintptr_t item) SMK_EXCLUDES(inject_mu_, park_mu_);
  void WakeWorkers(int count) SMK_EXCLUDES(park_mu_);

  void BindMetrics(MetricsRegistry* registry);

  /// Registry-bound instruments (never null after construction).
  Gauge* queue_depth_ = nullptr;
  Histogram* task_seconds_ = nullptr;
  Counter* tasks_run_ = nullptr;

  int num_threads_;
  std::vector<std::unique_ptr<Worker>> workers_;

  /// Cold-path entry for external submitters and deque overflow.
  Mutex inject_mu_;
  std::deque<uintptr_t> inject_queue_ SMK_GUARDED_BY(inject_mu_);

  /// Eventcount-style parking. Producers bump `work_signal_` BEFORE
  /// notifying; a worker records the signal, re-checks all queues, and only
  /// parks if the signal is unchanged under `park_mu_` — so a wakeup can
  /// never be lost between the final check and the wait.
  ///
  /// Ordering: the producer's signal bump followed by its `num_parked_` read
  /// races the parker's `num_parked_` increment followed by its signal
  /// re-check — a Dekker-style store-then-load on each side. Both sides use
  /// seq_cst so the two accesses cannot reorder: with plain acquire/release
  /// the producer could read num_parked_ == 0 (skipping the notify) while
  /// the parker still reads the stale signal (and parks) — a lost wakeup on
  /// weakly-ordered hardware.
  Mutex park_mu_;
  CondVar park_cv_;
  std::atomic<uint64_t> work_signal_{0};
  std::atomic<int> num_parked_{0};

  /// Submit() bookkeeping for Wait().
  std::atomic<int64_t> outstanding_{0};
  Mutex idle_mu_;
  CondVar idle_cv_;

  std::atomic<bool> stop_{false};
};

}  // namespace util
}  // namespace smokescreen

#endif  // SMOKESCREEN_UTIL_THREAD_POOL_H_
