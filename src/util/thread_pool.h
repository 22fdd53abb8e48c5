// A fixed set of worker threads that runs index ranges in parallel for the
// profiler's group fan-out and the output source's miss-batch fan-out.
//
// ParallelFor(first, last, min_chunk, body) is the only way to run work. One
// call allocates one shared Bulk descriptor and puts up to num_threads()
// helper tokens that point at it on the pool's one mutex-guarded FIFO, never
// more than the number of chunks less one (the caller runs chunks too). The
// calling thread and every worker that dequeues a token claim fixed
// [first + k*min_chunk, ...) chunks with an atomic fetch_add until none
// remain, and the call returns once the whole range has run. Because the
// caller works on its own range, a call makes progress even when every
// worker is busy with another caller's chunks. An idle worker spins briefly
// on the queue, then parks on the pool's condition variable; a quiescent
// pool burns no CPU.
//
// Determinism contract: ParallelFor's chunk boundaries are a PURE FUNCTION
// of (first, last, min_chunk) — chunk k is [first + k*min_chunk, ...) at
// every thread count, in inline mode, and whichever thread claims it. The
// pool imposes no ordering between chunks; callers that need bit-identical
// results across thread counts make each chunk's output independent of
// scheduling (per-chunk RNG streams from stable keys, results written to
// pre-sized disjoint slots) — then the body call sequence, and therefore
// every side effect that depends on chunk shape (model batch sizes,
// per-chunk accounting), is identical at any width.
//
// Nested parallelism: ParallelFor called from a chunk already running ON a
// worker of this pool executes the chunk loop inline on that worker
// (serially). This is deliberate — a worker that blocked waiting for
// sub-chunks could deadlock the pool against itself — and it is what lets
// the serving layer hand ONE pool to both the profiler's group fan-out and
// the output source's miss-batch fan-out. A pool resolved to one thread
// starts no workers and runs every call inline.

#ifndef SMOKESCREEN_UTIL_THREAD_POOL_H_
#define SMOKESCREEN_UTIL_THREAD_POOL_H_

#include <atomic>
#include <cstdint>
#include <deque>
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
  /// The thread_pool.* instruments (queue-depth gauge, task latency
  /// histogram, tasks-run counter) bind to `registry`; nullptr means
  /// util::MetricsRegistry::Default(). All pools bound to one registry share
  /// the instruments (the gauge is the aggregate depth). Every outermost
  /// unit — one ParallelFor chunk — counts once in tasks_run and observes
  /// once into the latency histogram, so the totals are bit-exact at any
  /// thread count (the counters themselves sum per-thread cells; see
  /// util::metrics). A chunk is outermost unless it runs inside another
  /// chunk's span: every chunk of a ParallelFor called from inside a chunk
  /// (inline on a worker, or on the bulk path from a caller's own chunk,
  /// whichever thread runs it) is part of that chunk and is not counted
  /// again. Inline runs called from outside any chunk (a width-1 pool, or a
  /// single-chunk call) are outermost and count.
  explicit ThreadPool(int num_threads = 0, MetricsRegistry* registry = nullptr);
  /// Lets the workers drain any helper tokens still queued, then joins them.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The resolved worker count (>= 1).
  int num_threads() const { return num_threads_; }

  /// Runs `body(chunk_begin, chunk_end)` over every chunk of [first, last),
  /// where chunk k is [first + k*min_chunk, min(first + (k+1)*min_chunk,
  /// last)). Blocks until the whole range has executed. The calling thread
  /// participates in the work; chunks additionally run on any idle worker.
  /// The chunk sequence is identical at every thread count (see the
  /// determinism contract above); only the assignment of chunks to threads
  /// varies. Reentrant calls from a chunk on this pool run inline serially.
  /// `body` must be safe to invoke concurrently on disjoint chunks.
  template <typename Body>
  void ParallelFor(int64_t first, int64_t last, int64_t min_chunk, Body&& body) {
    using B = std::remove_reference_t<Body>;
    ParallelForImpl(
        first, last, min_chunk,
        [](void* ctx, int64_t b, int64_t e) { (*static_cast<B*>(ctx))(b, e); },
        const_cast<void*>(static_cast<const void*>(std::addressof(body))));
  }

  /// 0 (or negative) -> std::thread::hardware_concurrency(), else the
  /// requested count; never less than 1.
  static int ResolveThreadCount(int requested);

 private:
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
    /// False when the call was made inside a chunk: its chunks then record
    /// no telemetry of their own, on any thread.
    bool counted = true;
    std::atomic<int64_t> next{0};
    std::atomic<int64_t> done{0};
    std::atomic<int64_t> refs{0};
    util::Mutex mu;
    util::CondVar cv;
    bool complete SMK_GUARDED_BY(mu) = false;
  };

  void ParallelForImpl(int64_t first, int64_t last, int64_t min_chunk,
                       void (*fn)(void*, int64_t, int64_t), void* ctx) SMK_EXCLUDES(mu_);
  /// Claims and runs chunks of `bulk` until none remain; signals completion.
  void RunBulkChunks(Bulk* bulk);
  void UnrefBulk(Bulk* bulk);

  void WorkerLoop() SMK_EXCLUDES(mu_);
  /// The next helper token, after a short spin and then a park; nullptr
  /// once the pool is stopping and the queue is empty.
  Bulk* NextToken() SMK_EXCLUDES(mu_);
  Bulk* PopToken() SMK_REQUIRES(mu_);

  /// Registry-bound instruments (bound at construction, never null).
  Gauge* queue_depth_ = nullptr;
  Histogram* task_seconds_ = nullptr;
  Counter* tasks_run_ = nullptr;

  int num_threads_;

  Mutex mu_;
  /// Signalled once per enqueued token, and on stop.
  CondVar cv_;
  std::deque<Bulk*> queue_ SMK_GUARDED_BY(mu_);
  bool stop_ SMK_GUARDED_BY(mu_) = false;

  /// Declared last: the workers use every member above.
  std::vector<std::thread> workers_;
};

}  // namespace util
}  // namespace smokescreen

#endif  // SMOKESCREEN_UTIL_THREAD_POOL_H_
