#include "util/thread_pool.h"

#include <algorithm>

namespace smokescreen {
namespace util {

namespace {

/// The pool whose worker the current thread is, for nested-call detection.
/// A thread belongs to at most one pool's worker set.
thread_local ThreadPool* tls_pool = nullptr;
/// True while the current thread runs a unit of work (a ParallelFor chunk)
/// of any pool. Pools share the default registry's instruments, so a unit
/// started inside another one is part of it whichever pool runs it.
thread_local bool tls_in_unit = false;

/// Runs `fn` as one unit of work. A counted unit observes into `seconds`
/// and bumps `runs`; an uncounted one runs inside an enclosing unit's span,
/// which already covers its time.
template <typename Fn>
void RunUnit(bool counted, Histogram* seconds, Counter* runs, const Fn& fn) {
  const bool outer = tls_in_unit;
  tls_in_unit = true;
  if (counted) {
    {
      ScopedSpan span(seconds);
      fn();
    }
    runs->Increment();
  } else {
    fn();
  }
  tls_in_unit = outer;
}

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

}  // namespace

int ThreadPool::ResolveThreadCount(int requested) {
  if (requested > 0) return requested;
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

ThreadPool::ThreadPool(int num_threads, MetricsRegistry* registry)
    : num_threads_(ResolveThreadCount(num_threads)) {
  MetricsRegistry& metrics = MetricsRegistry::OrDefault(registry);
  queue_depth_ = metrics.GetGauge("thread_pool.queue_depth");
  task_seconds_ = metrics.GetStageHistogram("thread_pool.task.seconds");
  tasks_run_ = metrics.GetCounter("thread_pool.tasks_run");
  if (num_threads_ == 1) return;  // Inline mode: ParallelFor runs directly.
  workers_.reserve(static_cast<size_t>(num_threads_));
  for (int i = 0; i < num_threads_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(&mu_);
    stop_ = true;
    cv_.NotifyAll();
  }
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::RunBulkChunks(Bulk* bulk) {
  const int64_t range = bulk->last - bulk->first;
  for (;;) {
    const int64_t begin = bulk->next.fetch_add(bulk->chunk, std::memory_order_acq_rel);
    if (begin >= bulk->last) break;
    const int64_t end = std::min(begin + bulk->chunk, bulk->last);
    RunUnit(bulk->counted, task_seconds_, tasks_run_,
            [bulk, begin, end] { bulk->fn(bulk->ctx, begin, end); });
    const int64_t done =
        bulk->done.fetch_add(end - begin, std::memory_order_acq_rel) + (end - begin);
    if (done == range) {
      MutexLock lock(&bulk->mu);
      bulk->complete = true;
      bulk->cv.NotifyAll();
    }
  }
}

void ThreadPool::UnrefBulk(Bulk* bulk) {
  if (bulk->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) delete bulk;
}

ThreadPool::Bulk* ThreadPool::PopToken() {
  if (queue_.empty()) return nullptr;
  Bulk* bulk = queue_.front();
  queue_.pop_front();
  return bulk;
}

ThreadPool::Bulk* ThreadPool::NextToken() {
  // Spin briefly before parking: a token that arrives within the spin costs
  // its caller no kernel wake-up.
  constexpr int kSpinRounds = 64;
  for (int spin = 0; spin < kSpinRounds; ++spin) {
    {
      MutexLock lock(&mu_);
      if (!queue_.empty() || stop_) return PopToken();
    }
    CpuRelax();
  }
  MutexLock lock(&mu_);
  cv_.Wait(mu_, [this]() SMK_REQUIRES(mu_) { return !queue_.empty() || stop_; });
  return PopToken();
}

void ThreadPool::WorkerLoop() {
  tls_pool = this;
  // A stopping pool still drains its queue, so every token's reference is
  // dropped and no Bulk outlives the pool.
  while (Bulk* bulk = NextToken()) {
    queue_depth_->Add(-1);
    RunBulkChunks(bulk);
    UnrefBulk(bulk);
  }
}

void ThreadPool::ParallelForImpl(int64_t first, int64_t last, int64_t min_chunk,
                                 void (*fn)(void*, int64_t, int64_t), void* ctx) {
  if (last <= first) return;
  const int64_t chunk = min_chunk < 1 ? 1 : min_chunk;
  const int64_t num_chunks = (last - first + chunk - 1) / chunk;
  // A call made inside a unit runs within that unit's span, so none of its
  // chunks is counted again, whichever thread runs them.
  const bool counted = !tls_in_unit;
  // Inline paths — one resolved thread, a single chunk, or a nested call
  // from a worker of this pool — run the SAME chunk sequence serially, so
  // body-visible boundaries never depend on where the call ran.
  if (workers_.empty() || num_chunks == 1 || tls_pool == this) {
    for (int64_t begin = first; begin < last; begin += chunk) {
      const int64_t end = std::min(begin + chunk, last);
      RunUnit(counted, task_seconds_, tasks_run_, [fn, ctx, begin, end] { fn(ctx, begin, end); });
    }
    return;
  }

  Bulk* bulk = new Bulk();
  bulk->fn = fn;
  bulk->ctx = ctx;
  bulk->first = first;
  bulk->last = last;
  bulk->chunk = chunk;
  bulk->counted = counted;
  bulk->next.store(first, std::memory_order_relaxed);
  // One helper token per worker that could usefully join. The caller runs
  // chunks itself, so there are never more tokens than the chunks left
  // beyond its first one. The caller holds one extra reference across its
  // own participation and the completion wait.
  const int64_t tokens = std::min<int64_t>(num_threads_, num_chunks - 1);
  bulk->refs.store(tokens + 1, std::memory_order_relaxed);
  // Gauge discipline: up BEFORE the tokens can be dequeued, down only AFTER
  // (WorkerLoop), so the aggregate depth never reads negative.
  queue_depth_->Add(tokens);
  {
    MutexLock lock(&mu_);
    for (int64_t k = 0; k < tokens; ++k) {
      queue_.push_back(bulk);
      cv_.NotifyOne();
    }
  }

  RunBulkChunks(bulk);
  {
    MutexLock lock(&bulk->mu);
    bulk->cv.Wait(bulk->mu, [bulk]() SMK_REQUIRES(bulk->mu) { return bulk->complete; });
  }
  UnrefBulk(bulk);
}

}  // namespace util
}  // namespace smokescreen
