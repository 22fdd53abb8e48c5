#include "util/thread_pool.h"

#include <algorithm>

#include "util/logging.h"

namespace smokescreen {
namespace util {

namespace {

/// Identity of the worker the current thread belongs to, for nested-call
/// detection (ParallelFor inline mode, Submit fast path). One pool per
/// thread: a thread belongs to at most one pool's worker set.
thread_local ThreadPool* tls_pool = nullptr;
thread_local int tls_worker_index = -1;
/// True while the current thread runs a unit of work (a Submit task or a
/// ParallelFor chunk) of any pool. Pools share the default registry's
/// instruments, so a unit started inside another one is part of it whichever
/// pool runs it.
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

// ---------------------------------------------------------------------------
// Chase-Lev deque. Owner operates on `bottom`, thieves CAS `top`. The
// orderings follow Le et al. (PPoPP'13); the standalone seq_cst fences of the
// paper are expressed as seq_cst accesses on top/bottom so the pop/steal race
// on the final element stays correct AND visible to TSAN's happens-before
// machinery.
// ---------------------------------------------------------------------------

bool ThreadPool::WsDeque::Push(uintptr_t item) {
  const int64_t b = bottom.load(std::memory_order_relaxed);
  const int64_t t = top.load(std::memory_order_acquire);
  if (b - t >= static_cast<int64_t>(kCapacity)) return false;  // Full.
  ring[static_cast<size_t>(b) & (kCapacity - 1)].store(item, std::memory_order_relaxed);
  // Release: a thief that acquires the new bottom (or steals past the CAS)
  // must see the ring write.
  bottom.store(b + 1, std::memory_order_release);
  return true;
}

bool ThreadPool::WsDeque::Pop(uintptr_t* out) {
  const int64_t b = bottom.load(std::memory_order_relaxed) - 1;
  // seq_cst store-then-load (bottom, then top): pairs with the thief's
  // load of bottom AFTER its seq_cst load of top, so owner and thief cannot
  // both take the last element.
  bottom.store(b, std::memory_order_seq_cst);
  int64_t t = top.load(std::memory_order_seq_cst);
  if (t > b) {  // Empty: undo.
    bottom.store(b + 1, std::memory_order_relaxed);
    return false;
  }
  uintptr_t item = ring[static_cast<size_t>(b) & (kCapacity - 1)].load(std::memory_order_relaxed);
  if (t == b) {
    // Last element: race the thieves for it.
    const bool won = top.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                                 std::memory_order_relaxed);
    bottom.store(b + 1, std::memory_order_relaxed);
    if (!won) return false;
    *out = item;
    return true;
  }
  *out = item;
  return true;
}

bool ThreadPool::WsDeque::Steal(uintptr_t* out) {
  int64_t t = top.load(std::memory_order_seq_cst);
  const int64_t b = bottom.load(std::memory_order_seq_cst);
  if (t >= b) return false;  // Empty.
  uintptr_t item = ring[static_cast<size_t>(t) & (kCapacity - 1)].load(std::memory_order_relaxed);
  if (!top.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                   std::memory_order_relaxed)) {
    return false;  // Lost the race; the caller retries or moves on.
  }
  *out = item;
  return true;
}

// ---------------------------------------------------------------------------
// Pool lifecycle.
// ---------------------------------------------------------------------------

int ThreadPool::ResolveThreadCount(int requested) {
  if (requested > 0) return requested;
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

void ThreadPool::BindMetrics(MetricsRegistry* registry) {
  if (registry == nullptr) registry = &MetricsRegistry::Default();
  queue_depth_ = registry->GetGauge("thread_pool.queue_depth");
  task_seconds_ = registry->GetStageHistogram("thread_pool.task.seconds");
  tasks_run_ = registry->GetCounter("thread_pool.tasks_run");
}

ThreadPool::ThreadPool(int num_threads) : num_threads_(ResolveThreadCount(num_threads)) {
  BindMetrics(nullptr);
  if (num_threads_ == 1) return;  // Inline mode: Submit/ParallelFor run directly.
  workers_.reserve(static_cast<size_t>(num_threads_));
  for (int i = 0; i < num_threads_; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  // Deques must all exist before any worker starts stealing.
  for (int i = 0; i < num_threads_; ++i) {
    workers_[static_cast<size_t>(i)]->thread = std::thread([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  if (workers_.empty()) return;
  stop_.store(true, std::memory_order_release);
  work_signal_.fetch_add(1, std::memory_order_seq_cst);
  {
    MutexLock lock(&park_mu_);
    park_cv_.NotifyAll();
  }
  for (std::unique_ptr<Worker>& worker : workers_) worker->thread.join();
}

bool ThreadPool::OnWorkerThread() const { return tls_pool == this; }

// ---------------------------------------------------------------------------
// Enqueue / acquire.
// ---------------------------------------------------------------------------

void ThreadPool::Enqueue(uintptr_t item) {
  // Gauge discipline: increment BEFORE the item becomes acquirable and
  // decrement AFTER it is dequeued (ExecuteItem), so the aggregate depth can
  // never be read transiently negative, under any submit/steal interleaving.
  queue_depth_->Add(1);
  if (tls_pool == this) {
    if (workers_[static_cast<size_t>(tls_worker_index)]->deque.Push(item)) {
      // seq_cst: this signal bump must not reorder with WakeWorkers'
      // num_parked_ read (the Dekker pairing documented in the header).
      work_signal_.fetch_add(1, std::memory_order_seq_cst);
      WakeWorkers(1);
      return;
    }
    // Own deque full: overflow to the injection queue below.
  }
  {
    MutexLock lock(&inject_mu_);
    inject_queue_.push_back(item);
  }
  work_signal_.fetch_add(1, std::memory_order_seq_cst);
  WakeWorkers(1);
}

void ThreadPool::WakeWorkers(int count) {
  // seq_cst load: pairs with the parker's seq_cst num_parked_ increment so
  // the producer's (signal bump -> parked check) and the parker's (parked
  // increment -> signal check) cannot BOTH read stale values — one side
  // always sees the other, so no wakeup is lost.
  if (num_parked_.load(std::memory_order_seq_cst) == 0) return;
  // Taking park_mu_ orders this notify against the parking worker's final
  // signal check: either the worker sees the bumped signal and never waits,
  // or it is already waiting and the notify lands.
  MutexLock lock(&park_mu_);
  if (count == 1) {
    park_cv_.NotifyOne();
  } else {
    park_cv_.NotifyAll();
  }
}

bool ThreadPool::TryAcquire(int worker_index, uintptr_t* item) {
  Worker& self = *workers_[static_cast<size_t>(worker_index)];
  if (self.deque.Pop(item)) return true;
  {
    MutexLock lock(&inject_mu_);
    if (!inject_queue_.empty()) {
      *item = inject_queue_.front();
      inject_queue_.pop_front();
      return true;
    }
  }
  // Steal sweep: visit every sibling once; on a lost CAS race keep trying
  // that victim until it is empty or we win (a lost race means the system
  // made progress, not that we may sleep).
  const int n = num_threads_;
  for (int offset = 1; offset < n; ++offset) {
    WsDeque& victim = workers_[static_cast<size_t>((worker_index + offset) % n)]->deque;
    while (!victim.LooksEmpty()) {
      if (victim.Steal(item)) return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Execution.
// ---------------------------------------------------------------------------

void ThreadPool::RunSubmitNode(SubmitNode* node) {
  // Workers run queued tasks from their loop, outside any unit.
  RunUnit(true, task_seconds_, tasks_run_, node->fn);
  delete node;
  if (outstanding_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Lock before notifying so Wait() cannot check the predicate, see it
    // unsatisfied, and miss the notification in between.
    MutexLock lock(&idle_mu_);
    idle_cv_.NotifyAll();
  }
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

void ThreadPool::ExecuteItem(uintptr_t item) {
  queue_depth_->Add(-1);
  if ((item & kBulkTag) != 0) {
    Bulk* bulk = reinterpret_cast<Bulk*>(item & ~kBulkTag);
    RunBulkChunks(bulk);
    UnrefBulk(bulk);
  } else {
    RunSubmitNode(reinterpret_cast<SubmitNode*>(item));
  }
}

void ThreadPool::WorkerLoop(int worker_index) {
  tls_pool = this;
  tls_worker_index = worker_index;
  constexpr int kSpinRounds = 64;
  int spins = 0;
  for (;;) {
    uintptr_t item = 0;
    if (TryAcquire(worker_index, &item)) {
      spins = 0;
      ExecuteItem(item);
      continue;
    }
    if (stop_.load(std::memory_order_acquire)) {
      // Drain semantics: exit only once every queue really is empty (the
      // sweep above just found them so; a racing submit re-bumps the signal
      // and we re-check below before parking, so nothing is stranded).
      uintptr_t drained = 0;
      if (!TryAcquire(worker_index, &drained)) return;
      spins = 0;
      ExecuteItem(drained);
      continue;
    }
    if (++spins < kSpinRounds) {
      CpuRelax();
      continue;
    }
    // Park. The signal snapshot precedes the final re-check; Enqueue bumps
    // the signal before notifying, so a task published after our failed
    // sweep flips the snapshot comparison and we skip the wait.
    const uint64_t signal = work_signal_.load(std::memory_order_acquire);
    uintptr_t last_look = 0;
    if (TryAcquire(worker_index, &last_look)) {
      spins = 0;
      ExecuteItem(last_look);
      continue;
    }
    {
      MutexLock lock(&park_mu_);
      // seq_cst increment-then-check: the Dekker pairing with Enqueue's
      // seq_cst bump-then-check (see the header) — at least one side sees
      // the other, so either we skip the wait or the producer notifies.
      num_parked_.fetch_add(1, std::memory_order_seq_cst);
      if (work_signal_.load(std::memory_order_seq_cst) == signal &&
          !stop_.load(std::memory_order_acquire)) {
        park_cv_.Wait(park_mu_);
      }
      num_parked_.fetch_sub(1, std::memory_order_release);
    }
    spins = 0;
  }
}

// ---------------------------------------------------------------------------
// Public API.
// ---------------------------------------------------------------------------

void ThreadPool::Submit(std::function<void()> task) {
  if (workers_.empty()) {
    // Single-threaded pool: run inline, in submit order. The task still
    // observes into the latency histogram so inline and pooled runs report
    // through the same instruments, unless it runs inside another unit.
    RunUnit(!tls_in_unit, task_seconds_, tasks_run_, task);
    return;
  }
  outstanding_.fetch_add(1, std::memory_order_acq_rel);
  SubmitNode* node = new SubmitNode{std::move(task)};
  Enqueue(reinterpret_cast<uintptr_t>(node));
}

void ThreadPool::Wait() {
  if (workers_.empty()) return;  // Inline mode: nothing can be outstanding.
  SMK_CHECK(tls_pool != this) << "ThreadPool::Wait() called from a task on the same pool";
  MutexLock lock(&idle_mu_);
  idle_cv_.Wait(idle_mu_, [this] {
    return outstanding_.load(std::memory_order_acquire) == 0;
  });
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
  // One helper token per worker that could usefully join (never more tokens
  // than chunks); the caller holds one extra reference across its own
  // participation and the completion wait.
  const int64_t tokens = std::min<int64_t>(num_threads_, num_chunks);
  bulk->refs.store(tokens + 1, std::memory_order_relaxed);
  const uintptr_t token = reinterpret_cast<uintptr_t>(bulk) | kBulkTag;
  for (int64_t k = 0; k < tokens; ++k) Enqueue(token);

  RunBulkChunks(bulk);
  {
    MutexLock lock(&bulk->mu);
    bulk->cv.Wait(bulk->mu, [bulk]() SMK_REQUIRES(bulk->mu) { return bulk->complete; });
  }
  UnrefBulk(bulk);
}

}  // namespace util
}  // namespace smokescreen
