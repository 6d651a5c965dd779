#include "mmhand/common/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "mmhand/common/error.hpp"

namespace mmhand {

namespace {

constexpr int kMaxThreads = 256;

/// Indices each participating thread must have a shot at.  A region of
/// n indices runs on at most n / kMinIndicesPerThread threads, so one
/// served window's 8 frames share 2 threads rather than 4: bench_serve's
/// 1-session e2e p50 reads 0.15 ms with this cap and 0.33 ms without it
/// at width 4, because every extra participant is one more wake-up the
/// submitter waits on.  Index assignment is dynamic and every index
/// writes disjoint output, so the cap moves no bit.
constexpr std::int64_t kMinIndicesPerThread = 4;

thread_local bool tl_in_parallel = false;
thread_local void* tl_task_context = nullptr;

/// Worker-side observer hooks; the pointer flips once (null -> installed)
/// so workers pay one acquire load per region.
std::atomic<const WorkerObserver*> g_worker_observer{nullptr};

/// MMHAND_THREADS, or 0 when unset/garbage.
int env_thread_override() {
  const char* s = std::getenv("MMHAND_THREADS");
  if (s == nullptr || *s == '\0') return 0;
  char* end = nullptr;
  const long v = std::strtol(s, &end, 10);
  if (end == s || *end != '\0' || v < 1) return 0;
  return static_cast<int>(std::min<long>(v, kMaxThreads));
}

/// One parallel-for region.  Lives on the submitting thread's stack; workers
/// hold a pointer only between submission and their `pending` check-out, and
/// the submitter does not return until `pending` reaches zero.
struct Job {
  std::int64_t end = 0;
  const FunctionRef<void(std::int64_t)>* fn = nullptr;
  std::atomic<std::int64_t> next{0};  ///< next unclaimed index
  std::atomic<int> extra_slots{0};  ///< worker participation budget
  void* task_ctx = nullptr;  ///< submitter's task_context(), adopted by workers
  std::atomic<bool> failed{false};
  int pending = 0;  ///< workers yet to check out (guarded by pool mutex)
  std::exception_ptr error;
  std::mutex error_mu;
};

/// Claims indices of `job` until none remain (or one failed).  Which
/// thread runs which index is dynamic, which is fine because every index
/// writes disjoint output.
void run_indices(Job& job) {
  tl_in_parallel = true;
  while (!job.failed.load(std::memory_order_relaxed)) {
    const std::int64_t i = job.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= job.end) break;
    try {
      (*job.fn)(i);
    } catch (...) {
      std::lock_guard<std::mutex> lk(job.error_mu);
      if (!job.error) job.error = std::current_exception();
      job.failed.store(true, std::memory_order_relaxed);
    }
  }
  tl_in_parallel = false;
}

class ThreadPool {
 public:
  static ThreadPool& instance() {
    static ThreadPool pool;
    return pool;
  }

  int target_threads() const {
    return target_.load(std::memory_order_relaxed);
  }

  void set_target(int n) {
    target_.store(std::clamp(n, 1, kMaxThreads), std::memory_order_relaxed);
  }

  /// Runs one region on the pool with `participants` threads, the
  /// caller included.  Regions are serialized: a second submitting
  /// thread waits here until the first region drains.
  void run(std::int64_t begin, std::int64_t end,
           const FunctionRef<void(std::int64_t)>& fn, int participants) {
    std::lock_guard<std::mutex> submit(submit_mu_);
    Job job;
    job.next.store(begin, std::memory_order_relaxed);
    job.end = end;
    job.fn = &fn;
    job.task_ctx = tl_task_context;
    job.extra_slots.store(participants - 1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lk(mu_);
      grow_locked(participants - 1);
      job_ = &job;
      job.pending = static_cast<int>(workers_.size());
      ++job_seq_;
    }
    cv_.notify_all();
    run_indices(job);  // the submitter is participant #0
    {
      std::unique_lock<std::mutex> lk(mu_);
      done_cv_.wait(lk, [&] { return job.pending == 0; });
      job_ = nullptr;
    }
    if (job.error) std::rethrow_exception(job.error);
  }

 private:
  ThreadPool() {
    const int env = env_thread_override();
    int n = env > 0 ? env
                    : static_cast<int>(std::thread::hardware_concurrency());
    target_.store(std::clamp(n, 1, kMaxThreads),
                  std::memory_order_relaxed);
  }

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (auto& t : workers_) t.join();
  }

  /// Spawns workers until at least `n` exist.  Caller holds `mu_`.
  void grow_locked(int n) {
    while (static_cast<int>(workers_.size()) < n) {
      const std::uint64_t seen = job_seq_;
      workers_.emplace_back([this, seen] { worker(seen); });
    }
  }

  void worker(std::uint64_t seen) {
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
      cv_.wait(lk, [&] { return stop_ || job_seq_ != seen; });
      if (stop_) return;
      seen = job_seq_;
      Job* job = job_;
      lk.unlock();
      // Respect the per-region participant budget so `set_num_threads(2)`
      // really runs two threads even when more workers exist.
      if (job->extra_slots.fetch_sub(1, std::memory_order_relaxed) > 0) {
        void* const prev_ctx = tl_task_context;
        tl_task_context = job->task_ctx;
        const WorkerObserver* obs =
            g_worker_observer.load(std::memory_order_acquire);
        void* token =
            obs != nullptr && obs->begin != nullptr ? obs->begin() : nullptr;
        run_indices(*job);
        if (obs != nullptr && obs->end != nullptr) obs->end(token);
        tl_task_context = prev_ctx;
      }
      lk.lock();
      if (--job->pending == 0) done_cv_.notify_all();
    }
  }

  std::mutex submit_mu_;  ///< serializes whole regions
  std::mutex mu_;         ///< guards job_/job_seq_/workers_/stop_
  std::condition_variable cv_;
  std::condition_variable done_cv_;
  std::vector<std::thread> workers_;
  Job* job_ = nullptr;
  std::uint64_t job_seq_ = 0;
  bool stop_ = false;
  std::atomic<int> target_{1};
};

}  // namespace

int num_threads() { return ThreadPool::instance().target_threads(); }

std::int64_t fan_out_indices() {
  const int threads = num_threads();
  return threads <= 1 ? 1 : kMinIndicesPerThread * threads;
}

void set_num_threads(int n) {
  MMHAND_CHECK(n >= 1, "set_num_threads(" << n << ")");
  ThreadPool::instance().set_target(n);
}

bool in_parallel_region() { return tl_in_parallel; }

void* task_context() { return tl_task_context; }

void set_task_context(void* context) { tl_task_context = context; }

void set_worker_observer(const WorkerObserver& observer) {
  // Leaked on purpose: workers may race the end of main, and a static
  // observer struct must outlive every late region.
  g_worker_observer.store(new WorkerObserver(observer),
                          std::memory_order_release);
}

void parallel_for(std::int64_t begin, std::int64_t end,
                  FunctionRef<void(std::int64_t)> fn) {
  ThreadPool& pool = ThreadPool::instance();
  const int participants = static_cast<int>(std::min<std::int64_t>(
      pool.target_threads(), (end - begin) / kMinIndicesPerThread));
  if (tl_in_parallel || participants <= 1) {
    for (std::int64_t i = begin; i < end; ++i) fn(i);
    return;
  }
  pool.run(begin, end, fn, participants);
}

}  // namespace mmhand
