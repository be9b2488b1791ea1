#include "dsn/common/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <string>

#include "dsn/common/error.hpp"
#include "dsn/obs/obs.hpp"

namespace dsn {

#if DSN_OBS
namespace {

/// Pool-wide metric ids, registered once. All pools share the metrics — the
/// process has one global pool in practice, and tests that build private
/// pools fold into the same counters by design.
struct PoolMetrics {
  obs::MetricId queue_depth = obs::MetricsRegistry::global().gauge("dsn.pool.queue_depth");
  obs::MetricId tasks_executed = obs::MetricsRegistry::global().counter("dsn.pool.tasks_executed");
  obs::MetricId task_ns = obs::MetricsRegistry::global().counter("dsn.pool.task_ns");

  static const PoolMetrics& get() {
    static PoolMetrics metrics;
    return metrics;
  }
};

}  // namespace
#endif  // DSN_OBS

ThreadPool::ThreadPool(std::size_t threads) {
  // Workers write pool metrics until the destructor joins them. Statics die
  // in reverse order of construction, so the metrics registry must finish
  // constructing before this pool does: registered first by a worker, it
  // would be destroyed at exit while the global pool's workers still run.
  DSN_OBS_ONLY((void)PoolMetrics::get();)
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    LockGuard lock(mutex_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    LockGuard lock(mutex_);
    tasks_.push(std::move(task));
    DSN_OBS_GAUGE_SET(PoolMetrics::get().queue_depth,
                      static_cast<std::int64_t>(tasks_.size()));
  }
  cv_task_.notify_one();
}

void ThreadPool::submit_batch(std::vector<std::function<void()>> tasks) {
  if (tasks.empty()) return;
  const std::size_t count = tasks.size();
  {
    LockGuard lock(mutex_);
    for (auto& task : tasks) tasks_.push(std::move(task));
    DSN_OBS_GAUGE_SET(PoolMetrics::get().queue_depth,
                      static_cast<std::int64_t>(tasks_.size()));
  }
  if (count == 1) {
    cv_task_.notify_one();
  } else {
    cv_task_.notify_all();
  }
}

namespace {

/// Pool the current thread is a worker of, or nullptr. Lets parallel_for run
/// inline when called from inside one of its own tasks (nested parallelism)
/// instead of deadlocking: the submitting worker would block waiting for
/// chunks that only the (fully occupied) pool could run.
thread_local ThreadPool* t_current_pool = nullptr;

}  // namespace

void ThreadPool::wait_idle() {
  DSN_REQUIRE(t_current_pool != this,
              "wait_idle called from a pool worker would deadlock");
  LockGuard lock(mutex_);
  while (!(tasks_.empty() && active_ == 0)) cv_idle_.wait(lock);
}

void ThreadPool::worker_loop(std::size_t index) {
  t_current_pool = this;
  DSN_OBS_ONLY(
      obs::set_current_thread_name("pool-worker-" + std::to_string(index));)
#if !DSN_OBS
  (void)index;
#endif
  for (;;) {
    std::function<void()> task;
    {
      LockGuard lock(mutex_);
      while (!stop_ && tasks_.empty()) cv_task_.wait(lock);
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
      DSN_OBS_GAUGE_SET(PoolMetrics::get().queue_depth,
                        static_cast<std::int64_t>(tasks_.size()));
      ++active_;
    }
    {
      DSN_OBS_TIMER(PoolMetrics::get().task_ns,
                    PoolMetrics::get().tasks_executed);
      DSN_OBS_SPAN("pool.task");
      task();
    }
    {
      LockGuard lock(mutex_);
      --active_;
      if (tasks_.empty() && active_ == 0) cv_idle_.notify_all();
    }
  }
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& fn) {
  if (begin >= end) return;
  const std::size_t total = end - begin;
  const std::size_t nthreads = workers_.size();
  // Run inline when parallelism cannot help (single item / single worker) or
  // when called from one of this pool's own workers: a nested parallel_for
  // must not block a worker on chunks only the saturated pool could execute.
  if (total == 1 || nthreads == 1 || t_current_pool == this) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
    return;
  }
  // ~4 chunks per worker balances load without excessive queue traffic.
  const std::size_t chunks = std::min(total, nthreads * 4);
  const std::size_t chunk_size = (total + chunks - 1) / chunks;

  std::size_t done = 0;  // guarded by done_mutex
  std::exception_ptr first_error;  // guarded by error_mutex
  Mutex error_mutex;
  Mutex done_mutex;
  CondVar done_cv;

  std::vector<std::function<void()>> batch;
  batch.reserve((total + chunk_size - 1) / chunk_size);
  for (std::size_t c = 0; c * chunk_size < total; ++c) {
    const std::size_t lo = begin + c * chunk_size;
    const std::size_t hi = std::min(end, lo + chunk_size);
    batch.push_back([&, lo, hi] {
      try {
        for (std::size_t i = lo; i < hi; ++i) fn(i);
      } catch (...) {
        LockGuard el(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
      // Increment and notify while holding the lock: once the waiter observes
      // done == submitted it returns and destroys done_cv, so a notify after
      // releasing the mutex would race with that destruction (use-after-free,
      // caught by TSan).
      LockGuard dl(done_mutex);
      ++done;
      done_cv.notify_one();
    });
  }
  const std::size_t submitted = batch.size();
  submit_batch(std::move(batch));

  LockGuard lock(done_mutex);
  while (done != submitted) done_cv.wait(lock);
  if (first_error) std::rethrow_exception(first_error);
}

ThreadPool& ThreadPool::global() {
  // DSN_THREADS pins the worker count (benches use it to report honest
  // thread numbers); unset or invalid falls back to hardware_concurrency.
  static ThreadPool pool([] {
    const char* env = std::getenv("DSN_THREADS");
    if (env == nullptr) return std::size_t{0};
    const long parsed = std::strtol(env, nullptr, 10);
    return parsed > 0 ? static_cast<std::size_t>(parsed) : std::size_t{0};
  }());
  return pool;
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn) {
  ThreadPool::global().parallel_for(begin, end, fn);
}

}  // namespace dsn
