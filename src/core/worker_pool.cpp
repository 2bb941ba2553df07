#include "core/worker_pool.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "lint/lock_order.h"

namespace sp::core {

namespace {
constexpr const char* kMutexName = "core.worker_pool.mutex";

std::uint64_t micros(std::chrono::steady_clock::duration elapsed) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(elapsed).count());
}

}  // namespace

WorkerPool::WorkerPool(unsigned thread_count)
    : queue_depth_(obs::MetricsRegistry::global().gauge("worker_pool.queue_depth")),
      task_wait_us_(obs::MetricsRegistry::global().histogram("worker_pool.task_wait_us")),
      task_run_us_(obs::MetricsRegistry::global().histogram("worker_pool.task_run_us")) {
  if (thread_count == 0) thread_count = std::max(1u, std::thread::hardware_concurrency());
  thread_count_ = std::min(thread_count, 64u);
  // Worker 0 is the calling thread; only 1..thread_count-1 are pool threads.
  workers_.reserve(thread_count_ - 1);
  for (unsigned id = 1; id < thread_count_; ++id) {
    workers_.emplace_back([this, id] { worker_loop(id); });
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard lock(mutex_);
    [[maybe_unused]] const lint::LockOrderScope held(kMutexName);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  // With no pool threads nothing ever drained the queue asynchronously —
  // submit() ran everything inline — so tasks_ is empty here either way.
}

void WorkerPool::worker_loop(unsigned worker_id) {
  std::uint64_t seen = 0;
  std::unique_lock lock(mutex_);
  // The lock-order scope must mirror the manual unlock/relock around job
  // and task bodies exactly, or locks the bodies take would appear to
  // nest under the pool mutex.
  std::optional<lint::LockOrderScope> held;
  held.emplace(kMutexName);
  for (;;) {
    work_cv_.wait(lock, [&] {
      return stopping_ || generation_ != seen || !tasks_.empty();
    });
    // Fork-join jobs first: a run() caller is blocked on every worker
    // taking one turn, while queued tasks have no waiting caller.
    if (generation_ != seen) {
      seen = generation_;
      const std::function<void(unsigned)>* job = job_;
      const auto dispatched = dispatched_;
      held.reset();
      lock.unlock();
      run_job(*job, worker_id, dispatched);
      lock.lock();
      held.emplace(kMutexName);
      if (--running_ == 0) done_cv_.notify_all();
      continue;
    }
    if (!tasks_.empty()) {
      QueuedTask task = std::move(tasks_.front());
      tasks_.pop_front();
      ++active_tasks_;
      held.reset();
      lock.unlock();
      run_task(task.fn, task.enqueued);
      lock.lock();
      held.emplace(kMutexName);
      if (--active_tasks_ == 0 && tasks_.empty()) idle_cv_.notify_all();
      continue;
    }
    // Exit only once the queue has drained, so destruction never drops a
    // submitted task.
    if (stopping_) return;
  }
}

void WorkerPool::run(const std::function<void(unsigned)>& job) {
  const auto dispatched = std::chrono::steady_clock::now();
  if (workers_.empty()) {
    run_job(job, 0, dispatched);
    return;
  }
  {
    std::lock_guard lock(mutex_);
    [[maybe_unused]] const lint::LockOrderScope held(kMutexName);
    job_ = &job;
    dispatched_ = dispatched;
    ++generation_;
    running_ = static_cast<unsigned>(workers_.size());
  }
  work_cv_.notify_all();
  run_job(job, 0, dispatched);
  std::unique_lock lock(mutex_);
  [[maybe_unused]] const lint::LockOrderScope held(kMutexName);
  done_cv_.wait(lock, [&] { return running_ == 0; });
}

void WorkerPool::run_task(std::function<void()>& task,
                          std::chrono::steady_clock::time_point enqueued) {
  const auto dequeued = std::chrono::steady_clock::now();
  queue_depth_.sub();
  task_wait_us_.record(micros(dequeued - enqueued));
  task();
  task_run_us_.record(micros(std::chrono::steady_clock::now() - dequeued));
}

void WorkerPool::run_job(const std::function<void(unsigned)>& job, unsigned worker_id,
                         std::chrono::steady_clock::time_point dispatched) {
  const auto started = std::chrono::steady_clock::now();
  task_wait_us_.record(micros(started - dispatched));
  job(worker_id);
  task_run_us_.record(micros(std::chrono::steady_clock::now() - started));
}

void WorkerPool::submit(std::function<void()> task) {
  queue_depth_.add();
  if (workers_.empty()) {
    // Inline execution: the task spends no time queued, but still shows
    // up in the run-latency histogram like any pooled task.
    run_task(task, std::chrono::steady_clock::now());
    return;
  }
  {
    std::lock_guard lock(mutex_);
    [[maybe_unused]] const lint::LockOrderScope held(kMutexName);
    tasks_.push_back({std::move(task), std::chrono::steady_clock::now()});
  }
  work_cv_.notify_one();
}

void WorkerPool::wait_idle() {
  if (workers_.empty()) return;  // inline tasks finished inside submit()
  std::unique_lock lock(mutex_);
  [[maybe_unused]] const lint::LockOrderScope held(kMutexName);
  idle_cv_.wait(lock, [&] { return tasks_.empty() && active_tasks_ == 0; });
}

}  // namespace sp::core
