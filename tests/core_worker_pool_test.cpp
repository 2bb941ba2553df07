// Tests for WorkerPool's two dispatch modes: the original fork-join run()
// contract and the task-queue submit() mode the sp::pipeline StageGraph
// scheduler runs on. The mixed-mode and stress cases are raced under TSan
// by scripts/tier1.sh stage 2.
//
// sp-lint-file: atomics-ok(test counters are only read after the pool
// joins; the join publishes, so relaxed increments suffice)
#include "core/worker_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace sp::core {
namespace {

TEST(WorkerPoolTask, ForkJoinRunsEveryWorkerExactlyOnce) {
  WorkerPool pool(4);
  ASSERT_EQ(pool.thread_count(), 4u);
  std::mutex mutex;
  std::multiset<unsigned> ids;
  pool.run([&](unsigned id) {
    std::lock_guard lock(mutex);
    ids.insert(id);
  });
  EXPECT_EQ(ids, (std::multiset<unsigned>{0, 1, 2, 3}));
}

TEST(WorkerPoolTask, SubmitExecutesEveryTask) {
  WorkerPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 200; ++i) {
    pool.submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 200);
}

TEST(WorkerPoolTask, SerialPoolRunsTasksInlineAndInOrder) {
  WorkerPool pool(1);
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    pool.submit([&order, i] { order.push_back(i); });
    // Inline execution: the task completed before submit() returned.
    ASSERT_EQ(static_cast<int>(order.size()), i + 1);
  }
  pool.wait_idle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(WorkerPoolTask, TasksMaySubmitFurtherTasks) {
  WorkerPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 20; ++i) {
    pool.submit([&pool, &counter] {
      counter.fetch_add(1, std::memory_order_relaxed);
      pool.submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
    });
  }
  // wait_idle only returns once the re-submitted generation drained too:
  // the queue must be empty AND no task running, so a parent still
  // executing keeps it blocked until its child is queued.
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 40);
}

TEST(WorkerPoolTask, ForkJoinAndTasksShareOnePool) {
  WorkerPool pool(4);
  std::atomic<int> task_count{0};
  std::atomic<int> join_count{0};
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 16; ++i) {
      pool.submit([&task_count] { task_count.fetch_add(1, std::memory_order_relaxed); });
    }
    pool.run([&join_count](unsigned) { join_count.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  EXPECT_EQ(task_count.load(), 160);
  EXPECT_EQ(join_count.load(), 40);
}

TEST(WorkerPoolTask, DestructionDrainsTheQueue) {
  std::atomic<int> counter{0};
  {
    WorkerPool pool(2);
    for (int i = 0; i < 100; ++i) {
      pool.submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
    }
  }
  EXPECT_EQ(counter.load(), 100);
}

// The pool's queue-depth gauge is process-wide (obs global registry) and
// balanced: every submit() adds 1 and the matching execution subtracts 1,
// from producer and worker threads concurrently. Once all pools are
// quiesced the gauge must read its pre-test value. Raced under TSan
// together with the scrape in obs_metrics_test.
TEST(WorkerPoolTask, QueueDepthGaugeBalancesUnderConcurrency) {
  const obs::Gauge depth = obs::MetricsRegistry::global().gauge("worker_pool.queue_depth");
  const std::int64_t before = depth.value();
  {
    WorkerPool pooled(4);
    WorkerPool inline_pool(1);  // no threads: submit() executes inline
    std::vector<std::thread> producers;
    producers.reserve(4);
    for (int p = 0; p < 4; ++p) {
      producers.emplace_back([&pooled, &inline_pool] {
        for (int i = 0; i < 200; ++i) {
          pooled.submit([] {});
          inline_pool.submit([] {});
        }
      });
    }
    for (auto& producer : producers) producer.join();
    pooled.wait_idle();
    inline_pool.wait_idle();
  }
  EXPECT_EQ(depth.value(), before);

  // Wait/run latency histograms saw every pooled + inline task.
  const auto waits =
      obs::HistogramSnapshot::of(obs::MetricsRegistry::global().histogram("worker_pool.task_wait_us"));
  EXPECT_GE(waits.count, 1600u);
}

// A fork-join run() records one wait and one run sample per worker — the
// detection and batch-lookup paths show up in the histograms too.
TEST(WorkerPoolTask, ForkJoinRecordsOneSamplePerWorker) {
  auto& registry = obs::MetricsRegistry::global();
  const auto count = [&registry](const char* name) {
    return obs::HistogramSnapshot::of(registry.histogram(name)).count;
  };
  const std::uint64_t runs_before = count("worker_pool.task_run_us");
  const std::uint64_t waits_before = count("worker_pool.task_wait_us");
  {
    WorkerPool pool(3);
    pool.run([](unsigned) {});
    pool.run([](unsigned) {});
    WorkerPool serial(1);
    serial.run([](unsigned) {});
  }
  EXPECT_EQ(count("worker_pool.task_run_us") - runs_before, 7u);
  EXPECT_EQ(count("worker_pool.task_wait_us") - waits_before, 7u);
}

// Many producers hammering submit() from outside the pool while the pool
// also serves fork-join jobs — the TSan target for the shared-pool design.
TEST(WorkerPoolTask, ConcurrentProducersStress) {
  WorkerPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::thread> producers;
  producers.reserve(4);
  for (int p = 0; p < 4; ++p) {
    producers.emplace_back([&pool, &counter] {
      for (int i = 0; i < 50; ++i) {
        pool.submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
      }
    });
  }
  for (auto& producer : producers) producer.join();
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 200);
}

}  // namespace
}  // namespace sp::core
