#include "pipeline/stage_graph.h"

#include <chrono>
#include <deque>
#include <stdexcept>
#include <utility>

#include "lint/lock_order.h"
#include "obs/rss.h"
#include "obs/trace.h"

namespace sp::pipeline {

namespace {

long current_peak_rss_kb() { return obs::peak_rss_kb(); }

}  // namespace

std::string_view to_string(StageStatus status) noexcept {
  switch (status) {
    case StageStatus::Pending: return "pending";
    case StageStatus::Running: return "running";
    case StageStatus::Done: return "done";
    case StageStatus::Cached: return "cached";
    case StageStatus::Failed: return "failed";
    case StageStatus::Skipped: return "skipped";
  }
  return "unknown";
}

StageGraph::StageId StageGraph::add(std::string name, std::vector<StageId> deps, StageFn fn) {
  const StageId id = stages_.size();
  Stage stage;
  stage.name = std::move(name);
  stage.fn = std::move(fn);
  stage.deps = std::move(deps);
  stages_.push_back(std::move(stage));
  return id;
}

void StageGraph::set_observer(std::function<void(const StageResult&)> observer) {
  observer_ = std::move(observer);
}

void StageGraph::verify_acyclic() const {
  // Kahn's algorithm; anything left over sits on a cycle.
  std::vector<std::size_t> indegree(stages_.size(), 0);
  for (const Stage& stage : stages_) {
    for (const StageId dep : stage.deps) {
      if (dep >= stages_.size()) {
        throw std::out_of_range("StageGraph: dependency id out of range");
      }
    }
    indegree[&stage - stages_.data()] = stage.deps.size();
  }
  std::vector<std::vector<StageId>> dependents(stages_.size());
  for (StageId id = 0; id < stages_.size(); ++id) {
    for (const StageId dep : stages_[id].deps) dependents[dep].push_back(id);
  }
  std::deque<StageId> queue;
  for (StageId id = 0; id < stages_.size(); ++id) {
    if (indegree[id] == 0) queue.push_back(id);
  }
  std::size_t processed = 0;
  while (!queue.empty()) {
    const StageId id = queue.front();
    queue.pop_front();
    ++processed;
    for (const StageId child : dependents[id]) {
      if (--indegree[child] == 0) queue.push_back(child);
    }
  }
  if (processed != stages_.size()) {
    for (StageId id = 0; id < stages_.size(); ++id) {
      if (indegree[id] != 0) {
        throw std::logic_error("StageGraph: dependency cycle involving stage '" +
                               stages_[id].name + "'");
      }
    }
  }
}

void StageGraph::finish(StageId id, StageStatus status, std::string error, double wall_ms,
                        long rss_kb, std::vector<StageId>& newly_ready,
                        std::vector<StageId>& finalized) {
  // Caller holds mutex_. Skip propagation is processed iteratively so a
  // failure fanning out over a long chain cannot overflow the stack.
  struct Terminal {
    StageId id;
    StageStatus status;
    std::string error;
    double wall_ms;
    long rss_kb;
  };
  std::vector<Terminal> stack;
  stack.push_back({id, status, std::move(error), wall_ms, rss_kb});
  while (!stack.empty()) {
    Terminal terminal = std::move(stack.back());
    stack.pop_back();
    StageResult& result = results_[terminal.id];
    result.status = terminal.status;
    result.error = std::move(terminal.error);
    result.wall_ms = terminal.wall_ms;
    result.peak_rss_kb = terminal.rss_kb;
    ++finished_;
    finalized.push_back(terminal.id);
    const bool ok =
        terminal.status == StageStatus::Done || terminal.status == StageStatus::Cached;
    for (const StageId child_id : stages_[terminal.id].dependents) {
      Stage& child = stages_[child_id];
      if (!ok && !child.doomed) {
        child.doomed = true;
        child.doom_reason = "dependency '" + stages_[terminal.id].name + "' " +
                            std::string(to_string(terminal.status));
      }
      if (--child.waiting == 0) {
        if (child.doomed) {
          stack.push_back({child_id, StageStatus::Skipped, child.doom_reason, 0.0, 0});
        } else {
          newly_ready.push_back(child_id);
        }
      }
    }
  }
  if (finished_ == stages_.size()) done_cv_.notify_all();
}

void StageGraph::execute(StageId id) {
  // Graceful stop: a stage may reach the pool queue before the stop flag
  // flips and execute after — skip its body here so "stop" means "no new
  // stage work starts", regardless of queue depth.
  if (stop_requested()) {
    finalize(id, StageStatus::Skipped, "stop requested", 0.0, 0);
    return;
  }
  const auto start = std::chrono::steady_clock::now();
  StageOutcome outcome = StageOutcome::success();
  {
    // One trace span per stage execution, on the worker thread that ran it —
    // the Perfetto view of the DAG schedule (cached stages are near-zero
    // slivers, the evolve chain is the critical path). It covers the body
    // only: finalize() below may run dependents inline (1-thread pool),
    // and those must not nest inside this stage's span.
    const obs::ScopedSpan span(stages_[id].name, "stage");
    if (stages_[id].fn) outcome = stages_[id].fn();
  }
  const double wall_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
          .count();
  const long rss_kb = current_peak_rss_kb();

  const StageStatus status = !outcome.ok          ? StageStatus::Failed
                             : outcome.cached     ? StageStatus::Cached
                                                  : StageStatus::Done;
  finalize(id, status, outcome.error, wall_ms, rss_kb);
}

void StageGraph::finalize(StageId id, StageStatus status, std::string error, double wall_ms,
                          long rss_kb) {
  std::vector<StageId> ready;
  std::vector<StageId> finalized;
  std::vector<StageResult> observed;
  {
    std::lock_guard lock(mutex_);
    [[maybe_unused]] const lint::LockOrderScope held("pipeline.stage_graph.mutex");
    finish(id, status, std::move(error), wall_ms, rss_kb, ready, finalized);
    observed.reserve(finalized.size());
    for (const StageId finished_id : finalized) observed.push_back(results_[finished_id]);
  }
  if (observer_) {
    std::lock_guard lock(observer_mutex_);
    [[maybe_unused]] const lint::LockOrderScope held("pipeline.stage_graph.observer_mutex");
    for (const StageResult& result : observed) observer_(result);
  }
  dispatch_ready(ready);
}

void StageGraph::dispatch_ready(std::vector<StageId>& ready) {
  for (const StageId id : ready) {
    if (stop_requested()) {
      // Finalize as Skipped without dispatching. finish() dooms the
      // stage's descendants itself, so the recursion through finalize →
      // dispatch_ready stays shallow: skipped stages surface no new
      // ready work.
      finalize(id, StageStatus::Skipped, "stop requested", 0.0, 0);
      continue;
    }
    {
      std::lock_guard lock(mutex_);
      [[maybe_unused]] const lint::LockOrderScope held("pipeline.stage_graph.mutex");
      results_[id].status = StageStatus::Running;
    }
    // With a 1-thread pool submit() executes inline: the whole graph runs
    // serially, in a valid topological order, on the calling thread.
    pool_->submit([this, id] { execute(id); });
  }
}

bool StageGraph::run(core::WorkerPool& pool) {
  if (ran_) throw std::logic_error("StageGraph::run called twice");
  ran_ = true;
  verify_acyclic();

  results_.assign(stages_.size(), {});
  for (StageId id = 0; id < stages_.size(); ++id) results_[id].name = stages_[id].name;

  pool_ = &pool;
  std::vector<StageId> ready;
  {
    std::lock_guard lock(mutex_);
    [[maybe_unused]] const lint::LockOrderScope held("pipeline.stage_graph.mutex");
    for (StageId id = 0; id < stages_.size(); ++id) {
      Stage& stage = stages_[id];
      stage.waiting = stage.deps.size();
      for (const StageId dep : stage.deps) stages_[dep].dependents.push_back(id);
    }
    for (StageId id = 0; id < stages_.size(); ++id) {
      if (stages_[id].waiting == 0) ready.push_back(id);
    }
  }
  dispatch_ready(ready);

  {
    std::unique_lock lock(mutex_);
    [[maybe_unused]] const lint::LockOrderScope held("pipeline.stage_graph.mutex");
    done_cv_.wait(lock, [&] { return finished_ == stages_.size(); });
  }
  // The worker that finalized the last stage may still be inside its
  // observer callback; drain the pool so observers (and any state they
  // write, like the manifest) are quiesced before run() returns.
  pool.wait_idle();
  for (const StageResult& result : results_) {
    if (result.status != StageStatus::Done && result.status != StageStatus::Cached) {
      return false;
    }
  }
  return true;
}

}  // namespace sp::pipeline
