// sp::obs tracing — Chrome-trace-format span recording for offline
// inspection in chrome://tracing or Perfetto (https://ui.perfetto.dev).
//
// A TraceRecorder collects complete spans ("ph":"X" events): a name, a
// category, a start timestamp relative to the recorder's epoch, and a
// duration. Spans are recorded at completion — one mutex-guarded vector
// append per span — which is cheap because every instrumented span is
// coarse: a pipeline stage, a detection shard, a lookup batch. Nothing
// records per-item spans.
//
// Threads are mapped to small dense "tid" values at first span so the
// trace viewer shows one lane per worker thread.
//
// The hot-path guard is the process-wide *active* recorder slot: a single
// relaxed atomic pointer, null by default. Instrumented code does
//
//   if (obs::TraceRecorder* trace = obs::TraceRecorder::active()) { ... }
//
// so a build without tracing enabled pays one predictable-not-taken
// branch. `sp_pipeline --trace out.json` installs a recorder for the
// duration of the campaign and writes the JSON next to the manifest.
//
// ScopedSpan is the RAII helper: it samples the start on construction and
// records on destruction iff a recorder was active at construction.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

namespace sp::obs {

/// One completed span, timestamps in microseconds since the recorder's
/// epoch (construction time).
struct TraceEvent {
  std::string name;
  std::string category;
  double ts_us = 0.0;
  double dur_us = 0.0;
  std::uint32_t tid = 0;
};

class TraceRecorder {
 public:
  TraceRecorder() : epoch_(std::chrono::steady_clock::now()) {}
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Records a completed span. Thread-safe.
  void span(std::string_view name, std::string_view category,
            std::chrono::steady_clock::time_point start,
            std::chrono::steady_clock::time_point end);

  /// The events recorded so far, in completion order.
  [[nodiscard]] std::vector<TraceEvent> events() const;

  /// Serializes to Chrome trace format (JSON object form, loadable by
  /// chrome://tracing and Perfetto).
  [[nodiscard]] std::string to_json() const;

  /// to_json() to a file; false (reason in `error`) on I/O failure.
  [[nodiscard]] bool write(const std::string& path, std::string* error = nullptr) const;

  /// The process-wide active recorder; null when tracing is off.
  [[nodiscard]] static TraceRecorder* active() noexcept {
    return active_.load(std::memory_order_acquire);
  }
  /// Installs (or, with nullptr, removes) the active recorder. The caller
  /// owns the recorder and must keep it alive while installed and until
  /// instrumented threads have quiesced.
  static void set_active(TraceRecorder* recorder) noexcept {
    active_.store(recorder, std::memory_order_release);
  }

 private:
  [[nodiscard]] std::uint32_t tid_of(std::thread::id id);

  std::chrono::steady_clock::time_point epoch_;
  // lock-order: 51 obs.trace.recorder_mutex (event append and scrape
  // only; leaf)
  mutable std::mutex mutex_;
  std::vector<TraceEvent> events_;
  std::unordered_map<std::thread::id, std::uint32_t> tids_;

  static std::atomic<TraceRecorder*> active_;
};

/// Records `name` from construction to destruction into the recorder that
/// was active at construction (if any).
class ScopedSpan {
 public:
  ScopedSpan(std::string_view name, std::string_view category)
      : recorder_(TraceRecorder::active()) {
    if (recorder_ != nullptr) {
      name_ = name;  // copied only when a recorder is live
      category_ = category;
      start_ = std::chrono::steady_clock::now();
    }
  }

  /// The span `name` + decimal `index` (e.g. one per shard: "detect.v4.shard"
  /// and worker 3 record "detect.v4.shard3"). The name is formatted only
  /// when a recorder is live, so an untraced call allocates nothing.
  ScopedSpan(std::string_view name, std::size_t index, std::string_view category)
      : ScopedSpan(name, category) {
    if (recorder_ != nullptr) name_ += std::to_string(index);
  }
  ~ScopedSpan() {
    if (recorder_ != nullptr) {
      recorder_->span(name_, category_, start_, std::chrono::steady_clock::now());
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  TraceRecorder* recorder_;
  std::string name_;
  std::string category_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace sp::obs
