#include "core/detect_parallel.h"

#include <algorithm>
#include <atomic>
#include <chrono>

#include "core/detect_scan.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sp::core {

namespace {

/// Source prefixes claimed per atomic fetch; large enough to amortize the
/// counter, small enough to balance skewed prefix sizes.
constexpr std::size_t kChunk = 32;

// The per-source scan (Scratch + scan_source) lives in detect_scan.h so
// the sp::sketch engine's exact-fallback path shares it byte-for-byte.
using Scratch = detail::ScanScratch;
using detail::scan_source;

double elapsed_ms(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

ParallelDetector::ParallelDetector(unsigned thread_count)
    : pool_(thread_count),
      runs_(obs::MetricsRegistry::global().counter("detect.runs")),
      pairs_emitted_(obs::MetricsRegistry::global().counter("detect.pairs_emitted")),
      candidates_(obs::MetricsRegistry::global().counter("detect.candidates_evaluated")),
      detect_us_(obs::MetricsRegistry::global().histogram("detect.run_us")) {}

void ParallelDetector::detect_direction(const DetectIndex& index, Family from, Metric metric,
                                        std::vector<SiblingPair>& out) {
  const DetectIndex::Side& from_side = index.side(from);
  const DetectIndex::Side& to_side =
      index.side(from == Family::v4 ? Family::v6 : Family::v4);
  const auto start = std::chrono::steady_clock::now();

  const std::size_t source_count = from_side.prefix_count();
  const unsigned thread_count = pool_.thread_count();
  std::vector<std::vector<SiblingPair>> buffers(thread_count);
  std::vector<DetectStats> locals(thread_count);
  std::atomic<std::size_t> next{0};

  const char* shard_name = from == Family::v4 ? "detect.v4.shard" : "detect.v6.shard";
  const std::function<void(unsigned)> job = [&](unsigned worker) {
    // One trace span per shard per direction — worker granularity, so the
    // trace shows shard skew without per-prefix overhead.
    const obs::ScopedSpan span(shard_name, worker, "detect");
    Scratch scratch(to_side.prefix_count());
    std::vector<SiblingPair>& buffer = buffers[worker];
    DetectStats& local = locals[worker];
    for (;;) {
      // sp-lint: atomics-ok(work-stealing chunk cursor; claims need no
      // ordering, only uniqueness — the pool join publishes results)
      const std::size_t begin = next.fetch_add(kChunk, std::memory_order_relaxed);
      if (begin >= source_count) return;
      const std::size_t end = std::min(source_count, begin + kChunk);
      for (std::size_t source = begin; source < end; ++source) {
        scan_source(from_side, to_side, from, metric, static_cast<std::uint32_t>(source),
                    scratch, buffer, local);
      }
    }
  };
  pool_.run(job);

  for (unsigned worker = 0; worker < thread_count; ++worker) {
    out.insert(out.end(), buffers[worker].begin(), buffers[worker].end());
    stats_.prefixes_scanned += locals[worker].prefixes_scanned;
    stats_.candidates_evaluated += locals[worker].candidates_evaluated;
    stats_.pairs_emitted += locals[worker].pairs_emitted;
  }
  (from == Family::v4 ? stats_.v4_direction_ms : stats_.v6_direction_ms) = elapsed_ms(start);
}

std::vector<SiblingPair> ParallelDetector::detect(const DetectIndex& index,
                                                  const DetectOptions& options) {
  const auto run_start = std::chrono::steady_clock::now();
  stats_ = DetectStats{};
  stats_.threads_used = pool_.thread_count();

  std::vector<SiblingPair> pairs;
  detect_direction(index, Family::v4, options.metric, pairs);
  detect_direction(index, Family::v6, options.metric, pairs);

  // Merge exactly as detail::detect_over: one global sort + dedup, which
  // also erases any dependence on worker scheduling.
  const auto merge_start = std::chrono::steady_clock::now();
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  stats_.merge_ms = elapsed_ms(merge_start);

  // Registry updates once per run, never per prefix: aggregate counts and
  // one whole-run latency sample.
  runs_.add();
  pairs_emitted_.add(static_cast<std::int64_t>(pairs.size()));
  candidates_.add(static_cast<std::int64_t>(stats_.candidates_evaluated));
  detect_us_.record(static_cast<std::uint64_t>(elapsed_ms(run_start) * 1000.0));
  return pairs;
}

std::vector<SiblingPair> ParallelDetector::detect(const DualStackCorpus& corpus,
                                                  const DetectOptions& options) {
  return detect(corpus.detect_index(), options);
}

std::vector<SiblingPair> ParallelDetector::detect(const SetCorpus& corpus,
                                                  const DetectOptions& options) {
  return detect(corpus.detect_index(), options);
}

}  // namespace sp::core
