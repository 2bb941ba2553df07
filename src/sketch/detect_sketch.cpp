#include "sketch/detect_sketch.h"

#include <algorithm>
#include <atomic>
#include <chrono>

#include "core/detect_parallel.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sp::sketch {

namespace {

constexpr std::size_t kChunk = 32;  // mirrors ParallelDetector's sharding

double elapsed_ms(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}

/// Worker-local accumulators, merged after the pool join. The per-source
/// scan itself lives in sketch/scan_sketch.h, shared with sp::stream.
struct Local {
  SketchStats stats;
  std::vector<core::SiblingPair> pairs;
  SketchScanScratch scan;

  explicit Local(std::size_t target_prefixes) : scan(target_prefixes) {}
};

}  // namespace

SketchIndex SketchIndex::build(const core::DetectIndex& index, const SketchParams& params,
                               core::WorkerPool* pool) {
  SketchIndex sketch;
  sketch.params_ = params;
  sketch.v4_signatures_ = SignatureSet::build(index.v4, params, pool);
  sketch.v6_signatures_ = SignatureSet::build(index.v6, params, pool);
  sketch.v4_lsh_ = LshIndex::build(sketch.v4_signatures_);
  sketch.v6_lsh_ = LshIndex::build(sketch.v6_signatures_);
  return sketch;
}

SketchDetector::SketchDetector(SketchParams params, unsigned thread_count)
    : params_(params), pool_(thread_count) {}

void SketchDetector::detect_direction(const core::DetectIndex& index,
                                      const SketchIndex& sketch, Family from, core::Metric metric,
                                      std::vector<core::SiblingPair>& out) {
  const Family to = from == Family::v4 ? Family::v6 : Family::v4;
  const core::DetectIndex::Side& from_side = index.side(from);
  const core::DetectIndex::Side& to_side = index.side(to);
  const SignatureSet& from_signatures = sketch.signatures(from);
  const SignatureSet& to_signatures = sketch.signatures(to);
  const LshIndex& to_lsh = sketch.lsh(to);

  const std::size_t source_count = from_side.prefix_count();
  const unsigned thread_count = pool_.thread_count();
  std::vector<Local> locals;
  locals.reserve(thread_count);
  for (unsigned worker = 0; worker < thread_count; ++worker) {
    locals.emplace_back(to_side.prefix_count());
  }
  std::atomic<std::size_t> next{0};

  const char* shard_name = from == Family::v4 ? "sketch.v4.shard" : "sketch.v6.shard";
  const std::function<void(unsigned)> job = [&](unsigned worker) {
    const obs::ScopedSpan span(shard_name, worker, "sketch");
    Local& local = locals[worker];
    for (;;) {
      // sp-lint: atomics-ok(work-stealing chunk cursor; claims need no
      // ordering, only uniqueness — the pool join publishes results)
      const std::size_t begin = next.fetch_add(kChunk, std::memory_order_relaxed);
      if (begin >= source_count) return;
      const std::size_t end = std::min(source_count, begin + kChunk);
      for (std::size_t s = begin; s < end; ++s) {
        scan_source_sketch(from_side, to_side, from_signatures, to_signatures, to_lsh, params_,
                           from, metric, static_cast<std::uint32_t>(s), local.scan, local.pairs,
                           local.stats);
      }
    }
  };
  pool_.run(job);

  for (Local& local : locals) {
    out.insert(out.end(), local.pairs.begin(), local.pairs.end());
    stats_.scan.prefixes_scanned += local.stats.scan.prefixes_scanned;
    stats_.scan.candidates_evaluated += local.stats.scan.candidates_evaluated;
    stats_.scan.pairs_emitted += local.stats.scan.pairs_emitted;
    stats_.sources_total += local.stats.sources_total;
    stats_.sources_fallback += local.stats.sources_fallback;
    stats_.fallback_no_candidates += local.stats.fallback_no_candidates;
    stats_.fallback_low_estimate += local.stats.fallback_low_estimate;
    stats_.fallback_low_exact += local.stats.fallback_low_exact;
    stats_.lsh_candidates += local.stats.lsh_candidates;
    stats_.estimates_skipped += local.stats.estimates_skipped;
    stats_.survivors_verified += local.stats.survivors_verified;
    stats_.max_estimate_error =
        std::max(stats_.max_estimate_error, local.stats.max_estimate_error);
  }
}

std::vector<core::SiblingPair> SketchDetector::detect(const core::DetectIndex& index,
                                                      const core::DetectOptions& options) {
  auto& registry = obs::MetricsRegistry::global();
  const auto run_start = std::chrono::steady_clock::now();
  stats_ = SketchStats{};
  stats_.scan.threads_used = pool_.thread_count();

  const auto signature_start = std::chrono::steady_clock::now();
  const SketchIndex sketch = SketchIndex::build(index, params_, &pool_);
  stats_.signature_build_ms = elapsed_ms(signature_start);

  std::vector<core::SiblingPair> pairs;
  {
    const auto start = std::chrono::steady_clock::now();
    detect_direction(index, sketch, Family::v4, options.metric, pairs);
    stats_.scan.v4_direction_ms = elapsed_ms(start);
  }
  {
    const auto start = std::chrono::steady_clock::now();
    detect_direction(index, sketch, Family::v6, options.metric, pairs);
    stats_.scan.v6_direction_ms = elapsed_ms(start);
  }

  // Same global merge as the exact engine: order and dedup match exactly.
  const auto merge_start = std::chrono::steady_clock::now();
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  stats_.scan.merge_ms = elapsed_ms(merge_start);

  // Registry updates once per run: candidate-filter selectivity, estimate
  // error and exact-verify rate, per the observability contract.
  registry.counter("sketch.runs").add();
  registry.counter("sketch.sources").add(static_cast<std::int64_t>(stats_.sources_total));
  registry.counter("sketch.sources_fallback")
      .add(static_cast<std::int64_t>(stats_.sources_fallback));
  registry.counter("sketch.lsh_candidates")
      .add(static_cast<std::int64_t>(stats_.lsh_candidates));
  registry.counter("sketch.estimates_skipped")
      .add(static_cast<std::int64_t>(stats_.estimates_skipped));
  registry.counter("sketch.survivors_verified")
      .add(static_cast<std::int64_t>(stats_.survivors_verified));
  registry.counter("sketch.pairs_emitted").add(static_cast<std::int64_t>(pairs.size()));
  registry.histogram("sketch.estimate_error_ppm")
      .record(static_cast<std::uint64_t>(stats_.max_estimate_error * 1e6));
  registry.histogram("sketch.run_us")
      .record(static_cast<std::uint64_t>(elapsed_ms(run_start) * 1000.0));
  return pairs;
}

namespace {

std::vector<core::SiblingPair> detect_dispatch(const core::DetectIndex& index,
                                               const core::DetectOptions& options,
                                               const SketchParams& params,
                                               SketchStats* stats_out) {
  if (options.strategy == core::DetectStrategy::Exact) {
    core::ParallelDetector detector(options.threads);
    auto pairs = detector.detect(index, options);
    if (options.stats != nullptr) *options.stats = detector.stats();
    return pairs;
  }
  SketchDetector detector(params, options.threads);
  auto pairs = detector.detect(index, options);
  if (stats_out != nullptr) *stats_out = detector.stats();
  if (options.stats != nullptr) *options.stats = detector.stats().scan;
  return pairs;
}

}  // namespace

std::vector<core::SiblingPair> detect_sibling_prefixes(const core::DualStackCorpus& corpus,
                                                       const core::DetectOptions& options,
                                                       const SketchParams& params,
                                                       SketchStats* stats_out) {
  return detect_dispatch(corpus.detect_index(), options, params, stats_out);
}

std::vector<core::SiblingPair> detect_sibling_prefixes(const core::SetCorpus& corpus,
                                                       const core::DetectOptions& options,
                                                       const SketchParams& params,
                                                       SketchStats* stats_out) {
  return detect_dispatch(corpus.detect_index(), options, params, stats_out);
}

}  // namespace sp::sketch
