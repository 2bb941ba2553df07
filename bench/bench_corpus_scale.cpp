// Corpus build cost at synth scale N (default config, last month): wall
// time of DualStackCorpus::build, the process peak-RSS growth it causes,
// and the per-edge figures, plus the layers around it for context.
//
//   ./build/bench/bench_corpus_scale 4
//
// Run one scale per process: peak RSS (VmHWM) only rises, so the growth
// reading is the corpus's own only while no earlier phase set a higher
// peak — true here, where the universe and snapshot come first and are
// smaller.
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "core/corpus.h"
#include "core/detect.h"
#include "obs/rss.h"
#include "synth/universe.h"

namespace {

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  sp::synth::SynthConfig config;
  config.scale = argc > 1 ? std::atoi(argv[1]) : 1;
  if (config.scale < 1) {
    std::fprintf(stderr, "usage: %s [scale >= 1]\n", argv[0]);
    return 2;
  }

  auto start = std::chrono::steady_clock::now();
  const sp::synth::SyntheticInternet universe(config);
  const double universe_ms = ms_since(start);
  start = std::chrono::steady_clock::now();
  const auto snapshot = universe.snapshot_at(universe.month_count() - 1);
  const double snapshot_ms = ms_since(start);

  const long peak_before_kb = sp::obs::peak_rss_kb();
  start = std::chrono::steady_clock::now();
  const auto corpus = sp::core::DualStackCorpus::build(snapshot, universe.rib());
  const double corpus_ms = ms_since(start);
  const long peak_after_kb = sp::obs::peak_rss_kb();
  start = std::chrono::steady_clock::now();
  const auto pairs = sp::core::detect_sibling_prefixes(corpus, {.threads = 1});
  const double detect_ms = ms_since(start);

  const auto& index = corpus.detect_index();
  const double edges =
      static_cast<double>(index.v4.set_elements.size() + index.v6.set_elements.size());
  const double growth_mb = static_cast<double>(peak_after_kb - peak_before_kb) / 1024.0;
  std::printf(
      "scale %d: universe %.0f ms, snapshot_at %.0f ms, corpus build %.0f ms, exact detect "
      "(1 thread) %.0f ms, %zu pairs\n",
      config.scale, universe_ms, snapshot_ms, corpus_ms, detect_ms, pairs.size());
  std::printf(
      "  %.0f edges: %.0f ns/edge, peak RSS %.0f MB (+%.0f MB in the build, %.0f B/edge), "
      "memory_bytes %.0f B/edge\n",
      edges, corpus_ms * 1e6 / edges, static_cast<double>(peak_after_kb) / 1024.0, growth_mb,
      growth_mb * 1048576.0 / edges, static_cast<double>(corpus.memory_bytes()) / edges);
  return 0;
}
