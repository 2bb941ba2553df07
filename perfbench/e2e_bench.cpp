// sp_e2e_bench — the end-to-end benchmark binary (see README.md).
//
//   sp_e2e_bench --workload build-s2|campaign-s1|serve-reload --seed N
//                --seconds S --trace 0|1 --work DIR [--commit ID]
//
// Each workload sets up from the seed, then repeats its end-to-end
// operation inside a measured window of S seconds and checks every output
// against an oracle. With --trace 0 the last stdout line carries the
// end-to-end metrics; with --trace 1 it carries the per-layer metrics.
// Per-layer times come from spans this file records around calls into
// each module's public functions — nothing inside the libraries changes.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bgp/rib.h"
#include "core/corpus.h"
#include "core/detect.h"
#include "core/sptuner.h"
#include "io/snapshot_csv.h"
#include "mrt/file.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "pipeline/campaign.h"
#include "serve/lookup.h"
#include "serve/service.h"
#include "serve/sibdb.h"
#include "stream/reload.h"
#include "synth/determinism.h"
#include "synth/universe.h"

#ifndef SP_BENCH_BUILD_TYPE
#define SP_BENCH_BUILD_TYPE "unknown"
#endif

using namespace sp;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

double seconds_since(Clock::time_point start) { return ms_since(start) / 1000.0; }

// --- Process probes --------------------------------------------------------

/// One "VmXXX:" field of /proc/self/status in kB, 0 if absent.
long proc_status_kb(std::string_view key) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(key, 0) == 0) return std::atol(line.c_str() + key.size());
  }
  return 0;
}

double rss_mb() { return static_cast<double>(proc_status_kb("VmRSS:")) / 1024.0; }
double peak_rss_mb() { return static_cast<double>(proc_status_kb("VmHWM:")) / 1024.0; }

/// Resets VmHWM to the current RSS, so the next peak read covers only what
/// happened since (obs::peak_rss_kb reads the process-lifetime peak).
bool reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

/// Returns freed heap to the OS, resets the peak and returns the RSS the
/// next peak_rss_mb() reading should be taken against (MB).
double fresh_peak_baseline() {
  ::malloc_trim(0);
  reset_peak_rss();
  return rss_mb();
}

double cpu_seconds() {
  struct rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto tv = [](const timeval& t) { return t.tv_sec + t.tv_usec / 1e6; };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

/// The ids of this process's threads, ascending.
std::vector<int> thread_ids() {
  std::vector<int> ids;
  for (const auto& entry : fs::directory_iterator("/proc/self/task")) {
    ids.push_back(std::atoi(entry.path().filename().c_str()));
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// Summed on-CPU time of the given threads in ms: the first field of
/// /proc/self/task/<id>/schedstat (ns). A thread that has exited reads 0.
double threads_cpu_ms(const std::vector<int>& ids) {
  double ns = 0.0;
  for (const int id : ids) {
    std::ifstream schedstat("/proc/self/task/" + std::to_string(id) + "/schedstat");
    double on_cpu = 0.0;
    if (schedstat >> on_cpu) ns += on_cpu;
  }
  return ns / 1e6;
}

// --- Statistics ------------------------------------------------------------

/// Nearest-rank quantile (q in [0,1]) of an unsorted sample; 0 when empty.
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

/// "a, b, c" with three decimals, for the human table.
std::string join(const std::vector<double>& values) {
  std::string text;
  char number[32];
  for (const double value : values) {
    std::snprintf(number, sizeof number, "%.3f", value);
    text += (text.empty() ? "" : ", ") + std::string(number);
  }
  return text;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

// --- Spans -----------------------------------------------------------------

/// Layer spans recorded around calls into the libraries, on the calling
/// thread only. Disabled, run() is a plain call. A span's self time is its
/// duration minus the durations of the spans it directly encloses.
class SpanLog {
 public:
  void set_enabled(bool enabled) noexcept { enabled_ = enabled; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  template <class F>
  decltype(auto) run(std::string_view name, F&& body) {
    const Scope scope(*this, name);
    return std::forward<F>(body)();
  }

  /// Total self time of every closed span called `name`.
  [[nodiscard]] double self_ms(std::string_view name) const {
    double total = 0.0;
    for (const Span& span : closed_) {
      if (span.name == name) total += span.duration_ms - span.child_ms;
    }
    return total;
  }

  /// Self-time totals per span name.
  [[nodiscard]] std::map<std::string, double> self_by_name() const {
    std::map<std::string, double> totals;
    for (const Span& span : closed_) totals[span.name] += span.duration_ms - span.child_ms;
    return totals;
  }

  void clear() { closed_.clear(); }

 private:
  struct Span {
    std::string name;
    Clock::time_point start;
    double duration_ms = 0.0;
    double child_ms = 0.0;
  };

  class Scope {
   public:
    Scope(SpanLog& log, std::string_view name) : log_(log.enabled_ ? &log : nullptr) {
      if (log_ != nullptr) log_->open_.push_back({std::string(name), Clock::now(), 0.0, 0.0});
    }
    ~Scope() {
      if (log_ == nullptr) return;
      Span span = std::move(log_->open_.back());
      log_->open_.pop_back();
      span.duration_ms = ms_since(span.start);
      if (!log_->open_.empty()) log_->open_.back().child_ms += span.duration_ms;
      log_->closed_.push_back(std::move(span));
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
  };

  bool enabled_ = false;
  std::vector<Span> open_;
  std::vector<Span> closed_;
};

// --- Metric catalog --------------------------------------------------------

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The end-to-end metrics every workload reports with --trace 0. Names are
// generic so each one exists on every workload; README.md maps them to the
// workload-specific quantities (build_s, campaign_s, serve_keys_per_s, ...).
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},      // median of the run's repeated set-ups
    {"op_s", "s"},         // wall of the workload's end-to-end operation
    {"cpu_s", "s"},        // process CPU seconds of that operation
    {"warm_ms", "ms"},     // the workload's take-up of published state
    {"peak_rss_mb", "MB"}, // process peak RSS growth inside the measured window
};

// The per-layer metrics every workload reports with --trace 1; a layer the
// workload does not run reads 0.
constexpr MetricSpec kPerLayer[] = {
    {"synth.universe_ms", "ms"},
    {"mrt.roundtrip_ms", "ms"},
    {"bgp.rib_ms", "ms"},
    {"dns.snapshot_ms", "ms"},
    {"core.corpus_ms", "ms"},
    {"core.corpus_rss_mb", "MB"},
    {"core.corpus_edges", "count"},
    {"core.corpus_ns_per_edge", "ns"},
    {"core.corpus_bytes_per_edge", "B"},
    {"core.detect_ms", "ms"},
    {"core.detect_candidates", "count"},
    {"core.detect_candidates_per_pair", "ratio"},
    {"core.sptuner_ms", "ms"},
    {"core.sptuner_max_pair_ms", "ms"},
    {"core.sptuner_changed_share", "ratio"},
    {"serve.sibdb_write_ms", "ms"},
    {"serve.sibdb_bytes", "B"},
    {"serve.sibdb_verify_ms", "ms"},
    {"pipeline.evolve_ms", "ms"},
    {"pipeline.export_ms", "ms"},
    {"pipeline.corpus_ms", "ms"},
    {"pipeline.detect_ms", "ms"},
    {"pipeline.sptuner_ms", "ms"},
    {"pipeline.publish_ms", "ms"},
    {"pipeline.sibdb_ms", "ms"},
    {"pipeline.sibdelta_ms", "ms"},
    {"pipeline.diff_ms", "ms"},
    {"pipeline.longitudinal_ms", "ms"},
    {"pipeline.outside_stages_ms", "ms"},
    {"pipeline.resume_stages_rerun", "count"},
    {"serve.activate_ms", "ms"},
    {"stream.spdl_apply_ms", "ms"},
    {"serve.generation_rss_mb", "MB"},
    {"serve.lookup_ns_per_key", "ns"},
    {"serve.hit_share", "ratio"},
    {"net.frame_p50_us", "us"},
    {"net.frame_p99_us", "us"},
    {"net.us_per_frame_outside_lookup", "us"},
    {"net.bytes_per_key", "B"},
    {"net.reads_paused", "count"},
    {"net.protocol_errors", "count"},
    {"obs.trace_overhead_share", "ratio"},
    {"obs.attributed_share", "ratio"},
};

/// What a workload hands back to main().
struct Outcome {
  std::map<std::string, double> metrics;  // by catalog name
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  // first few failure reasons
  /// Workload-specific readings (build_s, serve_p99_us, ...) printed in
  /// the human table only.
  std::vector<std::pair<std::string, std::string>> notes;

  void fail(std::string reason) {
    ++failed;
    if (errors.size() < 8) errors.push_back(std::move(reason));
  }
  /// Counts one attempted operation; a false `ok` counts it failed.
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) fail(what);
  }
  void note(std::string name, double value, const char* unit, std::string extra = {}) {
    char text[128];
    std::snprintf(text, sizeof text, "%.6g %s%s%s", value, unit, extra.empty() ? "" : "  ",
                  extra.c_str());
    notes.emplace_back(std::move(name), text);
  }
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;
  std::string commit = "unknown";
};

constexpr int kSetupRepeats = 5;

/// Runs `setup` kSetupRepeats times and returns the median wall in s.
double timed_setups(const std::function<void(int)>& setup) {
  std::vector<double> walls;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const auto start = Clock::now();
    setup(i);
    walls.push_back(seconds_since(start));
  }
  return median(walls);
}

bool same_pair(const core::SiblingPair& a, const core::SiblingPair& b) {
  return a.v4 == b.v4 && a.v6 == b.v6 && a.similarity == b.similarity &&
         a.shared_domains == b.shared_domains && a.v4_domain_count == b.v4_domain_count &&
         a.v6_domain_count == b.v6_domain_count;
}

/// Reopens `path` and checks it holds exactly `pairs`, field by field.
bool sibdb_matches(const std::string& path, const std::vector<core::SiblingPair>& pairs,
                   std::string* error) {
  const auto db = serve::SiblingDB::load(path, error);
  if (!db) return false;
  if (db->size() != pairs.size()) {
    *error = "record count " + std::to_string(db->size()) + " != " + std::to_string(pairs.size());
    return false;
  }
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    if (!same_pair(db->pair(i), pairs[i])) {
      *error = "record " + std::to_string(i) + " differs from the tuned pair";
      return false;
    }
  }
  return true;
}

// --- The publish path: synth config -> validated .sibdb --------------------

constexpr unsigned kCoreThreads = 4;  // detection and SP-Tuner workers

/// Per-layer readings of one core run (RSS and the slowest pair only when
/// traced).
struct CoreLayers {
  double corpus_rss_mb = 0.0;
  double edges = 0.0;
  double candidates = 0.0;
  double detected = 0.0;
  double tuned_inputs = 0.0;
  double tuned_changed = 0.0;
  double max_pair_ms = 0.0;
};

/// Corpus -> exact detection -> SP-Tuner-MS. With spans on, also measures
/// the corpus build's RSS growth (freed heap returned first, the peak reset),
/// and times every pair's tuning alone in a "probe" span for the
/// slowest-pair reading. The corpus is released inside its own span: tearing
/// it down is part of that layer's cost.
std::vector<core::SiblingPair> run_core(const dns::ResolutionSnapshot& snapshot,
                                        const bgp::Rib& rib, SpanLog& spans, Outcome& out,
                                        CoreLayers& layers) {
  const bool traced = spans.enabled();
  const double rss_before = traced ? fresh_peak_baseline() : 0.0;
  std::optional<core::DualStackCorpus> corpus;
  spans.run("core.corpus", [&] { corpus.emplace(core::DualStackCorpus::build(snapshot, rib)); });
  if (traced) layers.corpus_rss_mb = peak_rss_mb() - rss_before;
  for (const Family family : {Family::v4, Family::v6}) {
    const auto& offsets = corpus->detect_index().side(family).set_offsets;
    layers.edges += offsets.empty() ? 0.0 : static_cast<double>(offsets.back());
  }
  out.check(corpus->ds_domain_count() > 0, "corpus has no dual-stack domain");

  core::DetectStats stats;
  const auto pairs = spans.run("core.detect", [&] {
    return core::detect_sibling_prefixes(*corpus, {.threads = kCoreThreads, .stats = &stats});
  });
  out.check(!pairs.empty(), "detection found no pair");
  layers.candidates = static_cast<double>(stats.candidates_evaluated);
  layers.detected = static_cast<double>(pairs.size());

  const core::SpTunerMs tuner(*corpus);
  auto tuned = spans.run("core.sptuner",
                         [&] { return tuner.tune_all_parallel(pairs, kCoreThreads); });
  out.check(tuned.input_count == pairs.size() && !tuned.pairs.empty(),
            "SP-Tuner lost its input");
  layers.tuned_inputs = static_cast<double>(tuned.input_count);
  layers.tuned_changed = static_cast<double>(tuned.changed_count);
  if (traced) {
    spans.run("probe.tune_pair", [&] {
      for (const auto& pair : pairs) {
        const auto start = Clock::now();
        const auto refined = tuner.tune_pair(pair);
        layers.max_pair_ms = std::max(layers.max_pair_ms, ms_since(start));
        if (refined.empty()) out.fail("tune_pair returned nothing");
      }
    });
  }
  spans.run("core.corpus", [&] { corpus.reset(); });
  return std::move(tuned.pairs);
}

/// The traced readings of one input universe: span self times by name, the
/// operation's wall and the named layers' share of it, one entry per traced
/// run, and its core readings (the counts are exact, the same on every run).
struct TracedUniverse {
  std::map<std::string, std::vector<double>> self_ms;
  std::vector<double> wall_ms, attributed_ms;
  CoreLayers layers;
  double sibdb_bytes = 0.0;

  void add(const SpanLog& spans) {
    for (const auto& [name, ms] : spans.self_by_name()) self_ms[name].push_back(ms);
  }
};

/// A layer's time over a run's universes: each universe's median over its
/// traced runs, summed over the universes.
double layer_ms(const std::vector<TracedUniverse>& universes, const std::string& name) {
  double total = 0.0;
  for (const auto& universe : universes) {
    const auto it = universe.self_ms.find(name);
    if (it != universe.self_ms.end()) total += median(it->second);
  }
  return total;
}

/// obs.trace_overhead_share and obs.attributed_share over a run's universes:
/// the traced wall and the attributed time against the untraced wall
/// (`untraced_ms`, by universe), each a per-universe median summed over the
/// universes.
void put_trace_shares(const std::vector<TracedUniverse>& universes,
                      const std::vector<double>& untraced_ms, Outcome& out) {
  double traced = 0.0, attributed = 0.0, untraced = 0.0;
  for (std::size_t u = 0; u < universes.size(); ++u) {
    traced += median(universes[u].wall_ms);
    attributed += median(universes[u].attributed_ms);
    untraced += untraced_ms[u];
  }
  out.metrics["obs.trace_overhead_share"] = traced / untraced - 1.0;
  out.metrics["obs.attributed_share"] = attributed / untraced;
}

/// The core.* metrics over a run's universes: times as in layer_ms, counts
/// summed, shares and per-edge figures taken of those sums; the corpus RSS
/// is the universes' mean and the slowest pair their maximum.
void put_core_layers(const std::vector<TracedUniverse>& universes, Outcome& out) {
  CoreLayers sum;
  for (const auto& universe : universes) {
    const CoreLayers& layers = universe.layers;
    sum.corpus_rss_mb += layers.corpus_rss_mb / static_cast<double>(universes.size());
    sum.edges += layers.edges;
    sum.candidates += layers.candidates;
    sum.detected += layers.detected;
    sum.tuned_inputs += layers.tuned_inputs;
    sum.tuned_changed += layers.tuned_changed;
    sum.max_pair_ms = std::max(sum.max_pair_ms, layers.max_pair_ms);
  }
  auto& m = out.metrics;
  m["core.corpus_ms"] = layer_ms(universes, "core.corpus");
  m["core.corpus_rss_mb"] = sum.corpus_rss_mb;
  m["core.corpus_edges"] = sum.edges;
  if (sum.edges > 0) {
    m["core.corpus_ns_per_edge"] = m["core.corpus_ms"] * 1e6 / sum.edges;
    m["core.corpus_bytes_per_edge"] =
        sum.corpus_rss_mb * static_cast<double>(universes.size()) * 1048576.0 / sum.edges;
  }
  m["core.detect_ms"] = layer_ms(universes, "core.detect");
  m["core.detect_candidates"] = sum.candidates;
  if (sum.detected > 0) m["core.detect_candidates_per_pair"] = sum.candidates / sum.detected;
  m["core.sptuner_ms"] = layer_ms(universes, "core.sptuner");
  m["core.sptuner_max_pair_ms"] = sum.max_pair_ms;
  if (sum.tuned_inputs > 0) m["core.sptuner_changed_share"] = sum.tuned_changed / sum.tuned_inputs;
}

/// The input size of a publish: the addresses the snapshot's dual-stack
/// domains resolve to, summed (the corpus reads only those). Corpus work,
/// and with it publish time, follows this count; the domain count alone
/// does not (time per domain differs up to 2x between scale-2 universes).
double resolved_addresses(const dns::ResolutionSnapshot& snapshot) {
  double addresses = 0.0;
  for (const auto& entry : snapshot.entries()) {
    if (entry.dual_stack()) addresses += static_cast<double>(entry.v4.size() + entry.v6.size());
  }
  return addresses;
}

/// One publish: synth -> MRT write/read -> RIB -> snapshot -> core ->
/// .sibdb write -> reopen-and-compare. Returns the published pairs and sets
/// `addresses` to the input size, resolved_addresses() of the snapshot.
/// Every intermediate is released inside the span of the layer that made it.
std::vector<core::SiblingPair> publish(const synth::SynthConfig& config, const fs::path& dir,
                                       SpanLog& spans, Outcome& out, CoreLayers& layers,
                                       double& addresses) {
  fs::create_directories(dir);
  std::optional<synth::SyntheticInternet> universe;
  std::optional<std::vector<mrt::MrtRecord>> records;
  spans.run("synth.universe", [&] {
    universe.emplace(config);
    records.emplace(universe->mrt_dump());
  });
  const std::string mrt_path = (dir / "rib.mrt").string();
  std::string error;
  std::optional<std::vector<mrt::MrtRecord>> parsed;
  spans.run("mrt.roundtrip", [&] {
    if (mrt::write_file(mrt_path, *records)) parsed = mrt::read_file(mrt_path, &error);
  });
  out.check(parsed.has_value() && parsed->size() == records->size(), "MRT round trip: " + error);
  if (!parsed) return {};
  std::optional<bgp::Rib> rib;
  spans.run("bgp.rib", [&] { rib.emplace(bgp::Rib::from_mrt(*parsed)); });
  out.check(rib->prefix_count() > 0, "RIB is empty");
  std::optional<dns::ResolutionSnapshot> snapshot;
  spans.run("dns.snapshot", [&] { snapshot.emplace(universe->snapshot_at(config.months - 1)); });
  out.check(snapshot->domain_count() > 0, "snapshot is empty");
  addresses = resolved_addresses(*snapshot);

  auto pairs = run_core(*snapshot, *rib, spans, out, layers);

  const std::string db_path = (dir / "siblings.sibdb").string();
  const bool written =
      spans.run("serve.sibdb_write", [&] { return serve::write_sibdb(db_path, pairs, "bench"); });
  out.check(written, "cannot write " + db_path);
  const bool valid = written && spans.run("serve.sibdb_verify", [&] {
    return sibdb_matches(db_path, pairs, &error);
  });
  out.check(valid, "published .sibdb does not reload to the tuned pairs: " + error);

  spans.run("dns.snapshot", [&] { snapshot.reset(); });
  spans.run("bgp.rib", [&] { rib.reset(); });
  spans.run("mrt.roundtrip", [&] { parsed.reset(); });
  spans.run("synth.universe", [&] {
    records.reset();
    universe.reset();
  });
  return pairs;
}

synth::SynthConfig build_config(std::uint64_t seed, int scale) {
  synth::SynthConfig config;
  config.seed = seed;
  config.scale = scale;
  return config;
}

// Warm-up inputs are fixed universes, the same for every seed: they only
// warm code, allocator and page cache, and a fixed size keeps set-up time
// from moving with the seed's universe.
constexpr std::uint64_t kWarmUpSeed = 1;

// build-s2 cycles through this many scale-2 universes, synth seeds
// mix(seed, 0..n-1), so every commit measures the same inputs however many
// publishes fit in the window.
constexpr int kBuildUniverses = 3;

Outcome run_build(const Options& options) {
  Outcome out;
  SpanLog spans;
  const fs::path root = fs::path(options.work_dir) / "build";

  // Set-up: warm-up publishes of three scale-1 universes (one alone is
  // ~0.35 s, too short to time steadily), repeated and timed.
  out.metrics["setup_s"] = timed_setups([&](int i) {
    for (int u = 0; u < 3; ++u) {
      CoreLayers ignored;
      Outcome scratch;
      double addresses = 0.0;
      const fs::path dir = root / ("warm-" + std::to_string(i));
      publish(build_config(kWarmUpSeed + u, 1), dir, spans, scratch, ignored, addresses);
      fs::remove_all(dir);
    }
  });

  // Universe size varies with the synth seed (resolved addresses span
  // ~0.55M-1.75M at scale 2, and publish time follows them), so the
  // end-to-end readings are per million resolved addresses: each universe's
  // median over its publishes, summed over the universes and divided by
  // their summed addresses. A traced run publishes each universe twice in a
  // row, untraced then traced, for the overhead comparison.
  struct UniverseRuns {
    double addresses = 0.0;
    std::vector<double> walls, cpus, growths;
  };
  std::vector<UniverseRuns> runs(kBuildUniverses);
  std::vector<TracedUniverse> traced_universes(kBuildUniverses);
  std::vector<double> warm_ms;
  std::size_t pair_count = 0;

  const auto window = Clock::now();
  const int min_ops = kBuildUniverses * (options.trace ? 2 : 1);
  for (int op = 0; op < min_ops || seconds_since(window) < options.seconds; ++op) {
    const bool traced = options.trace && op % 2 == 1;
    const int u = (options.trace ? op / 2 : op) % kBuildUniverses;
    spans.set_enabled(traced);
    spans.clear();
    const fs::path dir = root / ("op-" + std::to_string(op));
    const synth::SynthConfig config = build_config(synth::mix(options.seed, u), 2);
    CoreLayers layers;
    double addresses = 0.0;
    const double rss0 = fresh_peak_baseline();
    const double cpu0 = cpu_seconds();
    const auto start = Clock::now();
    const auto pairs =
        spans.run("build", [&] { return publish(config, dir, spans, out, layers, addresses); });
    const double wall = seconds_since(start) - spans.self_ms("probe.tune_pair") / 1000.0;
    const double cpu = cpu_seconds() - cpu0;
    const double growth = peak_rss_mb() - rss0;
    pair_count += pairs.size();
    UniverseRuns& run = runs[u];
    if (traced) {
      TracedUniverse& universe = traced_universes[u];
      universe.wall_ms.push_back(wall * 1000.0);
      double attributed_ms = 0.0;
      for (const auto& [name, ms] : spans.self_by_name()) {
        if (name != "build" && !name.starts_with("probe.")) attributed_ms += ms;
      }
      universe.attributed_ms.push_back(attributed_ms);
    } else {
      run.addresses = addresses;
      run.walls.push_back(wall);
      run.cpus.push_back(cpu);
      run.growths.push_back(growth);
    }

    // Take-up of the published list by a consumer: reopen and verify, per
    // 10k published pairs. One reopen is ~1.5 ms, so many are timed.
    const std::string db_path = (dir / "siblings.sibdb").string();
    for (int i = 0; i < 100 && !pairs.empty(); ++i) {
      std::string error;
      const auto reopen = Clock::now();
      const bool ok = sibdb_matches(db_path, pairs, &error);
      warm_ms.push_back(ms_since(reopen) * 1e4 / static_cast<double>(pairs.size()));
      out.check(ok, "reopened .sibdb differs: " + error);
    }
    if (traced) {
      TracedUniverse& universe = traced_universes[u];
      universe.add(spans);
      universe.layers = layers;
      universe.sibdb_bytes = static_cast<double>(fs::exists(db_path) ? fs::file_size(db_path) : 0);
    }
    fs::remove_all(dir);
  }

  double wall_sum = 0.0, cpu_sum = 0.0, growth_sum = 0.0, address_sum = 0.0;
  std::size_t publishes = 0;
  std::vector<double> untraced_ms;
  for (int u = 0; u < kBuildUniverses; ++u) {
    const UniverseRuns& run = runs[u];
    untraced_ms.push_back(median(run.walls) * 1000.0);
    wall_sum += median(run.walls);
    cpu_sum += median(run.cpus);
    growth_sum += median(run.growths);
    address_sum += run.addresses;
    publishes += run.walls.size();
    out.notes.emplace_back("universe " + std::to_string(u),
                           std::to_string(static_cast<long>(run.addresses)) +
                               " addresses, publish walls (s): " + join(run.walls));
  }
  auto& m = out.metrics;
  const double per_maddress = 1e6 / address_sum;
  m["op_s"] = wall_sum * per_maddress;
  m["cpu_s"] = cpu_sum * per_maddress;
  m["warm_ms"] = median(warm_ms);
  m["peak_rss_mb"] = growth_sum * per_maddress;
  out.note("build_s", wall_sum / kBuildUniverses, "s",
           "mean over the universes of each one's median; " + std::to_string(publishes) +
               " untraced publishes");
  out.note("published pairs", static_cast<double>(pair_count), "pairs (all publishes)");
  if (options.trace) {
    for (const char* layer : {"synth.universe", "mrt.roundtrip", "bgp.rib", "dns.snapshot",
                              "serve.sibdb_write", "serve.sibdb_verify"}) {
      m[std::string(layer) + "_ms"] = layer_ms(traced_universes, layer);
    }
    put_core_layers(traced_universes, out);
    double bytes = 0.0;
    for (const auto& universe : traced_universes) bytes += universe.sibdb_bytes;
    m["serve.sibdb_bytes"] = bytes;
    put_trace_shares(traced_universes, untraced_ms, out);
  }
  return out;
}

// --- campaign-s1: a 12-month campaign and its warm resume ------------------

pipeline::CampaignConfig campaign_config(std::uint64_t seed, int months, int orgs,
                                         const fs::path& dir) {
  pipeline::CampaignConfig config;
  config.synth.seed = seed;
  config.synth.scale = 1;
  config.synth.months = months;
  config.synth.organization_count = orgs;
  config.threads = 1;
  config.stream_detect = true;
  config.out_dir = dir.string();
  return config;
}

/// Runs a cold campaign in a fresh `dir`; every stage must end Done.
pipeline::CampaignReport cold_campaign(const pipeline::CampaignConfig& config, Outcome& out) {
  fs::remove_all(config.out_dir);
  auto report = pipeline::Campaign(config).run(false);
  out.check(report.error.empty(), "campaign set-up failed: " + report.error);
  for (const auto& stage : report.stages) {
    out.check(stage.status == pipeline::StageStatus::Done,
              "cold stage " + stage.name + " ended " + std::string(to_string(stage.status)) +
                  (stage.error.empty() ? "" : ": " + stage.error));
  }
  return report;
}

/// The stage kind of a stage name: "sptuner[2024-01-11]" -> "sptuner".
std::string stage_kind(const std::string& name) { return name.substr(0, name.find('[')); }

// campaign-s1 cycles through this many universes, synth seeds
// mix(seed, 0..n-1): campaign time differs between universes by more than
// their sizes explain, so few universes per seed would make the seed, not
// the program, move the readings. Two keep two cold runs of each in a 25 s
// window, so each universe's median has two samples.
constexpr int kCampaignUniverses = 2;
// A resume is ~0.3 s, so five per cold run give each universe's median ten
// samples in a window.
constexpr int kResumesPerRun = 5;

Outcome run_campaign(const Options& options) {
  Outcome out;
  SpanLog spans;
  const fs::path root = fs::path(options.work_dir) / "campaign";
  const auto config_of = [&](int u, const fs::path& dir) {
    return campaign_config(synth::mix(options.seed, u), 12, 3000, dir);
  };

  // Set-up: count each universe's input (the end-to-end readings are per
  // million snapshot entries summed over the months), then a warm-up
  // campaign of a small fixed universe.
  std::vector<double> domain_months(kCampaignUniverses);
  out.metrics["setup_s"] = timed_setups([&](int i) {
    for (int u = 0; u < kCampaignUniverses; ++u) {
      const synth::SyntheticInternet universe(config_of(u, root).synth);
      domain_months[u] = 0.0;
      for (int month = 0; month < universe.month_count(); ++month) {
        domain_months[u] += static_cast<double>(universe.snapshot_at(month).domain_count());
      }
    }
    Outcome scratch;
    const auto dir = root / ("warm-" + std::to_string(i));
    (void)cold_campaign(campaign_config(kWarmUpSeed, 2, 500, dir), scratch);
    fs::remove_all(dir);
  });

  // Per universe: untraced cold walls, CPU, peak growth and resume walls;
  // traced: stage walls by kind. Each universe's last campaign directory is
  // kept until its next run (the traced run reads universe 0's at the end).
  struct UniverseRuns {
    std::vector<double> walls, cpus, growths, resumes, resume_cpus;
    fs::path dir;
  };
  std::vector<UniverseRuns> runs(kCampaignUniverses);
  std::vector<TracedUniverse> stages(kCampaignUniverses);
  double rerun = 0.0;
  std::size_t stage_count = 0;

  // The window ends on a whole round, so every universe has as many runs.
  const auto window = Clock::now();
  const int round = kCampaignUniverses * (options.trace ? 2 : 1);
  for (int op = 0; op < round || op % round != 0 || seconds_since(window) < options.seconds;
       ++op) {
    const bool traced = options.trace && op % 2 == 1;
    const int u = (options.trace ? op / 2 : op) % kCampaignUniverses;
    UniverseRuns& run = runs[u];
    spans.set_enabled(traced);
    spans.clear();
    if (!run.dir.empty()) fs::remove_all(run.dir);
    run.dir = root / ("op-" + std::to_string(op));
    const auto config = config_of(u, run.dir);

    const double rss0 = fresh_peak_baseline();
    const double cpu0 = cpu_seconds();
    const auto start = Clock::now();
    const auto cold = spans.run("pipeline.campaign", [&] { return cold_campaign(config, out); });
    const double wall = seconds_since(start);
    if (traced) {
      stages[u].wall_ms.push_back(wall * 1000.0);
    } else {
      run.walls.push_back(wall);
      run.cpus.push_back(cpu_seconds() - cpu0);
      run.growths.push_back(peak_rss_mb() - rss0);
    }
    stage_count = cold.stages.size();

    // Warm resumes of each cold run: each must find every stage Cached.
    std::size_t reran = 0;
    for (int r = 0; r < kResumesPerRun; ++r) {
      const double resume_cpu0 = cpu_seconds();
      const auto resume_start = Clock::now();
      const auto warm = spans.run("pipeline.resume",
                                  [&] { return pipeline::Campaign(config).run(true); });
      if (!traced) {
        run.resumes.push_back(ms_since(resume_start));
        run.resume_cpus.push_back((cpu_seconds() - resume_cpu0) * 1000.0);
      }
      out.check(warm.ok && warm.error.empty(), "resume failed: " + warm.error);
      for (const auto& stage : warm.stages) {
        if (stage.status != pipeline::StageStatus::Cached) ++reran;
        out.check(stage.status == pipeline::StageStatus::Cached,
                  "resume re-ran " + stage.name + " (" + std::string(to_string(stage.status)) +
                      ")");
      }
    }
    if (traced) {
      // Stage self times come from StageResult::wall_ms: with a 1-thread
      // pool, the graph runs dependents inline inside the parent stage's
      // trace span, so --trace stage spans nest everything downstream.
      std::map<std::string, double> by_kind;
      double staged = 0.0;
      for (const auto& stage : cold.stages) {
        by_kind["pipeline." + stage_kind(stage.name)] += stage.wall_ms;
        staged += stage.wall_ms;
      }
      by_kind["pipeline.outside_stages"] = wall * 1000.0 - staged;
      for (const auto& [name, ms] : by_kind) stages[u].self_ms[name].push_back(ms);
      // The stages are the attributed time; the campaign's own work outside
      // any stage is the unattributed rest.
      stages[u].attributed_ms.push_back(staged);
      rerun += static_cast<double>(reran);
    }
  }

  double wall_sum = 0.0, cpu_sum = 0.0, growth_sum = 0.0, resume_sum = 0.0, resume_cpu_sum = 0.0;
  double entries = 0.0;
  std::vector<double> untraced_ms;
  for (int u = 0; u < kCampaignUniverses; ++u) {
    const UniverseRuns& run = runs[u];
    untraced_ms.push_back(median(run.walls) * 1000.0);
    wall_sum += median(run.walls);
    cpu_sum += median(run.cpus);
    growth_sum += median(run.growths);
    resume_sum += median(run.resumes);
    resume_cpu_sum += median(run.resume_cpus);
    entries += domain_months[u];
    out.notes.emplace_back("universe " + std::to_string(u),
                           std::to_string(static_cast<long>(domain_months[u])) +
                               " domain-months, cold walls (s): " + join(run.walls) +
                               "; resumes (ms): " + join(run.resumes) +
                               "; resume CPU (ms): " + join(run.resume_cpus));
  }
  auto& m = out.metrics;
  const double per_mentry = 1e6 / entries;
  m["op_s"] = wall_sum * per_mentry;
  m["cpu_s"] = cpu_sum * per_mentry;
  // Per resume, not per entry: a resume hashes artifacts and rewrites the
  // manifest once per stage, and its cost does not follow the entry count.
  // CPU, not wall: the wall adds the wait on 107 fsyncs, which doubled it in
  // minutes of host I/O contention; resume_s below is the wall.
  m["warm_ms"] = resume_cpu_sum / kCampaignUniverses;
  m["peak_rss_mb"] = growth_sum * per_mentry;
  out.note("campaign_s", wall_sum / kCampaignUniverses, "s",
           "mean over the universes of each one's median");
  out.note("resume_s", resume_sum / kCampaignUniverses / 1000.0, "s", "likewise");
  out.note("stages per campaign", static_cast<double>(stage_count), "stages");

  if (options.trace) {
    for (const char* kind : {"evolve", "export", "corpus", "detect", "sptuner", "publish", "sibdb",
                             "sibdelta", "diff", "longitudinal", "outside_stages"}) {
      const std::string name = std::string("pipeline.") + kind;
      m[name + "_ms"] = layer_ms(stages, name);
    }
    m["pipeline.resume_stages_rerun"] = rerun;
    put_trace_shares(stages, untraced_ms, out);

    // The core layers inside one month, from universe 0's final-month
    // artifacts: the stage bodies are not reachable from here.
    SpanLog probe;
    probe.set_enabled(true);
    const fs::path& dir = runs[0].dir;
    const std::string date = config_of(0, dir).synth.end_date.to_string();
    std::string error;
    const auto records = mrt::read_file((dir / ("rib-" + date + ".mrt")).string(), &error);
    const auto snapshot = io::read_snapshot_csv((dir / ("snapshot-" + date + ".csv")).string());
    out.check(records && snapshot, "cannot read the final month's artifacts: " + error);
    if (records && snapshot) {
      const auto rib = bgp::Rib::from_mrt(*records);
      std::vector<TracedUniverse> month(1);
      const auto tuned = run_core(*snapshot, rib, probe, out, month[0].layers);
      out.check(!tuned.empty(), "final-month core run published nothing");
      month[0].add(probe);
      put_core_layers(month, out);
    }
  }
  for (const auto& run : runs) fs::remove_all(run.dir);
  return out;
}

// --- serve-reload: closed-loop lookups while RELOADs swap the slot ---------

constexpr unsigned kServerWorkers = 2;
constexpr unsigned kConnections = 2;     // query connections, one client thread each
constexpr unsigned kPipeline = 8;        // QUERY frames in flight per connection
constexpr unsigned kBatch = 256;         // keys per QUERY frame
constexpr std::size_t kKeyPool = 16384;  // distinct keys; hit-heavy by construction
constexpr double kHitShare = 0.9;        // share of keys drawn inside served prefixes
constexpr double kV6Share = 0.25;
constexpr std::size_t kFrameRing = 512;  // pre-encoded frames per connection
constexpr auto kReloadPeriod = std::chrono::milliseconds(400);

/// Linear-scan LPM oracle over one generation's records, with the
/// engine's tie rule: longest matching prefix; among records sharing it,
/// the highest similarity, first in file order on ties.
std::optional<serve::SiblingAnswer> oracle_answer(const std::vector<core::SiblingPair>& records,
                                                  const IPAddress& address) {
  const bool v4 = address.is_v4();
  const core::SiblingPair* best = nullptr;
  for (const auto& record : records) {
    const Prefix& prefix = v4 ? record.v4 : record.v6;
    if (!prefix.contains(address)) continue;
    const Prefix* held = best == nullptr ? nullptr : (v4 ? &best->v4 : &best->v6);
    if (held == nullptr || prefix.length() > held->length() ||
        (prefix.length() == held->length() && record.similarity > best->similarity)) {
      best = &record;
    }
  }
  if (best == nullptr) return std::nullopt;
  return serve::SiblingAnswer{v4 ? best->v4 : best->v6, v4 ? best->v6 : best->v4,
                              best->similarity,     best->shared_domains,
                              best->v4_domain_count, best->v6_domain_count};
}

IPAddress random_inside(const Prefix& prefix, std::uint64_t seed, std::uint64_t i) {
  if (prefix.family() == Family::v4) {
    const std::uint32_t host_mask = prefix.length() >= 32 ? 0u : (~0u >> prefix.length());
    const auto bits = static_cast<std::uint32_t>(synth::mix(seed, i, 4));
    return IPAddress(IPv4Address(prefix.address().v4().value() | (bits & host_mask)));
  }
  auto bytes = prefix.address().v6().bytes();
  for (unsigned bit = prefix.length(); bit < 128; ++bit) {
    if (synth::mix(seed, i, 6, bit) & 1) {
      bytes[bit / 8] |= static_cast<std::uint8_t>(0x80 >> (bit % 8));
    }
  }
  return IPAddress(IPv6Address(bytes));
}

/// The served data: both generations' records plus the key pool and its
/// oracle answers per generation content.
struct ServeData {
  std::string full_path;   // generation content 0 (month 1)
  std::string delta_path;  // .spdl: content 0 -> content 1 (month 2)
  std::vector<core::SiblingPair> records[2];
  std::vector<IPAddress> keys;
  std::vector<std::optional<serve::SiblingAnswer>> expected[2];
};

bool load_records(const std::string& path, std::vector<core::SiblingPair>& records,
                  std::string* error) {
  const auto db = serve::SiblingDB::load(path, error);
  if (!db) return false;
  records.clear();
  for (std::size_t i = 0; i < db->size(); ++i) records.push_back(db->pair(i));
  return true;
}

/// Publishes two months with a 2-month campaign (giving a full .sibdb and
/// the .spdl delta to the next month), then draws the key pool.
bool make_serve_data(std::uint64_t seed, const fs::path& dir, ServeData& data, Outcome& out) {
  const auto config = campaign_config(seed, 2, 3000, dir);
  (void)cold_campaign(config, out);
  const std::string first = config.synth.end_date.plus_months(-1).to_string();
  const std::string second = config.synth.end_date.to_string();
  data.full_path = (dir / ("siblings-" + first + ".sibdb")).string();
  data.delta_path = (dir / ("delta-" + second + ".spdl")).string();
  std::string error;
  if (!load_records(data.full_path, data.records[0], &error) ||
      !load_records((dir / ("siblings-" + second + ".sibdb")).string(), data.records[1], &error)) {
    out.check(false, "cannot read the published snapshots: " + error);
    return false;
  }

  data.keys.clear();
  const auto& base = data.records[0];
  for (std::uint64_t i = 0; data.keys.size() < kKeyPool; ++i) {
    const bool v6 = synth::unit(seed, i, 1) < kV6Share;
    if (synth::unit(seed, i, 2) < kHitShare) {
      const auto& record = base[synth::pick(base.size(), seed, i, 3)];
      data.keys.push_back(random_inside(v6 ? record.v6 : record.v4, seed, i));
      continue;
    }
    // A miss: an address outside every served prefix of either month.
    const IPAddress address =
        v6 ? random_inside(Prefix::must_parse("2000::/3"), seed, i)
           : random_inside(Prefix::must_parse("0.0.0.0/0"), seed, i);
    if (!oracle_answer(data.records[0], address) && !oracle_answer(data.records[1], address)) {
      data.keys.push_back(address);
    }
  }
  for (int content = 0; content < 2; ++content) {
    data.expected[content].clear();
    for (const auto& key : data.keys) {
      data.expected[content].push_back(oracle_answer(data.records[content], key));
    }
  }
  return true;
}

/// generation -> content (0 full, 1 delta-applied), filled as RELOADs ack.
class GenerationMap {
 public:
  void set(std::uint64_t generation, int content) {
    const std::lock_guard lock(mutex_);
    content_[generation] = content;
  }
  [[nodiscard]] std::optional<int> get(std::uint64_t generation) const {
    const std::lock_guard lock(mutex_);
    const auto it = content_.find(generation);
    if (it == content_.end()) return std::nullopt;
    return it->second;
  }

 private:
  mutable std::mutex mutex_;
  std::map<std::uint64_t, int> content_;
};

struct ClientTally {
  std::vector<double> rtt_us;
  std::uint64_t frames = 0;
  std::uint64_t keys = 0;
  std::uint64_t hits = 0;
  std::uint64_t failed_frames = 0;
  std::vector<std::string> errors;
  /// Answers whose generation had not acked yet when they arrived.
  struct Deferred {
    std::size_t frame;
    net::QueryResponse response;
  };
  std::vector<Deferred> deferred;
};

/// One connection's QUERY frames, drawn and encoded at set-up so the
/// window holds only serving: frame f carries kBatch keys at pseudo-random
/// pool offsets.
struct ClientFrames {
  std::vector<std::vector<std::size_t>> slots;
  std::vector<std::vector<std::uint8_t>> encoded;
};

ClientFrames make_frames(std::uint64_t seed, unsigned connection, const ServeData& data) {
  ClientFrames frames;
  frames.slots.resize(kFrameRing);
  frames.encoded.resize(kFrameRing);
  for (std::size_t f = 0; f < kFrameRing; ++f) {
    net::QueryRequest request{static_cast<std::uint32_t>(f), {}};
    for (unsigned slot = 0; slot < kBatch; ++slot) {
      const std::size_t key = synth::pick(kKeyPool, seed, 100 + connection, f, slot);
      frames.slots[f].push_back(key);
      request.keys.push_back(Prefix::of(data.keys[key], data.keys[key].max_prefix_length()));
    }
    net::encode_query_request(frames.encoded[f], request);
  }
  return frames;
}

/// Checks one QUERY response against the oracle; false names the fault.
bool answers_match(const ServeData& data, const std::vector<std::size_t>& slots, int content,
                   const net::QueryResponse& response, std::uint64_t& hits) {
  if (response.answers.size() != slots.size()) return false;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (response.answers[i] != data.expected[content][slots[i]]) return false;
    hits += response.answers[i].has_value() ? 1 : 0;
  }
  return true;
}

/// One closed-loop connection: kPipeline frames in flight, the next one
/// sent as each response arrives, until `stop`; then drains.
void client_loop(std::uint16_t port, const ClientFrames& frames, const ServeData& data,
                 const GenerationMap& generations, const std::atomic<bool>& stop,
                 std::atomic<std::uint64_t>& keys_answered, ClientTally& tally) {
  std::string error;
  auto client = net::Client::connect("127.0.0.1", port, &error);
  if (!client) {
    tally.errors.push_back("connect: " + error);
    ++tally.failed_frames;
    return;
  }

  std::deque<std::pair<std::size_t, Clock::time_point>> in_flight;
  std::size_t next_frame = 0;
  const auto send_next = [&] {
    const std::size_t f = next_frame++ % kFrameRing;
    in_flight.emplace_back(f, Clock::now());
    return client->send_bytes(frames.encoded[f], &error);
  };
  const auto fault = [&](std::string reason) {
    ++tally.failed_frames;
    if (tally.errors.size() < 4) tally.errors.push_back(std::move(reason));
  };
  for (unsigned i = 0; i < kPipeline; ++i) {
    if (!send_next()) return fault("send: " + error);
  }
  std::optional<int> last_content;
  std::uint64_t last_generation = 0;
  while (!in_flight.empty()) {
    const auto frame = client->read_frame(&error);
    if (!frame) return fault("read: " + error);
    const auto [f, sent] = in_flight.front();
    in_flight.pop_front();
    tally.rtt_us.push_back(std::chrono::duration<double, std::micro>(Clock::now() - sent).count());
    ++tally.frames;
    const auto response = frame->type == static_cast<std::uint8_t>(net::FrameType::kQueryResponse)
                              ? net::parse_query_response(frame->body, &error)
                              : std::nullopt;
    if (!response || response->request_id != f) {
      fault("bad QUERY response (type " + std::to_string(frame->type) + ")");
    } else {
      if (!last_content || response->generation != last_generation) {
        last_generation = response->generation;
        last_content = generations.get(last_generation);
      }
      if (!last_content) {
        tally.deferred.push_back({f, *response});
      } else if (!answers_match(data, frames.slots[f], *last_content, *response, tally.hits)) {
        fault("answer differs from the oracle (generation " + std::to_string(last_generation) +
              ")");
      }
      tally.keys += response->answers.size();
      keys_answered.fetch_add(response->answers.size(), std::memory_order_relaxed);
    }
    if (!stop.load(std::memory_order_relaxed) && !send_next()) return fault("send: " + error);
  }
}

/// Sends one RELOAD and waits for its ack; returns the new generation.
std::optional<std::uint64_t> reload(net::Client& control, const std::string& path,
                                    std::string* error) {
  std::vector<std::uint8_t> bytes;
  net::encode_reload_request(bytes, {path});
  if (!control.send_bytes(bytes, error)) return std::nullopt;
  const auto frame = control.read_frame(error, std::chrono::milliseconds(30000));
  if (!frame) return std::nullopt;
  const auto response = net::parse_reload_response(frame->body, error);
  if (!response) return std::nullopt;
  if (!response->ok) {
    *error = response->error;
    return std::nullopt;
  }
  return response->generation;
}

/// A running server over generation content 0, with its service.
struct ServeRig {
  obs::MetricsRegistry registry;
  serve::SiblingService service{1};
  std::unique_ptr<net::Server> server;
  GenerationMap generations;
  std::vector<int> server_threads;  // the threads start() created

  bool start(const ServeData& data, std::string* error) {
    if (!service.load(data.full_path, error)) return false;
    generations.set(service.snapshot()->generation, 0);
    const std::vector<int> before = thread_ids();
    server = std::make_unique<net::Server>(
        service, net::ServerConfig{.workers = kServerWorkers, .registry = &registry});
    const bool started = server->start(error);
    const std::vector<int> after = thread_ids();
    std::set_difference(after.begin(), after.end(), before.begin(), before.end(),
                        std::back_inserter(server_threads));
    return started;
  }
};

Outcome run_serve(const Options& options) {
  Outcome out;
  const fs::path root = fs::path(options.work_dir) / "serve";
  ServeData data;
  std::vector<ClientFrames> client_frames(kConnections);
  std::unique_ptr<ServeRig> rig;

  // Set-up: publish the two months, draw keys, oracle answers and frames,
  // start the server and warm every connection. Repeated; the last one
  // serves.
  out.metrics["setup_s"] = timed_setups([&](int i) {
    rig.reset();
    if (!make_serve_data(options.seed, root / ("setup-" + std::to_string(i)), data, out)) return;
    for (unsigned c = 0; c < kConnections; ++c) {
      client_frames[c] = make_frames(options.seed, c, data);
    }
    rig = std::make_unique<ServeRig>();
    std::string error;
    out.check(rig->start(data, &error), "server start: " + error);
    const std::atomic<bool> stop{true};  // one pipeline's worth per connection
    std::atomic<std::uint64_t> ignored{0};
    for (unsigned c = 0; c < kConnections; ++c) {
      ClientTally warm;
      client_loop(rig->server->port(), client_frames[c], data, rig->generations, stop, ignored,
                  warm);
      out.check(warm.failed_frames == 0, "warm-up frames failed");
    }
  });
  if (!rig || !rig->server) return out;

  std::string error;
  auto control = net::Client::connect("127.0.0.1", rig->server->port(), &error);
  out.check(control.has_value(), "control connect: " + error);
  if (!control) return out;

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> keys_answered{0};
  std::vector<ClientTally> tallies(kConnections);
  std::vector<double> full_ms, delta_ms;
  std::vector<double> cycle_server_cpu, cycle_cpu, cycle_growth;

  const double rss0 = fresh_peak_baseline();
  const double server_cpu0 = threads_cpu_ms(rig->server_threads);
  const auto window = Clock::now();
  std::vector<std::thread> clients;
  for (unsigned c = 0; c < kConnections; ++c) {
    clients.emplace_back(client_loop, rig->server->port(), std::cref(client_frames[c]),
                         std::cref(data), std::cref(rig->generations), std::cref(stop),
                         std::ref(keys_answered), std::ref(tallies[c]));
  }
  // RELOAD cadence: alternately the .spdl delta onto content 0 and the
  // full content-0 .sibdb, one every kReloadPeriod.
  std::uint64_t cycle_keys0 = 0;
  double cycle_server_ms0 = server_cpu0;
  double cycle_cpu0 = cpu_seconds();
  for (int cycle = 1;; ++cycle) {
    std::this_thread::sleep_until(window + cycle * kReloadPeriod);
    const std::uint64_t keys = keys_answered.load(std::memory_order_relaxed);
    const double server_ms = threads_cpu_ms(rig->server_threads);
    const double cpu = cpu_seconds();
    cycle_growth.push_back(peak_rss_mb() - rss0);
    reset_peak_rss();
    if (keys > cycle_keys0) {
      const double mkeys = static_cast<double>(keys - cycle_keys0) / 1e6;
      cycle_server_cpu.push_back((server_ms - cycle_server_ms0) / 1000.0 / mkeys);
      cycle_cpu.push_back((cpu - cycle_cpu0) / mkeys);
    }
    cycle_keys0 = keys;
    cycle_server_ms0 = server_ms;
    cycle_cpu0 = cpu;
    if (seconds_since(window) >= options.seconds) break;

    const bool to_delta = cycle % 2 == 1;
    const auto start = Clock::now();
    const auto generation = reload(*control, to_delta ? data.delta_path : data.full_path, &error);
    (to_delta ? delta_ms : full_ms).push_back(ms_since(start));
    out.check(generation.has_value(), "RELOAD failed: " + error);
    if (generation) rig->generations.set(*generation, to_delta ? 1 : 0);
  }
  stop.store(true);
  for (auto& thread : clients) thread.join();
  const double window_s = seconds_since(window);
  const double server_cpu_ms = threads_cpu_ms(rig->server_threads) - server_cpu0;
  const auto stats = rig->server->stats();

  std::vector<double> rtt;
  std::uint64_t frames = 0, keys = 0, hits = 0;
  for (auto& tally : tallies) {
    for (const auto& deferred : tally.deferred) {
      const auto content = rig->generations.get(deferred.response.generation);
      const auto& slots = client_frames[&tally - tallies.data()].slots[deferred.frame];
      if (!content || !answers_match(data, slots, *content, deferred.response, tally.hits)) {
        ++tally.failed_frames;
        tally.errors.push_back("deferred answer differs from the oracle");
      }
    }
    rtt.insert(rtt.end(), tally.rtt_us.begin(), tally.rtt_us.end());
    frames += tally.frames;
    keys += tally.keys;
    hits += tally.hits;
    out.attempted += tally.frames;
    for (std::uint64_t i = 0; i < tally.failed_frames; ++i) {
      out.fail(i < tally.errors.size() ? tally.errors[i] : "frame failed");
    }
  }
  out.check(stats.protocol_errors == 0, "server counted protocol errors");
  out.check(stats.reloads_failed == 0, "server counted failed RELOADs");

  auto& m = out.metrics;
  // The event loops are saturated, so wall per key is their on-CPU time per
  // key over the loop count plus what the host takes from their vCPUs. That
  // last part (steal) is excluded from on-CPU time and is not the program's:
  // across sets of runs, wall per key spread about twice as far as CPU per
  // key. serve_keys_per_s below still reports the wall throughput.
  m["op_s"] = median(cycle_server_cpu);
  m["cpu_s"] = median(cycle_cpu);
  m["warm_ms"] = (median(full_ms) + median(delta_ms)) / 2.0;
  m["peak_rss_mb"] = median(cycle_growth);
  const double p50 = quantile(rtt, 0.5);
  const double p99 = quantile(rtt, 0.99);
  out.note("serve_keys_per_s", static_cast<double>(keys) / window_s, "keys/s",
           std::to_string(keys) + " keys in " + std::to_string(frames) + " frames");
  out.note("serve_p50_us", p50, "us", "n=" + std::to_string(rtt.size()) + " frames");
  out.note("serve_p99_us", p99, "us", "n=" + std::to_string(rtt.size()) + " frames");
  out.note("serve_p999_us", quantile(rtt, 0.999), "us", "RELOADs stall one event loop");
  out.note("reload_p50_ms", m["warm_ms"], "ms",
           "full " + std::to_string(median(full_ms)) + " (n=" + std::to_string(full_ms.size()) +
               "), delta " + std::to_string(median(delta_ms)) +
               " (n=" + std::to_string(delta_ms.size()) + ")");
  out.note("hit share", keys == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(keys),
           "ratio");

  if (options.trace) {
    m["serve.hit_share"] = keys == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(keys);
    m["net.frame_p50_us"] = p50;
    m["net.frame_p99_us"] = p99;
    m["net.bytes_per_key"] =
        stats.queries == 0 ? 0.0
                           : static_cast<double>(stats.bytes_in + stats.bytes_out) /
                                 static_cast<double>(stats.queries);
    m["net.reads_paused"] = static_cast<double>(stats.reads_paused);
    m["net.protocol_errors"] = static_cast<double>(stats.protocol_errors);

    // Layer probes after the window, each timed around one public call.
    const auto db = serve::SiblingDB::load(data.full_path, &error);
    out.check(db.has_value(), "probe load: " + error);
    if (db) {
      const serve::LookupEngine engine(*db);
      std::vector<IPAddress> stream;
      for (const auto& slots : client_frames[0].slots) {
        for (const std::size_t slot : slots) stream.push_back(data.keys[slot]);
      }
      std::size_t looked_up = 0;
      const auto start = Clock::now();
      while (looked_up == 0 || ms_since(start) < 300.0) {
        const auto answers = engine.query_many(stream);
        looked_up += answers.size();
      }
      m["serve.lookup_ns_per_key"] = ms_since(start) * 1e6 / static_cast<double>(looked_up);
    }
    std::vector<double> activate, apply, generation_mb;
    for (int i = 0; i < 5; ++i) {
      serve::SiblingService probe(1);
      const double before = rss_mb();
      const auto start = Clock::now();
      out.check(probe.load(data.full_path, &error), "probe activate: " + error);
      activate.push_back(ms_since(start));
      generation_mb.push_back(rss_mb() - before);
      const auto apply_start = Clock::now();
      out.check(stream::apply_delta_and_reload(probe, data.delta_path, &error),
                "probe delta apply: " + error);
      apply.push_back(ms_since(apply_start));
    }
    m["serve.activate_ms"] = median(activate);
    m["stream.spdl_apply_ms"] = median(apply);
    m["serve.generation_rss_mb"] = median(generation_mb);

    // The server's event loops over the window: lookups and RELOADs at the
    // probes' cost, and the net layer's own work, which is what the loop
    // threads spent on-CPU beyond those two. Time the loops were off-CPU
    // (waiting for the clients, or for a core) is attributed to no layer.
    const double lookup_ms =
        m["serve.lookup_ns_per_key"] * static_cast<double>(keys) / 1e6;
    const double reload_ms = m["serve.activate_ms"] * static_cast<double>(full_ms.size()) +
                             m["stream.spdl_apply_ms"] * static_cast<double>(delta_ms.size());
    const double net_ms = server_cpu_ms - lookup_ms - reload_ms;
    if (frames > 0) {
      m["net.us_per_frame_outside_lookup"] = net_ms * 1000.0 / static_cast<double>(frames);
    }
    m["obs.attributed_share"] =
        (lookup_ms + reload_ms + net_ms) / (window_s * 1000.0 * kServerWorkers);
    // No span is recorded inside the window, so tracing costs it nothing.
    m["obs.trace_overhead_share"] = 0.0;
    char text[160];
    std::snprintf(text, sizeof text,
                  "%zu threads, %.0f ms on-CPU: lookup %.0f, reload %.0f, net %.0f",
                  rig->server_threads.size(), server_cpu_ms, lookup_ms, reload_ms, net_ms);
    out.notes.emplace_back("server loops", text);
  }
  rig->server->stop();
  return out;
}

// --- Output ----------------------------------------------------------------

std::string json_escape(std::string_view text) {
  std::string escaped;
  for (const char c : text) {
    if (c == '"' || c == '\\') escaped += '\\';
    escaped += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return escaped;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "0";
  char text[64];
  std::snprintf(text, sizeof text, "%.17g", value);
  return text;
}

int usage() {
  std::fprintf(stderr,
               "usage: sp_e2e_bench --workload build-s2|campaign-s1|serve-reload --seed N "
               "--seconds S --trace 0|1 --work DIR [--commit ID]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") options.workload = value;
    else if (flag == "--seed") options.seed = std::strtoull(value, nullptr, 10);
    else if (flag == "--seconds") options.seconds = std::strtod(value, nullptr);
    else if (flag == "--trace") options.trace = std::string_view(value) == "1";
    else if (flag == "--work") options.work_dir = value;
    else if (flag == "--commit") options.commit = value;
    else return usage();
  }
  if (argc % 2 == 0 || options.work_dir.empty() || options.seconds <= 0) return usage();

  Outcome out;
  if (options.workload == "build-s2") out = run_build(options);
  else if (options.workload == "campaign-s1") out = run_campaign(options);
  else if (options.workload == "serve-reload") out = run_serve(options);
  else return usage();

  const bool threaded = options.workload == "serve-reload";
  std::printf("context {\"commit\": \"%s\", \"build_type\": \"%s\", \"compiler\": \"%s\", "
              "\"nproc\": %u, \"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
              "\"trace\": %d, \"threads\": %u, \"connections\": %u}\n",
              json_escape(options.commit).c_str(), SP_BENCH_BUILD_TYPE,
              json_escape(__VERSION__).c_str(), std::thread::hardware_concurrency(),
              options.workload.c_str(), static_cast<unsigned long long>(options.seed),
              options.seconds, options.trace ? 1 : 0,
              threaded ? kServerWorkers + kConnections : kCoreThreads,
              threaded ? kConnections + 1 : 0);
  for (const auto& [name, text] : out.notes) {
    std::printf("  %-24s %s\n", name.c_str(), text.c_str());
  }
  const double fail_share = out.attempted == 0 ? 1.0
                                               : static_cast<double>(out.failed) /
                                                     static_cast<double>(out.attempted);
  std::printf("  %-24s %.6g ratio  (%llu of %llu operations)\n", "fail_share", fail_share,
              static_cast<unsigned long long>(out.failed),
              static_cast<unsigned long long>(out.attempted));
  for (const auto& error : out.errors) std::printf("  FAILED: %s\n", error.c_str());

  std::string metrics;
  const auto emit = [&](const MetricSpec& spec) {
    const auto it = out.metrics.find(spec.name);
    const double value = it == out.metrics.end() ? 0.0 : it->second;
    std::printf("  %-34s %14.6g %s\n", spec.name, value, spec.unit);
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + std::string(spec.name) + "\": {\"value\": " + json_number(value) +
               ", \"unit\": \"" + spec.unit + "\"}";
  };
  if (options.trace) {
    for (const auto& spec : kPerLayer) emit(spec);
  } else {
    for (const auto& spec : kEndToEnd) emit(spec);
  }
  const bool correct = out.failed == 0 && out.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed), metrics.c_str());
  return 0;
}
