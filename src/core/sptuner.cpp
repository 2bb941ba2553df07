#include "core/sptuner.h"

#include <algorithm>
#include <atomic>
#include <chrono>

#include "core/worker_pool.h"
#include "obs/metrics.h"

namespace sp::core {

namespace {

constexpr double kEpsilon = 1e-12;

SiblingPair make_pair(const Prefix& v4, const Prefix& v6, const DomainSet& d4,
                      const DomainSet& d6) {
  SiblingPair pair;
  pair.v4 = v4;
  pair.v6 = v6;
  pair.shared_domains = static_cast<std::uint32_t>(intersection_size(d4, d6));
  pair.v4_domain_count = static_cast<std::uint32_t>(d4.size());
  pair.v6_domain_count = static_cast<std::uint32_t>(d6.size());
  pair.similarity =
      similarity_from_sizes(Metric::Jaccard, pair.shared_domains, d4.size(), d6.size());
  return pair;
}

/// Counts the inputs whose output is not the input pair alone, then
/// merges all outputs sorted and duplicate-free.
SpTunerResult merge_outputs(std::span<const SiblingPair> pairs,
                            const std::vector<std::vector<SiblingPair>>& outputs) {
  SpTunerResult result;
  result.input_count = pairs.size();
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const bool unchanged = outputs[i].size() == 1 && outputs[i].front().v4 == pairs[i].v4 &&
                           outputs[i].front().v6 == pairs[i].v6;
    if (!unchanged) ++result.changed_count;
    result.pairs.insert(result.pairs.end(), outputs[i].begin(), outputs[i].end());
  }
  std::sort(result.pairs.begin(), result.pairs.end());
  result.pairs.erase(std::unique(result.pairs.begin(), result.pairs.end()),
                     result.pairs.end());
  return result;
}

/// Registry updates once per tune_all run, never per pair: aggregate
/// counts and one whole-run latency sample. The handles are registered on
/// first use.
void record_run(const SpTunerResult& result, std::chrono::steady_clock::time_point start) {
  struct Metrics {
    obs::Counter runs = obs::MetricsRegistry::global().counter("sptuner.runs");
    obs::Counter pairs_tuned = obs::MetricsRegistry::global().counter("sptuner.pairs_tuned");
    obs::Counter refine_steps = obs::MetricsRegistry::global().counter("sptuner.refine_steps");
    obs::Histogram run_us = obs::MetricsRegistry::global().histogram("sptuner.run_us");
  };
  static const Metrics metrics;
  metrics.runs.add();
  metrics.pairs_tuned.add(static_cast<std::int64_t>(result.input_count));
  metrics.refine_steps.add(static_cast<std::int64_t>(result.refine_steps));
  metrics.run_us.record(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(std::chrono::steady_clock::now() -
                                                            start)
          .count()));
}

}  // namespace

SpTunerMs::SpTunerMs(const DualStackCorpus& corpus, SpTunerConfig config)
    : corpus_(&corpus), config_(config) {}

DomainSet SpTunerMs::domains_of(const Side& side) const {
  const DualStackCorpus::HostTable& hosts = corpus_->hosts(side.prefix.family());
  DomainSet out;
  for (const std::uint32_t row : side.rows) {
    const auto domains = hosts.domains_of(row);
    out.insert(out.end(), domains.begin(), domains.end());
  }
  normalize(out);
  return out;
}

std::vector<EstimatorSet> SpTunerMs::estimator_sets(const Side& side) const {
  const DualStackCorpus::HostTable& hosts = corpus_->hosts(side.prefix.family());
  std::vector<EstimatorSet> sets;
  sets.reserve(side.rows.size());
  for (const std::uint32_t row : side.rows) sets.push_back({hosts.domains_of(row), row});
  return sets;
}

bool SpTunerMs::can_descend(const Side& side, unsigned threshold) const {
  return side.prefix.length() < std::min(threshold, side.prefix.max_length());
}

unsigned SpTunerMs::split_length(const Side& side, unsigned threshold) const {
  // Rows are address-ascending, so the first and last row share the
  // longest prefix any two rows share.
  const DualStackCorpus::HostTable& hosts = corpus_->hosts(side.prefix.family());
  const IPAddress& first = hosts.addresses[side.rows.front()];
  const IPAddress& last = hosts.addresses[side.rows.back()];
  const unsigned limit = std::min(threshold, side.prefix.max_length());
  unsigned length = side.prefix.length();
  while (length < limit && first.bit(length) == last.bit(length)) ++length;
  return length;
}

void SpTunerMs::descend_to(Side& side, unsigned length) const {
  side.prefix = Prefix::of(corpus_->hosts(side.prefix.family()).addresses[side.rows.front()],
                           length);
}

std::vector<SpTunerMs::Side> SpTunerMs::children_of(const Side& side) const {
  const DualStackCorpus::HostTable& hosts = corpus_->hosts(side.prefix.family());
  std::vector<Side> children;
  Side low{side.prefix.child(0), {}};
  Side high{side.prefix.child(1), {}};
  for (const std::uint32_t row : side.rows) {
    (low.prefix.contains(hosts.addresses[row]) ? low : high).rows.push_back(row);
  }
  if (!low.rows.empty()) children.push_back(std::move(low));
  if (!high.rows.empty()) children.push_back(std::move(high));
  return children;
}

std::vector<SiblingPair> SpTunerMs::tune_pair(const SiblingPair& pair) const {
  std::size_t steps = 0;
  return tune_pair(pair, steps);
}

std::vector<SiblingPair> SpTunerMs::tune_pair(const SiblingPair& pair,
                                              std::size_t& steps) const {
  std::vector<SiblingPair> results;

  std::vector<Task> work;
  work.push_back(
      Task{{pair.v4, corpus_->hosts_of(pair.v4)}, {pair.v6, corpus_->hosts_of(pair.v6)}});

  while (!work.empty()) {
    Task task = std::move(work.back());
    work.pop_back();

    DomainSet d4 = domains_of(task.v4);
    DomainSet d6 = domains_of(task.v6);
    double current = similarity_from_sizes(Metric::Jaccard, intersection_size(d4, d6),
                                           d4.size(), d6.size());
    if (current <= 0.0) continue;  // pairs with similarity 0 are discarded

    while (true) {
      const bool descend4 = can_descend(task.v4, config_.v4_threshold);
      const bool descend6 = can_descend(task.v6, config_.v6_threshold);
      if (!descend4 && !descend6) break;
      ++steps;

      // A side runs while all its rows stay in one child; a side that can
      // descend but does not run splits at the next level.
      const unsigned length4 = task.v4.prefix.length();
      const unsigned length6 = task.v6.prefix.length();
      const unsigned reach4 = split_length(task.v4, config_.v4_threshold);
      const unsigned reach6 = split_length(task.v6, config_.v6_threshold);
      const bool runs4 = reach4 > length4;
      const bool runs6 = reach6 > length6;
      const bool splits4 = descend4 && !runs4;
      const bool splits6 = descend6 && !runs6;
      if (!splits4 && !splits6) {
        // Neither side splits: every option holds the current domain sets,
        // so all tie and the deepest wins. Each running side takes its only
        // child, level after level, until the shorter run ends.
        unsigned run = ~0u;
        if (runs4) run = std::min(run, reach4 - length4);
        if (runs6) run = std::min(run, reach6 - length6);
        if (runs4) descend_to(task.v4, length4 + run);
        if (runs6) descend_to(task.v6, length6 + run);
        continue;
      }

      // Candidate sides: keep the current prefix or take a populated child.
      std::vector<Side> options4{task.v4};
      if (descend4) {
        for (auto& child : children_of(task.v4)) options4.push_back(std::move(child));
      }
      std::vector<Side> options6{task.v6};
      if (descend6) {
        for (auto& child : children_of(task.v6)) options6.push_back(std::move(child));
      }

      // The v6 option unions are loop-invariant in c4, so materialize them
      // once per refinement step instead of once per (c4, c6) combination.
      std::vector<DomainSet> unions6;
      unions6.reserve(options6.size());
      for (const Side& c6 : options6) unions6.push_back(domains_of(c6));
      std::vector<std::vector<EstimatorSet>> sets6;
      if (config_.estimator != nullptr) {
        sets6.reserve(options6.size());
        for (const Side& c6 : options6) sets6.push_back(estimator_sets(c6));
      }

      const Side* best4 = nullptr;
      const Side* best6 = nullptr;
      double best_value = 0.0;
      unsigned best_depth = 0;
      for (const Side& c4 : options4) {
        const DomainSet cd4 = domains_of(c4);
        const std::vector<EstimatorSet> sets4 =
            config_.estimator != nullptr ? estimator_sets(c4) : std::vector<EstimatorSet>{};
        for (std::size_t j = 0; j < options6.size(); ++j) {
          const Side& c6 = options6[j];
          if (c4.prefix == task.v4.prefix && c6.prefix == task.v6.prefix) continue;
          // Conservative estimator filter: a combination can only be
          // skipped when even estimate + margin cannot reach the running
          // best, so an estimator honoring the margin never changes which
          // combination wins (the filter never fires while best_value is
          // still below the margin, so the first combinations always get
          // the exact evaluation).
          if (config_.estimator != nullptr &&
              config_.estimator->estimate_union_jaccard(sets4, sets6[j]) +
                      config_.estimator_margin <
                  best_value) {
            continue;
          }
          const DomainSet& cd6 = unions6[j];
          const double value = similarity_from_sizes(
              Metric::Jaccard, intersection_size(cd4, cd6), cd4.size(), cd6.size());
          const unsigned depth = c4.prefix.length() + c6.prefix.length();
          if (best4 == nullptr || value > best_value + kEpsilon ||
              (value + kEpsilon >= best_value && depth > best_depth)) {
            best4 = &c4;
            best6 = &c6;
            best_value = value;
            best_depth = depth;
          }
        }
      }
      // Only move while the refinement is at least as good (Algorithm 1's
      // loop condition), so tuning never worsens similarity.
      if (best4 == nullptr || best_value + kEpsilon < current) break;

      // Branch tracking: hosts on the sibling branch of a taken child are
      // re-queued with the counterpart hosts serving the same domains.
      const auto queue_branch = [&](const Side& parent, const Side& chosen,
                                    const Side& counterpart, bool branch_is_v4) {
        if (chosen.prefix == parent.prefix) return;
        const DualStackCorpus::HostTable& parent_hosts = corpus_->hosts(parent.prefix.family());
        Side lost{parent.prefix, {}};
        for (const std::uint32_t row : parent.rows) {
          if (!chosen.prefix.contains(parent_hosts.addresses[row])) lost.rows.push_back(row);
        }
        if (lost.rows.empty()) return;
        // Narrow the lost side to the sibling child covering its hosts.
        const Prefix sibling = chosen.prefix ==
                                       parent.prefix.child(0)
                                   ? parent.prefix.child(1)
                                   : parent.prefix.child(0);
        lost.prefix = sibling;
        const DomainSet lost_domains = domains_of(lost);
        const DualStackCorpus::HostTable& counterpart_hosts =
            corpus_->hosts(counterpart.prefix.family());
        Side other{counterpart.prefix, {}};
        for (const std::uint32_t row : counterpart.rows) {
          if (intersection_size(counterpart_hosts.domains_of(row), lost_domains) > 0) {
            other.rows.push_back(row);
          }
        }
        if (other.rows.empty()) return;
        work.push_back(branch_is_v4 ? Task{std::move(lost), std::move(other)}
                                    : Task{std::move(other), std::move(lost)});
      };
      queue_branch(task.v4, *best4, task.v6, /*branch_is_v4=*/true);
      queue_branch(task.v6, *best6, task.v4, /*branch_is_v4=*/false);

      const bool stayed4 = best4->prefix == task.v4.prefix;
      const bool stayed6 = best6->prefix == task.v6.prefix;
      task.v4 = *best4;
      task.v6 = *best6;
      current = best_value;
      // One side splits but stayed while the other took its only child:
      // the next levels offer the splitting side the same options with the
      // same domain sets, so it would stay at each of them again. Take the
      // running side straight to the end of its run.
      if (stayed4 && runs6) descend_to(task.v6, reach6);
      if (stayed6 && runs4) descend_to(task.v4, reach4);
    }

    d4 = domains_of(task.v4);
    d6 = domains_of(task.v6);
    results.push_back(make_pair(task.v4.prefix, task.v6.prefix, d4, d6));
  }

  std::sort(results.begin(), results.end());
  results.erase(std::unique(results.begin(), results.end()), results.end());
  return results;
}

SpTunerResult SpTunerMs::tune_all(std::span<const SiblingPair> pairs) const {
  const auto start = std::chrono::steady_clock::now();
  std::size_t steps = 0;
  std::vector<std::vector<SiblingPair>> outputs;
  outputs.reserve(pairs.size());
  for (const SiblingPair& pair : pairs) outputs.push_back(tune_pair(pair, steps));
  SpTunerResult result = merge_outputs(pairs, outputs);
  result.refine_steps = steps;
  record_run(result, start);
  return result;
}

SpTunerResult SpTunerMs::tune_all_parallel(std::span<const SiblingPair> pairs,
                                           unsigned thread_count) const {
  // Each pair is tuned independently; workers pull indexes from a shared
  // counter and write into per-pair slots, so no locking is needed beyond
  // the counter and the merge below is deterministic.
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::vector<SiblingPair>> outputs(pairs.size());
  WorkerPool pool(thread_count);
  std::vector<std::size_t> steps(pool.thread_count(), 0);
  std::atomic<std::size_t> next{0};
  pool.run([&](unsigned worker) {
    std::size_t worker_steps = 0;
    for (;;) {
      // sp-lint: atomics-ok(work-stealing index cursor; claims need
      // no ordering, only uniqueness — the pool join publishes results)
      const std::size_t index = next.fetch_add(1, std::memory_order_relaxed);
      if (index >= pairs.size()) break;
      outputs[index] = tune_pair(pairs[index], worker_steps);
    }
    steps[worker] = worker_steps;
  });
  SpTunerResult result = merge_outputs(pairs, outputs);
  for (const std::size_t worker_steps : steps) result.refine_steps += worker_steps;
  record_run(result, start);
  return result;
}

SpTunerLs::SpTunerLs(const DualStackCorpus& corpus, const bgp::Rib& rib,
                     SpTunerLsConfig config)
    : corpus_(&corpus), rib_(&rib), config_(config) {}

SiblingPair SpTunerLs::tune_pair(const SiblingPair& pair) const {
  const auto original_origin = [this](const Prefix& prefix) -> std::uint32_t {
    const auto route = rib_->lookup(prefix);
    return route ? route->origin_as : 0;
  };
  const std::uint32_t origin4 = original_origin(pair.v4);
  const std::uint32_t origin6 = original_origin(pair.v6);

  // Candidate covering prefixes per side, stopping at an origin-AS change
  // (IsASnumChange in Algorithm 2) or the level bound.
  const auto candidates = [&](const Prefix& start, unsigned levels,
                              std::uint32_t origin) {
    std::vector<Prefix> out{start};
    Prefix current = start;
    for (unsigned level = 0; level < levels; ++level) {
      const auto up = current.supernet();
      if (!up) break;
      current = *up;
      const auto route = rib_->lookup(current);
      if (!route || route->origin_as != origin) break;
      out.push_back(current);
    }
    return out;
  };

  SiblingPair best = pair;
  // The v6 covering unions are loop-invariant in p4: materialize them once
  // instead of once per (p4, p6) combination.
  const std::vector<Prefix> options6 = candidates(pair.v6, config_.v6_levels_up, origin6);
  std::vector<DomainSet> unions6;
  unions6.reserve(options6.size());
  for (const Prefix& p6 : options6) unions6.push_back(corpus_->domains_within(p6));

  for (const Prefix& p4 : candidates(pair.v4, config_.v4_levels_up, origin4)) {
    const DomainSet d4 = corpus_->domains_within(p4);
    const EstimatorSet d4_sets[] = {{d4}};
    for (std::size_t j = 0; j < options6.size(); ++j) {
      const Prefix& p6 = options6[j];
      if (p4 == pair.v4 && p6 == pair.v6) continue;
      const DomainSet& d6 = unions6[j];
      // Same conservative filter as SP-Tuner-MS: skip the exact pass only
      // when even estimate + margin cannot beat the incumbent.
      if (config_.estimator != nullptr) {
        const EstimatorSet d6_sets[] = {{d6}};
        if (config_.estimator->estimate_union_jaccard(d4_sets, d6_sets) +
                config_.estimator_margin <
            best.similarity) {
          continue;
        }
      }
      const SiblingPair candidate = make_pair(p4, p6, d4, d6);
      if (candidate.similarity > best.similarity + kEpsilon) best = candidate;
    }
  }
  return best;
}

SpTunerResult SpTunerLs::tune_all(std::span<const SiblingPair> pairs) const {
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::vector<SiblingPair>> outputs;
  outputs.reserve(pairs.size());
  for (const SiblingPair& pair : pairs) outputs.push_back({tune_pair(pair)});
  SpTunerResult result = merge_outputs(pairs, outputs);
  record_run(result, start);
  return result;
}

}  // namespace sp::core
