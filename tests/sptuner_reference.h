// Test-only reference for SP-Tuner-MS: the plain level-by-level
// refinement of Algorithm 1, one bit per side per step, with no jump over
// non-splitting levels. SpTunerMs must produce byte-identical output to
// it (core_sptuner_identity_test). Its refine_steps counts one step per
// evaluated level, the cost the jumps remove.
#pragma once

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "core/sptuner.h"

namespace sp::testsupport {

class ReferenceSpTunerMs {
 public:
  ReferenceSpTunerMs(const core::DualStackCorpus& corpus, core::SpTunerConfig config = {})
      : corpus_(&corpus), config_(config) {}

  [[nodiscard]] core::SpTunerResult tune_all(std::span<const core::SiblingPair> pairs) const {
    core::SpTunerResult result;
    result.input_count = pairs.size();
    for (const core::SiblingPair& pair : pairs) {
      const std::vector<core::SiblingPair> out = tune_pair(pair, result.refine_steps);
      const bool unchanged =
          out.size() == 1 && out.front().v4 == pair.v4 && out.front().v6 == pair.v6;
      if (!unchanged) ++result.changed_count;
      result.pairs.insert(result.pairs.end(), out.begin(), out.end());
    }
    std::sort(result.pairs.begin(), result.pairs.end());
    result.pairs.erase(std::unique(result.pairs.begin(), result.pairs.end()),
                       result.pairs.end());
    return result;
  }

  [[nodiscard]] std::vector<core::SiblingPair> tune_pair(const core::SiblingPair& pair,
                                                         std::size_t& steps) const {
    using core::DomainSet;
    using core::Metric;
    std::vector<core::SiblingPair> results;

    std::vector<Task> work;
    work.push_back(
        Task{{pair.v4, corpus_->hosts_of(pair.v4)}, {pair.v6, corpus_->hosts_of(pair.v6)}});

    while (!work.empty()) {
      Task task = std::move(work.back());
      work.pop_back();

      DomainSet d4 = domains_of(task.v4);
      DomainSet d6 = domains_of(task.v6);
      double current = core::similarity_from_sizes(
          Metric::Jaccard, core::intersection_size(d4, d6), d4.size(), d6.size());
      if (current <= 0.0) continue;

      while (true) {
        const bool descend4 = can_descend(task.v4, config_.v4_threshold);
        const bool descend6 = can_descend(task.v6, config_.v6_threshold);
        if (!descend4 && !descend6) break;
        ++steps;

        std::vector<Side> options4{task.v4};
        if (descend4) {
          for (auto& child : children_of(task.v4)) options4.push_back(std::move(child));
        }
        std::vector<Side> options6{task.v6};
        if (descend6) {
          for (auto& child : children_of(task.v6)) options6.push_back(std::move(child));
        }

        std::vector<DomainSet> unions6;
        for (const Side& c6 : options6) unions6.push_back(domains_of(c6));
        std::vector<std::vector<core::EstimatorSet>> sets6;
        if (config_.estimator != nullptr) {
          for (const Side& c6 : options6) sets6.push_back(estimator_sets(c6));
        }

        const Side* best4 = nullptr;
        const Side* best6 = nullptr;
        double best_value = 0.0;
        unsigned best_depth = 0;
        for (const Side& c4 : options4) {
          const DomainSet cd4 = domains_of(c4);
          const std::vector<core::EstimatorSet> sets4 =
              config_.estimator != nullptr ? estimator_sets(c4)
                                           : std::vector<core::EstimatorSet>{};
          for (std::size_t j = 0; j < options6.size(); ++j) {
            const Side& c6 = options6[j];
            if (c4.prefix == task.v4.prefix && c6.prefix == task.v6.prefix) continue;
            if (config_.estimator != nullptr &&
                config_.estimator->estimate_union_jaccard(sets4, sets6[j]) +
                        config_.estimator_margin <
                    best_value) {
              continue;
            }
            const DomainSet& cd6 = unions6[j];
            const double value = core::similarity_from_sizes(
                Metric::Jaccard, core::intersection_size(cd4, cd6), cd4.size(), cd6.size());
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
        if (best4 == nullptr || best_value + kEpsilon < current) break;

        const auto queue_branch = [&](const Side& parent, const Side& chosen,
                                      const Side& counterpart, bool branch_is_v4) {
          if (chosen.prefix == parent.prefix) return;
          const auto& parent_hosts = corpus_->hosts(parent.prefix.family());
          Side lost{parent.prefix, {}};
          for (const std::uint32_t row : parent.rows) {
            if (!chosen.prefix.contains(parent_hosts.addresses[row])) lost.rows.push_back(row);
          }
          if (lost.rows.empty()) return;
          lost.prefix = chosen.prefix == parent.prefix.child(0) ? parent.prefix.child(1)
                                                                : parent.prefix.child(0);
          const DomainSet lost_domains = domains_of(lost);
          const auto& counterpart_hosts = corpus_->hosts(counterpart.prefix.family());
          Side other{counterpart.prefix, {}};
          for (const std::uint32_t row : counterpart.rows) {
            if (core::intersection_size(counterpart_hosts.domains_of(row), lost_domains) > 0) {
              other.rows.push_back(row);
            }
          }
          if (other.rows.empty()) return;
          work.push_back(branch_is_v4 ? Task{std::move(lost), std::move(other)}
                                      : Task{std::move(other), std::move(lost)});
        };
        queue_branch(task.v4, *best4, task.v6, /*branch_is_v4=*/true);
        queue_branch(task.v6, *best6, task.v4, /*branch_is_v4=*/false);

        task.v4 = *best4;
        task.v6 = *best6;
        current = best_value;
      }

      d4 = domains_of(task.v4);
      d6 = domains_of(task.v6);
      core::SiblingPair out;
      out.v4 = task.v4.prefix;
      out.v6 = task.v6.prefix;
      out.shared_domains = static_cast<std::uint32_t>(core::intersection_size(d4, d6));
      out.v4_domain_count = static_cast<std::uint32_t>(d4.size());
      out.v6_domain_count = static_cast<std::uint32_t>(d6.size());
      out.similarity = core::similarity_from_sizes(Metric::Jaccard, out.shared_domains,
                                                   d4.size(), d6.size());
      results.push_back(out);
    }

    std::sort(results.begin(), results.end());
    results.erase(std::unique(results.begin(), results.end()), results.end());
    return results;
  }

 private:
  static constexpr double kEpsilon = 1e-12;

  struct Side {
    Prefix prefix;
    std::vector<std::uint32_t> rows;
  };
  struct Task {
    Side v4;
    Side v6;
  };

  [[nodiscard]] core::DomainSet domains_of(const Side& side) const {
    const auto& hosts = corpus_->hosts(side.prefix.family());
    core::DomainSet out;
    for (const std::uint32_t row : side.rows) {
      const auto domains = hosts.domains_of(row);
      out.insert(out.end(), domains.begin(), domains.end());
    }
    core::normalize(out);
    return out;
  }

  [[nodiscard]] std::vector<core::EstimatorSet> estimator_sets(const Side& side) const {
    const auto& hosts = corpus_->hosts(side.prefix.family());
    std::vector<core::EstimatorSet> sets;
    for (const std::uint32_t row : side.rows) sets.push_back({hosts.domains_of(row), row});
    return sets;
  }

  [[nodiscard]] static bool can_descend(const Side& side, unsigned threshold) {
    return side.prefix.length() < std::min(threshold, side.prefix.max_length());
  }

  [[nodiscard]] std::vector<Side> children_of(const Side& side) const {
    const auto& hosts = corpus_->hosts(side.prefix.family());
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

  const core::DualStackCorpus* corpus_;
  core::SpTunerConfig config_;
};

}  // namespace sp::testsupport
