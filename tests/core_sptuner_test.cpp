// Tests for SP-Tuner-MS (Algorithm 1) and SP-Tuner-LS (Algorithm 2):
// hand-built refinement scenarios plus property sweeps for the tuning
// invariants (similarity never decreases, shared domains never lost,
// thresholds respected, outputs stay inside their inputs).
#include "core/sptuner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "obs/metrics.h"
#include "sptuner_fixtures.h"
#include "sptuner_reference.h"

namespace sp::core {
namespace {

using testsupport::random_scenario;
using testsupport::ScenarioBuilder;
using testsupport::single_host_scenario;
using testsupport::split_scenario;

Prefix p(const char* text) { return Prefix::must_parse(text); }

TEST(SpTunerMs, SplitsMixedPrefixIntoPerfectPairs) {
  const auto corpus = split_scenario().corpus();
  const auto pairs = detect_sibling_prefixes(corpus);
  // Announced-prefix detection: (v4 /24, each /48) with jaccard 2/4.
  ASSERT_EQ(pairs.size(), 2u);
  EXPECT_DOUBLE_EQ(pairs[0].similarity, 0.5);

  const SpTunerMs tuner(corpus, {.v4_threshold = 28, .v6_threshold = 96});
  const auto result = tuner.tune_all(pairs);

  // Every output pair must be perfect now.
  ASSERT_FALSE(result.pairs.empty());
  for (const auto& pair : result.pairs) {
    EXPECT_DOUBLE_EQ(pair.similarity, 1.0) << pair.v4.to_string() << " " << pair.v6.to_string();
  }
  EXPECT_EQ(result.changed_count, 2u);

  // The X group lives under 20.1.1.0/25, the Y group under 20.1.1.128/25.
  bool saw_x = false;
  bool saw_y = false;
  for (const auto& pair : result.pairs) {
    if (p("20.1.1.0/25").contains(pair.v4) && p("2620:100::/48").contains(pair.v6)) {
      saw_x = true;
    }
    if (p("20.1.1.128/25").contains(pair.v4) && p("2620:200::/48").contains(pair.v6)) {
      saw_y = true;
    }
  }
  EXPECT_TRUE(saw_x);
  EXPECT_TRUE(saw_y);
}

TEST(SpTunerMs, BranchTrackingLosesNoSharedDomain) {
  const auto corpus = split_scenario().corpus();
  const auto pairs = detect_sibling_prefixes(corpus);
  const SpTunerMs tuner(corpus, {});

  // Per-pair invariant: every domain *shared* within a pair survives its
  // tuning; across the whole pair list, all four domains stay covered.
  const auto collect_shared = [&corpus](const std::vector<SiblingPair>& tuned) {
    DomainSet covered;
    for (const auto& pair : tuned) {
      const DomainSet shared = set_intersection(corpus.domains_within(pair.v4),
                                                corpus.domains_within(pair.v6));
      covered.insert(covered.end(), shared.begin(), shared.end());
    }
    normalize(covered);
    return covered;
  };

  // Pair 0 shares exactly the X group (2 domains).
  EXPECT_EQ(collect_shared(tuner.tune_pair(pairs[0])).size(), 2u);

  DomainSet all_covered;
  for (const auto& pair : pairs) {
    const DomainSet covered = collect_shared(tuner.tune_pair(pair));
    all_covered.insert(all_covered.end(), covered.begin(), covered.end());
  }
  normalize(all_covered);
  EXPECT_EQ(all_covered.size(), 4u);
}

TEST(SpTunerMs, DescendsToThresholdOnPlateau) {
  // A single-domain pair stays at jaccard 1 all the way down, so tuning
  // must shrink it exactly to the thresholds (the paper's 86.95% of pairs
  // landing on /28-/96).
  const auto corpus = single_host_scenario("20.1.1.0/24", "2620:100::/48").corpus();
  const auto pairs = detect_sibling_prefixes(corpus);
  ASSERT_EQ(pairs.size(), 1u);

  const SpTunerMs tuner(corpus, {.v4_threshold = 28, .v6_threshold = 96});
  const auto tuned = tuner.tune_pair(pairs[0]);
  ASSERT_EQ(tuned.size(), 1u);
  EXPECT_EQ(tuned[0].v4.length(), 28u);
  EXPECT_EQ(tuned[0].v6.length(), 96u);
  EXPECT_DOUBLE_EQ(tuned[0].similarity, 1.0);
  EXPECT_TRUE(pairs[0].v4.contains(tuned[0].v4));
  EXPECT_TRUE(pairs[0].v6.contains(tuned[0].v6));
  EXPECT_TRUE(tuned[0].v4.contains(IPAddress::must_parse("20.1.1.77")));
  EXPECT_TRUE(tuned[0].v6.contains(IPAddress::must_parse("2620:100::77")));
}

TEST(SpTunerMs, RoutableThresholdStopsAt24And48) {
  const auto corpus = single_host_scenario("20.1.0.0/16", "2620:100::/32").corpus();
  const auto pairs = detect_sibling_prefixes(corpus);

  const SpTunerMs tuner(corpus, {.v4_threshold = 24, .v6_threshold = 48});
  const auto tuned = tuner.tune_pair(pairs[0]);
  ASSERT_EQ(tuned.size(), 1u);
  EXPECT_EQ(tuned[0].v4.length(), 24u);
  EXPECT_EQ(tuned[0].v6.length(), 48u);
}

TEST(SpTunerMs, InputMoreSpecificThanThresholdIsKept) {
  const auto corpus =
      single_host_scenario("20.1.1.0/30", "2620:100::/112", "20.1.1.1", "2620:100::1").corpus();
  const auto pairs = detect_sibling_prefixes(corpus);

  const SpTunerMs tuner(corpus, {.v4_threshold = 28, .v6_threshold = 96});
  const auto tuned = tuner.tune_pair(pairs[0]);
  ASSERT_EQ(tuned.size(), 1u);
  // Already deeper than the thresholds: nothing to do.
  EXPECT_EQ(tuned[0].v4, p("20.1.1.0/30"));
  EXPECT_EQ(tuned[0].v6, p("2620:100::/112"));
}

TEST(SpTunerMs, TuneAllCountsChangedPairs) {
  const auto corpus =
      single_host_scenario("20.1.1.0/28", "2620:100::/96", "20.1.1.1", "2620:100::1").corpus();
  const auto pairs = detect_sibling_prefixes(corpus);
  const SpTunerMs tuner(corpus, {.v4_threshold = 28, .v6_threshold = 96});
  const auto result = tuner.tune_all(pairs);
  EXPECT_EQ(result.input_count, 1u);
  EXPECT_EQ(result.changed_count, 0u);
  ASSERT_EQ(result.pairs.size(), 1u);
  EXPECT_EQ(result.pairs[0], pairs[0]);
}

TEST(SpTunerMs, SingleHostPairJumpsToThresholdsInTwoSteps) {
  // One host under a /24 and a /44: the v4 side runs 4 levels and the v6
  // side 52 before the thresholds, and no level splits either side. The
  // refinement takes both runs as jumps instead of one step per level.
  const auto corpus = single_host_scenario("20.1.1.0/24", "2620:100::/44").corpus();
  const auto pairs = detect_sibling_prefixes(corpus);
  ASSERT_EQ(pairs.size(), 1u);
  const SpTunerConfig config{.v4_threshold = 28, .v6_threshold = 96};

  const auto result = SpTunerMs(corpus, config).tune_all(pairs);
  ASSERT_EQ(result.pairs.size(), 1u);
  EXPECT_EQ(result.pairs[0].v4, p("20.1.1.64/28"));
  EXPECT_EQ(result.pairs[0].v6, p("2620:100::/96"));
  EXPECT_LE(result.refine_steps, 2u);
  // The level-by-level walk evaluates every one of the 52 levels.
  EXPECT_EQ(testsupport::ReferenceSpTunerMs(corpus, config).tune_all(pairs).refine_steps, 52u);
}

TEST(SpTunerMs, TuneAllRecordsEachRunOnceInTheRegistry) {
  const auto corpus = split_scenario().corpus();
  const auto pairs = detect_sibling_prefixes(corpus);
  ASSERT_EQ(pairs.size(), 2u);
  auto& registry = obs::MetricsRegistry::global();
  const obs::Counter runs = registry.counter("sptuner.runs");
  const obs::Counter pairs_tuned = registry.counter("sptuner.pairs_tuned");
  const obs::Counter refine_steps = registry.counter("sptuner.refine_steps");
  const obs::Histogram run_us = registry.histogram("sptuner.run_us");
  const std::int64_t runs_before = runs.value();
  const std::int64_t pairs_before = pairs_tuned.value();
  const std::int64_t steps_before = refine_steps.value();
  const std::uint64_t samples_before = obs::HistogramSnapshot::of(run_us).count;

  const SpTunerMs tuner(corpus, {});
  const auto serial = tuner.tune_all(pairs);
  const auto parallel = tuner.tune_all_parallel(pairs, 2);
  const auto less_specific = SpTunerLs(corpus, split_scenario().rib()).tune_all(pairs);
  EXPECT_GT(serial.refine_steps, 0u);
  EXPECT_EQ(parallel.refine_steps, serial.refine_steps);
  EXPECT_EQ(less_specific.refine_steps, 0u);

  const std::int64_t expected_runs = obs::kEnabled ? 3 : 0;
  EXPECT_EQ(runs.value() - runs_before, expected_runs);
  EXPECT_EQ(pairs_tuned.value() - pairs_before, expected_runs * 2);
  EXPECT_EQ(refine_steps.value() - steps_before,
            obs::kEnabled ? static_cast<std::int64_t>(2 * serial.refine_steps) : 0);
  EXPECT_EQ(obs::HistogramSnapshot::of(run_us).count - samples_before,
            static_cast<std::uint64_t>(expected_runs));
}

// ---------------------------------------------------------------------------
// SP-Tuner-LS
// ---------------------------------------------------------------------------

TEST(SpTunerLs, MergesFragmentedAnnouncementsWhenBeneficial) {
  // The org announces its /24 as two /25s; domains of one service group
  // span both halves, so each /25 pair has jaccard 1/2 against the v6 /48
  // that hosts both domains. The covering /24 (same origin AS) scores 1.
  ScenarioBuilder builder;
  builder.announce("20.1.1.0/25", 1).announce("20.1.1.128/25", 1);
  builder.announce("20.1.1.0/24", 1);  // covering announcement, same origin
  builder.announce("2620:100::/48", 2);
  builder.host("a.example.org", {"20.1.1.1"}, {"2620:100::1"});
  builder.host("b.example.org", {"20.1.1.129"}, {"2620:100::2"});
  const auto corpus = builder.corpus();
  const auto pairs = detect_sibling_prefixes(corpus);

  const SiblingPair* half_pair = nullptr;
  for (const auto& pair : pairs) {
    if (pair.v4 == p("20.1.1.0/25")) half_pair = &pair;
  }
  ASSERT_NE(half_pair, nullptr);
  EXPECT_DOUBLE_EQ(half_pair->similarity, 0.5);

  const SpTunerLs tuner(corpus, builder.rib(), {.v4_levels_up = 1, .v6_levels_up = 4});
  const auto tuned = tuner.tune_pair(*half_pair);
  EXPECT_EQ(tuned.v4, p("20.1.1.0/24"));
  EXPECT_EQ(tuned.v6, p("2620:100::/48"));
  EXPECT_DOUBLE_EQ(tuned.similarity, 1.0);
}

TEST(SpTunerLs, StopsAtOriginAsChange) {
  // Same layout, but the covering /24 is originated by a different AS:
  // Algorithm 2's IsASnumChange check forbids the merge.
  ScenarioBuilder builder;
  builder.announce("20.1.1.0/25", 1).announce("20.1.1.128/25", 1);
  builder.announce("20.1.1.0/24", 99);  // different origin
  builder.announce("2620:100::/48", 2);
  builder.host("a.example.org", {"20.1.1.1"}, {"2620:100::1"});
  builder.host("b.example.org", {"20.1.1.129"}, {"2620:100::2"});
  const auto corpus = builder.corpus();
  const auto pairs = detect_sibling_prefixes(corpus);

  const SiblingPair* half_pair = nullptr;
  for (const auto& pair : pairs) {
    if (pair.v4 == p("20.1.1.0/25")) half_pair = &pair;
  }
  ASSERT_NE(half_pair, nullptr);

  const SpTunerLs tuner(corpus, builder.rib(), {});
  const auto tuned = tuner.tune_pair(*half_pair);
  EXPECT_EQ(tuned.v4, half_pair->v4);  // unchanged
  EXPECT_EQ(tuned.v6, half_pair->v6);
}

TEST(SpTunerLs, NoImprovementReturnsInput) {
  // The paper's Figure 22 finding: going less specific usually pulls in
  // unrelated domains and does not help.
  ScenarioBuilder builder;
  builder.announce("20.1.1.0/24", 1).announce("20.1.0.0/16", 1);
  builder.announce("2620:100::/48", 2);
  builder.host("a.example.org", {"20.1.1.1"}, {"2620:100::1"});
  builder.host("unrelated.example.org", {"20.1.2.1"}, {});  // v4-only noise... not DS
  const auto corpus = builder.corpus();
  const auto pairs = detect_sibling_prefixes(corpus);
  ASSERT_EQ(pairs.size(), 1u);

  const SpTunerLs tuner(corpus, builder.rib(), {});
  const auto result = tuner.tune_all(pairs);
  EXPECT_EQ(result.changed_count, 0u);
  ASSERT_EQ(result.pairs.size(), 1u);
  EXPECT_EQ(result.pairs[0].v4, pairs[0].v4);
}

// ---------------------------------------------------------------------------
// Property sweep: tuning invariants on randomized corpora.
// ---------------------------------------------------------------------------

class SpTunerProperty : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(SpTunerProperty, InvariantsOnRandomCorpora) {
  std::mt19937 rng(GetParam());
  for (int round = 0; round < 20; ++round) {
    const auto corpus = random_scenario(rng).corpus();
    const auto pairs = detect_sibling_prefixes(corpus);
    const SpTunerConfig config{.v4_threshold = 28, .v6_threshold = 96};
    const SpTunerMs tuner(corpus, config);

    for (const auto& pair : pairs) {
      const auto tuned = tuner.tune_pair(pair);
      ASSERT_FALSE(tuned.empty());

      double best = 0.0;
      DomainSet shared_covered;
      for (const auto& out : tuned) {
        // Outputs stay inside the input pair.
        ASSERT_TRUE(pair.v4.contains(out.v4))
            << pair.v4.to_string() << " !contains " << out.v4.to_string();
        ASSERT_TRUE(pair.v6.contains(out.v6));
        // Thresholds respected (unless the input was already deeper).
        ASSERT_LE(out.v4.length(), std::max(config.v4_threshold, pair.v4.length()));
        ASSERT_LE(out.v6.length(), std::max(config.v6_threshold, pair.v6.length()));
        // Similarity recomputation is consistent.
        const DomainSet d4 = corpus.domains_within(out.v4);
        const DomainSet d6 = corpus.domains_within(out.v6);
        ASSERT_NEAR(out.similarity, jaccard(d4, d6), 1e-9);
        best = std::max(best, out.similarity);
        const DomainSet shared = set_intersection(d4, d6);
        shared_covered.insert(shared_covered.end(), shared.begin(), shared.end());
      }
      // Tuning never made the best pair worse.
      ASSERT_GE(best + 1e-9, pair.similarity);

      // Every shared domain of the input pair survives in some output.
      normalize(shared_covered);
      const DomainSet input_shared =
          set_intersection(corpus.domains_within(pair.v4), corpus.domains_within(pair.v6));
      for (const DomainId id : input_shared) {
        ASSERT_TRUE(contains_id(shared_covered, id))
            << "lost domain " << corpus.interner().name(id).text();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpTunerProperty, ::testing::Values(41u, 42u, 43u, 44u, 45u));

}  // namespace
}  // namespace sp::core
