// SP-Tuner-MS jumps over the levels where a side's hosts do not split
// (DESIGN.md, "SP-Tuner-MS level jumps"). These tests hold it to the
// level-by-level walk of tests/sptuner_reference.h: the same pairs, the
// same similarity bits, counts and changed_count, serial and parallel, at
// three threshold settings, with and without the estimator filter, on the
// hand fixtures, the property-sweep corpora and campaign months of six
// synthetic universes.
#include <gtest/gtest.h>

#include <bit>
#include <random>
#include <string>

#include "bgp/rib.h"
#include "core/sptuner.h"
#include "sketch/estimator.h"
#include "sptuner_fixtures.h"
#include "sptuner_reference.h"
#include "synth/determinism.h"
#include "synth/universe.h"

namespace sp::core {
namespace {

using testsupport::ReferenceSpTunerMs;

constexpr SpTunerConfig kThresholds[] = {
    {.v4_threshold = 24, .v6_threshold = 48},
    {.v4_threshold = 28, .v6_threshold = 96},
    {.v4_threshold = 32, .v6_threshold = 128},
};

void expect_byte_identical(const SpTunerResult& actual, const SpTunerResult& expected,
                           const std::string& label) {
  EXPECT_EQ(actual.input_count, expected.input_count) << label;
  EXPECT_EQ(actual.changed_count, expected.changed_count) << label;
  ASSERT_EQ(actual.pairs.size(), expected.pairs.size()) << label;
  for (std::size_t i = 0; i < expected.pairs.size(); ++i) {
    const SiblingPair& a = actual.pairs[i];
    const SiblingPair& e = expected.pairs[i];
    EXPECT_EQ(a.v4, e.v4) << label << " pair " << i;
    EXPECT_EQ(a.v6, e.v6) << label << " pair " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.similarity),
              std::bit_cast<std::uint64_t>(e.similarity))
        << label << " pair " << i << " similarity " << a.similarity << " vs " << e.similarity;
    EXPECT_EQ(a.shared_domains, e.shared_domains) << label << " pair " << i;
    EXPECT_EQ(a.v4_domain_count, e.v4_domain_count) << label << " pair " << i;
    EXPECT_EQ(a.v6_domain_count, e.v6_domain_count) << label << " pair " << i;
  }
}

/// Serial and parallel tuning against the reference at one configuration;
/// the jumps never take more steps than the level-by-level walk.
void expect_matches_reference(const DualStackCorpus& corpus,
                              const std::vector<SiblingPair>& pairs,
                              const SpTunerConfig& config, const std::string& label) {
  const SpTunerResult expected = ReferenceSpTunerMs(corpus, config).tune_all(pairs);
  const SpTunerMs tuner(corpus, config);
  const SpTunerResult serial = tuner.tune_all(pairs);
  expect_byte_identical(serial, expected, label + " serial");
  expect_byte_identical(tuner.tune_all_parallel(pairs, 3), expected, label + " parallel");
  EXPECT_LE(serial.refine_steps, expected.refine_steps) << label;
}

std::string thresholds_label(const SpTunerConfig& config) {
  return "/" + std::to_string(config.v4_threshold) + "+/" + std::to_string(config.v6_threshold);
}

void expect_matches_reference_at_all_thresholds(const DualStackCorpus& corpus,
                                                const std::string& label) {
  const auto pairs = detect_sibling_prefixes(corpus);
  for (const SpTunerConfig& config : kThresholds) {
    expect_matches_reference(corpus, pairs, config, label + " " + thresholds_label(config));
  }
}

TEST(SpTunerIdentity, HandFixtures) {
  using testsupport::single_host_scenario;
  expect_matches_reference_at_all_thresholds(testsupport::split_scenario().corpus(), "split");
  expect_matches_reference_at_all_thresholds(
      single_host_scenario("20.1.1.0/24", "2620:100::/48").corpus(), "plateau");
  expect_matches_reference_at_all_thresholds(
      single_host_scenario("20.1.1.0/24", "2620:100::/44").corpus(), "plateau /44");
  expect_matches_reference_at_all_thresholds(
      single_host_scenario("20.1.0.0/16", "2620:100::/32").corpus(), "routable");
  expect_matches_reference_at_all_thresholds(
      single_host_scenario("20.1.1.0/30", "2620:100::/112", "20.1.1.1", "2620:100::1").corpus(),
      "deeper than threshold");
  expect_matches_reference_at_all_thresholds(
      single_host_scenario("20.1.1.0/28", "2620:100::/96", "20.1.1.1", "2620:100::1").corpus(),
      "at threshold");
}

class SpTunerIdentityRandom : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(SpTunerIdentityRandom, PropertySweepCorpora) {
  std::mt19937 rng(GetParam());
  for (int round = 0; round < 20; ++round) {
    expect_matches_reference_at_all_thresholds(testsupport::random_scenario(rng).corpus(),
                                               "round " + std::to_string(round));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpTunerIdentityRandom,
                         ::testing::Values(41u, 42u, 43u, 44u, 45u));

// Campaign-sized universes (scale 1, 3000 orgs, 12 months), synth seeds
// mix(s, u) for s in {1, 3, 7} and u in {0, 1}.
class SpTunerIdentityCampaign
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::uint64_t>> {};

TEST_P(SpTunerIdentityCampaign, MonthsMatchTheLevelByLevelWalk) {
  const auto [base, universe_index] = GetParam();
  synth::SynthConfig config;
  config.seed = synth::mix(base, universe_index);
  config.scale = 1;
  config.months = 12;
  config.organization_count = 3000;
  const synth::SyntheticInternet universe(config);

  for (const int month : {0, 4, 8, 11}) {
    const bgp::Rib rib = bgp::Rib::from_mrt(universe.mrt_dump_at(month));
    const auto corpus = DualStackCorpus::build(universe.snapshot_at(month), rib);
    const auto pairs = detect_sibling_prefixes(corpus);
    ASSERT_FALSE(pairs.empty());
    const std::string label = "month " + std::to_string(month);
    for (const SpTunerConfig& thresholds : kThresholds) {
      expect_matches_reference(corpus, pairs, thresholds,
                               label + " " + thresholds_label(thresholds));
    }
    if (month != 11) continue;
    // The estimator filter on top: the same output as the reference under
    // the same filter, and as the unfiltered run.
    const sketch::SketchEstimator estimator(corpus);
    const SpTunerConfig filtered{.estimator = &estimator};
    const SpTunerResult expected = ReferenceSpTunerMs(corpus, filtered).tune_all(pairs);
    const SpTunerMs tuner(corpus, filtered);
    expect_byte_identical(tuner.tune_all(pairs), expected, label + " estimator serial");
    expect_byte_identical(tuner.tune_all_parallel(pairs, 3), expected,
                          label + " estimator parallel");
    expect_byte_identical(SpTunerMs(corpus).tune_all(pairs), expected,
                          label + " estimator vs exact");
  }
}

INSTANTIATE_TEST_SUITE_P(Universes, SpTunerIdentityCampaign,
                         ::testing::Combine(::testing::Values(1u, 3u, 7u),
                                            ::testing::Values(0u, 1u)));

}  // namespace
}  // namespace sp::core
