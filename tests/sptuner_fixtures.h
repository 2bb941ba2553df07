// Scenarios for the SP-Tuner tests: the hand-built refinement fixtures
// and the seeded random corpora of the property sweep, shared by the
// behaviour tests and the identity tests against the level-by-level
// reference.
#pragma once

#include <random>
#include <string>

#include "test_fixtures.h"

namespace sp::testsupport {

// An org announcing one v4 /24 whose two /25 halves host two distinct
// service groups, matching two separate v6 /48s. Detection on announced
// prefixes yields imperfect pairs; splitting the /24 yields two perfect
// ones.
inline ScenarioBuilder split_scenario() {
  ScenarioBuilder builder;
  builder.announce("20.1.1.0/24", 1).announce("2620:100::/48", 2).announce("2620:200::/48", 3);
  // Group X in 20.1.1.0/25 ↔ 2620:100::/48.
  builder.host("x1.example.org", {"20.1.1.1"}, {"2620:100::1"});
  builder.host("x2.example.org", {"20.1.1.2"}, {"2620:100::2"});
  // Group Y in 20.1.1.128/25 ↔ 2620:200::/48.
  builder.host("y1.example.org", {"20.1.1.129"}, {"2620:200::1"});
  builder.host("y2.example.org", {"20.1.1.130"}, {"2620:200::2"});
  return builder;
}

/// One dual-stack host inside a v4 and a v6 announcement of the given
/// sizes: a plateau at Jaccard 1 from the announcements down to the
/// thresholds.
inline ScenarioBuilder single_host_scenario(const char* v4_prefix, const char* v6_prefix,
                                            const char* v4_host = "20.1.1.77",
                                            const char* v6_host = "2620:100::77") {
  ScenarioBuilder builder;
  builder.announce(v4_prefix, 1).announce(v6_prefix, 2);
  builder.host("solo.example.org", {v4_host}, {v6_host});
  return builder;
}

/// One round of the property sweep: 2–6 orgs, each announcing a v4 /16
/// and a v6 /32 with 1–8 domains clustered into /24 (v4) and /48 (v6)
/// chunks by group, so refinement has structure to find. Successive calls
/// on one generator give successive rounds.
inline ScenarioBuilder random_scenario(std::mt19937& rng) {
  std::uniform_int_distribution<int> org_count_dist(2, 6);
  std::uniform_int_distribution<int> domain_count_dist(1, 8);
  std::uniform_int_distribution<int> offset_dist(1, 200);
  std::uniform_int_distribution<int> group_dist(0, 3);

  ScenarioBuilder builder;
  const int orgs = org_count_dist(rng);
  for (int org = 0; org < orgs; ++org) {
    const std::string v4_base = "20." + std::to_string(org + 1) + ".0.0/16";
    const std::string v6_base = "2620:" + std::to_string(org + 1) + "00::/32";
    builder.announce(v4_base, 1000 + static_cast<std::uint32_t>(org));
    builder.announce(v6_base, 2000 + static_cast<std::uint32_t>(org));
    const int domains = domain_count_dist(rng);
    for (int d = 0; d < domains; ++d) {
      const int group = group_dist(rng);
      const std::string v4 = "20." + std::to_string(org + 1) + "." + std::to_string(group) +
                             "." + std::to_string(offset_dist(rng));
      const std::string v6 = "2620:" + std::to_string(org + 1) + "00:" +
                             std::to_string(group) + "::" + std::to_string(offset_dist(rng));
      const std::string name =
          "d" + std::to_string(org) + "-" + std::to_string(d) + ".example.org";
      builder.host(name, {v4.c_str()}, {v6.c_str()});
    }
  }
  return builder;
}

}  // namespace sp::testsupport
