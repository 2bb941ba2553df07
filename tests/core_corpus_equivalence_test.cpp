// DualStackCorpus against a naive reference build: for each dual-stack
// entry, one RIB lookup per address into ordered std::maps. Every view of
// the CSR corpus — prefix sets, domain → prefixes, hosts_of,
// domains_within, the interner and Stats — must agree with the reference,
// on synthetic universes and on a fixture holding the corner cases
// (nested more-specific announcement, reserved and unmapped addresses,
// CNAME-collapsed response names, a domain repeating an address). Also
// holds the corpus to its stated memory bound (DESIGN.md).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "core/corpus.h"
#include "synth/universe.h"
#include "test_fixtures.h"

namespace sp::core {
namespace {

using Set = std::set<DomainId>;

struct Reference {
  DualStackCorpus::Stats stats;
  DomainInterner interner;
  std::map<Prefix, Set> prefix_sets[2];                  // per family
  std::map<DomainId, std::set<Prefix>> domain_prefixes[2];
  std::map<IPAddress, Set> host_sets;                    // both families
  std::map<IPAddress, Prefix> host_owner;
};

std::size_t slot(Family family) { return family == Family::v4 ? 0 : 1; }

Reference reference_build(const dns::ResolutionSnapshot& snapshot, const bgp::Rib& rib) {
  Reference ref;
  ref.stats.snapshot_domains = snapshot.domain_count();
  for (const dns::DomainResolution& entry : snapshot.entries()) {
    if (!entry.dual_stack()) continue;
    const DomainId id = ref.interner.intern(entry.response_name);
    std::vector<IPAddress> addresses(entry.v4.begin(), entry.v4.end());
    addresses.insert(addresses.end(), entry.v6.begin(), entry.v6.end());
    for (const IPAddress& address : addresses) {
      if (is_reserved(address)) {
        ++ref.stats.discarded_reserved;
        continue;
      }
      const auto route = rib.lookup(address);
      if (!route) {
        ++ref.stats.unmapped_addresses;
        continue;
      }
      const std::size_t f = slot(address.family());
      ref.prefix_sets[f][route->prefix].insert(id);
      ref.domain_prefixes[f][id].insert(route->prefix);
      ref.host_sets[address].insert(id);
      ref.host_owner[address] = route->prefix;
    }
  }
  ref.stats.dual_stack_domains = ref.interner.size();
  ref.stats.v4_prefixes = ref.prefix_sets[0].size();
  ref.stats.v6_prefixes = ref.prefix_sets[1].size();
  return ref;
}

Set as_set(std::span<const DomainId> span) { return {span.begin(), span.end()}; }

Set reference_within(const Reference& ref, const Prefix& prefix) {
  Set out;
  for (auto it = ref.host_sets.lower_bound(prefix.address());
       it != ref.host_sets.end() && prefix.contains(it->first); ++it) {
    out.insert(it->second.begin(), it->second.end());
  }
  return out;
}

void expect_equivalent(const DualStackCorpus& corpus, const Reference& ref) {
  const auto& stats = corpus.stats();
  EXPECT_EQ(stats.snapshot_domains, ref.stats.snapshot_domains);
  EXPECT_EQ(stats.dual_stack_domains, ref.stats.dual_stack_domains);
  EXPECT_EQ(stats.discarded_reserved, ref.stats.discarded_reserved);
  EXPECT_EQ(stats.unmapped_addresses, ref.stats.unmapped_addresses);
  EXPECT_EQ(stats.v4_prefixes, ref.stats.v4_prefixes);
  EXPECT_EQ(stats.v6_prefixes, ref.stats.v6_prefixes);

  ASSERT_EQ(corpus.interner().size(), ref.interner.size());
  for (DomainId id = 0; id < ref.interner.size(); ++id) {
    ASSERT_EQ(corpus.interner().name(id), ref.interner.name(id)) << id;
  }

  std::vector<Prefix> probes;
  for (const Family family : {Family::v4, Family::v6}) {
    const std::size_t f = slot(family);
    // Prefix → domain set, in ascending prefix order.
    const auto prefixes = corpus.prefixes(family);
    ASSERT_EQ(prefixes.size(), ref.prefix_sets[f].size());
    std::size_t i = 0;
    for (const auto& [prefix, domains] : ref.prefix_sets[f]) {
      ASSERT_EQ(prefixes[i++], prefix);
      EXPECT_EQ(as_set(corpus.domains_of(prefix)), domains) << prefix.to_string();
      EXPECT_EQ(corpus.domains_of(prefix).size(), domains.size()) << "duplicates";
      probes.push_back(prefix);
    }
    // Domain → prefixes, for every interned id (absent ones are empty).
    for (DomainId id = 0; id < ref.interner.size(); ++id) {
      const auto it = ref.domain_prefixes[f].find(id);
      const std::vector<Prefix> expected =
          it == ref.domain_prefixes[f].end()
              ? std::vector<Prefix>{}
              : std::vector<Prefix>(it->second.begin(), it->second.end());
      const auto view = corpus.prefixes_of(id, family);
      EXPECT_EQ(std::vector<Prefix>(view.begin(), view.end()), expected) << id;
    }
  }

  // hosts_of: the owner-filtered hosts of every announced prefix, ascending.
  std::map<Prefix, std::vector<IPAddress>> owned;
  for (const auto& [host, owner] : ref.host_owner) owned[owner].push_back(host);
  for (const auto& [owner, hosts] : owned) {
    const auto& table = corpus.hosts(owner.family());
    const auto rows = corpus.hosts_of(owner);
    ASSERT_EQ(rows.size(), hosts.size()) << owner.to_string();
    for (std::size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(table.addresses[rows[i]], hosts[i]);
      EXPECT_EQ(as_set(table.domains_of(rows[i])), ref.host_sets.at(hosts[i]));
      EXPECT_EQ(table.domains_of(rows[i]).size(), ref.host_sets.at(hosts[i]).size());
    }
  }
  EXPECT_EQ(corpus.hosts(Family::v4).size() + corpus.hosts(Family::v6).size(),
            ref.host_sets.size());

  // domains_within: every announced prefix, plus host-level and covering
  // prefixes around a sample of hosts (both sides of nested boundaries).
  std::size_t n = 0;
  for (const auto& [host, domains] : ref.host_sets) {
    if (n++ % 7 != 0) continue;
    for (const unsigned length : host.is_v4() ? std::vector<unsigned>{8, 16, 24, 28, 32}
                                              : std::vector<unsigned>{32, 48, 64, 96, 128}) {
      probes.push_back(Prefix::of(host, length));
    }
  }
  probes.push_back(Prefix::must_parse("0.0.0.0/0"));
  probes.push_back(Prefix::must_parse("::/0"));
  for (const Prefix& probe : probes) {
    const DomainSet within = corpus.domains_within(probe);
    EXPECT_EQ(as_set(within), reference_within(ref, probe)) << probe.to_string();
    EXPECT_TRUE(std::is_sorted(within.begin(), within.end()));
    EXPECT_EQ(as_set(within).size(), within.size());
  }
}

TEST(CorpusEquivalence, SynthUniversesMatchNaiveReference) {
  for (const std::uint64_t seed : {1u, 7u, 42u}) {
    SCOPED_TRACE(seed);
    synth::SynthConfig config;
    config.seed = seed;
    config.months = 2;
    const synth::SyntheticInternet universe(config);
    const auto snapshot = universe.snapshot_at(universe.month_count() - 1);
    const auto corpus = DualStackCorpus::build(snapshot, universe.rib());
    ASSERT_GT(corpus.detect_index().v4.set_elements.size(), 1000u);
    expect_equivalent(corpus, reference_build(snapshot, universe.rib()));
  }
}

TEST(CorpusEquivalence, CornerCaseFixtureMatchesNaiveReference) {
  testsupport::ScenarioBuilder scenario;
  scenario.announce("20.0.0.0/8", 65001).announce("20.1.1.0/24", 65002);  // nested
  scenario.announce("20.1.1.128/25", 65003);                              // nested twice
  scenario.announce("2620:100::/32", 65101).announce("2620:100:1::/48", 65102);
  scenario.announce("192.168.0.0/16", 65009);  // reserved space, announced anyway
  scenario.host("a.example.org", {"20.1.1.10", "20.200.0.1"}, {"2620:100:1::a"});
  scenario.host("b.example.org", {"20.1.1.200", "20.1.1.10"}, {"2620:100::b", "2620:100:1::a"});
  // Two queried names collapse into one response identity.
  scenario.host_as("www.shop-a.com", "edge.cdn.net", {"20.1.1.10"}, {"2620:100::b"});
  scenario.host_as("www.shop-b.com", "edge.cdn.net", {"20.2.0.1"}, {"2620:100::c"});
  // A domain repeating an address, plus reserved and unmapped addresses.
  scenario.host("r.example.org", {"20.3.0.1", "20.3.0.1", "192.168.1.1", "99.1.1.1"},
               {"2001:db8::1", "2620:100::d", "2620:100::d", "3000::1"});
  scenario.host("v4only.example.org", {"20.4.0.1"}, {});
  scenario.host("u.example.org", {"99.2.2.2"}, {"3000::2"});  // DS but wholly unmapped

  const auto corpus = scenario.corpus();
  const Reference ref = reference_build(scenario.snapshot(), scenario.rib());
  EXPECT_EQ(ref.stats.discarded_reserved, 2u);
  EXPECT_EQ(ref.stats.unmapped_addresses, 4u);
  EXPECT_EQ(ref.interner.size(), 5u);
  expect_equivalent(corpus, ref);
  // The nested announcements split 20.0.0.0/8's hosts three ways.
  EXPECT_EQ(corpus.hosts_of(Prefix::must_parse("20.0.0.0/8")).size(), 3u);
  EXPECT_EQ(corpus.hosts_of(Prefix::must_parse("20.1.1.0/24")).size(), 1u);
  EXPECT_EQ(corpus.hosts_of(Prefix::must_parse("20.1.1.128/25")).size(), 1u);
  EXPECT_EQ(corpus.domains_within(Prefix::must_parse("20.0.0.0/8")).size(), 4u);
}

// The stated bound (DESIGN.md, "Corpus layout"): the built corpus holds at
// most kBytesPerEdge heap bytes per domain→prefix edge on the default
// scale-1 universe, everything included — interner, both host CSRs,
// DetectIndex. It measures ~121 B there, two thirds of it the interner's
// per-domain cost, which edges amortize at larger scales (~41 B at 2).
TEST(CorpusEquivalence, MemoryStaysWithinBytesPerEdgeBound) {
  constexpr double kBytesPerEdge = 160.0;
  synth::SynthConfig config;
  config.months = 2;
  const synth::SyntheticInternet universe(config);
  const auto corpus =
      DualStackCorpus::build(universe.snapshot_at(universe.month_count() - 1), universe.rib());
  const std::size_t edges =
      corpus.detect_index().v4.set_elements.size() + corpus.detect_index().v6.set_elements.size();
  ASSERT_GT(edges, 0u);
  const double per_edge = static_cast<double>(corpus.memory_bytes()) / static_cast<double>(edges);
  RecordProperty("bytes_per_edge", std::to_string(per_edge));
  EXPECT_LE(per_edge, kBytesPerEdge) << corpus.memory_bytes() << " bytes, " << edges << " edges";
  // The accounting covers every array: at least the CSR payloads.
  EXPECT_GE(corpus.memory_bytes(), edges * 2 * sizeof(DomainId));
}

}  // namespace
}  // namespace sp::core
