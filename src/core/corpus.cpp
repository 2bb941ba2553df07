#include "core/corpus.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace sp::core {

namespace {

/// One resolved address of one DS domain. Rows compare by address, then
/// domain, so sorting groups each host's domains in order.
template <typename Address>
struct Row {
  Address address;
  DomainId domain;

  friend constexpr auto operator<=>(const Row&, const Row&) noexcept = default;
};

/// Sorts one family's rows, maps each distinct host to its announced
/// prefix, and buckets the rows into the family's host CSR and DetectIndex
/// side. Addresses without a covering announcement are counted in
/// `unmapped` (once per row, as resolved) and dropped.
template <typename Address>
void build_family(std::vector<Row<Address>> rows, const bgp::Rib& rib, std::size_t& unmapped,
                  DualStackCorpus::HostTable& hosts, DetectIndex::Side& side) {
  std::sort(rows.begin(), rows.end());
  // Upper bounds (exact unless hosts go unmapped), so arrays allocate once.
  std::size_t host_count = 0;
  std::size_t edge_count = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const bool new_host = i == 0 || rows[i].address != rows[i - 1].address;
    host_count += new_host ? 1 : 0;
    edge_count += new_host || rows[i].domain != rows[i - 1].domain ? 1 : 0;
  }
  if (edge_count > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("DualStackCorpus: family exceeds 2^32 host domains");
  }
  hosts.addresses.reserve(host_count);
  hosts.owners.reserve(host_count);
  hosts.offsets.reserve(host_count + 1);
  hosts.offsets.assign(1, 0);
  hosts.domains.reserve(edge_count);

  // Sorted hosts meet their owners in runs; `owners` holds run indexes
  // until the owners are sorted into dense ids below.
  std::vector<Prefix> runs;
  for (std::size_t begin = 0, end = 0; begin < rows.size(); begin = end) {
    end = begin + 1;
    while (end < rows.size() && rows[end].address == rows[begin].address) ++end;
    const IPAddress address(rows[begin].address);
    const auto route = rib.lookup(address);
    if (!route) {
      unmapped += end - begin;
      continue;
    }
    if (runs.empty() || runs.back() != route->prefix) runs.push_back(route->prefix);
    hosts.addresses.push_back(address);
    hosts.owners.push_back(static_cast<std::uint32_t>(runs.size() - 1));
    for (std::size_t i = begin; i < end; ++i) {
      if (i == begin || rows[i].domain != rows[i - 1].domain) {
        hosts.domains.push_back(rows[i].domain);
      }
    }
    hosts.offsets.push_back(static_cast<std::uint32_t>(hosts.domains.size()));
  }
  std::vector<Row<Address>>().swap(rows);

  std::vector<Prefix> prefixes = runs;
  std::sort(prefixes.begin(), prefixes.end());
  prefixes.erase(std::unique(prefixes.begin(), prefixes.end()), prefixes.end());
  std::vector<std::uint32_t> dense_of_run(runs.size());
  for (std::size_t run = 0; run < runs.size(); ++run) {
    dense_of_run[run] = static_cast<std::uint32_t>(
        std::lower_bound(prefixes.begin(), prefixes.end(), runs[run]) - prefixes.begin());
  }
  std::vector<std::uint64_t> edges;
  edges.reserve(hosts.domains.size());
  for (std::uint32_t row = 0; row < hosts.size(); ++row) {
    hosts.owners[row] = dense_of_run[hosts.owners[row]];
    for (const DomainId domain : hosts.domains_of(row)) {
      edges.push_back((static_cast<std::uint64_t>(hosts.owners[row]) << 32) | domain);
    }
  }
  side = DetectIndex::make_side(std::move(prefixes), std::move(edges));
}

}  // namespace

std::pair<std::uint32_t, std::uint32_t> DualStackCorpus::HostTable::rows_within(
    const Prefix& prefix) const noexcept {
  const auto first = std::lower_bound(addresses.begin(), addresses.end(), prefix.address());
  const auto last = std::partition_point(
      first, addresses.end(), [&prefix](const IPAddress& address) {
        return prefix.contains(address);
      });
  return {static_cast<std::uint32_t>(first - addresses.begin()),
          static_cast<std::uint32_t>(last - addresses.begin())};
}

DualStackCorpus DualStackCorpus::build(const dns::ResolutionSnapshot& snapshot,
                                       const bgp::Rib& rib) {
  DualStackCorpus corpus;
  corpus.stats_.snapshot_domains = snapshot.domain_count();

  std::vector<Row<IPv4Address>> v4_rows;
  std::vector<Row<IPv6Address>> v6_rows;
  for (const dns::DomainResolution& entry : snapshot.entries()) {
    if (!entry.dual_stack()) continue;
    // Identity is the response name: several queried names CNAME-ing to the
    // same target collapse into one service.
    const DomainId id = corpus.interner_.intern(entry.response_name);
    const auto emit = [&](const auto& addresses, auto& rows) {
      for (const auto& address : addresses) {
        if (is_reserved(address)) {
          ++corpus.stats_.discarded_reserved;
        } else {
          rows.push_back({address, id});
        }
      }
    };
    emit(entry.v4, v4_rows);
    emit(entry.v6, v6_rows);
  }

  build_family(std::move(v4_rows), rib, corpus.stats_.unmapped_addresses, corpus.v4_hosts_,
               corpus.index_.v4);
  build_family(std::move(v6_rows), rib, corpus.stats_.unmapped_addresses, corpus.v6_hosts_,
               corpus.index_.v6);
  corpus.stats_.dual_stack_domains = corpus.interner_.size();
  corpus.stats_.v4_prefixes = corpus.index_.v4.prefix_count();
  corpus.stats_.v6_prefixes = corpus.index_.v6.prefix_count();
  return corpus;
}

std::vector<std::uint32_t> DualStackCorpus::hosts_of(const Prefix& announced) const {
  std::vector<std::uint32_t> rows;
  const auto owner = index_.side(announced.family()).dense_of(announced);
  if (!owner) return rows;
  const HostTable& table = hosts(announced.family());
  const auto [first, last] = table.rows_within(announced);
  for (std::uint32_t row = first; row < last; ++row) {
    if (table.owners[row] == *owner) rows.push_back(row);
  }
  return rows;
}

DomainSet DualStackCorpus::domains_within(const Prefix& prefix) const {
  const HostTable& table = hosts(prefix.family());
  const auto [first, last] = table.rows_within(prefix);
  if (first == last) return {};
  DomainSet out(table.domains.begin() + table.offsets[first],
                table.domains.begin() + table.offsets[last]);
  normalize(out);
  return out;
}

std::size_t DualStackCorpus::memory_bytes() const noexcept {
  const auto bytes = [](const auto&... arrays) {
    return ((arrays.capacity() * sizeof(arrays[0])) + ...);
  };
  std::size_t total = interner_.memory_bytes();
  for (const Family family : {Family::v4, Family::v6}) {
    const HostTable& h = hosts(family);
    const DetectIndex::Side& s = index_.side(family);
    total += bytes(h.addresses, h.owners, h.offsets, h.domains, s.prefixes, s.set_offsets,
                   s.set_elements, s.posting_offsets, s.postings);
  }
  return total;
}

}  // namespace sp::core
