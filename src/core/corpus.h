// The dual-stack corpus: steps 1-2 of the paper's methodology.
//
// Built from one DNS resolution snapshot plus a BGP RIB, the corpus
// identifies dual-stack domains (step 1), maps every address to its
// announced prefix (step 2), and exposes the prefix→domain-set and
// domain→prefix-set indexes that detection (step 3-4) and SP-Tuner need.
// Domains are identified by their *response* name (post-CNAME), and
// reserved/private addresses are discarded, both per the paper.
//
// One pass emits a flat (address, domain) row per resolved address; one
// sort per family buckets the rows into two CSRs, the host table and the
// DetectIndex (DESIGN.md §3.0). Every other accessor is a view over them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "bgp/rib.h"
#include "core/detect_index.h"
#include "core/domain_set.h"
#include "dns/snapshot.h"

namespace sp::core {

class DualStackCorpus {
 public:
  /// Build statistics (the paper's data-cleaning footnotes).
  struct Stats {
    std::size_t snapshot_domains = 0;       // entries in the snapshot
    std::size_t dual_stack_domains = 0;     // distinct DS response names
    std::size_t discarded_reserved = 0;     // addresses dropped as reserved
    std::size_t unmapped_addresses = 0;     // addresses with no covering prefix
    std::size_t v4_prefixes = 0;
    std::size_t v6_prefixes = 0;
  };

  /// One family's populated host addresses: the host-level CSR. Row r is
  /// one address; rows ascend by address and stay fixed for the corpus's
  /// lifetime, so they serve as cache keys (sketch::SketchEstimator).
  struct HostTable {
    std::vector<IPAddress> addresses;    // row → address, ascending
    std::vector<std::uint32_t> owners;   // row → dense id of its announced prefix
    std::vector<std::uint32_t> offsets;  // size rows+1
    std::vector<DomainId> domains;       // concatenated sorted domain sets

    [[nodiscard]] std::size_t size() const noexcept { return addresses.size(); }

    /// The sorted, duplicate-free domain set on one row's address.
    [[nodiscard]] std::span<const DomainId> domains_of(std::uint32_t row) const noexcept {
      return {domains.data() + offsets[row], domains.data() + offsets[row + 1]};
    }

    /// The rows whose address lies inside `prefix`, as [first, second).
    [[nodiscard]] std::pair<std::uint32_t, std::uint32_t> rows_within(
        const Prefix& prefix) const noexcept;
  };

  [[nodiscard]] static DualStackCorpus build(const dns::ResolutionSnapshot& snapshot,
                                             const bgp::Rib& rib);

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  [[nodiscard]] const DomainInterner& interner() const noexcept { return interner_; }
  [[nodiscard]] std::size_t ds_domain_count() const noexcept { return interner_.size(); }

  /// Flat CSR candidate-generation index, built once by build(); shared
  /// read-only by all detection workers.
  [[nodiscard]] const DetectIndex& detect_index() const noexcept { return index_; }

  /// All announced prefixes of one family that host at least one DS
  /// domain, ascending.
  [[nodiscard]] std::span<const Prefix> prefixes(Family family) const noexcept {
    return index_.side(family).prefixes;
  }

  /// Domain set of one prefix; empty when the prefix hosts no DS domain.
  [[nodiscard]] std::span<const DomainId> domains_of(const Prefix& prefix) const noexcept {
    return index_.side(prefix.family()).elements_of(prefix);
  }

  /// Announced prefixes of `family` hosting domain `id`, ascending.
  [[nodiscard]] auto prefixes_of(DomainId id, Family family) const {
    return index_.side(family).prefixes_of(id);
  }

  /// The host-level CSR of one family.
  [[nodiscard]] const HostTable& hosts(Family family) const noexcept {
    return family == Family::v4 ? v4_hosts_ : v6_hosts_;
  }

  /// Rows (in hosts(announced.family())) of the populated hosts mapped to
  /// announced prefix `announced`, ascending — its longest-match region,
  /// so hosts of nested more-specific announcements are excluded. Empty
  /// for unknown prefixes.
  [[nodiscard]] std::vector<std::uint32_t> hosts_of(const Prefix& announced) const;

  /// Union of the domain sets of all addresses inside `prefix`.
  [[nodiscard]] DomainSet domains_within(const Prefix& prefix) const;

  /// Heap bytes held by the corpus: the capacities of its containers.
  [[nodiscard]] std::size_t memory_bytes() const noexcept;

 private:
  Stats stats_;
  DomainInterner interner_;
  HostTable v4_hosts_;
  HostTable v6_hosts_;
  DetectIndex index_;
};

}  // namespace sp::core
