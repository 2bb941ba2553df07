// Flat CSR detection index: the candidate-generation data structure shared
// by every detection engine.
//
// Detection (paper steps 3-4) spends its time answering two queries per
// source prefix: "which counterpart prefixes share an element with me?"
// and "how large is each counterpart's element set?". The DetectIndex
// answers both from flat arrays:
//
//   prefixes        dense id → Prefix, sorted ascending (deterministic)
//   set CSR         dense id → its sorted element set (offsets + elements)
//   posting CSR     element id → dense ids of the prefixes containing it
//
// Candidate counting then becomes array indexing into a reusable
// counts[dense_id] scratch vector — no hashing, no allocation per prefix —
// and the index is immutable after build, so any number of detection
// workers can share it without synchronization.
//
// Every corpus builds it the same way: (prefix, element) edges sorted
// once and bucketed into both CSRs by make_side().
#pragma once

#include <cstdint>
#include <optional>
#include <ranges>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/domain_set.h"
#include "netbase/prefix.h"

namespace sp::core {

struct DetectIndex {
  /// One address family's half of the index.
  struct Side {
    std::vector<Prefix> prefixes;                 // dense id → prefix, ascending
    std::vector<std::uint32_t> set_offsets;       // size prefix_count()+1
    std::vector<DomainId> set_elements;           // concatenated sorted element sets
    std::vector<std::uint32_t> posting_offsets;   // size element_count()+1
    std::vector<std::uint32_t> postings;          // dense prefix ids, ascending per element

    [[nodiscard]] std::size_t prefix_count() const noexcept { return prefixes.size(); }

    /// One past the largest element id seen on this side (0 when empty).
    [[nodiscard]] std::size_t element_count() const noexcept {
      return posting_offsets.empty() ? 0 : posting_offsets.size() - 1;
    }

    /// The sorted element set of a dense prefix id.
    [[nodiscard]] std::span<const DomainId> elements_of(std::uint32_t dense) const noexcept {
      return {set_elements.data() + set_offsets[dense],
              set_elements.data() + set_offsets[dense + 1]};
    }

    [[nodiscard]] std::uint32_t set_size(std::uint32_t dense) const noexcept {
      return set_offsets[dense + 1] - set_offsets[dense];
    }

    /// Dense ids of the prefixes containing `element`; empty for unknown
    /// ids (elements can live in only one family).
    [[nodiscard]] std::span<const std::uint32_t> postings_of(DomainId element) const noexcept {
      if (element >= element_count()) return {};
      return {postings.data() + posting_offsets[element],
              postings.data() + posting_offsets[element + 1]};
    }

    /// The dense id of `prefix` (binary search); nullopt when it has no row.
    [[nodiscard]] std::optional<std::uint32_t> dense_of(const Prefix& prefix) const noexcept;

    /// The element set of `prefix`; empty when it has no row.
    [[nodiscard]] std::span<const DomainId> elements_of(const Prefix& prefix) const noexcept {
      const auto dense = dense_of(prefix);
      return dense ? elements_of(*dense) : std::span<const DomainId>{};
    }

    /// The prefixes containing `element`, ascending: a view over its
    /// posting list.
    [[nodiscard]] auto prefixes_of(DomainId element) const {
      return postings_of(element) |
             std::views::transform([this](std::uint32_t dense) -> const Prefix& {
               return prefixes[dense];
             });
    }
  };

  Side v4;
  Side v6;

  [[nodiscard]] const Side& side(Family family) const noexcept {
    return family == Family::v4 ? v4 : v6;
  }

  /// One side from its ascending, duplicate-free `prefixes` and its edges,
  /// each `(dense id << 32) | element` (any order, duplicates allowed).
  /// Sorting the edge keys once lays out the set CSR; a counting sort then
  /// lays out the posting CSR. Prefixes without edges keep an empty set.
  [[nodiscard]] static Side make_side(std::vector<Prefix> prefixes,
                                      std::vector<std::uint64_t> edges);

  /// The index of (prefix, element) edge lists in any order, duplicates
  /// allowed.
  [[nodiscard]] static DetectIndex from_edges(
      std::vector<std::pair<Prefix, DomainId>> v4_edges,
      std::vector<std::pair<Prefix, DomainId>> v6_edges);

  /// The index of per-family prefix→set maps (sets must already be sorted
  /// and duplicate-free, as DomainSet guarantees after normalize()).
  [[nodiscard]] static DetectIndex build(const std::unordered_map<Prefix, DomainSet>& v4_sets,
                                         const std::unordered_map<Prefix, DomainSet>& v6_sets);

  /// Fills `side`'s posting CSR from its set CSR by counting sort, so
  /// posting lists come out ascending without a per-list sort.
  static void build_postings(Side& side);
};

}  // namespace sp::core
