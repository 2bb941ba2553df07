#include "core/detect_index.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <utility>

namespace sp::core {

namespace {

std::uint64_t edge_key(std::uint32_t dense, DomainId element) noexcept {
  return (static_cast<std::uint64_t>(dense) << 32) | element;
}

DetectIndex::Side side_from_edges(std::vector<std::pair<Prefix, DomainId>> edges) {
  std::sort(edges.begin(), edges.end());
  std::vector<Prefix> prefixes;
  std::vector<std::uint64_t> keys;
  keys.reserve(edges.size());
  for (const auto& [prefix, element] : edges) {
    if (prefixes.empty() || prefixes.back() != prefix) prefixes.push_back(prefix);
    keys.push_back(edge_key(static_cast<std::uint32_t>(prefixes.size() - 1), element));
  }
  return DetectIndex::make_side(std::move(prefixes), std::move(keys));
}

DetectIndex::Side side_from_sets(const std::unordered_map<Prefix, DomainSet>& sets) {
  // Dense ids are assigned in ascending prefix order so the index layout —
  // and therefore every downstream iteration — is independent of hash-map
  // iteration order.
  std::vector<std::pair<Prefix, const DomainSet*>> entries;
  entries.reserve(sets.size());
  for (const auto& [prefix, set] : sets) entries.emplace_back(prefix, &set);
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  std::vector<Prefix> prefixes;
  prefixes.reserve(entries.size());
  std::vector<std::uint64_t> keys;
  for (const auto& [prefix, set] : entries) {
    const auto dense = static_cast<std::uint32_t>(prefixes.size());
    prefixes.push_back(prefix);
    for (const DomainId element : *set) keys.push_back(edge_key(dense, element));
  }
  return DetectIndex::make_side(std::move(prefixes), std::move(keys));
}

}  // namespace

std::optional<std::uint32_t> DetectIndex::Side::dense_of(const Prefix& prefix) const noexcept {
  const auto it = std::lower_bound(prefixes.begin(), prefixes.end(), prefix);
  if (it == prefixes.end() || *it != prefix) return std::nullopt;
  return static_cast<std::uint32_t>(it - prefixes.begin());
}

DetectIndex::Side DetectIndex::make_side(std::vector<Prefix> prefixes,
                                         std::vector<std::uint64_t> edges) {
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  // The CSR stores offsets as uint32; past that the offsets silently wrap
  // and postings scatter into the wrong lists, so refuse loudly instead.
  if (edges.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("DetectIndex: side exceeds 2^32 set elements");
  }

  // Sorted keys are the set CSR in order: dense id major, element minor.
  Side side;
  side.prefixes = std::move(prefixes);
  side.set_offsets.assign(side.prefixes.size() + 1, 0);
  side.set_elements.reserve(edges.size());
  for (const std::uint64_t key : edges) {
    ++side.set_offsets[(key >> 32) + 1];
    side.set_elements.push_back(static_cast<DomainId>(key));
  }
  std::partial_sum(side.set_offsets.begin(), side.set_offsets.end(), side.set_offsets.begin());
  std::vector<std::uint64_t>().swap(edges);  // release before the posting pass
  build_postings(side);
  return side;
}

void DetectIndex::build_postings(Side& side) {
  // Counting sort: pass 1 counts per element, pass 2 scatters dense ids in
  // ascending order.
  const std::size_t element_count =
      side.set_elements.empty() ? 0 : std::size_t{std::ranges::max(side.set_elements)} + 1;
  side.posting_offsets.assign(element_count + 1, 0);
  for (const DomainId element : side.set_elements) ++side.posting_offsets[element + 1];
  std::partial_sum(side.posting_offsets.begin(), side.posting_offsets.end(),
                   side.posting_offsets.begin());

  side.postings.resize(side.set_elements.size());
  std::vector<std::uint32_t> cursor(side.posting_offsets.begin(),
                                    side.posting_offsets.end() - 1);
  for (std::uint32_t dense = 0; dense < side.prefixes.size(); ++dense) {
    for (const DomainId element : side.elements_of(dense)) {
      side.postings[cursor[element]++] = dense;
    }
  }
}

DetectIndex DetectIndex::from_edges(std::vector<std::pair<Prefix, DomainId>> v4_edges,
                                    std::vector<std::pair<Prefix, DomainId>> v6_edges) {
  DetectIndex index;
  index.v4 = side_from_edges(std::move(v4_edges));
  index.v6 = side_from_edges(std::move(v6_edges));
  return index;
}

DetectIndex DetectIndex::build(const std::unordered_map<Prefix, DomainSet>& v4_sets,
                               const std::unordered_map<Prefix, DomainSet>& v6_sets) {
  DetectIndex index;
  index.v4 = side_from_sets(v4_sets);
  index.v6 = side_from_sets(v6_sets);
  return index;
}

}  // namespace sp::core
