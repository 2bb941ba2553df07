#include "sketch/estimator.h"

#include <algorithm>

#include "sketch/hash.h"

namespace sp::sketch {

namespace {

/// Bottom-k of one set's element hashes: sorted distinct, ≤ k entries.
std::vector<std::uint64_t> bottom_k(std::span<const core::DomainId> set,
                                    const SketchParams& params) {
  std::vector<std::uint64_t> hashes;
  hashes.reserve(set.size());
  for (const core::DomainId element : set) {
    hashes.push_back(element_hash(element, params.seed));
  }
  const std::size_t keep = std::min<std::size_t>(params.k, hashes.size());
  std::partial_sort(hashes.begin(), hashes.begin() + static_cast<std::ptrdiff_t>(keep),
                    hashes.end());
  hashes.resize(keep);
  hashes.erase(std::unique(hashes.begin(), hashes.end()), hashes.end());
  return hashes;
}

}  // namespace

SketchEstimator::SketchEstimator(const core::DualStackCorpus& corpus, SketchParams params)
    : params_(params) {
  // Sign every host row of both families: these are the rows SP-Tuner-MS
  // sides hold, so its estimates are all cache hits. The signatures are
  // written only here and read-only afterwards, which is what makes
  // estimate_union_jaccard safe to share across the tuner's threads
  // without a lock.
  for (const Family family : {Family::v4, Family::v6}) {
    const core::DualStackCorpus::HostTable& hosts = corpus.hosts(family);
    RowSignatures& cache = family == Family::v4 ? v4_ : v6_;
    cache.offsets.reserve(hosts.size() + 1);
    for (std::uint32_t row = 0; row < hosts.size(); ++row) {
      const auto hashes = bottom_k(hosts.domains_of(row), params_);
      cache.hashes.insert(cache.hashes.end(), hashes.begin(), hashes.end());
      cache.offsets.push_back(static_cast<std::uint32_t>(cache.hashes.size()));
    }
  }
}

SketchEstimator::UnionSketch SketchEstimator::sketch_union(
    const RowSignatures& cache, std::span<const core::EstimatorSet> sets) const {
  UnionSketch result;
  // Gather every member's signature (cached or computed), then keep the k
  // smallest distinct union hashes. The union signature is complete —
  // holds every union element's hash — iff all members are complete and
  // nothing was truncated.
  bool members_complete = true;
  std::vector<std::uint64_t> merged;
  for (const core::EstimatorSet& set : sets) {
    if (set.domains.size() > params_.k) members_complete = false;
    if (set.row < cache.row_count()) {
      merged.insert(merged.end(), cache.hashes.begin() + cache.offsets[set.row],
                    cache.hashes.begin() + cache.offsets[set.row + 1]);
    } else {
      const auto hashes = bottom_k(set.domains, params_);
      merged.insert(merged.end(), hashes.begin(), hashes.end());
    }
  }
  std::sort(merged.begin(), merged.end());
  merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
  result.complete = members_complete && merged.size() <= params_.k;
  if (merged.size() > params_.k) merged.resize(params_.k);
  result.hashes = std::move(merged);
  return result;
}

double SketchEstimator::estimate_union_jaccard(std::span<const core::EstimatorSet> v4,
                                               std::span<const core::EstimatorSet> v6) const {
  const UnionSketch sa = sketch_union(v4_, v4);
  const UnionSketch sb = sketch_union(v6_, v6);
  // estimate_jaccard switches to the exact full-merge mode when both
  // views are complete; set_size only feeds that check, so a complete
  // union reports its hash count and an incomplete one anything > k.
  const SignatureView va{sa.hashes,
                         sa.complete ? static_cast<std::uint32_t>(sa.hashes.size())
                                     : params_.k + 1};
  const SignatureView vb{sb.hashes,
                         sb.complete ? static_cast<std::uint32_t>(sb.hashes.size())
                                     : params_.k + 1};
  return estimate_jaccard(va, vb, params_.k);
}

}  // namespace sp::sketch
