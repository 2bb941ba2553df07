// Pluggable similarity estimation for SP-Tuner's refinement loops.
//
// Tuning evaluates many candidate prefix combinations whose exact Jaccard
// requires materializing and intersecting unions of per-host domain sets.
// An estimator provides a cheap approximate Jaccard for such a union pair;
// callers combine it with a conservative margin (skip a candidate only
// when estimate + margin is still below the running best) so any estimator
// whose error stays within the margin leaves results unchanged.
//
// The interface lives in sp_core so the tuner can depend on it; the
// bottom-k implementation lives a layer up in sp::sketch
// (sketch::SketchEstimator), keeping core free of sketch internals.
#pragma once

#include <cstdint>
#include <span>

#include "core/domain_set.h"

namespace sp::core {

/// One member of a union handed to an estimator: a sorted domain set and,
/// when it is a corpus host set, its row in the DualStackCorpus::hosts()
/// table of its side's family — a stable key implementations may cache
/// on. Sets without a row are estimated from their contents.
struct EstimatorSet {
  static constexpr std::uint32_t kNoRow = UINT32_MAX;

  std::span<const DomainId> domains;
  std::uint32_t row = kNoRow;
};

class SimilarityEstimator {
 public:
  virtual ~SimilarityEstimator() = default;

  /// Estimates Jaccard(∪v4, ∪v6) for a union of IPv4-side sets and a
  /// union of IPv6-side sets; empty spans denote the empty set. The
  /// estimate is a function of the sets' contents only: a row merely
  /// names where the same contents were cached.
  [[nodiscard]] virtual double estimate_union_jaccard(std::span<const EstimatorSet> v4,
                                                      std::span<const EstimatorSet> v6) const = 0;
};

}  // namespace sp::core
