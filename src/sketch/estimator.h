// SketchEstimator: the bottom-k implementation of core::SimilarityEstimator
// plugged into SP-Tuner (SpTunerConfig::estimator).
//
// Construction walks the corpus's host tables once and precomputes a
// signature for every host row of both families — exactly the sets
// SP-Tuner-MS feeds back through estimate_union_jaccard — into one CSR per
// family indexed by row, so the cache is immutable after the constructor
// and estimation needs no locking at all (the tuner shares one estimator
// across its worker threads). Sets without a row (e.g. the ephemeral
// covering unions SP-Tuner-LS builds) are sketched on the fly from their
// contents; correctness never depends on a cache hit.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/corpus.h"
#include "core/similarity_estimator.h"
#include "sketch/signature.h"

namespace sp::sketch {

class SketchEstimator final : public core::SimilarityEstimator {
 public:
  /// Precomputes host-row signatures for `corpus`. Rows passed to
  /// estimate_union_jaccard must name that corpus's host rows.
  explicit SketchEstimator(const core::DualStackCorpus& corpus, SketchParams params = {});

  [[nodiscard]] double estimate_union_jaccard(
      std::span<const core::EstimatorSet> v4,
      std::span<const core::EstimatorSet> v6) const override;

  [[nodiscard]] const SketchParams& params() const noexcept { return params_; }
  [[nodiscard]] std::size_t cached_signatures() const noexcept {
    return v4_.row_count() + v6_.row_count();
  }

 private:
  /// One family's host-row signatures: row → sorted distinct bottom-k.
  struct RowSignatures {
    std::vector<std::uint32_t> offsets{0};
    std::vector<std::uint64_t> hashes;

    [[nodiscard]] std::size_t row_count() const noexcept { return offsets.size() - 1; }
  };
  struct UnionSketch {
    std::vector<std::uint64_t> hashes;
    bool complete = false;
  };

  [[nodiscard]] UnionSketch sketch_union(const RowSignatures& cache,
                                         std::span<const core::EstimatorSet> sets) const;

  SketchParams params_;
  RowSignatures v4_;
  RowSignatures v6_;
};

}  // namespace sp::sketch
