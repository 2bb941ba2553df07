#include "core/detect.h"

#include <stdexcept>
#include <utility>

#include "core/detect_parallel.h"

namespace sp::core {

void SetCorpus::add(const Prefix& prefix, DomainId element) {
  if (finalized_) {
    throw std::logic_error("SetCorpus::add called after finalize()");
  }
  (prefix.family() == Family::v4 ? v4_edges_ : v6_edges_).emplace_back(prefix, element);
}

void SetCorpus::finalize() {
  if (finalized_) return;
  index_ = DetectIndex::from_edges(std::move(v4_edges_), std::move(v6_edges_));
  v4_edges_ = {};
  v6_edges_ = {};
  finalized_ = true;
}

const DetectIndex& SetCorpus::detect_index() const {
  if (!finalized_) {
    throw std::logic_error("SetCorpus::detect_index requires finalize()");
  }
  return index_;
}

namespace {

// The sketch engine lives a layer above (sp_sketch depends on sp_core);
// reaching it through a core entry point would invert the dependency, so
// the strategy is rejected here with a pointer at the right call.
void reject_sketch_strategy(const DetectOptions& options) {
  if (options.strategy == DetectStrategy::Sketch) {
    throw std::logic_error(
        "DetectStrategy::Sketch requires the sp::sketch engine — call "
        "sketch::detect_sibling_prefixes (src/sketch/detect_sketch.h)");
  }
}

std::vector<SiblingPair> detect_indexed(const DetectIndex& index, const DetectOptions& options) {
  reject_sketch_strategy(options);
  ParallelDetector detector(options.threads);
  auto pairs = detector.detect(index, options);
  if (options.stats != nullptr) *options.stats = detector.stats();
  return pairs;
}

}  // namespace

std::vector<SiblingPair> detect_sibling_prefixes(const DualStackCorpus& corpus,
                                                 const DetectOptions& options) {
  return detect_indexed(corpus.detect_index(), options);
}

std::vector<SiblingPair> detect_sibling_prefixes(const SetCorpus& corpus,
                                                 const DetectOptions& options) {
  return detect_indexed(corpus.detect_index(), options);
}

std::vector<SiblingPair> detect_sibling_prefixes_serial(const DualStackCorpus& corpus,
                                                        const DetectOptions& options) {
  reject_sketch_strategy(options);
  return detail::detect_over(corpus, options);
}

std::vector<SiblingPair> detect_sibling_prefixes_serial(const SetCorpus& corpus,
                                                        const DetectOptions& options) {
  reject_sketch_strategy(options);
  return detail::detect_over(corpus, options);
}

std::size_t unique_prefix_count(std::span<const SiblingPair> pairs, Family family) {
  std::unordered_set<Prefix> seen;
  for (const SiblingPair& pair : pairs) {
    seen.insert(family == Family::v4 ? pair.v4 : pair.v6);
  }
  return seen.size();
}

std::vector<double> similarity_values(std::span<const SiblingPair> pairs) {
  std::vector<double> values;
  values.reserve(pairs.size());
  for (const SiblingPair& pair : pairs) values.push_back(pair.similarity);
  return values;
}

}  // namespace sp::core
