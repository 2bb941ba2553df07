#include "core/domain_set.h"

#include <algorithm>
#include <string>
#include <utility>

namespace sp::core {

void normalize(DomainSet& set) {
  std::sort(set.begin(), set.end());
  set.erase(std::unique(set.begin(), set.end()), set.end());
}

void insert_id(DomainSet& set, DomainId id) {
  const auto it = std::lower_bound(set.begin(), set.end(), id);
  if (it == set.end() || *it != id) set.insert(it, id);
}

bool contains_id(std::span<const DomainId> set, DomainId id) noexcept {
  return std::binary_search(set.begin(), set.end(), id);
}

std::size_t intersection_size(std::span<const DomainId> a, std::span<const DomainId> b) noexcept {
  std::size_t count = 0;
  auto ia = a.begin();
  auto ib = b.begin();
  while (ia != a.end() && ib != b.end()) {
    if (*ia < *ib) {
      ++ia;
    } else if (*ib < *ia) {
      ++ib;
    } else {
      ++count;
      ++ia;
      ++ib;
    }
  }
  return count;
}

DomainSet set_union(const DomainSet& a, const DomainSet& b) {
  DomainSet out;
  out.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(out));
  return out;
}

DomainSet set_intersection(const DomainSet& a, const DomainSet& b) {
  DomainSet out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(out));
  return out;
}

DomainSet set_difference(const DomainSet& a, const DomainSet& b) {
  DomainSet out;
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(out));
  return out;
}

DomainId DomainInterner::intern(const dns::DomainName& name) {
  const auto [it, inserted] = ids_.try_emplace(name, static_cast<DomainId>(names_.size()));
  if (inserted) names_.push_back(name);
  return it->second;
}

std::size_t DomainInterner::memory_bytes() const noexcept {
  // A hash node holds the (name, id) pair, the next pointer and the cached
  // hash; a name's characters live on the heap once they outgrow the
  // string's inline buffer.
  constexpr std::size_t kNodeBytes =
      sizeof(std::pair<const dns::DomainName, DomainId>) + 2 * sizeof(void*);
  const std::size_t inline_capacity = std::string().capacity();
  std::size_t text_bytes = 0;
  for (const dns::DomainName& name : names_) {
    const std::size_t capacity = name.text().capacity();
    if (capacity > inline_capacity) text_bytes += capacity + 1;
  }
  return names_.capacity() * sizeof(dns::DomainName) + ids_.bucket_count() * sizeof(void*) +
         ids_.size() * kNodeBytes + 2 * text_bytes;
}

std::optional<DomainId> DomainInterner::find(const dns::DomainName& name) const noexcept {
  const auto it = ids_.find(name);
  if (it == ids_.end()) return std::nullopt;
  return it->second;
}

}  // namespace sp::core
