// Canonical sorted extraction from unordered containers.
//
// Iterating an unordered_map/unordered_set directly leaks the hash table's
// bucket order — implementation-defined and different across standard
// libraries — into whatever the loop produces (reconfnet-lint rule RNL005).
// Call sites that need the elements in a reproducible order go through this
// helper instead: extract, sort, then iterate the vector.
#pragma once

#include <algorithm>
#include <vector>

namespace reconfnet::support {

/// The elements of `set` as a sorted vector.
template <typename Set>
[[nodiscard]] std::vector<typename Set::key_type> sorted(const Set& set) {
  std::vector<typename Set::key_type> out;
  out.reserve(set.size());
  for (const auto& key : set) out.push_back(key);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace reconfnet::support
