#include "dos/group_epoch.hpp"

#include <algorithm>

namespace reconfnet::dos {

Reassignment reassign_to_samples(
    GroupTable& groups,
    const std::vector<sampling::HypercubeSamplerCore>& cores) {
  std::vector<std::vector<sim::NodeId>> fresh(groups.supernodes());
  for (std::uint64_t x = 0; x < groups.supernodes(); ++x) {
    const auto& members = groups.group(x);  // ascending by id
    const auto& samples = cores[x].samples();
    if (samples.size() < members.size()) return Reassignment::kSampleShortage;
    for (std::size_t i = 0; i < members.size(); ++i) {
      fresh[samples[i]].push_back(members[i]);
    }
  }
  if (std::any_of(fresh.begin(), fresh.end(),
                  [](const auto& members) { return members.empty(); })) {
    return Reassignment::kEmptySupernode;
  }
  groups = GroupTable(groups.dimension(), std::move(fresh));
  return Reassignment::kDone;
}

}  // namespace reconfnet::dos
