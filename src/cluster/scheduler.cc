#include "src/cluster/scheduler.h"

namespace rush {

std::optional<JobId> Scheduler::assign_container(const ClusterView& view) {
  const std::vector<JobId> grants = assign_containers(view, 1);
  if (grants.empty()) return std::nullopt;
  return grants.front();
}

}  // namespace rush
