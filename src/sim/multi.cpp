#include "sim/multi.h"

#include "common/error.h"

namespace ropus::sim {

double MultiServerSpec::capacity(trace::Attribute a) const {
  switch (a) {
    case trace::Attribute::kCpu:
      return static_cast<double>(cpus);
    case trace::Attribute::kMemoryGb:
      return memory_gb;
    case trace::Attribute::kDiskMbps:
      return disk_mbps;
    case trace::Attribute::kNetworkMbps:
      return network_mbps;
  }
  return 0.0;
}

void MultiServerSpec::validate() const {
  ROPUS_REQUIRE(!name.empty(), "server needs a name");
  ROPUS_REQUIRE(cpus >= 1, "server needs at least one CPU");
  ROPUS_REQUIRE(memory_gb >= 0.0, "memory capacity must be >= 0");
  ROPUS_REQUIRE(disk_mbps >= 0.0, "disk capacity must be >= 0");
  ROPUS_REQUIRE(network_mbps >= 0.0, "network capacity must be >= 0");
}

std::vector<MultiServerSpec> homogeneous_multi_pool(
    std::size_t count, const MultiServerSpec& archetype) {
  ROPUS_REQUIRE(count >= 1, "pool needs at least one server");
  const std::string prefix =
      archetype.name.empty() ? "server" : archetype.name;
  std::vector<MultiServerSpec> pool;
  pool.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    MultiServerSpec s = archetype;
    s.name = prefix + "-" + (i + 1 < 10 ? "0" : "") + std::to_string(i + 1);
    s.validate();
    pool.push_back(std::move(s));
  }
  return pool;
}

}  // namespace ropus::sim
