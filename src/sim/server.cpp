#include "sim/server.h"

#include <algorithm>

#include "common/error.h"

namespace ropus::sim {

void ServerSpec::validate() const {
  ROPUS_REQUIRE(!name.empty(), "server needs a name");
  ROPUS_REQUIRE(cpus >= 1, "server needs at least one CPU");
}

std::vector<ServerSpec> homogeneous_pool(std::size_t count, std::size_t cpus,
                                         const std::string& prefix) {
  ROPUS_REQUIRE(count >= 1, "pool needs at least one server");
  std::vector<ServerSpec> pool;
  pool.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    std::string suffix = i + 1 < 10 ? "0" : "";
    suffix += std::to_string(i + 1);
    pool.push_back(ServerSpec{prefix + "-" + suffix, cpus});
  }
  return pool;
}

GrantScales grant_scales(double capacity, double cos1_requested,
                         double cos2_requested) {
  ROPUS_REQUIRE(capacity >= 0.0 && cos1_requested >= 0.0 &&
                    cos2_requested >= 0.0,
                "grant inputs must be >= 0");
  GrantScales scales;
  if (cos1_requested > capacity) {
    scales.cos1 = capacity > 0.0 ? capacity / cos1_requested : 0.0;
  }
  const double available = capacity - std::min(cos1_requested, capacity);
  if (cos2_requested > 0.0) {
    scales.cos2 = std::min(1.0, available / cos2_requested);
  }
  return scales;
}

}  // namespace ropus::sim
