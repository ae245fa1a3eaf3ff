// Multi-attribute servers (the Section IX extension).
//
// A server has a capacity per attribute. The CPU attribute keeps the full
// two-CoS semantics of simulator.h; non-CPU attributes carry guaranteed
// demand, so a server "fits" them when the peak of their summed demand
// stays within its attribute capacity. placement::MultiPlacementProblem
// judges both: CPU on the shared capacity search, the rest by that peak.
#pragma once

#include <string>
#include <vector>

#include "trace/attribute.h"

namespace ropus::sim {

/// A server with per-attribute capacities. CPU capacity equals the CPU
/// count as before; the other capacities default to the values below.
struct MultiServerSpec {
  std::string name;
  std::size_t cpus = 16;
  double memory_gb = 64.0;
  double disk_mbps = 400.0;
  double network_mbps = 1000.0;

  double capacity(trace::Attribute a) const;

  /// Throws InvalidArgument on a nameless server, zero CPUs, or negative
  /// attribute capacities.
  void validate() const;
};

/// A pool of identical multi-attribute servers named `<prefix>-NN`.
std::vector<MultiServerSpec> homogeneous_multi_pool(
    std::size_t count, const MultiServerSpec& archetype);

}  // namespace ropus::sim
