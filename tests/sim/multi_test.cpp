// Multi-attribute servers and workloads (the Section IX extension). The
// per-server verdicts are tested through placement::MultiPlacementProblem
// (tests/placement/multi_problem_test.cpp).
#include "sim/multi.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/error.h"
#include "qos/translation.h"
#include "qos/workload_allocations.h"
#include "trace/demand_trace.h"

namespace ropus::sim {
namespace {

using trace::Attribute;
using trace::Calendar;
using trace::DemandTrace;

Calendar tiny() { return Calendar(1, 720); }

qos::Requirement flat_req() {
  qos::Requirement r;
  r.u_low = 0.5;
  r.u_high = 0.66;
  r.u_degr = 0.9;
  r.m_percent = 100.0;
  return r;
}

/// A workload with flat CPU demand and no other attribute.
qos::WorkloadAllocations make_workload(const std::string& name, double cpus,
                                       const qos::CosCommitment& cos2) {
  const DemandTrace cpu(name, tiny(),
                        std::vector<double>(tiny().size(), cpus));
  return qos::WorkloadAllocations(
      qos::AllocationTrace(cpu, qos::translate(cpu, flat_req(), cos2)));
}

MultiServerSpec server(std::size_t cpus, double memory_gb) {
  MultiServerSpec s;
  s.name = "srv";
  s.cpus = cpus;
  s.memory_gb = memory_gb;
  return s;
}

const qos::CosCommitment kCos2{1.0, 10080.0};

TEST(MultiServerSpec, CapacityPerAttribute) {
  const MultiServerSpec s = server(16, 64.0);
  EXPECT_DOUBLE_EQ(s.capacity(Attribute::kCpu), 16.0);
  EXPECT_DOUBLE_EQ(s.capacity(Attribute::kMemoryGb), 64.0);
  EXPECT_THROW(server(0, 1.0).validate(), InvalidArgument);
  MultiServerSpec bad = server(4, -1.0);
  EXPECT_THROW(bad.validate(), InvalidArgument);
}

TEST(MultiPool, NamesAndCopiesArchetype) {
  MultiServerSpec archetype = server(8, 32.0);
  archetype.name = "node";
  const auto pool = homogeneous_multi_pool(3, archetype);
  ASSERT_EQ(pool.size(), 3u);
  EXPECT_EQ(pool[0].name, "node-01");
  EXPECT_EQ(pool[2].name, "node-03");
  EXPECT_DOUBLE_EQ(pool[1].memory_gb, 32.0);
}

TEST(WorkloadAllocations, RejectsCpuAttributeAndForeignCalendar) {
  auto w = make_workload("a", 1.0, kCos2);
  EXPECT_THROW(
      w.set_attribute(Attribute::kCpu, DemandTrace::zeros("x", tiny())),
      InvalidArgument);
  EXPECT_THROW(w.set_attribute(Attribute::kMemoryGb,
                               DemandTrace::zeros("x", Calendar(2, 720))),
               InvalidArgument);
  EXPECT_EQ(w.attribute(Attribute::kDiskMbps), nullptr);
  EXPECT_DOUBLE_EQ(w.attribute_peak(Attribute::kDiskMbps), 0.0);
}

}  // namespace
}  // namespace ropus::sim
