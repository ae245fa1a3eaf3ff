// The simulator's replay semantics transcribed literally, slot by slot:
// the oracle the dense evaluate() (incremental_test.cpp) and the sparse
// capacity probe (sparse_probe_test.cpp) are pinned to bit for bit.
#pragma once

#include <algorithm>

#include "qos/requirements.h"
#include "sim/simulator.h"
#include "slo/kernel.h"

namespace ropus::sim {

inline Evaluation reference_evaluate(const Aggregate& agg, double capacity,
                                     const qos::CosCommitment& cos2) {
  Evaluation ev;
  if (agg.empty()) return ev;
  const trace::Calendar& cal = agg.calendar();
  const std::size_t deadline_slots =
      cal.observations_in(cos2.deadline_minutes);
  slo::ThetaAccumulator theta(cal.weeks(), cal.slots_per_day());
  slo::DeferralQueue backlog(deadline_slots);
  for (std::size_t i = 0; i < cal.size(); ++i) {
    const double s1 = agg.cos1()[i];
    const double s2 = agg.cos2()[i];
    if (s1 > capacity + slo::kCapacityEps) {
      ev.cos1_satisfied = false;
      ev.theta = 0.0;
      ev.deadline_met = false;
      return ev;
    }
    const double available = std::max(0.0, capacity - s1);
    const double sat2 = std::min(s2, available);
    theta.add(i, s2, sat2);
    backlog.drain(available - sat2);
    backlog.defer(i, s2 - sat2);
    ev.max_backlog = std::max(ev.max_backlog, backlog.total());
    if (backlog.overdue(i)) ev.deadline_met = false;
  }
  if (backlog.overdue_at_end(cal.size())) ev.deadline_met = false;
  ev.theta = theta.theta();
  return ev;
}

}  // namespace ropus::sim
