#include "slo/kernel.h"

#include <algorithm>
#include <limits>

#include "common/error.h"

namespace ropus::slo {

bool BandCounts::satisfies(const Band& band, double slack_percent) const {
  if (violating > 0) return false;
  if (degraded_fraction() * 100.0 > band.m_degr_percent() + slack_percent) {
    return false;
  }
  if (band.t_degr_minutes > 0.0 &&
      longest_degraded_minutes > band.t_degr_minutes) {
    return false;
  }
  return true;
}

BandClass classify_band(double demand, double granted, const Band& band) {
  if (demand <= 0.0) return BandClass::kIdle;
  const double u = granted > 0.0 ? demand / granted
                                 : std::numeric_limits<double>::infinity();
  if (u <= band.u_high * (1.0 + kRelEps)) return BandClass::kAcceptable;
  if (u <= band.u_degr * (1.0 + kRelEps)) return BandClass::kDegraded;
  return BandClass::kViolating;
}

BandClass BandAccumulator::observe(double demand, double granted,
                                   const Band& band, bool on_fallback) {
  counts_.intervals += 1;
  const BandClass cls = classify_band(demand, granted, band);
  switch (cls) {
    case BandClass::kIdle:
      counts_.idle += 1;
      run_ = 0;
      return cls;
    case BandClass::kAcceptable:
      counts_.acceptable += 1;
      run_ = 0;
      return cls;
    case BandClass::kDegraded:
      counts_.degraded += 1;
      if (on_fallback) counts_.degraded_telemetry += 1;
      break;
    case BandClass::kViolating:
      counts_.violating += 1;
      if (on_fallback) counts_.violating_telemetry += 1;
      break;
  }
  run_ += 1;
  longest_ = std::max(longest_, run_);
  counts_.longest_degraded_minutes =
      static_cast<double>(longest_) * minutes_per_sample_;
  return cls;
}

BandCounts accumulate_bands(std::span<const double> demand,
                            std::span<const double> granted, const Band& band,
                            double minutes_per_sample,
                            const std::vector<bool>* mask,
                            const std::vector<bool>* fallback) {
  ROPUS_REQUIRE(granted.size() == demand.size(),
                "grants and demand must align");
  ROPUS_REQUIRE(minutes_per_sample > 0.0, "sample interval must be > 0");
  ROPUS_REQUIRE(mask == nullptr || mask->size() == demand.size(),
                "mask and demand must align");
  ROPUS_REQUIRE(fallback == nullptr || fallback->size() == demand.size(),
                "fallback flags and demand must align");
  BandAccumulator acc(minutes_per_sample);
  for (std::size_t i = 0; i < demand.size(); ++i) {
    if (mask != nullptr && !(*mask)[i]) {
      acc.end_run();
      continue;
    }
    acc.observe(demand[i], granted[i], band,
                fallback != nullptr && (*fallback)[i]);
  }
  return acc.counts();
}

ThetaAccumulator::ThetaAccumulator(std::size_t slots_per_day)
    : slots_per_day_(slots_per_day) {
  ROPUS_REQUIRE(slots_per_day > 0, "slots_per_day must be > 0");
}

ThetaAccumulator::ThetaAccumulator(std::size_t weeks,
                                   std::size_t slots_per_day)
    : ThetaAccumulator(slots_per_day) {
  requested_.assign(weeks * slots_per_day, 0.0);
  satisfied_.assign(weeks * slots_per_day, 0.0);
}

void ThetaAccumulator::add(std::size_t slot, double requested,
                           double satisfied) {
  const std::size_t group = group_of(slot);
  if (group >= requested_.size()) {
    requested_.resize(group + 1, 0.0);
    satisfied_.resize(group + 1, 0.0);
  }
  requested_[group] += requested;
  satisfied_[group] += satisfied;
}

double ThetaAccumulator::theta() const {
  double theta = 1.0;
  for (std::size_t g = 0; g < requested_.size(); ++g) {
    if (requested_[g] <= 0.0) continue;
    theta = std::min(theta, satisfied_[g] / requested_[g]);
  }
  return theta;
}

ThetaAccumulator::Worst ThetaAccumulator::worst() const {
  Worst worst;
  for (std::size_t g = 0; g < requested_.size(); ++g) {
    if (requested_[g] <= 0.0) continue;
    const double ratio = satisfied_[g] / requested_[g];
    if (ratio < worst.theta) {
      worst.theta = ratio;
      worst.group = g;
    }
  }
  return worst;
}

void ThetaAccumulator::restore(std::span<const double> requested,
                               std::span<const double> satisfied) {
  ROPUS_REQUIRE(requested.size() == satisfied.size(),
                "theta state spans must align");
  requested_.assign(requested.begin(), requested.end());
  satisfied_.assign(satisfied.begin(), satisfied.end());
}

std::vector<double> ThetaAccumulator::ratios() const {
  std::vector<double> out(requested_.size(), 1.0);
  for (std::size_t g = 0; g < requested_.size(); ++g) {
    if (requested_[g] <= 0.0) continue;
    out[g] = satisfied_[g] / requested_[g];
  }
  return out;
}

void DeferralQueue::drain(double spare) {
  while (spare > 0.0 && !entries_.empty()) {
    Entry& front = entries_.front();
    const double served = std::min(spare, front.remaining);
    front.remaining -= served;
    total_ -= served;
    spare -= served;
    if (front.remaining <= kCapacityEps) {
      total_ = std::max(0.0, total_);
      entries_.pop_front();
    }
  }
}

void DeferralQueue::defer(std::size_t slot, double deficit) {
  if (deficit > kCapacityEps) {
    entries_.push_back(Entry{slot, deficit});
    total_ += deficit;
  }
}

void DeferralQueue::restore(std::span<const Entry> entries, double total) {
  entries_.assign(entries.begin(), entries.end());
  if (total >= 0.0) {
    total_ = total;
  } else {
    total_ = 0.0;
    for (const Entry& e : entries_) total_ += e.remaining;
  }
}

bool DeferralQueue::overdue_at_end(std::size_t trace_size) const {
  for (const Entry& e : entries_) {
    if (e.created + deadline_slots_ < trace_size &&
        e.remaining > kCapacityEps) {
      return true;
    }
  }
  return false;
}

}  // namespace ropus::slo
