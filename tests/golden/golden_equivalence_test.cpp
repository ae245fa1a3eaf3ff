// Golden equivalence fixtures for the SLO arithmetic: `ComplianceReport`
// fields, sim theta diagnostics, and watchdog verdicts over the 26
// case-study applications, captured before the arithmetic moved into the
// `slo` kernel and asserted bit for bit ever since. Every double is
// serialised with %.17g, which round-trips exactly, so a string compare IS a
// bit compare.
//
// Regenerate (only when an intentional numeric change lands) with
//   ROPUS_UPDATE_GOLDEN=1 ./tests/test_golden
// and review the fixture diff like code.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/watchdog.h"
#include "qos/allocation.h"
#include "qos/requirements.h"
#include "sim/simulator.h"
#include "trace/calendar.h"
#include "trace/demand_trace.h"
#include "wlm/compliance.h"
#include "workload/fleet.h"

#ifndef ROPUS_GOLDEN_DIR
#error "ROPUS_GOLDEN_DIR must point at tests/golden"
#endif

namespace ropus {
namespace {

constexpr double kMinutesPerSample = 5.0;

qos::Requirement paper_requirement() {
  qos::Requirement req;
  req.u_low = 0.5;
  req.u_high = 0.66;
  req.u_degr = 0.9;
  req.m_percent = 97.0;
  req.t_degr_minutes = 30.0;
  return req;
}

/// Formats a double so it round-trips exactly (17 significant digits map
/// distinct doubles to distinct strings).
std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

class Lines {
 public:
  void add(const std::string& key, const std::string& value) {
    lines_.push_back(key + "=" + value);
  }
  void add(const std::string& key, double value) { add(key, fmt(value)); }
  void add(const std::string& key, std::uint64_t value) {
    add(key, std::to_string(value));
  }
  void add(const std::string& key, bool value) {
    add(key, std::string(value ? "1" : "0"));
  }
  const std::vector<std::string>& all() const { return lines_; }

 private:
  std::vector<std::string> lines_;
};

void add_report(Lines& out, const std::string& prefix,
                const wlm::ComplianceReport& r, const qos::Requirement& req) {
  out.add(prefix + ".intervals", std::uint64_t{r.intervals});
  out.add(prefix + ".idle", std::uint64_t{r.idle});
  out.add(prefix + ".acceptable", std::uint64_t{r.acceptable});
  out.add(prefix + ".degraded", std::uint64_t{r.degraded});
  out.add(prefix + ".violating", std::uint64_t{r.violating});
  out.add(prefix + ".degraded_telemetry", std::uint64_t{r.degraded_telemetry});
  out.add(prefix + ".violating_telemetry",
          std::uint64_t{r.violating_telemetry});
  out.add(prefix + ".longest_degraded_minutes", r.longest_degraded_minutes);
  out.add(prefix + ".degraded_fraction", r.degraded_fraction());
  out.add(prefix + ".satisfies", r.satisfies(req, 0.0));
}

/// The deterministic scenario: demand replayed against its own translated
/// allocation, granted in full and at 72% (the squeeze pushes a realistic
/// mix of slots into degraded and violating bands).
struct Scenario {
  std::vector<trace::DemandTrace> demands;
  std::vector<qos::AllocationTrace> allocations;
  qos::Requirement req = paper_requirement();
  qos::CosCommitment cos2{0.95, 60.0};
};

const Scenario& scenario() {
  static const Scenario s = [] {
    Scenario sc;
    sc.demands =
        workload::case_study_traces(trace::Calendar::standard(1), 2006);
    sc.allocations = qos::build_allocations(sc.demands, sc.req, sc.cos2);
    return sc;
  }();
  return s;
}

void compliance_lines(Lines& out) {
  const Scenario& s = scenario();
  for (std::size_t a = 0; a < s.demands.size(); ++a) {
    const trace::DemandTrace& t = s.demands[a];
    const qos::AllocationTrace& alloc = s.allocations[a];
    const std::string app = "app" + std::to_string(a);

    std::vector<double> demand(t.values().begin(), t.values().end());
    std::vector<double> full(t.size()), squeezed(t.size());
    for (std::size_t i = 0; i < t.size(); ++i) {
      full[i] = alloc.cos1()[i] + alloc.cos2()[i];
      squeezed[i] = full[i] * 0.72;
    }
    add_report(out, app + ".full",
               wlm::check_compliance_range(demand, full, s.req,
                                           kMinutesPerSample),
               s.req);
    add_report(out, app + ".squeezed",
               wlm::check_compliance_range(demand, squeezed, s.req,
                                           kMinutesPerSample),
               s.req);

    // A mid-trace range and a periodic mask, as faultsim phases produce.
    const std::size_t lo = t.size() / 5;
    const std::size_t hi = (4 * t.size()) / 5;
    add_report(out, app + ".range",
               wlm::check_compliance_range(
                   std::span(demand).subspan(lo, hi - lo),
                   std::span(squeezed).subspan(lo, hi - lo), s.req,
                   kMinutesPerSample),
               s.req);
    std::vector<bool> mask(t.size());
    for (std::size_t i = 0; i < t.size(); ++i) mask[i] = (i % 40) >= 13;
    add_report(out, app + ".masked",
               wlm::check_compliance_masked(demand, squeezed, mask, s.req,
                                            kMinutesPerSample),
               s.req);
    std::vector<bool> fallback(t.size());
    for (std::size_t i = 0; i < t.size(); ++i) fallback[i] = i % 7 == 0;
    add_report(out, app + ".attributed",
               wlm::check_compliance_attributed(demand, squeezed, mask,
                                                fallback, s.req,
                                                kMinutesPerSample),
               s.req);
  }
}

void theta_lines(Lines& out) {
  const Scenario& s = scenario();
  struct Combo {
    std::size_t first, count;
    double capacity;
  };
  // Server-sized subsets at capacities that straddle the commitment: the
  // tightest keeps CoS1 feasible (theta_breakdown requires it) while
  // producing sub-1 thetas and real deferral traffic.
  const Combo combos[] = {{0, 8, 26.0}, {8, 12, 30.0}, {0, 26, 95.0}};
  for (std::size_t c = 0; c < std::size(combos); ++c) {
    const Combo& combo = combos[c];
    std::vector<const qos::AllocationTrace*> ptrs;
    for (std::size_t i = 0; i < combo.count; ++i) {
      ptrs.push_back(&s.allocations[combo.first + i]);
    }
    const sim::Aggregate agg =
        sim::aggregate_workloads(ptrs, s.demands[0].calendar());
    const std::string key = "combo" + std::to_string(c);
    out.add(key + ".peak_cos1", agg.peak_cos1());

    const sim::Evaluation ev = sim::evaluate(agg, combo.capacity, s.cos2);
    out.add(key + ".cos1_satisfied", ev.cos1_satisfied);
    out.add(key + ".theta", ev.theta);
    out.add(key + ".deadline_met", ev.deadline_met);
    out.add(key + ".max_backlog", ev.max_backlog);

    ASSERT_TRUE(ev.cos1_satisfied) << "combo " << c
                                   << ": raise the fixture capacity";
    const sim::ThetaBreakdown bd = theta_breakdown(agg, combo.capacity);
    out.add(key + ".bd.theta", bd.theta);
    out.add(key + ".bd.worst_week", bd.worst_week);
    out.add(key + ".bd.worst_slot", bd.worst_slot);
    for (std::size_t g = 0; g < bd.group_ratios.size(); ++g) {
      out.add(key + ".bd.group" + std::to_string(g), bd.group_ratios[g]);
    }

    const sim::RequiredCapacity rc =
        sim::required_capacity(agg, combo.capacity * 2.0, s.cos2);
    out.add(key + ".rc.fits", rc.fits);
    out.add(key + ".rc.capacity", rc.capacity);
    out.add(key + ".rc.theta", rc.at_capacity.theta);
  }
}

void watchdog_lines(Lines& out) {
  const Scenario& s = scenario();
  obs::WatchdogConfig config;
  config.normal = obs::SloBand{0.66, 0.9, 97.0, 30.0};
  config.failure = obs::SloBand{0.66, 0.9, 97.0, 30.0};
  config.minutes_per_sample = kMinutesPerSample;
  config.slots_per_day = s.demands[0].calendar().slots_per_day();
  config.theta = s.cos2.theta;
  obs::Watchdog wd(config);

  // Every app streamed through one watchdog: squeezed grants, a periodic
  // failure-mode stretch, telemetry fallback slots, and an overcommitted
  // CoS1 stretch once a day.
  for (std::size_t a = 0; a < s.demands.size(); ++a) {
    const trace::DemandTrace& t = s.demands[a];
    const qos::AllocationTrace& alloc = s.allocations[a];
    for (std::size_t i = 0; i < t.size(); ++i) {
      obs::SlotRecord r;
      r.slot = static_cast<std::uint32_t>(i);
      r.app = static_cast<std::uint16_t>(a);
      r.demand = t.values()[i];
      r.cos1 = alloc.cos1()[i];
      r.cos2 = alloc.cos2()[i];
      const double total = alloc.cos1()[i] + alloc.cos2()[i];
      const bool squeezed_slot = (i / 24) % 2 == (a % 2);
      r.granted = total * (squeezed_slot ? 0.72 : 1.0);
      r.satisfied2 = std::max(0.0, r.granted - r.cos1);
      if ((i % 60) < 9) r.flags |= obs::SlotRecord::kFailureMode;
      if (i % 11 == 0) r.flags |= obs::SlotRecord::kFallback;
      wd.observe(r);
    }
  }
  wd.finish();

  const obs::SloBand band = config.normal;
  for (std::size_t a = 0; a < s.demands.size(); ++a) {
    const std::string app = "wd.app" + std::to_string(a);
    for (const bool failure : {false, true}) {
      const obs::BandReport* r =
          wd.report(static_cast<std::uint16_t>(a), failure);
      const std::string mode = failure ? ".failure" : ".normal";
      ASSERT_NE(r, nullptr) << app << mode;
      out.add(app + mode + ".intervals", std::uint64_t{r->intervals});
      out.add(app + mode + ".idle", std::uint64_t{r->idle});
      out.add(app + mode + ".acceptable", std::uint64_t{r->acceptable});
      out.add(app + mode + ".degraded", std::uint64_t{r->degraded});
      out.add(app + mode + ".violating", std::uint64_t{r->violating});
      out.add(app + mode + ".degraded_telemetry",
              std::uint64_t{r->degraded_telemetry});
      out.add(app + mode + ".violating_telemetry",
              std::uint64_t{r->violating_telemetry});
      out.add(app + mode + ".longest", r->longest_degraded_minutes);
      out.add(app + mode + ".ok", r->satisfies(band));
    }
  }
  out.add("wd.theta", wd.theta());
  out.add("wd.theta_exact", wd.theta_exact());
  out.add("wd.alerts", wd.alerts().size());
  std::size_t tdegr = 0, theta_alerts = 0, budget = 0, overcommit = 0;
  for (const obs::Alert& alert : wd.alerts()) {
    switch (alert.kind) {
      case obs::AlertKind::kTDegr: tdegr += 1; break;
      case obs::AlertKind::kTheta: theta_alerts += 1; break;
      case obs::AlertKind::kBandBudget: budget += 1; break;
      case obs::AlertKind::kCos1Overcommit: overcommit += 1; break;
    }
  }
  out.add("wd.alerts.tdegr", tdegr);
  out.add("wd.alerts.theta", theta_alerts);
  out.add("wd.alerts.band_budget", budget);
  out.add("wd.alerts.cos1_overcommit", overcommit);
}

std::vector<std::string> generate() {
  Lines out;
  compliance_lines(out);
  theta_lines(out);
  watchdog_lines(out);
  return out.all();
}

TEST(GoldenEquivalence, SloArithmeticMatchesPreRefactorFixture) {
  const std::string path = std::string(ROPUS_GOLDEN_DIR) + "/slo_golden.txt";
  const std::vector<std::string> lines = generate();

  if (const char* update = std::getenv("ROPUS_UPDATE_GOLDEN");
      update != nullptr && update[0] == '1') {
    std::ofstream file(path, std::ios::trunc);
    ASSERT_TRUE(file.good()) << "cannot write " << path;
    for (const std::string& line : lines) file << line << "\n";
    GTEST_SKIP() << "fixture regenerated at " << path << " ("
                 << lines.size() << " lines) — review the diff";
  }

  std::ifstream file(path);
  ASSERT_TRUE(file.good())
      << "missing fixture " << path
      << " — run once with ROPUS_UPDATE_GOLDEN=1 and commit the file";
  std::vector<std::string> expected;
  std::string line;
  while (std::getline(file, line)) expected.push_back(line);

  ASSERT_EQ(lines.size(), expected.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    ASSERT_EQ(lines[i], expected[i]) << "fixture line " << i + 1;
  }
}

}  // namespace
}  // namespace ropus
