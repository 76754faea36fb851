// Pins the early stop of unstable saturation probes: find_saturation ends
// every probe's measurement window but the 1/64 one at its first dropped
// packet, and that must change nothing observable.
//
//  1. Simulator::run_throughput with stop_at_first_drop returns exactly the
//     full-window result when nothing drops, and otherwise stops inside the
//     measurement window (never in the warmup) with a drop counted.
//  2. find_saturation returns the saturation rate, accepted rate, probe
//     count and no-stable-point flag of a reference search that runs every
//     probe with a full window, over topology families, chiplet counts,
//     routing modes, surrogate estimates and executors — including a
//     configuration with no stable grid point, where the reported accepted
//     rate is the full-window 1/64 probe's.
//  3. The stop actually saves simulated work: a search never steps more
//     routers than the same probes with full windows, and the unseeded
//     search (whose full-rate probe always overflows) steps fewer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>

#include "core/arrangement.hpp"
#include "explore/thread_pool.hpp"
#include "noc/simulator.hpp"
#include "noc/topology.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using hm::core::ArrangementType;
using hm::core::make_arrangement;
using hm::noc::RoutingMode;
using hm::noc::SaturationResult;
using hm::noc::SaturationSearchOptions;
using hm::noc::SimConfig;
using hm::noc::Simulator;
using hm::noc::ThroughputResult;
using hm::noc::TopologyContext;
using hm::noc::TrafficPattern;
using hm::noc::TrafficSpec;

constexpr int kGridSteps = 64;  // find_saturation's k/64 grid

std::shared_ptr<const TopologyContext> topo_of(ArrangementType type,
                                               std::size_t n) {
  return TopologyContext::acquire(make_arrangement(type, n).graph());
}

void expect_same(const ThroughputResult& a, const ThroughputResult& b) {
  EXPECT_EQ(a.offered_flit_rate, b.offered_flit_rate);
  EXPECT_EQ(a.accepted_flit_rate, b.accepted_flit_rate);
  EXPECT_EQ(a.generated_flit_rate, b.generated_flit_rate);
  EXPECT_EQ(a.dropped_packets, b.dropped_packets);
}

std::uint64_t router_steps_counter() {
  return hm::telemetry::snapshot().counters["sim.router_steps"];
}

/// find_saturation's search run with full-window probes: every probe is a
/// fresh Simulator whose run_throughput keeps its default full measurement
/// window. It mirrors the bracket (full-rate probe or surrogate gallop),
/// the bisection of the k/64 grid and, with `speculative`, the extra grid
/// points the executor path prefetches, so it also predicts the probe
/// count. Probe results are memoized per grid point across searches.
class FullWindowSearch {
 public:
  struct Outcome {
    SaturationResult result;
    std::uint64_t router_steps = 0;  ///< of the searched probes, full windows
  };

  FullWindowSearch(std::shared_ptr<const TopologyContext> topo, SimConfig cfg,
                   SaturationSearchOptions opts, TrafficSpec traffic)
      : topo_(std::move(topo)),
        cfg_(cfg),
        opts_(opts),
        traffic_(std::move(traffic)) {}

  Outcome search(double surrogate_rate, bool speculative) {
    std::set<int> probed;
    auto touch = [&](int k) -> const ThroughputResult& {
      probed.insert(k);
      return probe(k);
    };
    auto stable = [&](int k) {
      const ThroughputResult& r = touch(k);
      return r.dropped_packets == 0 &&
             r.accepted_flit_rate >= 0.9 * r.generated_flit_rate;
    };

    int lo = 0;
    int hi = kGridSteps;
    if (surrogate_rate >= 0.0) {
      const int k0 = std::clamp(
          static_cast<int>(std::lround(surrogate_rate * kGridSteps)), 1,
          kGridSteps);
      if (speculative && k0 < kGridSteps) {
        touch(k0);
        touch(k0 + 1);
      }
      int jump = 1;
      if (stable(k0)) {
        for (lo = k0; lo < kGridSteps; jump *= 2) {
          const int j = std::min(lo + jump, kGridSteps);
          if (!stable(j)) {
            hi = j;
            break;
          }
          lo = j;
        }
      } else {
        for (hi = k0; hi > 1; jump *= 2) {
          const int j = std::max(hi - jump, 1);
          if (stable(j)) {
            lo = j;
            break;
          }
          hi = j;
        }
      }
    } else if (stable(kGridSteps)) {
      lo = kGridSteps;
    }

    Outcome out;
    if (lo == kGridSteps) {
      out.result.saturation_flit_rate = 1.0;
      out.result.accepted_flit_rate = probe(lo).accepted_flit_rate;
    } else {
      while (hi - lo > 1) {
        const int mid = (lo + hi) / 2;
        if (speculative && hi - lo > 2) {
          touch(mid);
          if ((lo + mid) / 2 > lo) touch((lo + mid) / 2);
          if ((mid + hi) / 2 > mid) touch((mid + hi) / 2);
        }
        if (stable(mid)) {
          lo = mid;
        } else {
          hi = mid;
        }
      }
      out.result.saturation_flit_rate =
          static_cast<double>(lo) / kGridSteps;
      out.result.no_stable_point = lo == 0;
      out.result.accepted_flit_rate =
          lo > 0 ? probe(lo).accepted_flit_rate
                 : std::min(touch(hi).accepted_flit_rate,
                            static_cast<double>(hi) / kGridSteps);
    }
    out.result.probes = static_cast<int>(probed.size());
    for (int k : probed) out.router_steps += steps_[k];
    return out;
  }

 private:
  const ThroughputResult& probe(int k) {
    auto it = memo_.find(k);
    if (it == memo_.end()) {
      Simulator sim(topo_, cfg_);
      sim.set_traffic(traffic_);
      const ThroughputResult r = sim.run_throughput(
          static_cast<double>(k) / kGridSteps, opts_.warmup, opts_.measure);
      steps_[k] = sim.network().hot_stats().router_steps;
      it = memo_.emplace(k, r).first;
    }
    return it->second;
  }

  std::shared_ptr<const TopologyContext> topo_;
  SimConfig cfg_;
  SaturationSearchOptions opts_;
  TrafficSpec traffic_;
  std::map<int, ThroughputResult> memo_;
  std::map<int, std::uint64_t> steps_;
};

SaturationSearchOptions short_windows() {
  SaturationSearchOptions opts;
  opts.warmup = 400;
  opts.measure = 400;
  return opts;
}

/// Runs find_saturation with and without a surrogate estimate (one below
/// and one above typical knees, so both gallop directions run) and with
/// and without a thread pool, and compares every search against the
/// full-window reference.
void expect_matches_reference(
    const std::shared_ptr<const TopologyContext>& topo, const SimConfig& cfg,
    const TrafficSpec& traffic, const std::string& label) {
  const SaturationSearchOptions base = short_windows();
  FullWindowSearch reference(topo, cfg, base, traffic);
  hm::explore::ThreadPool pool(3);
  for (const double surrogate : {-1.0, 0.1, 0.8}) {
    for (const bool pooled : {false, true}) {
      SCOPED_TRACE(label + " surrogate=" + std::to_string(surrogate) +
                   (pooled ? " pooled" : " sequential"));
      SaturationSearchOptions opts = base;
      opts.surrogate_rate = surrogate;
      const std::uint64_t steps_before = router_steps_counter();
      const SaturationResult got = hm::noc::find_saturation(
          topo, cfg, opts, traffic, pooled ? &pool : nullptr);
      const std::uint64_t steps = router_steps_counter() - steps_before;
      const auto want = reference.search(surrogate, pooled);
      EXPECT_EQ(got.saturation_flit_rate, want.result.saturation_flit_rate);
      EXPECT_EQ(got.accepted_flit_rate, want.result.accepted_flit_rate);
      EXPECT_EQ(got.probes, want.result.probes);
      EXPECT_EQ(got.no_stable_point, want.result.no_stable_point);
      // Early-stopped probes can only step fewer routers, and the unseeded
      // search's full-rate probe always overflows inside its window.
      EXPECT_LE(steps, want.router_steps);
      if (surrogate < 0.0) {
        EXPECT_LT(steps, want.router_steps);
      }
    }
  }
}

class SaturationEarlyStop : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = hm::telemetry::enabled();
    hm::telemetry::set_enabled(true);
  }
  void TearDown() override { hm::telemetry::set_enabled(was_enabled_); }

 private:
  bool was_enabled_ = false;
};

TEST_F(SaturationEarlyStop, WindowWithoutDropsIsUnchanged) {
  const auto topo = topo_of(ArrangementType::kHexaMesh, 7);
  const SimConfig cfg;
  Simulator full(topo, cfg);
  const ThroughputResult want = full.run_throughput(0.05, 500, 1000);
  ASSERT_EQ(want.dropped_packets, 0u);
  Simulator stopping(topo, cfg);
  const ThroughputResult got = stopping.run_throughput(0.05, 500, 1000, true);
  expect_same(got, want);
  EXPECT_EQ(stopping.now(), full.now());
}

TEST_F(SaturationEarlyStop, SaturatedWindowStopsAtFirstDrop) {
  const auto topo = topo_of(ArrangementType::kHexaMesh, 7);
  const SimConfig cfg;
  const hm::noc::Cycle warmup = 1000;
  const hm::noc::Cycle measure = 2000;
  Simulator full(topo, cfg);
  const ThroughputResult whole = full.run_throughput(1.0, warmup, measure);
  ASSERT_GT(whole.dropped_packets, 1u);

  Simulator stopping(topo, cfg);
  const ThroughputResult got =
      stopping.run_throughput(1.0, warmup, measure, true);
  EXPECT_GE(got.dropped_packets, 1u);
  // The warmup drops too at full rate; only the measurement window stops.
  EXPECT_GT(stopping.now(), warmup);
  EXPECT_LT(stopping.now(), warmup + measure);
  // Rates cover the cycles actually measured, so they stay rates.
  EXPECT_GT(got.generated_flit_rate, 0.0);
  EXPECT_LE(got.generated_flit_rate, 1.0);
  EXPECT_LE(got.accepted_flit_rate, 1.0);
}

TEST_F(SaturationEarlyStop, SearchMatchesFullWindowReference) {
  for (const auto& [type, family] :
       {std::pair{ArrangementType::kGrid, "grid"},
        std::pair{ArrangementType::kBrickwall, "brickwall"},
        std::pair{ArrangementType::kHexaMesh, "hexamesh"}}) {
    for (const std::size_t n : {std::size_t{7}, std::size_t{16}}) {
      for (const RoutingMode routing :
           {RoutingMode::kMinimalAdaptive,
            RoutingMode::kDeterministicMinimal}) {
        SimConfig cfg;
        cfg.routing = routing;
        const std::string label =
            std::string(family) + " N=" + std::to_string(n) +
            (routing == RoutingMode::kMinimalAdaptive ? " adaptive"
                                                      : " deterministic");
        expect_matches_reference(topo_of(type, n), cfg, TrafficSpec{},
                                 label);
      }
    }
  }
}

TEST_F(SaturationEarlyStop, NoStablePointFallsBackToFullWindowProbe) {
  // Every endpoint sends to endpoint 0 over single-VC links (the credit
  // round trip caps each link far below one flit per cycle), so not even
  // the lowest grid rate is stable. One-packet source queues make the 1/64
  // probe drop inside its window too, so stopping it there would change
  // the reported rate.
  SimConfig cfg;
  cfg.vcs = 1;
  cfg.source_queue_capacity = 1;
  TrafficSpec hotspot;
  hotspot.pattern = TrafficPattern::kHotspot;
  hotspot.hotspot_fraction = 1.0;
  hotspot.hotspots = {0};
  const auto topo = topo_of(ArrangementType::kGrid, 16);
  expect_matches_reference(topo, cfg, hotspot, "hotspot grid N=16");

  const SaturationResult r =
      hm::noc::find_saturation(topo, cfg, short_windows(), hotspot);
  EXPECT_TRUE(r.no_stable_point);
  EXPECT_EQ(r.saturation_flit_rate, 0.0);
  EXPECT_GT(r.accepted_flit_rate, 0.0);
  EXPECT_LE(r.accepted_flit_rate, 1.0 / kGridSteps);
  // The fallback's accepted rate is the full-window 1/64 probe's.
  Simulator full(topo, cfg);
  full.set_traffic(hotspot);
  const ThroughputResult k1 = full.run_throughput(1.0 / kGridSteps, 400, 400);
  ASSERT_GT(k1.dropped_packets, 0u);
  EXPECT_EQ(r.accepted_flit_rate, k1.accepted_flit_rate);
}

}  // namespace
