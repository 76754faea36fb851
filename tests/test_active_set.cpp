// Pins the two perf contracts of the skip-idle/active-set work:
//
//  1. Active-set stepping (SimConfig::skip_idle, the default) is an
//     optimization, never a behavior change: measurement results and flit
//     accounting are bit-identical to the dense reference sweep across
//     routing modes, seeds and traffic patterns — including the quiescence
//     fast-forward (which must actually engage at low load).
//  2. The surrogate-bracketed saturation search returns exactly the
//     unseeded search's rate (both bisect the same dyadic grid), within a
//     bounded probe budget when the analytic estimate is wired in; the
//     unseeded search takes exactly 7 probes.
//
// Plus: Network::reset() clears the active-set state (the arena recycles
// networks through reset(); stale worklists would violate the skip-mode
// flag-exactness invariants and resurrect ghost work), and the link
// arrival wheel stays exact at every wheel-size boundary of link_latency,
// through a mid-run link kill and repair.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/arrangement.hpp"
#include "core/evaluator.hpp"
#include "faults/controller.hpp"
#include "faults/fault_plan.hpp"
#include "graph/algorithms.hpp"
#include "noc/network.hpp"
#include "noc/simulator.hpp"
#include "noc/topology.hpp"
#include "noc/traffic.hpp"

namespace {

using hm::core::ArrangementType;
using hm::core::make_arrangement;
using hm::noc::Cycle;
using hm::noc::Network;
using hm::noc::Packet;
using hm::noc::RoutingMode;
using hm::noc::SimConfig;
using hm::noc::Simulator;
using hm::noc::TrafficPattern;
using hm::noc::TrafficSpec;

TrafficSpec hotspot_spec() {
  TrafficSpec spec;
  spec.pattern = TrafficPattern::kHotspot;
  spec.hotspot_fraction = 0.3;
  spec.hotspots = {0, 3};
  return spec;
}

/// One full measurement pass (latency run then throughput run on the same
/// Simulator, like evaluate() does) with everything observable captured.
struct RunObservation {
  hm::noc::LatencyResult latency;
  hm::noc::ThroughputResult throughput;
  std::uint64_t flits_injected = 0;
  std::uint64_t flits_ejected = 0;
  std::uint64_t idle_skipped = 0;
};

RunObservation observe(const SimConfig& cfg, const TrafficSpec& traffic) {
  const auto arr = make_arrangement(ArrangementType::kGrid, 9);
  Simulator sim(arr.graph(), cfg);
  sim.set_traffic(traffic);
  RunObservation obs;
  obs.latency = sim.run_latency(0.05, 200, 500, 30000);
  obs.throughput = sim.run_throughput(0.3, 300, 300);
  obs.flits_injected = sim.network().total_flits_injected();
  obs.flits_ejected = sim.network().total_flits_ejected();
  obs.idle_skipped = sim.idle_skipped_cycles();
  std::string why;
  EXPECT_TRUE(sim.network().invariants_ok(&why)) << why;
  return obs;
}

TEST(ActiveSet, BitIdenticalToDenseAcrossModesSeedsAndTraffic) {
  const RoutingMode modes[] = {RoutingMode::kMinimalAdaptive,
                               RoutingMode::kDeterministicMinimal,
                               RoutingMode::kUpDownOnly};
  const TrafficSpec traffics[] = {TrafficSpec{}, hotspot_spec()};
  for (const RoutingMode mode : modes) {
    for (const unsigned long long seed : {7ull, 42ull, 1234ull}) {
      for (const TrafficSpec& traffic : traffics) {
        SimConfig cfg;
        cfg.routing = mode;
        cfg.seed = seed;
        cfg.skip_idle = true;
        const RunObservation active = observe(cfg, traffic);
        cfg.skip_idle = false;
        const RunObservation dense = observe(cfg, traffic);

        const std::string ctx =
            "mode=" + std::to_string(static_cast<int>(mode)) +
            " seed=" + std::to_string(seed) + " hotspot=" +
            std::to_string(traffic.pattern == TrafficPattern::kHotspot);
        EXPECT_EQ(active.latency.avg_packet_latency,
                  dense.latency.avg_packet_latency) << ctx;
        EXPECT_EQ(active.latency.packets_measured,
                  dense.latency.packets_measured) << ctx;
        EXPECT_EQ(active.latency.drained, dense.latency.drained) << ctx;
        EXPECT_EQ(active.throughput.accepted_flit_rate,
                  dense.throughput.accepted_flit_rate) << ctx;
        EXPECT_EQ(active.throughput.generated_flit_rate,
                  dense.throughput.generated_flit_rate) << ctx;
        EXPECT_EQ(active.throughput.dropped_packets,
                  dense.throughput.dropped_packets) << ctx;
        EXPECT_EQ(active.flits_injected, dense.flits_injected) << ctx;
        EXPECT_EQ(active.flits_ejected, dense.flits_ejected) << ctx;
        // The optimization must actually optimize: dense mode never
        // fast-forwards, active mode must have skipped something during
        // the low-load latency phase.
        EXPECT_EQ(dense.idle_skipped, 0u) << ctx;
        EXPECT_GT(active.idle_skipped, 0u) << ctx;
      }
    }
  }
}

TEST(ActiveSet, ResetClearsActiveSetState) {
  const auto arr = make_arrangement(ArrangementType::kGrid, 9);
  SimConfig cfg;  // skip_idle on
  Network fresh(arr.graph(), cfg);
  Network recycled(arr.graph(), cfg);

  // Leave `recycled` mid-flight: queued packets, buffered flits, in-flight
  // link traffic — every worklist populated.
  hm::noc::UniformRandomTraffic traffic(recycled.num_endpoints(), 0.4,
                                        cfg.packet_length);
  hm::noc::Rng rng(3);
  for (Cycle now = 0; now < 120; ++now) {
    for (std::size_t e = 0; e < recycled.num_endpoints(); ++e) {
      auto p = traffic.maybe_generate(static_cast<std::uint16_t>(e), now, rng);
      if (p.has_value()) (void)recycled.offer_packet(e, *p);
    }
    recycled.step(now);
  }
  ASSERT_FALSE(recycled.quiescent());

  recycled.reset();
  // Quiescent again (in skip-idle mode that IS "all worklists empty"), with
  // the flag-exactness invariants intact.
  EXPECT_TRUE(recycled.quiescent());
  std::string why;
  EXPECT_TRUE(recycled.invariants_ok(&why)) << why;

  // And behaviorally indistinguishable from a freshly built network: the
  // same offered traffic produces the same flit accounting cycle for cycle.
  hm::noc::UniformRandomTraffic replay_a(fresh.num_endpoints(), 0.4,
                                         cfg.packet_length);
  hm::noc::UniformRandomTraffic replay_b(fresh.num_endpoints(), 0.4,
                                         cfg.packet_length);
  hm::noc::Rng rng_a(11);
  hm::noc::Rng rng_b(11);
  for (Cycle now = 0; now < 400; ++now) {
    for (std::size_t e = 0; e < fresh.num_endpoints(); ++e) {
      auto pa = replay_a.maybe_generate(static_cast<std::uint16_t>(e), now,
                                        rng_a);
      auto pb = replay_b.maybe_generate(static_cast<std::uint16_t>(e), now,
                                        rng_b);
      ASSERT_EQ(pa.has_value(), pb.has_value());
      if (pa.has_value()) {
        ASSERT_EQ(fresh.offer_packet(e, *pa), recycled.offer_packet(e, *pb));
      }
    }
    fresh.step(now);
    recycled.step(now);
  }
  EXPECT_EQ(fresh.total_flits_injected(), recycled.total_flits_injected());
  EXPECT_EQ(fresh.total_flits_ejected(), recycled.total_flits_ejected());
  EXPECT_GT(fresh.total_flits_ejected(), 0u);
}

TEST(ActiveSet, LinkWheelBitIdenticalAtWheelSizeBoundaries) {
  // The wheel has bit_ceil(link_latency + 1) slots: latencies 1, 2, 15,
  // 16, 17, 27, 31 and 32 cover a full wheel (2^k - 1), one slot to spare
  // and the default. A dense and a skip-idle network take the same traffic
  // and the same link kill + repair in lockstep; the kill strands flits on
  // the surviving links, so rebuild_worklists must re-slot them. A wheel
  // too small for its latency still delivers on time (a link visited early
  // just re-slots) but trips step_active's front-arrival assert, so this
  // case also runs in the assertions-on build.
  const auto arr = make_arrangement(ArrangementType::kHexaMesh, 19);
  const hm::graph::Graph& g = arr.graph();
  const auto bridges = hm::graph::bridges(g);
  const auto edges = g.edges();
  const auto edge = *std::find_if(edges.begin(), edges.end(), [&](auto e) {
    return std::find(bridges.begin(), bridges.end(), e) == bridges.end();
  });
  hm::faults::FaultPlan plan;
  plan.events.push_back(hm::faults::FaultEvent{
      150, hm::faults::FaultKind::kLinkKill, edge.first, edge.second});
  plan.events.push_back(hm::faults::FaultEvent{
      400, hm::faults::FaultKind::kLinkRepair, edge.first, edge.second});
  const auto topo = hm::noc::TopologyContext::acquire(g);
  constexpr Cycle kCycles = 900;

  for (const int latency : {1, 2, 15, 16, 17, 27, 31, 32}) {
    const std::string ctx = "link_latency=" + std::to_string(latency);
    SimConfig cfg;
    cfg.link_latency = latency;
    cfg.skip_idle = true;
    Network active(topo, cfg);
    cfg.skip_idle = false;
    Network dense(topo, cfg);
    hm::faults::FaultController faults_a(plan);
    hm::faults::FaultController faults_d(plan);
    faults_a.arm(active, 0);
    faults_d.arm(dense, 0);
    for (std::size_t e = 0; e < active.num_endpoints(); ++e) {
      active.endpoint(e).set_measurement_window(0, kCycles);
      dense.endpoint(e).set_measurement_window(0, kCycles);
    }
    hm::noc::UniformRandomTraffic traffic(active.num_endpoints(), 0.1,
                                          cfg.packet_length);
    hm::noc::Rng rng(9);
    std::string why;
    for (Cycle now = 0; now < kCycles; ++now) {
      if (now == plan.events.front().at) {
        ASSERT_FALSE(active.quiescent()) << ctx << ": nothing to re-slot";
      }
      faults_a.on_tick(active, now);
      faults_d.on_tick(dense, now);
      for (std::size_t e = 0; e < active.num_endpoints(); ++e) {
        const auto p =
            traffic.maybe_generate(static_cast<std::uint16_t>(e), now, rng);
        if (p.has_value() && faults_a.packet_routable(*p)) {
          ASSERT_EQ(active.offer_packet(e, *p), dense.offer_packet(e, *p))
              << ctx;
        }
      }
      active.step(now);
      dense.step(now);
      ASSERT_EQ(active.total_flits_ejected(), dense.total_flits_ejected())
          << ctx << " cycle " << now;
      ASSERT_TRUE(active.invariants_ok(&why)) << ctx << " cycle " << now
                                              << ": " << why;
    }
    EXPECT_EQ(faults_a.stats().links_killed, 1u) << ctx;
    EXPECT_EQ(faults_a.stats().repairs, 1u) << ctx;
    EXPECT_EQ(active.flits_dropped(), dense.flits_dropped()) << ctx;
    EXPECT_EQ(active.total_flits_injected(), dense.total_flits_injected())
        << ctx;
    EXPECT_EQ(active.flits_in_network(), dense.flits_in_network()) << ctx;
    for (std::size_t e = 0; e < active.num_endpoints(); ++e) {
      const hm::noc::SinkStats& a = active.endpoint(e).sink();
      const hm::noc::SinkStats& d = dense.endpoint(e).sink();
      EXPECT_EQ(a.packets_ejected, d.packets_ejected) << ctx << " ep " << e;
      EXPECT_EQ(a.tagged_latency_sum, d.tagged_latency_sum)
          << ctx << " ep " << e;
    }
    for (std::size_t r = 0; r < active.num_routers(); ++r) {
      const auto& a = active.router(r).hot_stats();
      const auto& d = dense.router(r).hot_stats();
      EXPECT_EQ(a.flits_routed, d.flits_routed) << ctx << " router " << r;
      EXPECT_EQ(a.heads_revoked, d.heads_revoked) << ctx << " router " << r;
      EXPECT_EQ(a.va_stall_cycles, d.va_stall_cycles)
          << ctx << " router " << r;
      EXPECT_EQ(a.sa_conflict_stalls, d.sa_conflict_stalls)
          << ctx << " router " << r;
      EXPECT_EQ(a.sa_credit_stalls, d.sa_credit_stalls)
          << ctx << " router " << r;
      EXPECT_EQ(a.ring_hwm, d.ring_hwm) << ctx << " router " << r;
    }
  }
}

/// Short-window saturation search options every surrogate test shares.
hm::noc::SaturationSearchOptions fast_search() {
  hm::noc::SaturationSearchOptions opts;
  opts.warmup = 400;
  opts.measure = 400;
  return opts;
}

TEST(SurrogateSearch, SameRateAsUnseededSearchForAnyEstimate) {
  const auto arr = make_arrangement(ArrangementType::kHexaMesh, 19);
  const auto topo = hm::noc::TopologyContext::acquire(arr.graph());
  const SimConfig cfg;
  const auto opts = fast_search();

  const auto unseeded = hm::noc::find_saturation(topo, cfg, opts);
  ASSERT_GT(unseeded.saturation_flit_rate, 0.0);

  // Any estimate — spot-on, too low, too high, or at either boundary —
  // must land on the same grid point with the same accepted rate.
  for (const double estimate :
       {unseeded.saturation_flit_rate, 0.0, 0.05, 0.3, 0.9, 1.0}) {
    auto sopts = opts;
    sopts.surrogate_rate = estimate;
    const auto pruned = hm::noc::find_saturation(topo, cfg, sopts);
    EXPECT_EQ(pruned.saturation_flit_rate, unseeded.saturation_flit_rate)
        << "estimate=" << estimate;
    EXPECT_EQ(pruned.accepted_flit_rate, unseeded.accepted_flit_rate)
        << "estimate=" << estimate;
  }
}

TEST(SurrogateSearch, ProbeBudgetBounded) {
  const auto arr = make_arrangement(ArrangementType::kHexaMesh, 19);
  const auto topo = hm::noc::TopologyContext::acquire(arr.graph());
  const SimConfig cfg;
  const auto opts = fast_search();
  // Without an estimate: the unstable full-rate probe, then six bisection
  // steps down to the 1/64 grid.
  const auto unseeded = hm::noc::find_saturation(topo, cfg, opts);
  EXPECT_EQ(unseeded.probes, 7);

  // A spot-on estimate needs just the bracket check: stable at k0,
  // unstable one grid step up.
  auto exact = opts;
  exact.surrogate_rate = unseeded.saturation_flit_rate;
  const auto best_case = hm::noc::find_saturation(topo, cfg, exact);
  EXPECT_LE(best_case.probes, 4);

  // The analytic estimate evaluate() wires in (core/evaluator.cpp) must
  // keep the budget at <= 6 probes — the acceptance bound — versus the
  // unseeded search's 7.
  const hm::core::EvaluationParams eval_params;
  auto seeded = opts;
  seeded.surrogate_rate = hm::core::analytic_saturation_estimate(
      hm::core::evaluate_analytic(arr, eval_params), eval_params);
  const auto pruned = hm::noc::find_saturation(topo, cfg, seeded);
  EXPECT_EQ(pruned.saturation_flit_rate, unseeded.saturation_flit_rate);
  EXPECT_LE(pruned.probes, 6);
  EXPECT_LT(pruned.probes, unseeded.probes);
}

}  // namespace
