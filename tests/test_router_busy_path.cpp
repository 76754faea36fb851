// Pins the saturated ("busy") router path bit for bit.
//
//  1. Fingerprints: exact switch grants, router steps, escape revocations,
//     VA stalls, packets delivered, the tagged latency sum and both SA
//     stall counters of a short above-saturation run, over every routing
//     mode x VC count x endpoint count the router specializes on, plus a
//     mid-run link kill + repair and one low-load run. The first six
//     values were recorded from the full-scan router (every requester
//     examined every cycle), the SA stall counters and the low-load case
//     from the per-port-count SA walk that preceded the port-mask walk;
//     any change to arbitration order, RNG draws, revocation timing or
//     stall accounting shows up here.
//     test_active_set cannot catch such a change (its dense and active
//     steppers drive the same Router) and tests/golden pins only the
//     default configuration.
//  2. Bookkeeping invariants every cycle: a saturated HexaMesh N=19 with 4
//     endpoints per chiplet (10 ports x 8 VCs = 80 input VCs, so every
//     per-port mask spans two words) through a kill and a repair, with
//     Router::invariants_ok asserted on every router after every step.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/arrangement.hpp"
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
using hm::faults::FaultEvent;
using hm::faults::FaultKind;
using hm::faults::FaultPlan;
using hm::graph::Graph;
using hm::graph::NodeId;
using hm::noc::Cycle;
using hm::noc::Network;
using hm::noc::RoutingMode;
using hm::noc::SimConfig;
using hm::noc::Simulator;

/// Offered load far above every configuration's saturation point.
constexpr double kOverload = 0.8;

struct Fingerprint {
  std::uint64_t flits_routed = 0;
  std::uint64_t router_steps = 0;
  std::uint64_t heads_revoked = 0;
  std::uint64_t va_stall_cycles = 0;
  std::uint64_t packets_delivered = 0;
  std::uint64_t latency_sum = 0;
  std::uint64_t sa_credit_stalls = 0;
  std::uint64_t sa_conflict_stalls = 0;

  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
};

std::string to_string(const Fingerprint& f) {
  return "{" + std::to_string(f.flits_routed) + ", " +
         std::to_string(f.router_steps) + ", " +
         std::to_string(f.heads_revoked) + ", " +
         std::to_string(f.va_stall_cycles) + ", " +
         std::to_string(f.packets_delivered) + ", " +
         std::to_string(f.latency_sum) + ", " +
         std::to_string(f.sa_credit_stalls) + ", " +
         std::to_string(f.sa_conflict_stalls) + "}";
}

Fingerprint fingerprint(Simulator& sim) {
  const Network& net = sim.network();
  const Network::HotStats hs = net.hot_stats();
  Fingerprint f;
  f.flits_routed = hs.routers.flits_routed;
  f.router_steps = hs.router_steps;
  f.heads_revoked = hs.routers.heads_revoked;
  f.va_stall_cycles = hs.routers.va_stall_cycles;
  f.sa_credit_stalls = hs.routers.sa_credit_stalls;
  f.sa_conflict_stalls = hs.routers.sa_conflict_stalls;
  for (std::size_t e = 0; e < net.num_endpoints(); ++e) {
    f.packets_delivered += net.endpoint(e).sink().packets_ejected;
    f.latency_sum += net.endpoint(e).sink().tagged_latency_sum;
  }
  return f;
}

Graph hexamesh19() {
  return make_arrangement(ArrangementType::kHexaMesh, 19).graph();
}

/// First edge of `g` whose removal keeps the graph connected.
std::pair<NodeId, NodeId> first_non_bridge(const Graph& g) {
  const auto bridges = hm::graph::bridges(g);
  for (const auto& e : g.edges()) {
    bool is_bridge = false;
    for (const auto& b : bridges) is_bridge = is_bridge || b == e;
    if (!is_bridge) return e;
  }
  throw std::logic_error("no non-bridge edge");
}

FaultPlan kill_and_repair(const Graph& g, Cycle kill_at, Cycle repair_at) {
  const auto [a, b] = first_non_bridge(g);
  FaultPlan plan;
  plan.events.push_back(FaultEvent{kill_at, FaultKind::kLinkKill, a, b});
  plan.events.push_back(FaultEvent{repair_at, FaultKind::kLinkRepair, a, b});
  return plan;
}

struct Case {
  RoutingMode routing;
  int vcs;
  int endpoints;
  Fingerprint expected;
};

constexpr RoutingMode kAdaptive = RoutingMode::kMinimalAdaptive;
constexpr RoutingMode kDeterministic = RoutingMode::kDeterministicMinimal;
constexpr RoutingMode kUpDown = RoutingMode::kUpDownOnly;

// Recorded on HexaMesh N=19, seed 42, windows 400/400/800 at kOverload.
// {routing, vcs, endpoints,
//  {flits_routed, router_steps, heads_revoked, va_stall_cycles,
//   packets_delivered, latency_sum, sa_credit_stalls, sa_conflict_stalls}}
const Case kCases[] = {
    {kAdaptive, 1, 1, {7861, 30220, 28325, 15175, 574, 87549, 29287, 0}},
    {kAdaptive, 1, 2, {6892, 30338, 30050, 46404, 515, 31926, 30662, 0}},
    {kAdaptive, 1, 4, {6730, 30366, 34410, 107427, 559, 24810, 34673, 0}},
    {kAdaptive, 2, 1, {24610, 27533, 57248, 19389, 1781, 197309, 64812, 1444}},
    {kAdaptive, 2, 2, {28749, 30336, 97489, 68397, 2138, 280234, 105316, 1515}},
    {kAdaptive, 2, 4,
     {28076, 30366, 112966, 187567, 2211, 149987, 119090, 1382}},
    {kAdaptive, 8, 1, {47022, 19221, 22109, 926, 3403, 172739, 70181, 35696}},
    {kAdaptive, 8, 2,
     {126410, 30336, 179099, 156455, 9286, 613291, 417976, 133185}},
    {kAdaptive, 8, 4,
     {116759, 30366, 375100, 668308, 8939, 973732, 587356, 99021}},
    {kDeterministic, 1, 1, {7861, 30220, 28325, 15175, 574, 87549, 29287, 0}},
    {kDeterministic, 1, 2, {6892, 30338, 30050, 46404, 515, 31926, 30662, 0}},
    {kDeterministic, 1, 4, {6730, 30366, 34410, 107427, 559, 24810, 34673, 0}},
    {kDeterministic, 2, 1,
     {16154, 30220, 50198, 34531, 1172, 135995, 54200, 684}},
    {kDeterministic, 2, 2,
     {14790, 30338, 60930, 90827, 1115, 87552, 63374, 460}},
    {kDeterministic, 2, 4,
     {14612, 30366, 65639, 211954, 1193, 64118, 68084, 535}},
    {kDeterministic, 8, 1,
     {60188, 30193, 83958, 83795, 4355, 267918, 167121, 38879}},
    {kDeterministic, 8, 2,
     {58579, 30338, 161942, 333838, 4386, 372016, 245645, 35585}},
    {kDeterministic, 8, 4,
     {54284, 30366, 189430, 820771, 4370, 278011, 259719, 33733}},
    {kUpDown, 1, 1, {7861, 30220, 28325, 15175, 574, 87549, 29287, 0}},
    {kUpDown, 1, 2, {6892, 30338, 30050, 46404, 515, 31926, 30662, 0}},
    {kUpDown, 1, 4, {6730, 30366, 34410, 107427, 559, 24810, 34673, 0}},
    {kUpDown, 2, 1, {16643, 30205, 55120, 28381, 1215, 135183, 60982, 1159}},
    {kUpDown, 2, 2, {14129, 30338, 59929, 92011, 1067, 90204, 64521, 1027}},
    {kUpDown, 2, 4, {14654, 30366, 65451, 211835, 1183, 50633, 69744, 1159}},
    {kUpDown, 8, 1, {59768, 30192, 85437, 86294, 4325, 291534, 171945, 37823}},
    {kUpDown, 8, 2,
     {59601, 30338, 156079, 328767, 4474, 372295, 244515, 37774}},
    {kUpDown, 8, 4,
     {53644, 30366, 185635, 819633, 4311, 253376, 260036, 34804}},
};

TEST(RouterBusyPath, FingerprintsAcrossRouterSpecializations) {
  const auto topo = hm::noc::TopologyContext::acquire(hexamesh19());
  for (const Case& c : kCases) {
    SimConfig cfg;
    cfg.routing = c.routing;
    cfg.vcs = c.vcs;
    cfg.endpoints_per_chiplet = c.endpoints;
    Simulator sim(topo, cfg);
    (void)sim.run_latency(kOverload, 400, 400, 800);
    EXPECT_EQ(fingerprint(sim), c.expected)
        << "routing=" << static_cast<int>(c.routing) << " vcs=" << c.vcs
        << " endpoints=" << c.endpoints
        << " got " << to_string(fingerprint(sim));
  }
}

TEST(RouterBusyPath, FingerprintAtLowLoad) {
  // Every case above is overloaded; at the evaluator's latency-probe rate
  // almost no requester is ever credit-starved, which is where SA and
  // revocation skip the most.
  SimConfig cfg;
  Simulator sim(hexamesh19(), cfg);
  (void)sim.run_latency(0.01, 1000, 3000, 60000);
  const Fingerprint expected{5016, 8370, 91, 0, 374, 20864, 115, 23};
  EXPECT_EQ(fingerprint(sim), expected)
      << "got " << to_string(fingerprint(sim));
}

TEST(RouterBusyPath, FingerprintUnderLinkKillAndRepair) {
  const Graph g = hexamesh19();
  struct FaultCase {
    int endpoints;
    Fingerprint expected;
    std::uint64_t flits_dropped;
    std::uint64_t packets_rerouted;
  };
  const FaultCase cases[] = {
      {2, {117019, 30336, 212049, 192694, 8486, 0, 425389, 113034}, 87, 2},
      {4, {102394, 30366, 427068, 706640, 7787, 0, 597265, 76647}, 66, 1},
  };
  for (const FaultCase& c : cases) {
    SimConfig cfg;
    cfg.endpoints_per_chiplet = c.endpoints;
    Simulator sim(g, cfg);
    const auto stats =
        sim.run_resilience(kOverload, kill_and_repair(g, 300, 900), 400, 1200);
    EXPECT_EQ(fingerprint(sim), c.expected)
        << "endpoints=" << c.endpoints << " got "
        << to_string(fingerprint(sim));
    EXPECT_EQ(stats.flits_dropped, c.flits_dropped);
    EXPECT_EQ(stats.packets_rerouted, c.packets_rerouted);
  }
}

TEST(RouterBusyPath, BookkeepingInvariantsHoldEveryCycleThroughKillAndRepair) {
  const Graph g = hexamesh19();
  SimConfig cfg;
  cfg.endpoints_per_chiplet = 4;
  Network net(hm::noc::TopologyContext::acquire(g), cfg);
  ASSERT_GT(net.router(0).total_ports() * static_cast<std::size_t>(cfg.vcs),
            64u);

  hm::faults::FaultController faults(kill_and_repair(g, 300, 700));
  faults.arm(net, 0);
  hm::noc::UniformRandomTraffic traffic(net.num_endpoints(), kOverload,
                                        cfg.packet_length);
  hm::noc::Rng rng(5);
  std::string why;
  for (Cycle now = 0; now < 1200; ++now) {
    faults.on_tick(net, now);
    for (std::size_t e = 0; e < net.num_endpoints(); ++e) {
      const auto p =
          traffic.maybe_generate(static_cast<std::uint16_t>(e), now, rng);
      if (p.has_value() && faults.packet_routable(*p)) {
        (void)net.offer_packet(e, *p);
      }
    }
    net.step(now);
    for (std::size_t r = 0; r < net.num_routers(); ++r) {
      ASSERT_TRUE(net.router(r).invariants_ok(&why))
          << "cycle " << now << ": " << why;
    }
  }
  EXPECT_EQ(faults.stats().links_killed, 1u);
  EXPECT_EQ(faults.stats().repairs, 1u);
  const Network::HotStats hs = net.hot_stats();
  // Saturated: revocations and credit-starved requesters actually occurred.
  EXPECT_GT(hs.routers.heads_revoked, 0u);
  EXPECT_GT(hs.routers.sa_credit_stalls, 0u);
  ASSERT_TRUE(net.invariants_ok(&why)) << why;
}

}  // namespace
