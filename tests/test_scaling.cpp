// Scaling tests: the paper's title promises "hundreds of chiplets" — verify
// the generators, proxies and partitioner stay correct well beyond the
// N <= 100 evaluation range, and that the saturation search behaves sanely.
#include <gtest/gtest.h>

#include "core/arrangement.hpp"
#include "core/brickwall.hpp"
#include "core/grid.hpp"
#include "core/hexamesh.hpp"
#include "core/proxies.hpp"
#include "graph/algorithms.hpp"
#include "noc/simulator.hpp"
#include "partition/partitioner.hpp"

namespace {

using namespace hm::core;

class LargeArrangementTest : public ::testing::TestWithParam<int> {};

TEST_P(LargeArrangementTest, GeneratorsStayCorrect) {
  const auto n = static_cast<std::size_t>(GetParam());
  for (auto type : {ArrangementType::kGrid, ArrangementType::kBrickwall,
                    ArrangementType::kHexaMesh}) {
    const auto arr = make_arrangement(type, n);
    EXPECT_EQ(arr.chiplet_count(), n);
    EXPECT_TRUE(hm::graph::is_connected(arr.graph())) << arr.name();
    EXPECT_TRUE(hm::graph::satisfies_planar_bound(arr.graph())) << arr.name();
    EXPECT_LE(arr.graph().max_degree(), 6u);
    if (type != ArrangementType::kGrid) {
      // BW/HM approach the planar degree bound from below.
      EXPECT_GT(arr.neighbor_stats().avg, 4.5) << arr.name();
    }
  }
}

TEST_P(LargeArrangementTest, PlacementStillMatchesGraph) {
  const auto n = static_cast<std::size_t>(GetParam());
  const auto arr = make_hexamesh(n);
  const auto placement = arr.placement(2.0, 1.7);
  EXPECT_TRUE(placement.is_overlap_free());
  EXPECT_EQ(placement.adjacency_graph(0.01).edge_count(),
            arr.graph().edge_count());
}

INSTANTIATE_TEST_SUITE_P(Hundreds, LargeArrangementTest,
                         ::testing::Values(144, 169, 217, 256, 300, 397),
                         [](const auto& info) {
                           return "N" + std::to_string(info.param);
                         });

TEST(LargeProxies, HexameshFormulasHoldAtLargeRegularSizes) {
  for (std::size_t rings : {7u, 9u, 11u}) {  // N = 169, 271, 397
    const auto arr = make_hexamesh_regular(rings);
    EXPECT_NEAR(hexamesh_diameter(arr.chiplet_count()),
                hm::graph::diameter(arr.graph()), 1e-9);
  }
}

TEST(LargeProxies, GridBrickwallFormulasHoldAtSide15) {
  const auto grid = make_grid_regular(15);
  EXPECT_DOUBLE_EQ(grid_diameter(225), hm::graph::diameter(grid.graph()));
  const auto bw = make_brickwall_regular(15);
  EXPECT_DOUBLE_EQ(brickwall_diameter(225), hm::graph::diameter(bw.graph()));
}

TEST(LargePartition, NearOptimalAtN196) {
  // Beyond the paper's N <= 100 range the flat FM refinement leaves a small
  // gap to the optimal straight cut (14): single-vertex moves cannot unbend
  // a diagonal cut. Document the bound rather than hide it; within the
  // paper's range the partitioner matches the closed forms exactly (see
  // BisectVsFormula tests).
  const auto arr = make_grid_regular(14);
  hm::partition::BisectionOptions opts;
  opts.num_starts = 16;
  const auto cut = hm::partition::bisection_width(arr.graph(), opts);
  EXPECT_GE(cut, 14u);
  EXPECT_LE(cut, 18u);
}

TEST(LargePartition, HexameshRegularRings8) {
  const auto arr = make_hexamesh_regular(8);  // N = 217, bisection 33
  hm::partition::BisectionOptions opts;
  opts.num_starts = 16;
  const auto cut = hm::partition::bisection_width(arr.graph(), opts);
  EXPECT_GE(cut, 33u);           // heuristic can't beat the optimum
  EXPECT_LE(cut, 33u + 3u);      // and should land very close to it
}

TEST(LargeSim, ZeroLoadLatencyAtN217) {
  // One cycle-accurate smoke run at > 200 chiplets: the simulator must
  // drain and the latency must track the diameter scale.
  const auto arr = make_hexamesh_regular(8);
  hm::noc::SimConfig cfg;
  hm::noc::Simulator sim(arr.graph(), cfg);
  const auto r = sim.run_latency(0.005, 1500, 4000);
  EXPECT_TRUE(r.drained);
  EXPECT_GT(r.packets_measured, 100u);
  // avg hops ~ 0.5-0.7x diameter(16) -> latency roughly 250-350 cycles.
  EXPECT_GT(r.avg_packet_latency, 150.0);
  EXPECT_LT(r.avg_packet_latency, 450.0);
}

TEST(SaturationSearch, TwoChipletKneeIsSane) {
  const auto arr = make_grid(2);
  hm::noc::SaturationSearchOptions opts;
  opts.warmup = 2000;
  opts.measure = 2000;
  const auto r = hm::noc::find_saturation(
      hm::noc::TopologyContext::acquire(arr.graph()), hm::noc::SimConfig{},
      opts);
  // One link between two chiplets; half the uniform traffic crosses it in
  // each direction: lambda * 2 * 2/3 <= 1 per direction -> knee ~0.7-0.8.
  EXPECT_GT(r.saturation_flit_rate, 0.4);
  EXPECT_LE(r.saturation_flit_rate, 1.0);
  EXPECT_GT(r.probes, 1);
}

TEST(SaturationSearch, KneeBelowOverdrivenAcceptance) {
  // The knee must not exceed what the overdriven network accepts plus noise.
  const auto arr = make_grid(16);
  hm::noc::SimConfig cfg;
  hm::noc::SaturationSearchOptions opts;
  opts.warmup = 3000;
  opts.measure = 3000;
  const auto knee = hm::noc::find_saturation(
      hm::noc::TopologyContext::acquire(arr.graph()), cfg, opts);
  EXPECT_LE(knee.accepted_flit_rate, 1.0);
  EXPECT_GT(knee.accepted_flit_rate, 0.0);
}

TEST(SaturationSearch, InjectionLimitedNetworkSaturatesNearFullRate) {
  // Single chiplet with bit-complement traffic: endpoints 0<->1 exchange
  // locally, never crossing a D2D link, so only the 1 flit/cycle injection
  // serialization limits throughput. A Bernoulli source at offered rate
  // exactly 1.0 necessarily overflows its queue (rho = 1), so the knee sits
  // just below full rate — far above any D2D-limited design.
  hm::graph::Graph g(1);
  hm::noc::SimConfig cfg;
  hm::noc::TrafficSpec spec;
  spec.pattern = hm::noc::TrafficPattern::kBitComplement;
  hm::noc::SaturationSearchOptions opts;
  opts.warmup = 1000;
  opts.measure = 2000;
  const auto r = hm::noc::find_saturation(
      hm::noc::TopologyContext::acquire(g), cfg, opts, spec);
  EXPECT_GT(r.saturation_flit_rate, 0.8);
  EXPECT_LE(r.saturation_flit_rate, 1.0);
}

}  // namespace
