// Tests for the end-to-end evaluator (Sec. VI pipeline): analytic fields,
// link-model wiring, full-global-bandwidth accounting and the cycle-accurate
// path on small designs.
#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>

#include "core/evaluator.hpp"
#include "core/grid.hpp"
#include "core/hexamesh.hpp"
#include "core/proxies.hpp"
#include "faults/fault_plan.hpp"
#include "noc/simulator.hpp"

namespace {

using namespace hm::core;

EvaluationParams fast_sim_params() {
  EvaluationParams p;
  p.latency_warmup = 500;
  p.latency_measure = 3000;
  p.latency_drain_limit = 100000;
  p.throughput_warmup = 2000;
  p.throughput_measure = 3000;
  return p;
}

TEST(EvaluatorAnalytic, GridFieldsAt100) {
  const auto arr = make_grid(100);
  const auto r = evaluate_analytic(arr);
  EXPECT_EQ(r.chiplet_count, 100u);
  EXPECT_EQ(r.regularity, RegularityClass::kRegular);
  EXPECT_EQ(r.diameter, 18);
  EXPECT_EQ(r.bisection_links, 10u);
  EXPECT_DOUBLE_EQ(r.chiplet_area_mm2, 8.0);
  EXPECT_DOUBLE_EQ(r.link_area_mm2, 0.6 * 8.0 / 4.0);
  // 41 data wires * 16 GHz per link; x 200 endpoints for full global BW.
  EXPECT_DOUBLE_EQ(r.per_link_bandwidth_bps, 41.0 * 16e9);
  EXPECT_DOUBLE_EQ(r.full_global_bandwidth_bps, 200.0 * 41.0 * 16e9);
}

TEST(EvaluatorAnalytic, HexameshUsesHexShape) {
  const auto arr = make_hexamesh(91);
  const auto r = evaluate_analytic(arr);
  EXPECT_DOUBLE_EQ(r.chiplet_area_mm2, 800.0 / 91.0);
  EXPECT_NEAR(r.link_area_mm2, 0.6 * (800.0 / 91.0) / 6.0, 1e-12);
  EXPECT_EQ(r.diameter, 10);  // 2r with r = 5
  EXPECT_EQ(r.bisection_links, 21u);  // 4r + 1
}

TEST(EvaluatorAnalytic, IrregularUsesPartitioner) {
  const auto arr = make_grid(13);  // irregular
  const auto r = evaluate_analytic(arr);
  EXPECT_EQ(r.regularity, RegularityClass::kIrregular);
  EXPECT_GE(r.bisection_links, 3u);
  EXPECT_LE(r.bisection_links, 6u);
}

TEST(EvaluatorAnalytic, HexameshBeatsGridOnProxies) {
  const auto grid = evaluate_analytic(make_grid(100));
  const auto hexa = evaluate_analytic(make_hexamesh(100));
  EXPECT_LT(hexa.diameter, grid.diameter);
  EXPECT_GT(hexa.bisection_links, grid.bisection_links);
  // ...but pays with a lower per-link bandwidth (Sec. VI-C).
  EXPECT_LT(hexa.per_link_bandwidth_bps, grid.per_link_bandwidth_bps);
}

TEST(EvaluatorAnalytic, HandOptimizedSmallN) {
  EvaluationParams p;
  p.hand_optimized_small_n = true;
  const auto arr = make_grid(2);  // two chiplets, one link, max degree 1
  const auto r = evaluate_analytic(arr, p);
  EXPECT_DOUBLE_EQ(r.link_area_mm2, 0.6 * 400.0);
  EvaluationParams q;  // default: general formula
  const auto r2 = evaluate_analytic(arr, q);
  EXPECT_DOUBLE_EQ(r2.link_area_mm2, 0.6 * 400.0 / 4.0);
}

TEST(Evaluator, FullPipelineOnSmallGrid) {
  const auto arr = make_grid(9);
  const auto r = evaluate(arr, fast_sim_params());
  EXPECT_TRUE(r.latency_run_drained);
  EXPECT_GT(r.zero_load_latency_cycles, 30.0);   // at least one hop
  EXPECT_LT(r.zero_load_latency_cycles, 200.0);  // 3x3 grid is small
  EXPECT_GT(r.saturation_fraction, 0.05);
  EXPECT_LE(r.saturation_fraction, 1.0);
  EXPECT_NEAR(r.saturation_throughput_bps,
              r.saturation_fraction * r.full_global_bandwidth_bps, 1e-3);
}

TEST(Evaluator, SingleChipletRejected) {
  EXPECT_THROW((void)evaluate(make_grid(1), fast_sim_params()),
               std::invalid_argument);
  EXPECT_NO_THROW((void)evaluate_analytic(make_grid(1)));
}

TEST(Evaluator, ZeroLoadLatencyScalesWithDiameter) {
  const auto small = evaluate(make_grid(4), fast_sim_params());
  const auto large = evaluate(make_grid(25), fast_sim_params());
  EXPECT_GT(large.zero_load_latency_cycles, small.zero_load_latency_cycles);
}

TEST(Evaluator, LinkAreaForHonorsSmallNFlag) {
  const auto arr = make_hexamesh(7);
  EvaluationParams p;
  p.hand_optimized_small_n = true;
  // Regular HM with 1 ring: center has degree 6.
  EXPECT_DOUBLE_EQ(link_area_for(arr, 14.0, p), 0.6 * 14.0 / 6.0);
  const auto big = make_hexamesh(19);
  // N > 7: flag must not change anything.
  EXPECT_DOUBLE_EQ(link_area_for(big, 10.0, p), 0.6 * 10.0 / 6.0);
}

TEST(Evaluator, RejectsWindowsWithNothingToMeasure) {
  // An empty or negative measurement window has no rate to report (the
  // throughput run would divide by its length).
  const auto arr = make_grid(4);
  const std::function<void(EvaluationParams&)> bad_windows[] = {
      [](EvaluationParams& p) { p.throughput_measure = 0; },
      [](EvaluationParams& p) { p.throughput_measure = -100; },
      [](EvaluationParams& p) { p.throughput_warmup = -1; },
      [](EvaluationParams& p) { p.latency_measure = 0; },
      [](EvaluationParams& p) { p.latency_warmup = -1; },
      [](EvaluationParams& p) { p.latency_drain_limit = -1; },
  };
  for (const auto& mutate : bad_windows) {
    EvaluationParams p = fast_sim_params();
    mutate(p);
    EXPECT_THROW((void)evaluate(arr, p), std::invalid_argument);
  }

  // A skipped measurement's window is never run, so it is not checked.
  EvaluationParams latency_only = fast_sim_params();
  latency_only.measure_saturation = false;
  latency_only.throughput_measure = 0;
  EXPECT_EQ(evaluate(arr, latency_only).saturation_fraction, 0.0);
}

TEST(Evaluator, SimulatorRunsRejectBadWindows) {
  const auto arr = make_grid(4);
  hm::noc::Simulator sim(arr.graph(), hm::noc::SimConfig{});
  EXPECT_THROW((void)sim.run_latency(0.01, -1, 100, 100),
               std::invalid_argument);
  EXPECT_THROW((void)sim.run_latency(0.01, 100, 0, 100),
               std::invalid_argument);
  EXPECT_THROW((void)sim.run_latency(0.01, 100, 100, -1),
               std::invalid_argument);
  EXPECT_THROW((void)sim.run_throughput(0.1, -1, 100), std::invalid_argument);
  EXPECT_THROW((void)sim.run_throughput(0.1, 100, 0), std::invalid_argument);
  EXPECT_THROW((void)sim.run_resilience(0.1, hm::faults::FaultPlan{}, -1, 100),
               std::invalid_argument);
  EXPECT_THROW((void)sim.run_resilience(0.1, hm::faults::FaultPlan{}, 100, 0),
               std::invalid_argument);
  // A zero warmup and a zero drain limit are valid windows.
  EXPECT_GT(sim.run_throughput(0.1, 0, 200).generated_flit_rate, 0.0);
  EXPECT_NO_THROW((void)sim.run_latency(0.01, 0, 200, 0));
}

}  // namespace
