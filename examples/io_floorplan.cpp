// I/O floorplan example (Sec. III-A, Fig. 2): place I/O chiplets on the
// perimeter of a compute arrangement, render the combined floorplan, and
// simulate hotspot traffic toward the I/O chiplets on the extended graph.
//
//   ./io_floorplan [grid|brickwall|hexamesh] [N] [io_depth_mm]
//       --telemetry         print the metrics snapshot on exit
//       --trace out.json    record a Chrome trace (load in Perfetto)
#include <cstdio>
#include <cstdlib>
#include <string>

#include "cli_util.hpp"
#include "core/evaluator.hpp"
#include "core/io_chiplets.hpp"
#include "core/shape.hpp"
#include "graph/algorithms.hpp"
#include "noc/simulator.hpp"

int main(int argc, char** argv) {
  using namespace hm::core;
  const auto tcli = hm::cli::TelemetryCli::extract(argc, argv);
  tcli.begin();
  const std::string which = argc > 1 ? argv[1] : "hexamesh";
  const std::size_t n =
      argc > 2 ? hm::cli::require_size(argv[2], "N", 1, hm::cli::kMaxChiplets)
               : 19;

  ArrangementType type;
  if (which == "grid") {
    type = ArrangementType::kGrid;
  } else if (which == "brickwall") {
    type = ArrangementType::kBrickwall;
  } else if (which == "hexamesh") {
    type = ArrangementType::kHexaMesh;
  } else {
    std::fprintf(stderr, "usage: %s [grid|brickwall|hexamesh] [N] [depth]\n",
                 argv[0]);
    return 1;
  }

  const Arrangement arr = make_arrangement(type, n);
  const double ac = kDefaultTotalAreaMm2 / static_cast<double>(n);
  const ChipletShape shape = solve_shape(type, {ac, kDefaultPowerFraction});
  const double io_depth =
      argc > 3 ? hm::cli::require_double(argv[3], "io_depth_mm", 0.01, 1000.0)
               : shape.height / 2.0;

  const IoFloorplan plan =
      place_io_chiplets(arr, shape.width, shape.height, io_depth);
  std::printf("%s + %zu perimeter I/O chiplets (depth %.2f mm)\n\n",
              arr.name().c_str(), plan.io.size(), io_depth);
  std::printf("%s\n", plan.combined_placement().to_ascii(70).c_str());
  std::printf("extended graph: %zu vertices, %zu edges, connected: %s\n",
              plan.extended.node_count(), plan.extended.edge_count(),
              hm::graph::is_connected(plan.extended) ? "yes" : "no");

  if (plan.extended.node_count() < 2) {
    tcli.finish();
    return 0;
  }

  // Hotspot traffic: 30% of packets target the first I/O chiplet's
  // endpoints (e.g. a memory controller), the rest are uniform.
  hm::noc::TrafficSpec spec;
  spec.pattern = hm::noc::TrafficPattern::kHotspot;
  spec.hotspot_fraction = 0.3;
  const auto first_io = static_cast<std::uint16_t>(2 * n);  // endpoint ids
  spec.hotspots = {first_io, static_cast<std::uint16_t>(first_io + 1)};

  hm::noc::SimConfig cfg;
  hm::noc::Simulator sim(plan.extended, cfg);
  sim.set_traffic(spec);
  const auto lat = sim.run_latency(0.01, 2000, 8000);
  std::printf("hotspot-to-I/O zero-load latency: %.1f cycles over %llu "
              "packets (drained: %s)\n",
              lat.avg_packet_latency,
              static_cast<unsigned long long>(lat.packets_measured),
              lat.drained ? "yes" : "no");

  hm::noc::SaturationSearchOptions opts;
  opts.warmup = 3000;
  opts.measure = 3000;
  const auto sat = hm::noc::find_saturation(
      hm::noc::TopologyContext::acquire(plan.extended), cfg, opts, spec);
  std::printf("hotspot-to-I/O saturation: %.3f of full injection rate\n",
              sat.accepted_flit_rate);
  tcli.finish();
  return 0;
}
