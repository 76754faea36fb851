// Ablation: packet length vs zero-load latency and saturation throughput.
// Serialization adds (L-1) cycles end-to-end at zero load; under saturation
// longer packets amortize allocation but hold VCs longer.
#include <cstdio>

#include "bench_util.hpp"
#include "core/arrangement.hpp"
#include "noc/simulator.hpp"

int main() {
  using namespace hm::core;
  hm::bench::header("Ablation — packet length",
                    "sensitivity of Fig. 7 to the flits-per-packet choice");

  std::printf("%6s | %16s | %16s\n", "flits", "HM N=37 lat[cyc]",
              "HM N=37 rel sat.");
  hm::bench::rule(46);

  const auto hexa = hm::noc::TopologyContext::acquire(
      make_arrangement(ArrangementType::kHexaMesh, 37).graph());
  hm::noc::SaturationSearchOptions search;
  search.warmup = 3000;
  search.measure = 3000;
  for (int len : {1, 2, 4, 8}) {
    hm::noc::SimConfig cfg;
    cfg.packet_length = len;
    hm::noc::Simulator lat_sim(hexa, cfg);
    const double lat =
        lat_sim.run_latency(0.01, 2000, 8000).avg_packet_latency;
    const double thr =
        hm::noc::find_saturation(hexa, cfg, search).accepted_flit_rate;
    std::printf("%6d | %16.1f | %16.4f\n", len, lat, thr);
    std::fflush(stdout);
  }
  return 0;
}
