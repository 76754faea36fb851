// Ablation: virtual-channel count vs saturation throughput. With 27-cycle
// links the credit round trip (~57 cycles) far exceeds the 8-flit buffer, so
// a single VC can keep a link only ~14% busy; VCs multiply the in-flight
// window. Justifies the paper's 8-VC configuration (Sec. VI-A).
#include <cstdio>

#include "bench_util.hpp"
#include "core/arrangement.hpp"
#include "noc/simulator.hpp"

int main() {
  using namespace hm::core;
  hm::bench::header("Ablation — virtual channels vs saturation throughput",
                    "design choice behind Sec. VI-A's 8 VCs");

  std::printf("%4s | %-28s | %-28s\n", "VCs", "grid N=36 (rel sat.)",
              "hexamesh N=37 (rel sat.)");
  hm::bench::rule(68);

  const auto grid = hm::noc::TopologyContext::acquire(
      make_arrangement(ArrangementType::kGrid, 36).graph());
  const auto hexa = hm::noc::TopologyContext::acquire(
      make_arrangement(ArrangementType::kHexaMesh, 37).graph());
  hm::noc::SaturationSearchOptions search;
  search.warmup = 3000;
  search.measure = 3000;
  // "*": no grid rate was stable, so the entry is the 1/64 probe's
  // best-effort accepted rate rather than a knee.
  const auto mark = [](const hm::noc::SaturationResult& s) {
    return s.no_stable_point ? "*" : "";
  };
  bool any_marked = false;
  for (int vcs : {1, 2, 3, 4, 6, 8, 12, 16}) {
    hm::noc::SimConfig cfg;
    cfg.vcs = vcs;
    const auto tg = hm::noc::find_saturation(grid, cfg, search);
    const auto th = hm::noc::find_saturation(hexa, cfg, search);
    any_marked = any_marked || tg.no_stable_point || th.no_stable_point;
    std::printf("%4d | %10.4f %-17s | %10.4f%s\n", vcs, tg.accepted_flit_rate,
                mark(tg), th.accepted_flit_rate, mark(th));
    std::fflush(stdout);
  }
  if (any_marked) {
    std::printf(
        "\n* no stable grid point (not a knee): even 1/64 "
        "flits/cycle/endpoint\n"
        "  was unstable; the entry is that probe's accepted rate.\n");
  }

  std::printf(
      "\nExpected: throughput grows with VC count and saturates once\n"
      "vcs x buffer_depth covers the credit round trip (~2x27+ cycles).\n");
  return 0;
}
