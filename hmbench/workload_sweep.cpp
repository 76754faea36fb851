// sweep_fig7 and latency_scale: SweepEngine runs of the three families.
//
// Set-up: the pool and engine, every point's arrangement and its shared
// TopologyContext (routing tables), held until the sweep ends so the
// engine's evaluations reuse them; table builds count in setup_s here.
// Untraced: a fixed number of cold sweeps, each on a freshly set-up engine,
// plus warm re-runs of the same spec (every point a cache hit, the cost of
// re-running a finished sweep). Traced: one untraced and one
// telemetry-armed engine sweep (tracing overhead, exact counts), then a
// sequential replay of SweepSpec::points() through the public layer calls
// evaluate() composes, each call in a span, with every re-assembled result
// compared against the engine's record.
#include <cmath>
#include <memory>

#include "core/arrangement.hpp"
#include "core/evaluator.hpp"
#include "explore/cached_eval.hpp"
#include "explore/export.hpp"
#include "explore/sweep.hpp"
#include "noc/arena.hpp"
#include "noc/simulator.hpp"
#include "noc/topology.hpp"
#include "store/record.hpp"
#include "workloads.hpp"

namespace hmbench {
namespace {

using hm::core::ArrangementType;
using hm::explore::SweepEngine;
using hm::explore::SweepRecord;
using hm::explore::SweepSpec;

struct SweepWorkload {
  std::vector<std::size_t> counts;
  bool saturation = true;
  /// Cold sweeps in a 30 s run (see work_units).
  std::size_t cold_sweeps = 1;
};

/// Warm re-runs per cold sweep (hit latency samples).
constexpr int kWarmRuns = 100;

SweepSpec make_spec(const SweepWorkload& w, std::uint64_t seed) {
  SweepSpec spec;  // grid, brickwall, hexamesh; default params and traffic
  spec.chiplet_counts = w.counts;
  spec.base_seed = seed;
  spec.param_grid[0].measure_saturation = w.saturation;
  return spec;
}

/// A set-up engine and the topologies it will reuse.
struct Engine {
  std::unique_ptr<SweepEngine> engine;
  std::vector<std::shared_ptr<const hm::noc::TopologyContext>> topologies;
};

/// One set-up: the pool and engine, plus every point's arrangement and
/// topology context.
Engine set_up(const SweepSpec& spec, unsigned threads,
              std::vector<double>* samples) {
  const auto t0 = Clock::now();
  Engine e;
  SweepEngine::Options opts;
  opts.threads = threads;
  e.engine = std::make_unique<SweepEngine>(opts);
  for (const auto& p : spec.points()) {
    const auto arr = hm::core::make_arrangement(p.type, p.chiplet_count);
    e.topologies.push_back(hm::noc::TopologyContext::acquire(arr.graph()));
  }
  samples->push_back(seconds_since(t0));
  return e;
}

/// Releases everything a finished sweep pins (engine, held topologies, the
/// calling thread's cached networks), so the next set-up starts cold.
void tear_down(Engine& e) {
  e.engine.reset();
  e.topologies.clear();
  hm::noc::SimulationArena::local().clear();
}

std::string result_bytes(const hm::core::EvaluationResult& r) {
  std::vector<std::uint8_t> b;
  hm::store::encode_result(r, b);
  return std::string(b.begin(), b.end());
}

void check_records(Result& r, const std::vector<SweepRecord>& recs,
                   bool expect_cached) {
  for (const auto& rec : recs) {
    r.check(rec.error.empty() && rec.from_cache == expect_cached,
            "point " + std::to_string(rec.point.index) +
                (rec.error.empty() ? std::string(expect_cached
                                                     ? " missed the warm cache"
                                                     : " hit a cold cache")
                                   : " failed: " + rec.error));
  }
}

/// Geometric mean over the sweep's N values of hexamesh/grid for `field`.
double family_ratio(const std::vector<SweepRecord>& recs,
                    double hm::core::EvaluationResult::*field) {
  double log_sum = 0.0;
  int n = 0;
  for (const auto& g : recs) {
    if (g.point.type != ArrangementType::kGrid) continue;
    for (const auto& h : recs) {
      if (h.point.type == ArrangementType::kHexaMesh &&
          h.point.chiplet_count == g.point.chiplet_count &&
          g.result.*field > 0.0 && h.result.*field > 0.0) {
        log_sum += std::log(h.result.*field / g.result.*field);
        ++n;
      }
    }
  }
  return n == 0 ? 0.0 : std::exp(log_sum / n);
}

void add_model_ratios(Result& r, const std::vector<SweepRecord>& recs,
                      bool saturation) {
  r.add_e2e("model.lat_ratio",
            family_ratio(recs, &hm::core::EvaluationResult::
                                   zero_load_latency_cycles),
            "ratio", 0, "hexamesh/grid geomean; paper (BookSim) 0.81");
  if (saturation) {
    r.add_e2e("model.thr_ratio",
              family_ratio(recs, &hm::core::EvaluationResult::
                                     saturation_throughput_bps),
              "ratio", 0, "hexamesh/grid geomean; paper (BookSim) 1.34");
  }
}

std::vector<std::pair<std::string, std::uint64_t>> exact_counts(
    const Counts& c) {
  return {{"noc.probes", c.get("sat.probes")},
          {"noc.router_steps", c.get("sim.router_steps")},
          {"noc.flits_routed", c.get("sim.flits_routed")},
          {"noc.topology.builds", c.get("topo.full_builds") +
                                      c.get("topo.incremental_builds")}};
}

// --------------------------------------------------------------- untraced

Result measure(const RunConfig& cfg, const Reference& ref,
               const SweepWorkload& w) {
  Result r;
  const std::size_t points = make_spec(w, cfg.seed).points().size();
  std::vector<double> setup;
  const std::size_t sweeps = work_units(w.cold_sweeps, cfg);
  const int per_group = setups_per_group(sweeps + 1);
  const auto timed_setups = [&] {
    for (int i = 0; i < per_group; ++i) {
      auto e = set_up(make_spec(w, cfg.seed), cfg.threads, &setup);
      tear_down(e);
    }
  };
  timed_setups();

  // Each cold sweep simulates with its own base seed (the first one with
  // the workload seed itself, whose output has a reference digest): how
  // long a sweep takes depends on which design's saturation search needs
  // an extra probe, so spreading the run over several seed sets keeps that
  // luck out of the result. The number of sweeps is fixed, so every commit
  // times the same designs.
  std::vector<double> walls, miss, hit;
  std::vector<SweepRecord> first;
  std::size_t designs = 0;
  const auto t_run = Clock::now();
  for (std::uint64_t rep = 0; rep < sweeps; ++rep) {
    if (seconds_since(t_run) > safety_seconds(cfg)) {
      r.check(false, "stopped after " + std::to_string(rep) + " of " +
                         std::to_string(sweeps) + " cold sweeps: safety stop");
      break;
    }
    const SweepSpec spec =
        make_spec(w, rep == 0 ? cfg.seed : splitmix(cfg.seed + rep));
    auto e = set_up(spec, cfg.threads, &setup);
    const auto t0 = Clock::now();
    auto cold = e.engine->run(spec);
    walls.push_back(seconds_since(t0));
    designs += cold.size();
    check_records(r, cold, false);
    for (const auto& rec : cold) miss.push_back(rec.wall_seconds);
    const std::string csv = hm::explore::to_csv(cold);
    if (rep == 0) {
      check_digest(r, ref, cfg, "digest.csv",
                   hex64(fnv1a(csv.data(), csv.size())));
      first = std::move(cold);
    }
    // Warm re-runs: the same spec again, every point a cache hit. One
    // sample per re-run: its wall time per design.
    for (int i = 0; i < kWarmRuns; ++i) {
      const auto w0 = Clock::now();
      const auto warm = e.engine->run(spec);
      hit.push_back(seconds_since(w0) / static_cast<double>(warm.size()));
      check_records(r, warm, true);
      r.check(hm::explore::to_csv(warm) == csv,
              "warm re-run exported different CSV bytes");
    }
    tear_down(e);
    timed_setups();
  }

  double total_wall = 0.0;
  for (const double s : walls) total_wall += s;
  r.add_e2e("setup_s", median(setup), "s", setup.size());
  r.add_e2e("evals_per_s", static_cast<double>(designs) / total_wall, "1/s",
            walls.size(),
            std::to_string(points) + " designs per sweep, over all sweeps");
  add_memory_metrics(r);
  add_latency_metrics(r, "hit", hit);
  add_latency_metrics(r, "miss", miss);
  add_model_ratios(r, first, w.saturation);
  return r;
}

// ------------------------------------------------------------------ traced

struct Replay {
  double wall_s = 0.0;
  std::uint64_t idle_skipped = 0;
  std::uint64_t latency_cycles = 0;
};

/// Sequential replay of the sweep through the layer calls evaluate()
/// composes; checks each re-assembled result against the engine's record.
Replay replay(Result& r, const SweepSpec& spec,
              const std::vector<SweepRecord>& engine_recs) {
  Replay out;
  const auto points = spec.points();
  const auto t0 = Clock::now();
  Span all("bench.explore.replay");
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& p = points[i];
    Span point_span("bench.explore.point");
    const hm::core::Arrangement arr =
        hm::core::make_arrangement(p.type, p.chiplet_count);
    hm::core::EvaluationResult res;
    {
      Span s("bench.core.analytic");
      res = hm::core::evaluate_analytic(arr, p.params);
    }
    std::shared_ptr<const hm::noc::TopologyContext> topo;
    {
      Span s("bench.noc.topology");
      topo = hm::noc::TopologyContext::acquire(arr.graph());
    }
    if (p.params.measure_latency) {
      Span s("bench.noc.latency_run");
      hm::noc::Simulator sim(hm::noc::SimulationArena::local(), topo,
                             p.params.sim);
      sim.set_traffic(p.traffic);
      const auto lat = sim.run_latency(
          p.params.zero_load_injection_rate, p.params.latency_warmup,
          p.params.latency_measure, p.params.latency_drain_limit);
      res.zero_load_latency_cycles = lat.avg_packet_latency;
      res.latency_run_drained = lat.drained;
      out.idle_skipped += sim.idle_skipped_cycles();
      out.latency_cycles += static_cast<std::uint64_t>(sim.now());
    }
    if (p.params.measure_saturation) {
      Span s("bench.noc.sat_search");
      hm::noc::SaturationSearchOptions opts;
      opts.warmup = p.params.throughput_warmup;
      opts.measure = p.params.throughput_measure;
      opts.surrogate_rate =
          hm::core::analytic_saturation_estimate(res, p.params);
      const auto sat = hm::noc::find_saturation(topo, p.params.sim, opts,
                                                p.traffic, nullptr);
      res.saturation_fraction = sat.accepted_flit_rate;
      res.saturation_throughput_bps =
          res.saturation_fraction * res.full_global_bandwidth_bps;
    }
    r.check(i < engine_recs.size() &&
                result_bytes(res) == result_bytes(engine_recs[i].result),
            "replayed point " + std::to_string(i) +
                " differs from the SweepEngine record");
  }
  out.wall_s = seconds_since(t0);
  return out;
}

Result traced(const RunConfig& cfg, const Reference& ref,
              const SweepWorkload& w) {
  Result r;
  const SweepSpec spec = make_spec(w, cfg.seed);
  std::vector<double> setup;

  // A: untraced engine sweep (the baseline of the tracing overhead).
  auto e = set_up(spec, cfg.threads, &setup);
  auto t0 = Clock::now();
  const auto untraced_recs = e.engine->run(spec);
  const double wall_untraced = seconds_since(t0);
  check_records(r, untraced_recs, false);
  const std::string csv = hm::explore::to_csv(untraced_recs);
  check_digest(r, ref, cfg, "digest.csv", hex64(fnv1a(csv.data(), csv.size())));
  tear_down(e);

  // B: the same sweep with telemetry, library spans and benchmark spans,
  // then a warm re-run and warm cached_evaluate calls.
  TraceSession session(cfg);
  const auto s0 = hm::telemetry::snapshot();
  std::vector<SweepRecord> recs;
  double wall_traced = 0.0;
  {
    Span s("bench.explore.sweep");
    e = set_up(spec, cfg.threads, &setup);
    t0 = Clock::now();
    recs = e.engine->run(spec);
    wall_traced = seconds_since(t0);
  }
  const Counts engine_c = delta(s0, hm::telemetry::snapshot());
  check_records(r, recs, false);
  r.check(hm::explore::to_csv(recs) == csv,
          "telemetry-armed sweep exported different CSV bytes");
  {
    Span s("bench.explore.warm_sweep");
    check_records(r, e.engine->run(spec), true);
  }
  const Counts cache_c = delta(s0, hm::telemetry::snapshot());
  std::vector<double> cache_hit_us;
  {
    Span s("bench.explore.cache_hits");
    const auto points = spec.points();
    while (cache_hit_us.size() < 400) {
      for (const auto& p : points) {
        const auto arr = hm::core::make_arrangement(p.type, p.chiplet_count);
        hm::explore::CachedEvalOutcome outcome;
        const auto h0 = Clock::now();
        const auto res = hm::explore::cached_evaluate(
            arr, p.params, p.traffic, &e.engine->cache(), nullptr, &outcome);
        cache_hit_us.push_back(seconds_since(h0) * 1e6);
        r.check(outcome.from_cache &&
                    result_bytes(res) ==
                        result_bytes(untraced_recs[p.index].result),
                "warm cached_evaluate of point " + std::to_string(p.index));
      }
    }
  }
  tear_down(e);

  // C: sequential replay through the layer calls.
  const auto s2 = hm::telemetry::snapshot();
  const Replay rp = replay(r, spec, untraced_recs);
  const Counts replay_c = delta(s2, hm::telemetry::snapshot());
  hm::noc::SimulationArena::local().clear();
  const LibrarySpans lib = session.finish();

  // Exact counts: the engine and the replay do the same work.
  const auto engine_counts = exact_counts(engine_c);
  const auto replay_counts = exact_counts(replay_c);
  for (std::size_t i = 0; i < replay_counts.size(); ++i) {
    r.check(engine_counts[i].second == replay_counts[i].second,
            "exact count " + replay_counts[i].first + ": engine " +
                std::to_string(engine_counts[i].second) + " vs replay " +
                std::to_string(replay_counts[i].second));
  }
  check_exact_counts(r, ref, cfg, replay_counts);

  const auto analytic = lib.get("bench.core.analytic");
  const auto topo = lib.get("bench.noc.topology");
  const auto lat = lib.get("bench.noc.latency_run");
  const auto sat = lib.get("bench.noc.sat_search");
  double busy = 0.0;
  std::vector<double> eval_s;
  for (const auto& rec : recs) {
    busy += rec.wall_seconds;
    eval_s.push_back(rec.wall_seconds);
  }
  // The replay's counts equal the engine's (checked above); the replay's
  // spans time exactly that simulation work.
  add_noc_metrics(r, engine_c, lib, lat.seconds + sat.seconds);
  r.add_layer("noc.latency_run_ms", ms_per_call(lat), "ms", lat.calls,
              "per latency run");
  r.add_layer("noc.idle_skipped_frac",
              rp.latency_cycles == 0
                  ? 0.0
                  : static_cast<double>(rp.idle_skipped) /
                        static_cast<double>(rp.latency_cycles),
              "ratio", 0, "of latency-run cycles");
  r.add_layer("core.analytic_ms", ms_per_call(analytic), "ms", analytic.calls,
              "per evaluate_analytic");
  r.add_layer("explore.pool.util",
              busy / (wall_traced * static_cast<double>(cfg.threads)),
              "ratio");
  r.add_layer("explore.eval_s_p50", median(eval_s), "s", eval_s.size());
  r.add_layer("explore.cache.hit_ratio", cache_hit_ratio(cache_c), "ratio", 0,
              "cold sweep + one warm re-run");
  r.add_layer("explore.cache_hit_us", median(cache_hit_us), "us",
              cache_hit_us.size(), "cached_evaluate, warm cache, median");
  r.add_layer("trace.overhead_ratio", wall_untraced / wall_traced, "ratio", 0,
              "traced / untraced evals_per_s");
  const double covered =
      analytic.seconds + topo.seconds + lat.seconds + sat.seconds;
  r.add_layer("trace.replay_coverage", covered / rp.wall_s, "ratio", 0,
              "analytic + topology + latency + saturation spans / replay");
  if (covered / rp.wall_s < 0.95) {
    r.notes.push_back("replay coverage below 95%: time outside the four "
                      "layer spans");
  }
  return r;
}

Result run(const RunConfig& cfg, const Reference& ref, const SweepWorkload& w) {
  return cfg.trace ? traced(cfg, ref, w) : measure(cfg, ref, w);
}

}  // namespace

Result run_sweep_fig7(const RunConfig& cfg, const Reference& ref) {
  return run(cfg, ref, {{16, 25, 37, 61}, true, 2});
}

Result run_latency_scale(const RunConfig& cfg, const Reference& ref) {
  return run(cfg, ref, {{91, 127, 169, 217, 271}, false, 12});
}

}  // namespace hmbench
