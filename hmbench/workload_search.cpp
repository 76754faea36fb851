// search_tempering: parallel tempering from HexaMesh N=19, K=4 replicas,
// throughput objective, a fixed step count.
//
// The engine works through a warm cache dir (TemperingOptions::cache_dir)
// holding archive records of other designs (see StoreDirs); no candidate
// key is in it, so every cold evaluation is a store miss.
// Untraced: a fixed number of cold searches, each on a freshly set-up
// engine, then warm re-runs of the same search on the same engine, which
// replay the identical trajectory from the result cache. Set-ups are timed
// at every step boundary of the cold search, while the pool is idle (see
// kSetups).
// Traced: an untraced and a telemetry-armed search (tracing overhead,
// registry counts, library spans for the probes and topology builds inside
// the engine), plus benchmark-side analytic calls on irregular candidates.
#include <functional>
#include <memory>

#include "core/arrangement.hpp"
#include "core/evaluator.hpp"
#include "noc/arena.hpp"
#include "noc/rng.hpp"
#include "search/mutation.hpp"
#include "search/tempering.hpp"
#include "workloads.hpp"

namespace hmbench {
namespace {

using hm::search::TemperingEngine;
using hm::search::TemperingOptions;
using hm::search::TemperingProgress;
using hm::search::TemperingResult;

constexpr std::size_t kStartChiplets = 19;
constexpr std::size_t kSteps = 5;
/// Cold searches in a 30 s run (see work_units).
constexpr std::size_t kColdSearches = 1;
/// Warm re-runs per cold search (hit latency samples).
constexpr int kWarmRuns = 100;

/// Wall time and candidate count of every step of one run. Each step is
/// also a `bench.search.step` span while tracing is on.
struct StepLog {
  Clock::time_point last;
  std::vector<double> seconds;
  std::vector<std::size_t> candidates;
  std::unique_ptr<Span> step;
  /// Runs at every step boundary; its time counts in no step.
  std::function<void()> between_steps;
  double between_s = 0.0;

  void begin() {
    seconds.clear();
    candidates.clear();
    between_s = 0.0;
    last = Clock::now();
    step = std::make_unique<Span>("bench.search.step");
  }
  void on_step(const TemperingProgress& p) {
    const auto now = Clock::now();
    seconds.push_back(std::chrono::duration<double>(now - last).count());
    std::size_t n = 0;
    for (std::size_t k = 0; k < p.replicas; ++k) n += p.first[k].candidates;
    candidates.push_back(n);
    step.reset();
    if (between_steps) {
      between_steps();
      between_s += seconds_since(now);
    }
    last = Clock::now();
    step = std::make_unique<Span>("bench.search.step");
  }
  /// Ends the open step span (the one after the last step).
  void end() { step.reset(); }
  /// Host seconds per candidate evaluation, one sample per step.
  [[nodiscard]] std::vector<double> per_candidate() const {
    std::vector<double> out;
    for (std::size_t i = 0; i < seconds.size(); ++i) {
      if (candidates[i] > 0) {
        out.push_back(seconds[i] / static_cast<double>(candidates[i]));
      }
    }
    return out;
  }
};

struct Engine {
  std::unique_ptr<TemperingEngine> engine;
  std::unique_ptr<hm::core::Arrangement> start;
};

hm::core::Arrangement start_arrangement() {
  return hm::core::make_arrangement(hm::core::ArrangementType::kHexaMesh,
                                    kStartChiplets);
}

/// The run's warm cache dir; its archive records hold the start design's
/// analytic result.
StoreDirs make_store_dirs(const RunConfig& cfg) {
  return StoreDirs(cfg, "search",
                   {hm::core::evaluate_analytic(start_arrangement(), {})});
}

/// One set-up: a copy of the warm cache dir, the pool, the engine and its
/// cache (which opens that store), plus the start arrangement.
Engine set_up(const RunConfig& cfg, StoreDirs& dirs, StepLog* log,
              std::vector<double>* samples) {
  const auto t0 = Clock::now();
  TemperingOptions opts;
  opts.cache_dir = dirs.copy();
  opts.replicas = 4;
  opts.steps = kSteps;
  opts.threads = cfg.threads;
  opts.seed = cfg.seed;
  opts.objective = hm::search::Objective::kSaturationThroughput;
  opts.on_progress = [log](const TemperingProgress& p) { log->on_step(p); };
  Engine e;
  e.engine = std::make_unique<TemperingEngine>(opts);
  e.start = std::make_unique<hm::core::Arrangement>(start_arrangement());
  samples->push_back(seconds_since(t0));
  return e;
}

void tear_down(Engine& e) {
  e.engine.reset();
  hm::noc::SimulationArena::local().clear();
}

std::string trace_digest(const TemperingResult& res) {
  const std::string csv = hm::search::trace_to_csv(res.trace);
  return hex64(fnv1a(csv.data(), csv.size()));
}

void check_result(Result& r, const TemperingResult& res) {
  r.check(res.trace.size() == kSteps * 4 && res.baseline_score > 0.0 &&
              res.best_score >= res.baseline_score,
          "tempering run returned an incomplete trace or a best score below "
          "its baseline");
}

Result measure(const RunConfig& cfg, const Reference& ref) {
  Result r;
  StoreDirs dirs = make_store_dirs(cfg);
  StepLog log;
  std::vector<double> setup, miss, hit, gains;
  const std::size_t searches = work_units(kColdSearches, cfg);
  std::string first_digest;
  std::uint64_t evaluations = 0;
  double cold_wall = 0.0;
  const auto t_run = Clock::now();
  for (std::size_t rep = 0; rep < searches; ++rep) {
    if (seconds_since(t_run) > safety_seconds(cfg)) {
      r.check(false, "stopped after " + std::to_string(rep) + " of " +
                         std::to_string(searches) +
                         " cold searches: safety stop");
      break;
    }
    Engine e = set_up(cfg, dirs, &log, &setup);
    log.between_steps = [&] {
      // Dropped without tear_down: clearing this thread's arena would
      // take the search's cached networks with it.
      for (int i = 0; i < setups_per_group(kSteps); ++i) {
        set_up(cfg, dirs, &log, &setup);
      }
    };
    log.begin();
    const auto t0 = Clock::now();
    const TemperingResult cold = e.engine->run(*e.start);
    const double wall = seconds_since(t0) - log.between_s;
    log.end();
    log.between_steps = nullptr;
    cold_wall += wall;
    evaluations += cold.evaluations;
    r.attempted += cold.evaluations;
    check_result(r, cold);
    for (const double s : log.per_candidate()) miss.push_back(s);
    gains.push_back(cold.best_score / cold.baseline_score - 1.0);
    const std::string digest = trace_digest(cold);
    if (rep == 0) {
      check_digest(r, ref, cfg, "digest.trace", digest);
      first_digest = digest;
    } else {
      r.check(digest == first_digest,
              "repeat search " + std::to_string(rep) + " traced differently");
    }
    // Warm re-runs: same seed, same engine, so every candidate is a hit.
    // One sample per re-run: its wall time per candidate.
    for (int i = 0; i < kWarmRuns; ++i) {
      log.begin();
      const auto w0 = Clock::now();
      const TemperingResult warm = e.engine->run(*e.start);
      hit.push_back(seconds_since(w0) / static_cast<double>(warm.evaluations));
      log.end();
      if (i == 0) {
        r.check(trace_digest(warm) == first_digest,
                "warm re-run of the search traced differently");
      }
    }
    tear_down(e);
  }
  r.add_e2e("setup_s", median(setup), "s", setup.size());
  r.add_e2e("evals_per_s", static_cast<double>(evaluations) / cold_wall,
            "1/s", gains.size(),
            "candidate evaluations per second over the cold searches");
  add_memory_metrics(r);
  add_latency_metrics(r, "hit", hit);
  add_latency_metrics(r, "miss", miss);
  r.add_e2e("search.best_gain", median(gains), "ratio", gains.size(),
            "best / baseline score - 1");
  return r;
}

Result traced(const RunConfig& cfg, const Reference& ref) {
  Result r;
  StoreDirs dirs = make_store_dirs(cfg);
  StepLog log;
  std::vector<double> setup;

  Engine e = set_up(cfg, dirs, &log, &setup);
  log.begin();
  auto t0 = Clock::now();
  const TemperingResult untraced = e.engine->run(*e.start);
  const double rate_untraced =
      static_cast<double>(untraced.evaluations) / seconds_since(t0);
  log.end();
  check_result(r, untraced);
  check_digest(r, ref, cfg, "digest.trace", trace_digest(untraced));
  tear_down(e);

  TraceSession session(cfg);
  const auto s0 = hm::telemetry::snapshot();
  double rate_traced = 0.0;
  TemperingResult res(*e.start);
  {
    Span s("bench.search.run");
    e = set_up(cfg, dirs, &log, &setup);
    log.begin();
    t0 = Clock::now();
    res = e.engine->run(*e.start);
    rate_traced = static_cast<double>(res.evaluations) / seconds_since(t0);
    log.end();
  }
  const Counts c = delta(s0, hm::telemetry::snapshot());
  check_result(r, res);
  r.check(trace_digest(res) == trace_digest(untraced),
          "telemetry-armed search traced differently");

  // Analytic proxies on irregular candidates: mutations of the start.
  {
    hm::noc::Rng rng(splitmix(cfg.seed));
    std::size_t calls = 0;
    for (std::size_t tries = 0; calls < 24 && tries < 200; ++tries) {
      const auto cand = hm::search::propose_mutation(*e.start, rng);
      if (!cand) continue;
      Span s("bench.core.analytic");
      const auto a = hm::core::evaluate_analytic(cand->arrangement, {});
      r.check(a.chiplet_count == kStartChiplets,
              "analytic evaluation of a mutated candidate");
      ++calls;
    }
  }
  tear_down(e);
  const LibrarySpans lib = session.finish();

  check_exact_counts(r, ref, cfg,
                     {{"search.evaluations", res.evaluations},
                      {"noc.probes", c.get("sat.probes")}});

  const auto analytic = lib.get("bench.core.analytic");
  const double incr = static_cast<double>(c.get("topo.incremental_builds"));
  const double builds = incr + static_cast<double>(c.get("topo.full_builds"));
  // No latency runs here: the saturation searches are all the simulation.
  add_noc_metrics(r, c, lib, lib.get("sat.search").seconds);
  r.add_layer("core.analytic_ms", ms_per_call(analytic), "ms", analytic.calls,
              "per evaluate_analytic on a mutated candidate");
  r.add_layer("explore.cache.hit_ratio", cache_hit_ratio(c), "ratio");
  r.add_layer("search.step_ms", median(log.seconds) * 1e3, "ms",
              log.seconds.size(), "median step");
  r.add_layer("search.evaluations", static_cast<double>(res.evaluations),
              "count");
  r.add_layer("search.incremental_frac", builds == 0 ? 0.0 : incr / builds,
              "ratio");
  r.add_layer("trace.overhead_ratio", rate_traced / rate_untraced, "ratio", 0,
              "traced / untraced evals_per_s");
  return r;
}

}  // namespace

Result run_search_tempering(const RunConfig& cfg, const Reference& ref) {
  return cfg.trace ? traced(cfg, ref) : measure(cfg, ref);
}

}  // namespace hmbench
