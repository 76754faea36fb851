#include "explore/cached_eval.hpp"

#include "explore/hash.hpp"
#include "explore/result_cache.hpp"
#include "noc/topology.hpp"

namespace hm::explore {

core::EvaluationResult cached_evaluate(const core::Arrangement& arr,
                                       const core::EvaluationParams& params,
                                       const noc::TrafficSpec& traffic,
                                       ResultCache* cache,
                                       noc::ProbeExecutor* executor,
                                       CachedEvalOutcome* outcome) {
  CachedEvalOutcome local;
  const auto cached = [&](std::uint64_t key, auto compute) {
    if (cache == nullptr) {
      local.from_cache = false;
      return compute();
    }
    return cache->get_or_compute(key, compute, &local.from_cache);
  };

  // Analytic half, shared across every simulator/traffic ablation of the
  // same design via the cache.
  const std::uint64_t analytic_key =
      hash_combine(hash_arrangement(arr), hash_analytic_params(params));
  const auto analytic =
      cached(analytic_key, [&] { return core::evaluate_analytic(arr, params); });

  const bool want_sim = params.measure_latency || params.measure_saturation ||
                        params.faults.enabled();
  core::EvaluationResult result;
  if (!want_sim || arr.chiplet_count() < 2) {
    local.analytic_only = true;
    result = analytic;
  } else {
    const std::uint64_t full_key = hash_combine(
        hash_combine(analytic_key, hash_simulation_params(params)),
        hash_traffic(traffic));
    result = cached(full_key, [&] {
      // One shared topology per evaluation chain; the process-wide context
      // cache additionally shares it across concurrent evaluations that
      // ablate the same design (different seeds/params/traffic, same graph).
      return core::evaluate_simulation(arr, params, analytic, traffic,
                                       executor,
                                       noc::TopologyContext::acquire(arr.graph()));
    });
  }
  if (outcome != nullptr) *outcome = local;
  return result;
}

}  // namespace hm::explore
