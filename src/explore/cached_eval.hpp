// The cached-evaluation core shared by SweepEngine::evaluate_point, the
// hm_server request handlers and the search engine (search/tempering.hpp): key a design point with the stable content
// hashes of explore/hash.hpp, serve the analytic half and the full result
// through a ResultCache (and, transitively, its attached persistent
// store), and only simulate on a genuine miss.
#pragma once

#include "core/arrangement.hpp"
#include "core/evaluator.hpp"
#include "noc/traffic.hpp"

namespace hm::noc {
class ProbeExecutor;
}  // namespace hm::noc

namespace hm::explore {

class ResultCache;

/// What the cached evaluation did, for callers that report provenance.
struct CachedEvalOutcome {
  /// True when the *final* lookup (full result, or analytic when the point
  /// is analytic-only) was a cache hit. Timing-dependent under concurrency.
  bool from_cache = false;
  /// True when no simulation was requested (no measurement flag and no
  /// fault scenario) or possible (single chiplet).
  bool analytic_only = false;
};

/// Evaluates `arr` under `params`/`traffic` through `cache` (nullptr =
/// uncached). The analytic half is keyed separately so traffic/simulator
/// ablations of the same design share it. `executor`, when given, carries
/// intra-design probe parallelism into the simulation.
[[nodiscard]] core::EvaluationResult cached_evaluate(
    const core::Arrangement& arr, const core::EvaluationParams& params,
    const noc::TrafficSpec& traffic, ResultCache* cache,
    noc::ProbeExecutor* executor = nullptr,
    CachedEvalOutcome* outcome = nullptr);

}  // namespace hm::explore
