// Pluggable scoring for the arrangement-search engine (hill climb,
// annealing and parallel tempering in search/tempering.hpp). A score is a
// scalar the search *maximizes*, derived from one Sec. VI EvaluationResult.
//
// Besides the two single-axis objectives of PR 4 (saturation throughput,
// negated zero-load latency), this adds the multi-objective score the
// ROADMAP calls for: throughput per mm² of D2D link area. Adding links to
// an arrangement buys bandwidth but spends bump-sector silicon on both
// endpoint chiplets (cost::d2d_link_area_mm2); the `area_weight` knob
// scalarizes the trade —
//
//     score = saturation_throughput_bps / (total_link_area_mm2 ^ w)
//
// with w = 0 collapsing to pure throughput and w = 1 the full
// throughput-per-mm² normalization. For a fixed throughput the score is
// strictly decreasing in link count whenever w > 0 (pinned by test_search).
#pragma once

#include <functional>
#include <string>

#include "core/evaluator.hpp"

namespace hm::search {

/// What the search maximizes.
enum class Objective {
  kSaturationThroughput,   ///< saturation_throughput_bps (Fig. 7b axis)
  kZeroLoadLatency,        ///< negated zero_load_latency_cycles (Fig. 7a axis)
  kThroughputPerLinkArea,  ///< saturation throughput / D2D link area^w
  /// Worst-case delivered bandwidth over the fault scenario's plan set
  /// (fault_robust_throughput_bps): rewards arrangements that keep moving
  /// traffic with links or routers dead. Requires params.faults to be
  /// enabled on the evaluation (score() throws otherwise — a silent zero
  /// would make every candidate tie).
  kRobustThroughput,
};

/// Short names, e.g. "throughput", "latency", "throughput_per_link_area".
[[nodiscard]] std::string to_string(Objective o);

/// Fully specified scoring rule. Implicitly constructible from a bare
/// Objective so existing `options.objective = Objective::k...` call sites
/// keep working.
struct ObjectiveSpec {
  Objective kind = Objective::kSaturationThroughput;

  /// Scalarization knob of kThroughputPerLinkArea (see file comment);
  /// ignored by the other kinds. Must be finite and >= 0.
  double area_weight = 1.0;

  /// When set, overrides `kind` entirely: the score of a design is
  /// custom(result). The function must be pure (same result -> same score)
  /// — the engine evaluates candidates in parallel and caches by content
  /// hash, so a stateful score would break both determinism and reuse.
  std::function<double(const core::EvaluationResult&)> custom;

  ObjectiveSpec() = default;
  ObjectiveSpec(Objective k) : kind(k) {}  // NOLINT(google-explicit-*)

  /// Throws std::invalid_argument on a malformed spec (bad area_weight).
  void validate() const;
};

/// The scalar the search maximizes for `r` under `spec`.
[[nodiscard]] double score(const ObjectiveSpec& spec,
                           const core::EvaluationResult& r);

/// Restricts `params`' measurement-selection flags to the half of the
/// pipeline `spec` actually reads (a custom score may read anything, so it
/// keeps both halves on).
void apply_measurement_selection(const ObjectiveSpec& spec,
                                 core::EvaluationParams& params);

}  // namespace hm::search
