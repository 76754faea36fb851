// The four hmbench workloads (see README.md for what each stresses and
// why). Each fills a Result: untraced runs the gated end-to-end metrics,
// traced runs (cfg.trace, also under --record) the per-layer metrics. Both
// collect the reference lines and count attempted and failed operations.
#pragma once

#include "util.hpp"

namespace hmbench {

[[nodiscard]] Result run_sweep_fig7(const RunConfig& cfg, const Reference& ref);
[[nodiscard]] Result run_latency_scale(const RunConfig& cfg,
                                       const Reference& ref);
[[nodiscard]] Result run_search_tempering(const RunConfig& cfg,
                                          const Reference& ref);
[[nodiscard]] Result run_serve_mixed(const RunConfig& cfg,
                                     const Reference& ref);

/// Set-ups a run times besides the one before each cold run or load, in
/// groups spread over the run (before the first cold sweep and after each,
/// at serve_mixed's load segment ends, at search_tempering's step
/// boundaries). One set-up is milliseconds at most, and how long it takes
/// follows the host's speed of the moment, which drifts over seconds; spread
/// out, the samples average over the run as evals_per_s does. setup_s is
/// the median of all of them.
inline constexpr int kSetups = 21;

/// Set-ups per group when a run times kSetups of them in `groups` groups.
[[nodiscard]] inline int setups_per_group(std::size_t groups) {
  return static_cast<int>((kSetups + groups - 1) / groups);
}

}  // namespace hmbench
