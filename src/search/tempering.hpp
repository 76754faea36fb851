// Arrangement search: hill climbing, simulated annealing and
// population-based parallel tempering, all in one engine.
//
// The sweep engine (explore/sweep.hpp) *enumerates* the three fixed
// arrangement families; TemperingEngine *searches* the wider space of
// (site occupancy, link subset) states around a start arrangement with the
// mutation operators of search/mutation.hpp. Every candidate is scored
// through explore::cached_evaluate, the same cached Sec. VI pipeline the
// sweeps and hm_server use, so a design lands under one cache/store key
// whichever tool evaluated it.
//
// The engine runs K replicas, each at a rung of a geometric ladder that
// cools by `cooling` per step s:
//
//     T_k(s) = max(T_hot * ladder_ratio^(K-1-k) * cooling^s, min_temperature)
//
// with replica K-1 the hottest (T_hot = |baseline| * initial_temperature,
// floored) and replica 0 the coldest. Three modes share this code path:
//
//   * hill climb (K = 1, initial_temperature = 0): every rung is 0, so only
//     strictly improving candidates are accepted and no Metropolis sample
//     is drawn;
//   * simulated annealing (K = 1, cooling < 1): one chain whose temperature
//     decays geometrically down to the floor;
//   * parallel tempering (K > 1): hot replicas cross score barriers the
//     cold ones cannot; every `exchange_interval` steps adjacent replicas
//     attempt a configuration swap with the classical Metropolis exchange
//     rule
//
//         p = min(1, exp((1/T_cold - 1/T_hot) * (S_hot - S_cold)))
//
//     so improvements found at high temperature percolate down to the cold
//     replica. Alternating even/odd pair sweeps let a configuration
//     traverse the whole ladder. With adapt_ladder (the default) the
//     spacing self-tunes: after each exchange sweep the ratio moves toward
//     the value that keeps adjacent replicas swapping at
//     target_exchange_acceptance, deterministically, from the sweep's own
//     acceptance count.
//
// Candidate evaluations fan out across one explore::ThreadPool (per-worker
// SimulationArena networks, sharded explore::ResultCache memoization), and
// each candidate's routing tables are delta-built from its replica's
// current context via noc::TopologyContext::rebuild_from.
//
// Determinism contract (pinned by test_tempering and test_search): replica
// k's proposal/acceptance RNG for step s is seeded
// derive_seed(derive_seed(seed, kReplicaSalt + k), s); the exchange RNG for
// (step s, pair p) is seeded
// derive_seed(derive_seed(derive_seed(seed, kExchangeSalt), s), p). All
// proposals, acceptances and swaps run on the calling thread in fixed
// order; candidates are evaluated with the same fixed simulator seed. The
// trace is byte-identical at any thread count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "core/evaluator.hpp"
#include "explore/result_cache.hpp"
#include "explore/thread_pool.hpp"
#include "noc/traffic.hpp"
#include "search/mutation.hpp"
#include "search/objective.hpp"

namespace hm::search {

struct TemperingProgress;

struct TemperingOptions {
  /// Replica count K (>= 1; K == 1 is a single chain: a hill climb or an
  /// anneal, see the file comment).
  std::size_t replicas = 4;

  /// Mutation steps; every step advances all K replicas by one
  /// propose/evaluate/accept round (one parallel batch of
  /// K * candidates_per_step evaluations).
  std::size_t steps = 48;

  /// Candidates per replica per step, fixed by the options — never the
  /// thread count — so traces are thread-independent.
  std::size_t candidates_per_step = 2;

  /// Proposal redraws per candidate slot before the slot is skipped.
  std::size_t max_proposal_tries = 8;

  /// Steps between replica-exchange sweeps (>= 1). Pair parity alternates
  /// between sweeps (0-1/2-3/... then 1-2/3-4/...).
  std::size_t exchange_interval = 4;

  /// Hottest-replica temperature as a fraction of |baseline score| (so the
  /// knob is design-independent; 0 = hill climb, which needs replicas == 1),
  /// the geometric ladder ratio between adjacent replicas (in (0, 1]), the
  /// per-step decay of every rung (in (0, 1]; 1 = fixed ladder), and the
  /// absolute floor every positive rung is clamped to (> 0; keeps the
  /// ladder meaningful when the baseline score is zero or near zero).
  double initial_temperature = 0.08;
  double ladder_ratio = 0.5;
  double cooling = 1.0;
  double min_temperature = 1e-9;

  /// Adapt `ladder_ratio` between exchange sweeps: after each sweep the
  /// ratio moves (deterministically, from the sweep's own acceptance count)
  /// toward the rate that keeps adjacent replicas exchanging at
  /// `target_exchange_acceptance` — too few swaps pushes the ratio toward 1
  /// (rungs closer together), too many spreads the ladder out. The hottest
  /// rung stays fixed; only the spacing adapts. Adaptation is a pure
  /// function of the (deterministic) exchange outcomes, so traces remain
  /// byte-identical at any thread count.
  bool adapt_ladder = true;
  double target_exchange_acceptance = 0.3;

  ObjectiveSpec objective;  ///< see search/objective.hpp

  /// Worker concurrency for candidate evaluation; 0 = hardware threads.
  unsigned threads = 0;
  bool use_cache = true;
  /// Directory of a persistent store::ResultStore attached under the
  /// result cache (empty = memory only). Re-searching a neighbourhood with
  /// a warm store serves revisited states from disk instead of simulating.
  std::string cache_dir;

  /// Base of every RNG derivation (see the determinism contract above).
  unsigned long long seed = 42;

  /// Evaluation pipeline configuration; measurement-selection flags are
  /// overridden to match `objective`.
  core::EvaluationParams params;
  noc::TrafficSpec traffic;

  /// Called after every completed step (all replicas advanced, exchanges
  /// done), on the calling thread.
  std::function<void(const TemperingProgress&)> on_progress;
};

/// One (step, replica) row of the tempering trace. Deterministic fields
/// only — scores, the selected mutation, exchange outcomes and the
/// post-step state identity; never wall-clock or cache statistics.
struct TemperingStep {
  std::size_t step = 0;
  std::size_t replica = 0;
  double temperature = 0.0;  ///< this replica's (floored) rung at this step
                             ///< (0 = hill climb)
  MutationKind kind = MutationKind::kNone;  ///< selected candidate's op
  std::size_t candidates = 0;  ///< legal proposals evaluated this step
  bool accepted = false;       ///< candidate became the replica's state
  bool improved_best = false;  ///< candidate beat the global best-so-far
  double candidate_score = 0.0;  ///< best candidate of the step (0 if none)
  double current_score = 0.0;    ///< post-step (post-exchange) replica state
  double best_score = 0.0;       ///< post-step global best (monotone)
  bool exchanged = false;        ///< replica swapped configurations
  int exchange_partner = -1;     ///< partner replica index (-1 = none)
  std::uint64_t graph_digest = 0;  ///< post-step replica graph digest
  std::size_t edge_count = 0;      ///< post-step replica link count
};

struct TemperingProgress {
  std::size_t step = 0;   ///< steps completed
  std::size_t total = 0;  ///< total steps
  double best_score = 0.0;
  /// The completed step's rows (one per replica), coldest first.
  const TemperingStep* first = nullptr;
  std::size_t replicas = 0;
};

struct TemperingResult {
  explicit TemperingResult(core::Arrangement initial)
      : best(std::move(initial)) {}

  core::Arrangement best;  ///< best-scoring arrangement across all replicas
  core::EvaluationResult best_result{};
  double best_score = 0.0;
  core::EvaluationResult baseline_result{};  ///< the start arrangement
  double baseline_score = 0.0;

  /// Temperature ladder in effect when the run ended, coldest first (after
  /// cooling and flooring; all zero for a hill climb). With adapt_ladder
  /// the spacing may differ from the initial ladder_ratio; trace rows carry
  /// the rung each step actually used.
  std::vector<double> temperatures;
  /// Ladder ratio in effect when the run ended (== options.ladder_ratio
  /// unless adapt_ladder moved it).
  double final_ladder_ratio = 0.0;
  /// Final per-replica current scores, coldest first.
  std::vector<double> replica_scores;

  /// Steps-major, replica-minor: trace[s * K + k] is step s, replica k.
  std::vector<TemperingStep> trace;

  std::size_t exchange_attempts = 0;
  std::size_t exchange_accepts = 0;

  // Observability; timing-dependent under concurrency, excluded from the
  // trace exports.
  std::size_t evaluations = 0;     ///< simulated or cache-served scores
  std::uint64_t cache_hits = 0;    ///< evaluations served from the cache
  std::uint64_t incremental_rebuilds = 0;  ///< delta-built routing tables
  double wall_seconds = 0.0;
};

/// Searches from a start arrangement (all replicas start there; they
/// decorrelate through their per-replica RNG streams).
class TemperingEngine {
 public:
  TemperingEngine();
  explicit TemperingEngine(TemperingOptions options);

  /// Searches from `start` (>= 2 chiplets, legal per
  /// is_legal_arrangement). Re-entrant per engine: repeated runs share the
  /// result cache.
  [[nodiscard]] TemperingResult run(const core::Arrangement& start);

  [[nodiscard]] explore::ResultCache& cache() noexcept { return cache_; }
  [[nodiscard]] unsigned thread_count() const noexcept {
    return pool_.thread_count();
  }

 private:
  TemperingOptions options_;
  explore::ThreadPool pool_;
  explore::ResultCache cache_;
};

/// Trace serialization, mirroring explore/export.hpp: deterministic fields
/// only, shortest-round-trip doubles, so traces compare byte-for-byte
/// across thread counts.
void write_trace_csv(std::ostream& os, const std::vector<TemperingStep>& trace);
[[nodiscard]] std::string trace_to_csv(const std::vector<TemperingStep>& trace);
void write_trace_json(std::ostream& os,
                      const std::vector<TemperingStep>& trace);
[[nodiscard]] std::string trace_to_json(
    const std::vector<TemperingStep>& trace);

/// Writes the trace to `path`: ".json" gets JSON, everything else CSV.
/// Throws std::runtime_error when the file cannot be opened.
void export_trace_file(const std::string& path,
                       const std::vector<TemperingStep>& trace);

}  // namespace hm::search
