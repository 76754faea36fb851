#include "search/tempering.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "explore/cached_eval.hpp"
#include "noc/rng.hpp"
#include "noc/topology.hpp"
#include "store/result_store.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"

namespace hm::search {

namespace {

/// Shortest round-trip decimal form of a double (exact, locale-free) —
/// the same formatting contract as the sweep exports.
std::string fmt(double v) {
  char buf[32];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, ptr);
}

// Salt tags keeping the per-replica proposal streams and the per-(step,
// pair) exchange streams disjoint under noc::derive_seed.
constexpr std::uint64_t kReplicaSalt = 0x5245504c49434100ULL;   // "REPLICA"
constexpr std::uint64_t kExchangeSalt = 0x45584348414e4745ULL;  // "EXCHANGE"

/// One replica of the population: its configuration, shared topology,
/// score and cached evaluation.
struct Replica {
  core::Arrangement arrangement;
  std::shared_ptr<const noc::TopologyContext> ctx;
  core::EvaluationResult eval;
  double score = 0.0;
};

}  // namespace

TemperingEngine::TemperingEngine() : TemperingEngine(TemperingOptions{}) {}

TemperingEngine::TemperingEngine(TemperingOptions options)
    : options_(std::move(options)), pool_(options_.threads) {
  if (!options_.cache_dir.empty()) {
    cache_.attach_store(store::ResultStore::open(options_.cache_dir));
  }
}

TemperingResult TemperingEngine::run(const core::Arrangement& start) {
  if (start.chiplet_count() < 2) {
    throw std::invalid_argument(
        "TemperingEngine: search needs >= 2 chiplets (nothing to simulate)");
  }
  if (!is_legal_arrangement(start)) {
    throw std::invalid_argument(
        "TemperingEngine: start arrangement is not a legal search state");
  }
  if (options_.replicas == 0) {
    throw std::invalid_argument("TemperingEngine: replicas must be >= 1");
  }
  if (options_.candidates_per_step == 0) {
    throw std::invalid_argument(
        "TemperingEngine: candidates_per_step must be >= 1");
  }
  if (options_.exchange_interval == 0) {
    throw std::invalid_argument(
        "TemperingEngine: exchange_interval must be >= 1");
  }
  if (!(options_.ladder_ratio > 0.0) || options_.ladder_ratio > 1.0) {
    throw std::invalid_argument(
        "TemperingEngine: ladder_ratio must be in (0, 1]");
  }
  if (!(options_.initial_temperature >= 0.0) ||
      !std::isfinite(options_.initial_temperature)) {
    throw std::invalid_argument(
        "TemperingEngine: initial_temperature must be finite and >= 0");
  }
  if (options_.initial_temperature == 0.0 && options_.replicas > 1) {
    throw std::invalid_argument(
        "TemperingEngine: initial_temperature 0 (hill climb) needs "
        "replicas == 1");
  }
  if (!(options_.cooling > 0.0) || options_.cooling > 1.0) {
    throw std::invalid_argument("TemperingEngine: cooling must be in (0, 1]");
  }
  if (!(options_.min_temperature > 0.0)) {
    throw std::invalid_argument(
        "TemperingEngine: min_temperature must be > 0");
  }
  if (options_.adapt_ladder &&
      (!(options_.target_exchange_acceptance > 0.0) ||
       options_.target_exchange_acceptance >= 1.0)) {
    throw std::invalid_argument(
        "TemperingEngine: target_exchange_acceptance must be in (0, 1)");
  }
  options_.objective.validate();

  // Only the half of the pipeline the objective scores is simulated.
  core::EvaluationParams params = options_.params;
  apply_measurement_selection(options_.objective, params);

  // The caller keeps the candidate's topology context alive across the
  // call, so the acquire() inside cached_evaluate is an intern hit.
  explore::ResultCache* cache = options_.use_cache ? &cache_ : nullptr;
  const auto evaluate = [&](const core::Arrangement& arr, char* from_cache) {
    explore::CachedEvalOutcome outcome;
    auto r = explore::cached_evaluate(arr, params, options_.traffic, cache,
                                      nullptr, &outcome);
    *from_cache = outcome.from_cache ? 1 : 0;
    return r;
  };

  const auto wall_start = std::chrono::steady_clock::now();
  const std::uint64_t incr0 = noc::RoutingTables::incremental_builds();

  const std::size_t K = options_.replicas;
  TemperingResult result{start};

  // Baseline: every replica starts from the same evaluated configuration.
  auto start_ctx = noc::TopologyContext::acquire(start.graph());
  char baseline_hit = 0;
  const core::EvaluationResult baseline = evaluate(start, &baseline_hit);
  const Replica seed_replica{start, std::move(start_ctx), baseline,
                             score(options_.objective, baseline)};

  result.baseline_result = seed_replica.eval;
  result.baseline_score = seed_replica.score;
  result.best_result = seed_replica.eval;
  result.best_score = seed_replica.score;
  result.evaluations = 1;
  result.cache_hits = static_cast<std::uint64_t>(baseline_hit);

  // Geometric ladder, coldest first; every rung floored so a zero/near-zero
  // baseline cannot collapse the population into K hill climbers. The
  // hottest rung is pinned (up to cooling); adapt_ladder only re-spaces the
  // rungs below it. A zero initial_temperature is the hill climb: no rung,
  // no floor.
  const bool hill_climb = options_.initial_temperature == 0.0;
  const double hot = std::max(
      std::abs(result.baseline_score) * options_.initial_temperature,
      options_.min_temperature);
  double ladder_ratio = options_.ladder_ratio;
  result.temperatures.resize(K);
  const auto rebuild_ladder = [&](std::size_t step) {
    if (hill_climb) return;
    const double cooled =
        hot * std::pow(options_.cooling, static_cast<double>(step));
    for (std::size_t k = 0; k < K; ++k) {
      result.temperatures[k] = std::max(
          cooled * std::pow(ladder_ratio, static_cast<double>(K - 1 - k)),
          options_.min_temperature);
    }
  };
  rebuild_ladder(0);

  std::vector<Replica> replicas(K, seed_replica);
  result.trace.reserve(options_.steps * K);

  static telemetry::Counter steps_run("tempering.steps");
  static telemetry::Counter exchange_sweeps("tempering.exchange_sweeps");
  for (std::size_t step = 0; step < options_.steps; ++step) {
    telemetry::Span step_span("tempering.step");
    steps_run.add();
    rebuild_ladder(step);  // this step's cooling
    // Phase 1: propose. All nondeterminism of replica k's step flows from
    // rng[k], on this thread; the flattened batch layout is a pure function
    // of the options and the proposals.
    std::vector<noc::Rng> rng;
    rng.reserve(K);
    std::vector<std::vector<Candidate>> cands(K);
    for (std::size_t k = 0; k < K; ++k) {
      rng.emplace_back(noc::derive_seed(
          noc::derive_seed(options_.seed, kReplicaSalt + k), step));
      cands[k].reserve(options_.candidates_per_step);
      for (std::size_t slot = 0; slot < options_.candidates_per_step;
           ++slot) {
        for (std::size_t t = 0; t < options_.max_proposal_tries; ++t) {
          if (auto c = propose_mutation(replicas[k].arrangement, rng[k])) {
            cands[k].push_back(std::move(*c));
            break;
          }
        }
      }
    }

    // Phase 2: evaluate every replica's batch in one parallel fan-out.
    // Each job delta-builds (or adopts from the intern cache) its
    // candidate's topology from its replica's current context and scores
    // it with the same fixed simulator seed — a pure function of the
    // candidate, so scores are identical at any thread count.
    struct Slot {
      std::size_t replica;
      std::size_t index;
    };
    std::vector<Slot> slots;
    for (std::size_t k = 0; k < K; ++k) {
      for (std::size_t i = 0; i < cands[k].size(); ++i) {
        slots.push_back({k, i});
      }
    }
    std::vector<double> scores(slots.size(), 0.0);
    std::vector<core::EvaluationResult> evals(slots.size());
    std::vector<std::shared_ptr<const noc::TopologyContext>> contexts(
        slots.size());
    std::vector<char> hits(slots.size(), 0);
    std::vector<std::function<void()>> jobs;
    jobs.reserve(slots.size());
    for (std::size_t j = 0; j < slots.size(); ++j) {
      jobs.push_back([&, j] {
        const auto& [k, i] = slots[j];
        contexts[j] =
            noc::TopologyContext::rebuild_from(replicas[k].ctx,
                                               cands[k][i].edit);
        evals[j] = evaluate(cands[k][i].arrangement, &hits[j]);
        scores[j] = score(options_.objective, evals[j]);
      });
    }
    pool_.run_batch(jobs);
    result.evaluations += slots.size();
    result.cache_hits += static_cast<std::uint64_t>(
        std::count(hits.begin(), hits.end(), 1));

    // Phase 3: per-replica Metropolis acceptance at the replica's rung,
    // coldest first, on this thread. A zero rung (hill climb) accepts
    // strict improvements only and draws no sample.
    const std::size_t row0 = result.trace.size();
    std::size_t slot_base = 0;
    for (std::size_t k = 0; k < K; ++k) {
      TemperingStep rec;
      rec.step = step;
      rec.replica = k;
      rec.temperature = result.temperatures[k];
      rec.candidates = cands[k].size();

      if (!cands[k].empty()) {
        // Deterministic selection: best score, ties to the lowest index.
        std::size_t pick = 0;
        for (std::size_t i = 1; i < cands[k].size(); ++i) {
          if (scores[slot_base + i] > scores[slot_base + pick]) pick = i;
        }
        const double cand_score = scores[slot_base + pick];
        rec.kind = cands[k][pick].kind;
        rec.candidate_score = cand_score;

        bool accept = cand_score > replicas[k].score;
        if (!accept && rec.temperature > 0.0) {
          const double p = std::exp((cand_score - replicas[k].score) /
                                    rec.temperature);
          accept = rng[k].uniform() < p;
        }
        if (accept) {
          replicas[k].arrangement = cands[k][pick].arrangement;
          replicas[k].ctx = contexts[slot_base + pick];
          replicas[k].eval = evals[slot_base + pick];
          replicas[k].score = cand_score;
          rec.accepted = true;
          if (cand_score > result.best_score) {
            result.best = cands[k][pick].arrangement;
            result.best_result = evals[slot_base + pick];
            result.best_score = cand_score;
            rec.improved_best = true;
          }
        }
      }
      slot_base += cands[k].size();
      result.trace.push_back(rec);
    }

    // Phase 4: replica exchange every exchange_interval steps. Alternating
    // pair parity (0-1/2-3/..., then 1-2/3-4/...) lets a configuration
    // traverse the whole ladder; each pair's RNG is seeded per (step, pair)
    // so the swap pattern is independent of thread count and of the
    // replica streams.
    if ((step + 1) % options_.exchange_interval == 0 && K > 1) {
      telemetry::Span exchange_span("tempering.exchange");
      exchange_sweeps.add();
      const std::size_t round = (step + 1) / options_.exchange_interval;
      const std::size_t parity = (round - 1) % 2;
      const std::uint64_t sweep_base = noc::derive_seed(
          noc::derive_seed(options_.seed, kExchangeSalt), step);
      std::size_t pair = 0;
      std::size_t sweep_attempts = 0;
      std::size_t sweep_accepts = 0;
      for (std::size_t k = parity; k + 1 < K; k += 2, ++pair) {
        noc::Rng xrng(noc::derive_seed(sweep_base, pair));
        ++result.exchange_attempts;
        ++sweep_attempts;
        // Maximization form of the exchange rule: with energies E = -S,
        // p = min(1, exp((1/T_cold - 1/T_hot) * (S_hot - S_cold))) — an
        // improvement moving down-ladder is always accepted.
        const double delta =
            (1.0 / result.temperatures[k] - 1.0 / result.temperatures[k + 1]) *
            (replicas[k + 1].score - replicas[k].score);
        if (delta >= 0.0 || xrng.uniform() < std::exp(delta)) {
          std::swap(replicas[k], replicas[k + 1]);
          ++result.exchange_accepts;
          ++sweep_accepts;
          result.trace[row0 + k].exchanged = true;
          result.trace[row0 + k].exchange_partner = static_cast<int>(k + 1);
          result.trace[row0 + k + 1].exchanged = true;
          result.trace[row0 + k + 1].exchange_partner = static_cast<int>(k);
        }
      }

      // Ladder adaptation (the ROADMAP carry-over): nudge the geometric
      // ratio toward the target per-pair exchange acceptance. Too few swaps
      // means adjacent rungs are too far apart -> ratio up (closer rungs);
      // too many means the ladder is wastefully dense -> ratio down
      // (broader temperature range). Multiplicative-in-log update, clamped
      // so the ladder never degenerates; a pure function of the sweep's
      // deterministic accept count, so traces stay thread-independent.
      if (options_.adapt_ladder && sweep_attempts > 0) {
        const double acceptance = static_cast<double>(sweep_accepts) /
                                  static_cast<double>(sweep_attempts);
        constexpr double kAdaptGain = 0.2;
        ladder_ratio = std::clamp(
            ladder_ratio * std::exp(kAdaptGain *
                                    (options_.target_exchange_acceptance -
                                     acceptance)),
            0.05, 0.98);
        rebuild_ladder(step);
      }
    }

    // Phase 5: finalize the step's rows with the post-exchange state.
    for (std::size_t k = 0; k < K; ++k) {
      TemperingStep& rec = result.trace[row0 + k];
      rec.current_score = replicas[k].score;
      rec.best_score = result.best_score;
      rec.graph_digest = noc::graph_digest(replicas[k].arrangement.graph());
      rec.edge_count = replicas[k].arrangement.graph().edge_count();
    }

    if (options_.on_progress) {
      TemperingProgress progress;
      progress.step = step + 1;
      progress.total = options_.steps;
      progress.best_score = result.best_score;
      progress.first = &result.trace[row0];
      progress.replicas = K;
      options_.on_progress(progress);
    }
  }

  result.final_ladder_ratio = ladder_ratio;
  result.replica_scores.resize(K);
  for (std::size_t k = 0; k < K; ++k) {
    result.replica_scores[k] = replicas[k].score;
  }
  result.incremental_rebuilds =
      noc::RoutingTables::incremental_builds() - incr0;
  result.wall_seconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - wall_start)
                            .count();
  return result;
}

void write_trace_csv(std::ostream& os,
                     const std::vector<TemperingStep>& trace) {
  os << "step,replica,temperature,mutation,candidates,accepted,"
        "improved_best,candidate_score,current_score,best_score,exchanged,"
        "exchange_partner,graph_digest,edge_count\n";
  for (const auto& s : trace) {
    os << s.step << ',' << s.replica << ',' << fmt(s.temperature) << ','
       << to_string(s.kind) << ',' << s.candidates << ','
       << (s.accepted ? 1 : 0) << ',' << (s.improved_best ? 1 : 0) << ','
       << fmt(s.candidate_score) << ',' << fmt(s.current_score) << ','
       << fmt(s.best_score) << ',' << (s.exchanged ? 1 : 0) << ','
       << s.exchange_partner << ',' << s.graph_digest << ',' << s.edge_count
       << '\n';
  }
}

std::string trace_to_csv(const std::vector<TemperingStep>& trace) {
  std::ostringstream os;
  write_trace_csv(os, trace);
  return os.str();
}

void write_trace_json(std::ostream& os,
                      const std::vector<TemperingStep>& trace) {
  os << "[\n";
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const auto& s = trace[i];
    os << "  {\"step\": " << s.step << ", \"replica\": " << s.replica
       << ", \"temperature\": " << fmt(s.temperature)
       << ", \"mutation\": \"" << to_string(s.kind)
       << "\", \"candidates\": " << s.candidates
       << ", \"accepted\": " << (s.accepted ? "true" : "false")
       << ", \"improved_best\": " << (s.improved_best ? "true" : "false")
       << ", \"candidate_score\": " << fmt(s.candidate_score)
       << ", \"current_score\": " << fmt(s.current_score)
       << ", \"best_score\": " << fmt(s.best_score)
       << ", \"exchanged\": " << (s.exchanged ? "true" : "false")
       << ", \"exchange_partner\": " << s.exchange_partner
       << ", \"graph_digest\": " << s.graph_digest
       << ", \"edge_count\": " << s.edge_count << "}"
       << (i + 1 < trace.size() ? ",\n" : "\n");
  }
  os << "]\n";
}

std::string trace_to_json(const std::vector<TemperingStep>& trace) {
  std::ostringstream os;
  write_trace_json(os, trace);
  return os.str();
}

void export_trace_file(const std::string& path,
                       const std::vector<TemperingStep>& trace) {
  std::ofstream os(path);
  if (!os) {
    throw std::runtime_error("export_trace_file: cannot open " + path);
  }
  if (path.size() >= 5 && path.substr(path.size() - 5) == ".json") {
    write_trace_json(os, trace);
  } else {
    write_trace_csv(os, trace);
  }
}

}  // namespace hm::search
