// Shared plumbing of the hmbench driver: the result a workload fills in,
// sample statistics, span totals of a traced run, telemetry deltas,
// process memory, digests and the reference file.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"

namespace hm::core {
struct EvaluationResult;
}  // namespace hm::core

namespace hmbench {

// ------------------------------------------------------------------ config

/// Everything a workload needs from the command line.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool record = false;        ///< traced run that prints reference lines
  std::string work_dir;       ///< scratch space inside the checkout
  std::string trace_path;     ///< Chrome trace written by a traced run
  unsigned threads = 4;       ///< worker threads (<= nproc)
};

// ------------------------------------------------------------------ result

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  ///< 0 = not a sampled quantity
  std::string note;
};

/// What one workload run reports. `attempted` counts operations issued
/// (evaluations, requests, output checks); `failed` the ones that errored,
/// were rejected or did not match their expected output.
struct Result {
  std::vector<Metric> e2e;
  std::vector<Metric> layer;
  std::vector<std::string> notes;
  std::vector<std::string> failures;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Reference lines ("<key> <value>"): the output digests and exact
  /// counts this run saw; --record prints them.
  std::vector<std::pair<std::string, std::string>> reference;

  void add_e2e(std::string name, double value, std::string unit,
               std::size_t samples = 0, std::string note = {});
  void add_layer(std::string name, double value, std::string unit,
                 std::size_t samples = 0, std::string note = {});
  /// Counts one checked operation; records a failure when !ok.
  void check(bool ok, const std::string& what);
};

// -------------------------------------------------------------- statistics

/// Linear-interpolated percentile (p in [0, 100]) of `v`; 0 when empty.
[[nodiscard]] double percentile(std::vector<double> v, double p);
[[nodiscard]] inline double median(std::vector<double> v) {
  return percentile(std::move(v), 50.0);
}
/// The highest of {99.9, 99, 90, 75, 50} with at least ten of `n` samples
/// beyond it; 0 when even the median has fewer than ten beyond it.
[[nodiscard]] double tail_percentile(std::size_t n);

/// Adds the report-only `<prefix>_p50_ms` and the highest percentile with
/// ten samples beyond it, for latency samples in seconds.
void add_latency_metrics(Result& r, const std::string& prefix,
                         const std::vector<double>& seconds_samples);

// ------------------------------------------------------------------- clock

using Clock = std::chrono::steady_clock;
[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// A fixed amount of work sized for a 30 s run on a 4-core host, scaled to
/// --seconds. It depends on the arguments only, never on host speed, so two
/// commits run with the same arguments time exactly the same work.
[[nodiscard]] std::size_t work_units(std::size_t at_30s, const RunConfig& cfg);

/// How long a run may take before it stops early and counts a failure: a
/// safety stop for a host far slower than the one the work was sized on.
[[nodiscard]] double safety_seconds(const RunConfig& cfg);

// ------------------------------------------------------------------- spans

/// The benchmark wraps its own calls into each layer in library spans named
/// `bench.<layer>.<call>`; they cost one atomic load while tracing is off.
using Span = hm::telemetry::Span;

/// Busy time and call count of one span name.
struct SpanTotals {
  std::uint64_t calls = 0;
  double seconds = 0.0;
};

[[nodiscard]] double ms_per_call(const SpanTotals& t);

/// Busy time and call count per span name of a traced run: the library's
/// own spans and the benchmark's `bench.*` spans around its layer calls.
struct LibrarySpans {
  std::map<std::string, SpanTotals> by_name;
  [[nodiscard]] SpanTotals get(const std::string& name) const;
};

// --------------------------------------------------------------- telemetry

/// Difference of two registry snapshots (counters only).
struct Counts {
  std::map<std::string, std::uint64_t> c;
  [[nodiscard]] std::uint64_t get(const std::string& name) const;
  /// Sum over counters named `<prefix>*<suffix>`.
  [[nodiscard]] std::uint64_t sum(const std::string& prefix,
                                  const std::string& suffix) const;
};
[[nodiscard]] Counts delta(const hm::telemetry::Snapshot& before,
                           const hm::telemetry::Snapshot& after);

/// The traced part of a run: arms telemetry and the library's Chrome trace
/// (hm::telemetry::Span, which the benchmark's own `bench.*` spans use
/// too); finish() disarms both, which writes the trace to cfg.trace_path,
/// and returns the span totals read back from it.
class TraceSession {
 public:
  explicit TraceSession(const RunConfig& cfg);
  LibrarySpans finish();

 private:
  std::string path_;
};

/// Adds the `noc` simulator, topology and arena metrics from registry
/// counts and the library's sat.* / topo.* spans. `sim_seconds` is the
/// host time spent simulating the counted router steps (0 = unknown).
void add_noc_metrics(Result& r, const Counts& c, const LibrarySpans& lib,
                     double sim_seconds);
/// cache.shard*.hits / (hits + misses) of `c`.
[[nodiscard]] double cache_hit_ratio(const Counts& c);

// ------------------------------------------------------------------ stores

/// Scratch store directories of one run: a warm store, pre-populated once
/// (untimed), and a fresh copy of it for every set-up, which is that
/// set-up's pre-population step. All of it is removed when the run ends.
///
/// Besides a workload's own results, the warm store holds kArchiveRecords
/// results under keys no request or candidate uses, standing for the
/// designs earlier runs left in a long-lived cache dir. Opening a copy then
/// decodes and indexes a store of realistic size: milliseconds of CPU work
/// that are most of a set-up, so setup_s is not a few noisy syscalls.
class StoreDirs {
 public:
  static constexpr std::size_t kArchiveRecords = 8192;

  /// Creates <work_dir>/<name>-<pid>/ and, in it, the warm store holding
  /// the archive records (copies of `archive_values`, cycled) under keys
  /// drawn from `seed`. Results the caller adds through warm() next are
  /// part of every copy too.
  StoreDirs(const RunConfig& cfg, const std::string& name,
            const std::vector<hm::core::EvaluationResult>& archive_values);
  ~StoreDirs();
  StoreDirs(const StoreDirs&) = delete;
  StoreDirs& operator=(const StoreDirs&) = delete;

  [[nodiscard]] const std::string& root() const { return root_; }
  [[nodiscard]] const std::string& warm() const { return warm_; }
  /// A fresh copy of the warm store.
  std::string copy();

 private:
  std::string root_;
  std::string warm_;
  int next_ = 0;
};

// ------------------------------------------------------------------ memory

/// Adds peak_rss_mb (VmHWM, gated) and vm_peak_mb (VmPeak, report only).
void add_memory_metrics(Result& r);

// ----------------------------------------------------------------- digests

[[nodiscard]] std::uint64_t fnv1a(const void* data, std::size_t n,
                                  std::uint64_t h = 0xcbf29ce484222325ULL);
[[nodiscard]] std::string hex64(std::uint64_t v);

/// SplitMix64 step: the benchmark's own input generator, independent of
/// the library's RNGs so inputs stay fixed when the library changes.
[[nodiscard]] std::uint64_t splitmix(std::uint64_t x);

// --------------------------------------------------------------- reference

/// hmbench/reference.txt: "<workload> <seed> <key> <value>" lines holding
/// the output digests and exact work counts of recorded seeds.
class Reference {
 public:
  void load(const std::string& path);
  /// The recorded value, or empty when this (workload, seed, key) has none.
  [[nodiscard]] std::string find(const std::string& workload,
                                 std::uint64_t seed,
                                 const std::string& key) const;

 private:
  std::map<std::string, std::string> values_;
};

/// Compares `digest` with the recorded one for `key`; a mismatch is a
/// failed check, a missing record is a note. Emits a reference line too.
void check_digest(Result& r, const Reference& ref, const RunConfig& cfg,
                  const std::string& key, const std::string& digest);

/// Exact work counts of a traced run: compared with the counts an earlier
/// run of the same driver binary left under work_dir (a difference is a
/// failure: same code, same inputs, different work) and with the recorded
/// reference (a difference is reported as drift, not a failure, because
/// the reference may predate a legitimate algorithmic change).
void check_exact_counts(Result& r, const Reference& ref, const RunConfig& cfg,
                        const std::vector<std::pair<std::string,
                                                    std::uint64_t>>& counts);

}  // namespace hmbench
