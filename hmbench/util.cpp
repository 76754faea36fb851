#include "util.hpp"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/evaluator.hpp"
#include "store/result_store.hpp"
#include "telemetry/trace.hpp"

namespace hmbench {

// ------------------------------------------------------------------ result

void Result::add_e2e(std::string name, double value, std::string unit,
                     std::size_t samples, std::string note) {
  e2e.push_back({std::move(name), value, std::move(unit), samples,
                 std::move(note)});
}

void Result::add_layer(std::string name, double value, std::string unit,
                       std::size_t samples, std::string note) {
  layer.push_back({std::move(name), value, std::move(unit), samples,
                   std::move(note)});
}

void Result::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    failures.push_back(what);
  }
}

std::size_t work_units(std::size_t at_30s, const RunConfig& cfg) {
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(std::lround(static_cast<double>(at_30s) *
                                              cfg.seconds / 30.0)));
}

double safety_seconds(const RunConfig& cfg) {
  return std::clamp(3.0 * cfg.seconds, 60.0, 120.0);
}

// -------------------------------------------------------------- statistics

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double tail_percentile(std::size_t n) {
  for (const double p : {99.9, 99.0, 90.0, 75.0, 50.0}) {
    if (static_cast<double>(n) * (100.0 - p) >= 1000.0 - 1e-6) return p;
  }
  return 0.0;
}

void add_latency_metrics(Result& r, const std::string& prefix,
                         const std::vector<double>& samples) {
  std::vector<double> ms;
  ms.reserve(samples.size());
  for (const double s : samples) ms.push_back(s * 1e3);
  const std::string p50 = prefix + "_p50_ms";
  r.add_e2e(p50, median(ms), "ms", ms.size(), "report only");
  const double tp = tail_percentile(ms.size());
  if (tp > 50.0) {
    char name[64];
    std::snprintf(name, sizeof(name), "%s_p%g_ms", prefix.c_str(), tp);
    r.add_e2e(name, percentile(ms, tp), "ms", ms.size(), "report only");
  }
}

// ------------------------------------------------------------------- spans

double ms_per_call(const SpanTotals& t) {
  return t.calls == 0 ? 0.0 : t.seconds * 1e3 / static_cast<double>(t.calls);
}

SpanTotals LibrarySpans::get(const std::string& name) const {
  const auto it = by_name.find(name);
  return it == by_name.end() ? SpanTotals{} : it->second;
}

// --------------------------------------------------------------- telemetry

std::uint64_t Counts::get(const std::string& name) const {
  const auto it = c.find(name);
  return it == c.end() ? 0 : it->second;
}

std::uint64_t Counts::sum(const std::string& prefix,
                          const std::string& suffix) const {
  std::uint64_t total = 0;
  for (const auto& [name, v] : c) {
    if (name.size() >= prefix.size() + suffix.size() &&
        name.compare(0, prefix.size(), prefix) == 0 &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      total += v;
    }
  }
  return total;
}

Counts delta(const hm::telemetry::Snapshot& before,
             const hm::telemetry::Snapshot& after) {
  Counts d;
  for (const auto& [name, v] : after.counters) {
    const auto it = before.counters.find(name);
    d.c[name] = v - (it == before.counters.end() ? 0 : it->second);
  }
  return d;
}

TraceSession::TraceSession(const RunConfig& cfg) : path_(cfg.trace_path) {
  hm::telemetry::set_enabled(true);
  hm::telemetry::trace_start(path_);
}

LibrarySpans TraceSession::finish() {
  hm::telemetry::trace_stop();
  hm::telemetry::set_enabled(false);
  // The library writes one complete event per line:
  // {"name": "<name>", "cat": "hm", "ph": "X", "ts": ..., "dur": <us>, ...
  LibrarySpans spans;
  std::ifstream is(path_);
  std::string line;
  while (std::getline(is, line)) {
    const auto d0 = line.find("\"dur\": ");
    const auto n1 = line.find('"', 10);
    if (line.rfind("{\"name\": \"", 0) != 0 || d0 == std::string::npos ||
        n1 == std::string::npos) {
      continue;
    }
    SpanTotals& t = spans.by_name[line.substr(10, n1 - 10)];
    ++t.calls;
    t.seconds += std::strtod(line.c_str() + d0 + 7, nullptr) * 1e-6;
  }
  return spans;
}

void add_noc_metrics(Result& r, const Counts& c, const LibrarySpans& lib,
                     double sim_seconds) {
  const auto count = [&](const char* name) {
    return static_cast<double>(c.get(name));
  };
  const double steps = count("sim.router_steps");
  const auto per_step = [&](const char* name) {
    return steps == 0 ? 0.0 : count(name) / steps;
  };
  const auto sat = lib.get("sat.search");
  const auto probe = lib.get("sat.probe");
  SpanTotals topo = lib.get("topo.build_full");
  const auto incr = lib.get("topo.build_incremental");
  topo.calls += incr.calls;
  topo.seconds += incr.seconds;
  const double built = count("arena.networks_built");
  const double reused = count("arena.networks_reused");

  r.add_layer("noc.sat_search_ms", ms_per_call(sat), "ms", sat.calls,
              "per find_saturation call");
  r.add_layer("noc.probes", count("sat.probes"), "count");
  r.add_layer("noc.probe_ms", ms_per_call(probe), "ms", probe.calls,
              "per probe");
  r.add_layer("noc.router_steps", steps, "count");
  r.add_layer("noc.flits_routed", count("sim.flits_routed"), "count");
  if (sim_seconds > 0.0 && steps > 0) {
    r.add_layer("noc.ns_per_router_step", sim_seconds * 1e9 / steps, "ns");
  }
  r.add_layer("noc.flits_per_router_step", per_step("sim.flits_routed"),
              "ratio", 0, "useful / attempt");
  r.add_layer("noc.va_stalls_per_step", per_step("sim.va_stall_cycles"),
              "ratio");
  r.add_layer("noc.sa_credit_stalls_per_step", per_step("sim.sa_credit_stalls"),
              "ratio");
  r.add_layer("noc.revokes_per_step", per_step("sim.heads_revoked"), "ratio");
  r.add_layer("noc.topology.build_ms", ms_per_call(topo), "ms", topo.calls,
              "per table build");
  r.add_layer("noc.topology.builds",
              count("topo.full_builds") + count("topo.incremental_builds"),
              "count");
  r.add_layer("noc.arena.build_frac",
              built + reused == 0 ? 0.0 : built / (built + reused), "ratio");
}

double cache_hit_ratio(const Counts& c) {
  const double hits = static_cast<double>(c.sum("cache.shard", ".hits"));
  const double misses = static_cast<double>(c.sum("cache.shard", ".misses"));
  return hits + misses == 0 ? 0.0 : hits / (hits + misses);
}

// ------------------------------------------------------------------ stores

StoreDirs::StoreDirs(
    const RunConfig& cfg, const std::string& name,
    const std::vector<hm::core::EvaluationResult>& archive_values)
    : root_(cfg.work_dir + "/" + name + "-" + std::to_string(::getpid())),
      warm_(root_ + "/warm") {
  std::filesystem::remove_all(root_);
  std::filesystem::create_directories(root_);
  const auto store = hm::store::ResultStore::open(warm_);
  std::uint64_t key = splitmix(cfg.seed ^ 0xa4c41feULL);
  for (std::size_t i = 0; i < kArchiveRecords; ++i) {
    key = splitmix(key);
    store->put(key, archive_values[i % archive_values.size()]);
  }
  store->flush();
}

StoreDirs::~StoreDirs() {
  std::error_code ec;
  std::filesystem::remove_all(root_, ec);
}

std::string StoreDirs::copy() {
  const std::string dir = root_ + "/store" + std::to_string(next_++);
  std::filesystem::copy(warm_, dir,
                        std::filesystem::copy_options::recursive);
  return dir;
}

// ------------------------------------------------------------------ memory

void add_memory_metrics(Result& r) {
  double vm_peak_mb = 0.0, vm_hwm_mb = 0.0;
  std::ifstream is("/proc/self/status");
  std::string line, key;
  while (std::getline(is, line)) {
    double kb = 0.0;
    std::istringstream ls(line);
    ls >> key >> kb;
    if (key == "VmPeak:") vm_peak_mb = kb / 1024.0;
    if (key == "VmHWM:") vm_hwm_mb = kb / 1024.0;
  }
  r.add_e2e("peak_rss_mb", vm_hwm_mb, "MB");
  r.add_e2e("vm_peak_mb", vm_peak_mb, "MB", 0, "report only");
}

// ----------------------------------------------------------------- digests

std::uint64_t fnv1a(const void* data, std::size_t n, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t splitmix(std::uint64_t x) {
  std::uint64_t z = x + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// --------------------------------------------------------------- reference

namespace {
std::string ref_key(const std::string& workload, std::uint64_t seed,
                    const std::string& key) {
  return workload + " " + std::to_string(seed) + " " + key;
}
}  // namespace

void Reference::load(const std::string& path) {
  std::ifstream is(path);
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string workload, key, value;
    std::uint64_t seed = 0;
    if (ls >> workload >> seed >> key >> value) {
      values_[ref_key(workload, seed, key)] = value;
    }
  }
}

std::string Reference::find(const std::string& workload, std::uint64_t seed,
                            const std::string& key) const {
  const auto it = values_.find(ref_key(workload, seed, key));
  return it == values_.end() ? std::string{} : it->second;
}

void check_digest(Result& r, const Reference& ref, const RunConfig& cfg,
                  const std::string& key, const std::string& digest) {
  r.reference.emplace_back(key, digest);
  const std::string want = ref.find(cfg.workload, cfg.seed, key);
  if (want.empty()) {
    r.notes.push_back(key + " " + digest +
                      " (no reference recorded for this seed; "
                      "consistency checks only)");
    return;
  }
  r.check(want == digest,
          key + " " + digest + " differs from reference " + want);
  if (want == digest) r.notes.push_back(key + " " + digest + " = reference");
}

void check_exact_counts(
    Result& r, const Reference& ref, const RunConfig& cfg,
    const std::vector<std::pair<std::string, std::uint64_t>>& counts) {
  // Identify "the same code" by the driver binary's own bytes.
  std::ifstream exe("/proc/self/exe", std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(exe)),
                          std::istreambuf_iterator<char>());
  const std::string tag = hex64(fnv1a(bytes.data(), bytes.size()));
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(cfg.work_dir) / "counts";
  std::error_code ec;
  fs::create_directories(dir, ec);
  // --seconds sizes the work (serve_mixed's traced load), so it is part of
  // the key too.
  char secs[32];
  std::snprintf(secs, sizeof(secs), "%g", cfg.seconds);
  const fs::path file = dir / (cfg.workload + "-" + std::to_string(cfg.seed) +
                               "-s" + secs + "-" + tag + ".txt");
  std::map<std::string, std::uint64_t> earlier;
  {
    std::ifstream is(file);
    std::string name;
    std::uint64_t v = 0;
    while (is >> name >> v) earlier[name] = v;
  }
  const bool have_earlier = !earlier.empty();
  std::ofstream os;
  if (!have_earlier) os.open(file);
  for (const auto& [name, v] : counts) {
    r.reference.emplace_back("count." + name, std::to_string(v));
    if (have_earlier) {
      const auto it = earlier.find(name);
      r.check(it != earlier.end() && it->second == v,
              "exact count " + name + " = " + std::to_string(v) +
                  " differs from an earlier run of this build (" +
                  (it == earlier.end() ? std::string("missing")
                                       : std::to_string(it->second)) +
                  ")");
    } else {
      os << name << ' ' << v << '\n';
    }
    const std::string want = ref.find(cfg.workload, cfg.seed, "count." + name);
    if (!want.empty() && want != std::to_string(v)) {
      r.notes.push_back("count drift: " + name + " = " + std::to_string(v) +
                        ", reference " + want);
    }
  }
  r.notes.push_back(std::string("exact counts ") +
                    (have_earlier ? "compared with an earlier run of this "
                                    "build"
                                  : "recorded for later runs of this build") +
                    " (" + file.string() + ")");
}

}  // namespace hmbench
