// hmbench: the end-to-end benchmark driver of the HexaMesh stack.
//
//   hmbench --workload NAME --seed N --seconds S --trace 0|1
//           [--ref reference.txt] [--work-dir DIR] [--commit SHA] [--record]
//
// Prints a human-readable report (every metric with its unit and sample
// count, host and build facts, notes and failures) followed by one JSON
// line: {"correct", "attempted", "failed", "metrics"} holding every metric
// the run measured (end-to-end ones untraced, per-layer ones traced).
// hmbench/run.py builds this binary, is the supported entry point, and
// narrows the metrics to the lists in BENCHMARK.json.
#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "util.hpp"
#include "workloads.hpp"

namespace {

using hmbench::Metric;
using hmbench::Result;

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "hmbench: %s\nusage: hmbench --workload "
               "sweep_fig7|search_tempering|serve_mixed|latency_scale --seed N "
               "--seconds S --trace 0|1 [--ref FILE] [--work-dir DIR] "
               "[--commit SHA] [--record]\n",
               msg);
  std::exit(2);
}

void print_metric(const Metric& m) {
  std::printf("  %-30s %14.6g %-6s", m.name.c_str(), m.value, m.unit.c_str());
  if (m.samples > 0) std::printf(" n=%zu", m.samples);
  if (!m.note.empty()) std::printf("  [%s]", m.note.c_str());
  std::printf("\n");
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);
  hmbench::RunConfig cfg;
  std::string ref_path = "hmbench/reference.txt";
  std::string commit = "unknown";
  bool have_seed = false, have_seconds = false, have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        cfg.workload = value();
        have_workload = true;
      } else if (a == "--seed") {
        cfg.seed = std::stoull(value());
        have_seed = true;
      } else if (a == "--seconds") {
        cfg.seconds = std::stod(value());
        have_seconds = true;
      } else if (a == "--trace") {
        cfg.trace = value() == "1";
      } else if (a == "--ref") {
        ref_path = value();
      } else if (a == "--work-dir") {
        cfg.work_dir = value();
      } else if (a == "--commit") {
        commit = value();
      } else if (a == "--record") {
        cfg.record = true;
      } else {
        usage(("unknown argument " + a).c_str());
      }
    } catch (const std::exception&) {
      usage(("bad value for " + a).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || cfg.seconds <= 0) {
    usage("--workload, --seed and --seconds are required");
  }
  if (cfg.record) cfg.trace = true;

  // Build facts. Numbers from assertion or sanitizer builds must never be
  // reported: refuse to run.
#ifdef NDEBUG
  const bool assertions = false;
#else
  const bool assertions = true;
#endif
  std::string sanitizers = HMBENCH_SANITIZE;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  if (sanitizers.empty()) sanitizers = "compiler-detected";
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  if (sanitizers.empty()) sanitizers = "compiler-detected";
#endif
#endif
  if (assertions || !sanitizers.empty()) {
    std::fprintf(stderr,
                 "hmbench: REFUSED: this build has %s; benchmark numbers "
                 "come from optimized builds only\n",
                 assertions ? "assertions enabled (no NDEBUG)"
                            : ("sanitizers (" + sanitizers + ")").c_str());
    return 3;
  }

  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  cfg.threads = std::min(4u, nproc);
  if (cfg.work_dir.empty()) cfg.work_dir = ".bench_build/run";
  std::filesystem::create_directories(cfg.work_dir);
  cfg.trace_path = cfg.work_dir + "/trace-" + cfg.workload + "-seed" +
                   std::to_string(cfg.seed) + ".json";
  hmbench::Reference ref;
  ref.load(ref_path);

  Result r;
  try {
    if (cfg.workload == "sweep_fig7") {
      r = hmbench::run_sweep_fig7(cfg, ref);
    } else if (cfg.workload == "latency_scale") {
      r = hmbench::run_latency_scale(cfg, ref);
    } else if (cfg.workload == "search_tempering") {
      r = hmbench::run_search_tempering(cfg, ref);
    } else if (cfg.workload == "serve_mixed") {
      r = hmbench::run_serve_mixed(cfg, ref);
    } else {
      usage(("unknown workload " + cfg.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hmbench: %s aborted: %s\n", cfg.workload.c_str(),
                 e.what());
    return 1;
  }

  // --record is a traced run that prints the digests and exact counts it
  // saw as reference.txt lines instead of the report.
  if (cfg.record) {
    for (const auto& [key, value] : r.reference) {
      std::printf("%s %llu %s %s\n", cfg.workload.c_str(),
                  static_cast<unsigned long long>(cfg.seed), key.c_str(),
                  value.c_str());
    }
    return r.failed == 0 ? 0 : 1;
  }

  std::printf("hmbench %s seed=%llu seconds=%g trace=%d\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.seconds, cfg.trace ? 1 : 0);
  std::printf("host: nproc=%u threads=%u compiler=\"%s\" build=%s "
              "assertions=off sanitizers=none commit=%s\n",
              nproc, cfg.threads, __VERSION__, HMBENCH_BUILD_TYPE,
              commit.c_str());
  std::printf("end-to-end%s:\n", cfg.trace ? " (traced run, not gated)" : "");
  for (const auto& m : r.e2e) print_metric(m);
  const double fail_frac =
      r.attempted == 0 ? 0.0
                       : static_cast<double>(r.failed) /
                             static_cast<double>(r.attempted);
  std::printf("  %-30s %14.6g %-6s (%llu of %llu operations)\n", "fail_frac",
              fail_frac, "ratio", static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.attempted));
  if (cfg.trace) {
    std::printf("per-layer:\n");
    for (const auto& m : r.layer) print_metric(m);
    std::printf("trace: %s (open in https://ui.perfetto.dev)\n",
                cfg.trace_path.c_str());
  }
  for (const auto& n : r.notes) std::printf("note: %s\n", n.c_str());
  for (std::size_t i = 0; i < r.failures.size() && i < 20; ++i) {
    std::printf("FAILED: %s\n", r.failures[i].c_str());
  }

  std::string json = "{\"correct\": ";
  json += r.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& m : cfg.trace ? r.layer : r.e2e) {
    json.append(first ? "\"" : ", \"").append(m.name);
    json.append("\": {\"value\": ").append(json_number(m.value));
    json.append(", \"unit\": \"").append(m.unit).append("\"}");
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
