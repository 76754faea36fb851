// BENCH_perf.json support: a flat JSON object mapping metric names to
// numbers, so the perf trajectory of the hot paths (ns/cycle, table-build
// time, sweep wall-clock per thread count) is tracked across commits.
// Benches merge their keys into the existing file rather than clobbering
// each other's sections, so running any subset of the perf drivers keeps
// the rest of the file intact.
//
// Path resolution: $HM_PERF_JSON when set, else ./BENCH_perf.json in the
// working directory. The committed baseline at the repo root is rewritten
// only when HM_PERF_JSON names it, never by a plain local run.
#pragma once

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

namespace hm::bench {

inline std::string perf_json_path() {
  if (const char* env = std::getenv("HM_PERF_JSON")) return env;
  return "BENCH_perf.json";
}

/// Parses the flat {"key": number, ...} object this module writes. Ignores
/// anything it does not understand (forward compatible with hand edits).
inline std::map<std::string, double> load_perf_json(const std::string& path) {
  std::map<std::string, double> out;
  std::ifstream is(path);
  if (!is) return out;
  std::string line;
  while (std::getline(is, line)) {
    const auto key_begin = line.find('"');
    if (key_begin == std::string::npos) continue;
    const auto key_end = line.find('"', key_begin + 1);
    if (key_end == std::string::npos) continue;
    const auto colon = line.find(':', key_end);
    if (colon == std::string::npos) continue;
    const std::string key = line.substr(key_begin + 1, key_end - key_begin - 1);
    const char* p = line.c_str() + colon + 1;
    char* end = nullptr;
    const double v = std::strtod(p, &end);
    if (end != p) out[key] = v;
  }
  return out;
}

inline void store_perf_json(const std::string& path,
                            const std::map<std::string, double>& m) {
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "perf_json: cannot write %s\n", path.c_str());
    return;
  }
  os << "{\n";
  std::size_t i = 0;
  for (const auto& [k, v] : m) {
    // Integral values (work counts) print exactly; timings keep 6 digits.
    char buf[64];
    std::snprintf(buf, sizeof(buf),
                  v == std::floor(v) && std::fabs(v) < 1e15 ? "%.0f" : "%.6g",
                  v);
    os << "  \"" << k << "\": " << buf
       << (++i < m.size() ? ",\n" : "\n");
  }
  os << "}\n";
}

/// Merges `updates` into the perf JSON at the default path and reports
/// where it landed.
inline void update_perf_json(const std::map<std::string, double>& updates) {
  const std::string path = perf_json_path();
  auto m = load_perf_json(path);
  for (const auto& [k, v] : updates) m[k] = v;
  store_perf_json(path, m);
  std::printf("\nperf metrics updated: %s (%zu keys)\n", path.c_str(),
              updates.size());
}

}  // namespace hm::bench
