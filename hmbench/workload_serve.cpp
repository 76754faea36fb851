// serve_mixed: an in-process hm_server on a Unix socket, driven by a closed
// loop of four client connections sending kEvaluate requests.
//
// Keys are (family, N in [4, 12], simulator seed). A seeded hot set of 3 x 9
// keys is evaluated once per run and its warm store directory is copied in at
// every set-up, so hot requests are store hits the first time and memory hits
// after (the warm store also holds archive records, see StoreDirs); Zipf(1)
// over a seeded ranking of the hot set picks them. Client 0 makes every 100th
// request a cold miss with a fresh seed and a (family, N) from a seeded cycle:
// any nine consecutive misses cover every N once and 27 cover every
// combination, so the cost of the misses a run completes does not depend on the
// seed's luck. One client sending the misses keeps them from overlapping each
// other (the dispatcher runs one batch at a time, so overlapping misses would
// make throughput depend on chance coincidences); hits that arrive during a
// miss wait for it, which the hit tail shows. Client 0 also reconnects for
// every request, as hm_client does, so the number of leaked server threads per
// run is fixed by the miss cycle rather than by how fast hits happen to go; the
// other three keep a connection per load segment.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <thread>

#include "core/arrangement.hpp"
#include "core/evaluator.hpp"
#include "explore/cached_eval.hpp"
#include "explore/result_cache.hpp"
#include "explore/thread_pool.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "store/record.hpp"
#include "store/result_store.hpp"
#include "workloads.hpp"

namespace hmbench {
namespace {

namespace srv = hm::server;
using hm::core::ArrangementType;

constexpr std::array<ArrangementType, 3> kFamilies = {
    ArrangementType::kGrid, ArrangementType::kBrickwall,
    ArrangementType::kHexaMesh};
constexpr std::size_t kMinN = 4;
constexpr std::size_t kCombos = kFamilies.size() * 9;  // N in [4, 12]
constexpr std::size_t kClients = 4;
/// Client 0 sends the misses and reconnects for every request.
constexpr std::size_t kColdClient = 0;
constexpr std::size_t kMissEvery = 100;
/// Client 0 stops after this many miss cycles in a 30 s run (see
/// work_units), and the others stop with it: the load is a fixed amount of
/// work, about 20 s here, so the leaked-thread count, and with it the
/// resident set, does not vary with host speed.
constexpr std::size_t kMissCycles = 36;
/// Segments of the load (see run_load), about 1.7 s each here, so that the
/// set-ups timed between them sample the host all through the run.
constexpr std::size_t kSegments = 12;
constexpr std::size_t kDigestCold = 4;

struct Key {
  ArrangementType type = ArrangementType::kGrid;
  std::uint64_t n = 0;
  std::uint64_t seed = 0;
};

Key combo_key(std::size_t combo, std::uint64_t seed) {
  return {kFamilies[combo / 9], kMinN + combo % 9, seed};
}

/// Seeded Fisher-Yates permutation of [0, n).
std::vector<std::size_t> permutation(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> p(n);
  for (std::size_t i = 0; i < n; ++i) p[i] = i;
  std::uint64_t s = seed;
  for (std::size_t i = n; i > 1; --i) {
    s = splitmix(s);
    std::swap(p[i - 1], p[s % i]);
  }
  return p;
}

/// Every input the run sends, derived from the workload seed only.
struct Inputs {
  std::vector<Key> hot;                ///< in Zipf rank order
  std::vector<double> zipf_cdf;        ///< over hot ranks
  std::vector<std::size_t> cold_n;     ///< N order of the cold cycle

  explicit Inputs(std::uint64_t seed) {
    // The hot simulator seed keeps the top bit clear, cold ones set it.
    const std::uint64_t hot_seed =
        splitmix(seed * 7919) & ~(std::uint64_t{1} << 63);
    for (const std::size_t c : permutation(kCombos, splitmix(seed))) {
      hot.push_back(combo_key(c, hot_seed));
    }
    double total = 0.0;
    for (std::size_t r = 0; r < hot.size(); ++r) total += 1.0 / double(r + 1);
    double acc = 0.0;
    for (std::size_t r = 0; r < hot.size(); ++r) {
      acc += 1.0 / double(r + 1) / total;
      zipf_cdf.push_back(acc);
    }
    cold_n = permutation(9, splitmix(seed ^ 0xc01dULL));
  }

  /// The j-th cold key.
  [[nodiscard]] Key cold(std::uint64_t seed, std::size_t j) const {
    const std::uint64_t s =
        splitmix(splitmix(seed ^ 0xc01dULL) + j) | (std::uint64_t{1} << 63);
    const std::size_t n = cold_n[j % 9];
    const std::size_t family = (j / 9 + n) % kFamilies.size();
    return combo_key(family * 9 + n, s);
  }
};

hm::core::EvaluationParams params_for(const Key& k) {
  hm::core::EvaluationParams p;  // the server's defaults
  p.sim.seed = k.seed;
  return p;
}

std::string encode(const hm::core::EvaluationResult& r) {
  std::vector<std::uint8_t> b;
  hm::store::encode_result(r, b);
  return std::string(b.begin(), b.end());
}

/// Evaluates `keys` in-process through `cache` on a pool; returns bodies.
std::vector<std::string> evaluate_keys(const std::vector<Key>& keys,
                                       hm::explore::ResultCache* cache,
                                       unsigned threads) {
  std::vector<std::string> bodies(keys.size());
  hm::explore::ThreadPool pool(threads);
  std::vector<std::function<void()>> jobs;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    jobs.push_back([&, i] {
      const auto arr = hm::core::make_arrangement(keys[i].type, keys[i].n);
      bodies[i] = encode(hm::explore::cached_evaluate(
          arr, params_for(keys[i]), {}, cache));
    });
  }
  pool.run_batch(jobs);
  return bodies;
}

/// The keys whose reply bodies make up the output digest: the hot set and
/// the first cold keys.
std::vector<Key> digest_keys(const Inputs& in, std::uint64_t seed) {
  std::vector<Key> keys = in.hot;
  for (std::size_t j = 0; j < kDigestCold; ++j) keys.push_back(in.cold(seed, j));
  return keys;
}

std::string bodies_digest(const std::vector<std::string>& bodies) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& b : bodies) {
    const std::uint64_t n = b.size();
    h = fnv1a(&n, sizeof(n), h);
    h = fnv1a(b.data(), b.size(), h);
  }
  return hex64(h);
}

// ------------------------------------------------------------------ client

int connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

struct Sample {
  double seconds = 0.0;
  bool cold = false;
};

struct ClientStats {
  std::vector<Sample> samples;
  std::vector<double> connect_s;
  std::vector<double> protocol_s;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
};

/// One request/reply exchange. Returns the reply body, or nullopt (with
/// the reason in *why) on a transport or status failure.
std::optional<std::string> exchange(int fd, const Key& k, ClientStats* st,
                                    std::string* why) {
  const auto t0 = Clock::now();
  srv::EvaluateRequest req;
  req.type = k.type;
  req.chiplet_count = k.n;
  req.seed = k.seed;
  std::vector<std::uint8_t> payload, frame;
  srv::encode_evaluate_request(req, payload);
  srv::encode_frame(srv::kRequestMagic, srv::Command::kEvaluate, payload,
                    frame);
  double protocol = seconds_since(t0);
  if (!srv::write_all(fd, frame.data(), frame.size())) {
    *why = "write failed";
    return std::nullopt;
  }
  srv::FrameHeader hdr;
  std::vector<std::uint8_t> reply;
  if (srv::read_frame(fd, srv::kReplyMagic, &hdr, &reply) !=
      srv::ReadResult::kOk) {
    *why = "reply frame not read";
    return std::nullopt;
  }
  const auto t1 = Clock::now();
  const auto view = srv::parse_reply_payload(reply.data(), reply.size());
  std::string body;
  if (view) {
    body.assign(reinterpret_cast<const char*>(view->body), view->body_size);
  }
  protocol += seconds_since(t1);
  st->protocol_s.push_back(protocol);
  if (!view || view->status != srv::Status::kOk) {
    *why = view ? "status " + std::to_string(static_cast<int>(view->status))
                : std::string("unparsable reply");
    return std::nullopt;
  }
  return body;
}

struct LoadResult {
  std::vector<ClientStats> clients;
  double wall_s = 0.0;
};

/// Runs the closed loop until client 0 has sent `cycles` misses; checks
/// every hot reply against `hot_bodies`, the benchmark's own evaluation of
/// the hot keys. The load runs in kSegments segments on the same server:
/// after each one the clients pause and `between_segments` runs, untimed
/// (the measured run times set-ups there, so that setup_s samples the host
/// over the whole run). Past the safety stop the clients quit, and each
/// counts the stop as a failure.
LoadResult run_load(const std::string& sock, const Inputs& in,
                    std::uint64_t seed,
                    const std::vector<std::string>& hot_bodies,
                    std::size_t cycles, double safety_s,
                    const std::function<void()>& between_segments) {
  LoadResult out;
  out.clients.resize(kClients);
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(safety_s));
  std::array<std::uint64_t, kClients> rng;
  for (std::size_t c = 0; c < kClients; ++c) {
    rng[c] = splitmix(seed ^ (0xa11ceULL + c));
  }
  const std::size_t segments = std::min(kSegments, cycles);
  std::size_t cold_j = 0;  // client 0's next cold key
  for (std::size_t seg = 0; seg < segments; ++seg) {
    const std::size_t seg_cycles = cycles * (seg + 1) / segments - cold_j;
    const auto t0 = Clock::now();
    std::atomic<bool> done{false};
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        ClientStats& st = out.clients[c];
        const std::size_t requests =
            c == kColdClient ? kMissEvery * seg_cycles : SIZE_MAX;
        const bool reconnect = c == kColdClient;
        int fd = reconnect ? -1 : connect_unix(sock);
        for (std::size_t i = 0;
             i < requests && !done.load(std::memory_order_relaxed); ++i) {
          if (Clock::now() >= deadline) {
            ++st.failed;
            st.failures.push_back("client " + std::to_string(c) +
                                  ": safety stop before the load finished");
            break;
          }
          const bool cold = c == kColdClient && i % kMissEvery == 0;
          std::size_t rank = 0;
          Key k;
          if (cold) {
            k = in.cold(seed, cold_j++);
          } else {
            rng[c] = splitmix(rng[c]);
            const double u = static_cast<double>(rng[c] >> 11) * 0x1.0p-53;
            rank = static_cast<std::size_t>(
                std::lower_bound(in.zipf_cdf.begin(), in.zipf_cdf.end(), u) -
                in.zipf_cdf.begin());
            rank = std::min(rank, in.hot.size() - 1);
            k = in.hot[rank];
          }
          Span span(cold ? "bench.client.miss" : "bench.client.hit");
          const auto q0 = Clock::now();
          if (reconnect) {
            Span cs("bench.client.connect");
            fd = connect_unix(sock);
            st.connect_s.push_back(seconds_since(q0));
          }
          ++st.attempted;
          std::string why;
          std::optional<std::string> body;
          if (fd >= 0) body = exchange(fd, k, &st, &why);
          else why = "connect failed";
          const double lat = seconds_since(q0);
          if (reconnect && fd >= 0) {
            ::close(fd);
            fd = -1;
          }
          if (!body) {
            ++st.failed;
            st.failures.push_back("client " + std::to_string(c) + ": " + why);
            if (!reconnect) {
              if (fd >= 0) ::close(fd);
              fd = connect_unix(sock);
            }
            continue;
          }
          if (!cold && *body != hot_bodies[rank]) {
            ++st.failed;
            st.failures.push_back("hot key reply differs from its evaluation");
          }
          st.samples.push_back({lat, cold});
        }
        if (fd >= 0) ::close(fd);
        if (c == kColdClient) done.store(true, std::memory_order_relaxed);
      });
    }
    for (auto& t : threads) t.join();
    out.wall_s += seconds_since(t0);
    if (Clock::now() >= deadline) break;
    if (between_segments) between_segments();
  }
  return out;
}

/// Fetches the digest keys over one connection (not timed).
std::vector<std::string> fetch(const std::string& sock,
                               const std::vector<Key>& keys, Result& r) {
  std::vector<std::string> bodies;
  ClientStats st;
  const int fd = connect_unix(sock);
  for (const Key& k : keys) {
    std::string why = "connect failed";
    std::optional<std::string> body;
    if (fd >= 0) body = exchange(fd, k, &st, &why);
    r.check(body.has_value(), "digest fetch: " + why);
    bodies.push_back(body.value_or(""));
  }
  if (fd >= 0) ::close(fd);
  return bodies;
}

// ------------------------------------------------------------------ set-up

/// Analytic-only results of every (family, N): the archive records' values.
std::vector<hm::core::EvaluationResult> analytic_results() {
  std::vector<hm::core::EvaluationResult> out;
  for (std::size_t combo = 0; combo < kCombos; ++combo) {
    const Key k = combo_key(combo, 0);
    out.push_back(hm::core::evaluate_analytic(
        hm::core::make_arrangement(k.type, k.n), {}));
  }
  return out;
}

/// The run's inputs and its warm store: the archive plus the hot set.
struct Fixture {
  StoreDirs dirs;
  Inputs inputs;
  std::vector<std::string> hot_bodies;

  explicit Fixture(const RunConfig& cfg)
      : dirs(cfg, "serve", analytic_results()), inputs(cfg.seed) {
    hm::explore::ResultCache cache;
    cache.attach_store(hm::store::ResultStore::open(dirs.warm()));
    hot_bodies = evaluate_keys(inputs.hot, &cache, cfg.threads);
    cache.flush_to_store();
  }
};

struct Running {
  std::unique_ptr<srv::Server> server;
  std::string sock;
};

/// One set-up: store pre-population and opening, pool, server start.
Running set_up(Fixture& fx, const RunConfig& cfg,
               std::vector<double>* samples) {
  const auto t0 = Clock::now();
  Running run;
  srv::ServerOptions so;
  so.cache_dir = fx.dirs.copy();
  run.sock = so.cache_dir + ".sock";
  so.unix_path = run.sock;
  so.threads = cfg.threads;
  run.server = std::make_unique<srv::Server>(so);
  run.server->start();
  samples->push_back(seconds_since(t0));
  return run;
}

void tear_down(Running& run) {
  if (run.server) run.server->stop();
  run.server.reset();
}

void fold(Result& r, const LoadResult& load, std::vector<double>* hit,
          std::vector<double>* miss, std::size_t* completed) {
  for (const auto& st : load.clients) {
    r.attempted += st.attempted;
    r.failed += st.failed;
    for (std::size_t i = 0; i < st.failures.size() && i < 5; ++i) {
      r.failures.push_back(st.failures[i]);
    }
    for (const auto& s : st.samples) (s.cold ? miss : hit)->push_back(s.seconds);
    *completed += st.samples.size();
  }
}

void check_digest_keys(Result& r, const Reference& ref, const RunConfig& cfg,
                       const std::string& sock, const Inputs& in) {
  const auto bodies = fetch(sock, digest_keys(in, cfg.seed), r);
  check_digest(r, ref, cfg, "digest.replies", bodies_digest(bodies));
}

// --------------------------------------------------------------- workloads

Result measure(const RunConfig& cfg, const Reference& ref) {
  Result r;
  Fixture fx(cfg);
  std::vector<double> setup;
  const std::size_t cycles = work_units(kMissCycles, cfg);
  const int per_group = setups_per_group(std::min(kSegments, cycles) + 1);
  // Set-ups of a second server on its own store copy, timed before the load
  // and at the end of each load segment, while the loaded server is idle.
  const auto timed_setups = [&] {
    for (int i = 0; i < per_group; ++i) {
      Running other = set_up(fx, cfg, &setup);
      tear_down(other);
    }
  };
  timed_setups();
  Running run = set_up(fx, cfg, &setup);
  const auto before = run.server->stats_snapshot();
  const LoadResult load =
      run_load(run.sock, fx.inputs, cfg.seed, fx.hot_bodies, cycles,
               safety_seconds(cfg), timed_setups);
  const auto after = run.server->stats_snapshot();
  std::vector<double> hit, miss;
  std::size_t completed = 0;
  fold(r, load, &hit, &miss, &completed);
  check_digest_keys(r, ref, cfg, run.sock, fx.inputs);
  const double rate = static_cast<double>(completed) / load.wall_s;
  tear_down(run);

  r.add_e2e("setup_s", median(setup), "s", setup.size());
  r.add_e2e("evals_per_s", rate, "1/s", completed,
            "evaluate requests answered per second (= req_per_s)");
  add_memory_metrics(r);
  add_latency_metrics(r, "hit", hit);
  add_latency_metrics(r, "miss", miss);
  r.add_e2e("req_per_s", rate, "1/s", completed, "report only");
  std::size_t connects = 0;
  for (const auto& st : load.clients) connects += st.connect_s.size();
  r.add_e2e("connections", static_cast<double>(connects), "count", 0,
            "report only; each leaks a server thread");
  r.add_e2e("server.rejects", static_cast<double>(after.rejects -
                                                  before.rejects),
            "count", 0, "report only");
  return r;
}

Result traced(const RunConfig& cfg, const Reference& ref) {
  Result r;
  Fixture fx(cfg);
  std::vector<double> setup, hit, miss;
  std::size_t completed = 0;
  const std::size_t cycles = work_units(kMissCycles, cfg);

  // A: untraced load, the baseline of the tracing overhead.
  Running run = set_up(fx, cfg, &setup);
  LoadResult load = run_load(run.sock, fx.inputs, cfg.seed, fx.hot_bodies,
                             cycles, safety_seconds(cfg), nullptr);
  fold(r, load, &hit, &miss, &completed);
  const double rate_untraced = static_cast<double>(completed) / load.wall_s;
  tear_down(run);

  // B: the same load with telemetry, library spans and client spans.
  TraceSession session(cfg);
  run = set_up(fx, cfg, &setup);
  const auto s0 = hm::telemetry::snapshot();
  const auto st0 = run.server->stats_snapshot();
  load = run_load(run.sock, fx.inputs, cfg.seed, fx.hot_bodies, cycles,
                  safety_seconds(cfg), nullptr);
  const auto st1 = run.server->stats_snapshot();
  const Counts c = delta(s0, hm::telemetry::snapshot());
  hit.clear();
  miss.clear();
  completed = 0;
  fold(r, load, &hit, &miss, &completed);
  const double rate_traced = static_cast<double>(completed) / load.wall_s;
  check_digest_keys(r, ref, cfg, run.sock, fx.inputs);

  // A cold reply must equal an uncached in-process evaluation.
  {
    const Key k = fx.inputs.cold(cfg.seed, 0);
    const auto got = fetch(run.sock, {k}, r);
    const auto arr = hm::core::make_arrangement(k.type, k.n);
    r.check(!got.empty() &&
                got[0] == encode(hm::core::evaluate(arr, params_for(k))),
            "cold reply differs from a direct evaluate()");
  }
  tear_down(run);

  // Benchmark-side calls into the store and explore layers.
  std::vector<double> open_ms, lookup_us, cache_hit_us, flush_ms;
  for (int i = 0; i < kSetups; ++i) {
    const std::string dir = fx.dirs.copy();
    Span s("bench.store.open");
    const auto t0 = Clock::now();
    auto store = hm::store::ResultStore::open(dir);
    open_ms.push_back(seconds_since(t0) * 1e3);
    r.check(store->entry_count() > 0, "pre-populated store opened empty");
  }
  {
    const std::string dir = fx.dirs.copy();
    auto store = hm::store::ResultStore::open(dir);
    hm::explore::ResultCache cache;
    cache.attach_store(store);
    for (int pass = 0; pass < 20; ++pass) {
      for (std::size_t i = 0; i < fx.inputs.hot.size(); ++i) {
        const Key& k = fx.inputs.hot[i];
        const auto arr = hm::core::make_arrangement(k.type, k.n);
        Span s(pass == 0 ? "bench.store.lookup" : "bench.explore.cache_hit");
        const auto t0 = Clock::now();
        const auto res =
            hm::explore::cached_evaluate(arr, params_for(k), {}, &cache);
        (pass == 0 ? lookup_us : cache_hit_us)
            .push_back(seconds_since(t0) * 1e6);
        if (pass == 0) {
          r.check(encode(res) == fx.hot_bodies[i],
                  "store-tier evaluation differs from the warm result");
        }
      }
    }
    for (int i = 0; i < 3; ++i) {
      auto fresh = hm::store::ResultStore::open(fx.dirs.root() + "/flush" +
                                                std::to_string(i));
      fresh->merge_from(*store);
      Span s("bench.store.flush");
      const auto t0 = Clock::now();
      fresh->flush();
      flush_ms.push_back(seconds_since(t0) * 1e3);
    }
  }
  {
    for (std::size_t combo = 0; combo < kCombos; ++combo) {
      const Key k = combo_key(combo, 0);
      const auto arr = hm::core::make_arrangement(k.type, k.n);
      Span s("bench.core.analytic");
      const auto a = hm::core::evaluate_analytic(arr, {});
      r.check(a.chiplet_count == k.n, "analytic evaluation of a key");
    }
  }

  const LibrarySpans lib = session.finish();
  // Only the misses simulate, and the miss keys are fixed, so these repeat
  // exactly; topology builds do not (they depend on which worker's arena
  // still holds a graph).
  check_exact_counts(r, ref, cfg,
                     {{"noc.probes", c.get("sat.probes")},
                      {"noc.router_steps", c.get("sim.router_steps")},
                      {"noc.flits_routed", c.get("sim.flits_routed")}});
  const auto mean = [](const std::vector<double>& v) {
    double s = 0.0;
    for (const double x : v) s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
  };
  std::vector<double> connect_s, protocol_s;
  for (const auto& st : load.clients) {
    connect_s.insert(connect_s.end(), st.connect_s.begin(), st.connect_s.end());
    protocol_s.insert(protocol_s.end(), st.protocol_s.begin(),
                      st.protocol_s.end());
  }
  const auto analytic = lib.get("bench.core.analytic");
  const double batches = static_cast<double>(st1.batches - st0.batches);
  const double hit_p50_us = median(hit) * 1e6;

  // Latency runs inside the server have no span, so the host time per
  // router step is not known here.
  add_noc_metrics(r, c, lib, 0.0);
  r.add_layer("core.analytic_ms", ms_per_call(analytic), "ms", analytic.calls,
              "per evaluate_analytic over the 27 (family, N) keys");
  r.add_layer("explore.cache.hit_ratio", cache_hit_ratio(c), "ratio", 0,
              "server cache during the traced load");
  r.add_layer("explore.cache_hit_us", median(cache_hit_us), "us",
              cache_hit_us.size(), "cached_evaluate, warm memory cache");
  r.add_layer("store.open_ms", median(open_ms), "ms", open_ms.size());
  r.add_layer("store.lookup_us", median(lookup_us), "us", lookup_us.size(),
              "cached_evaluate served by the store tier");
  r.add_layer("store.flush_ms", median(flush_ms), "ms", flush_ms.size(),
              "the whole pre-populated store into a fresh directory");
  r.add_layer("store.hits", static_cast<double>(c.get("store.hits")), "count");
  r.add_layer("server.req_per_batch",
              batches == 0 ? 0.0
                           : static_cast<double>(st1.requests - st0.requests) /
                                 batches,
              "ratio");
  r.add_layer("server.rejects", static_cast<double>(st1.rejects - st0.rejects),
              "count");
  r.add_layer("server.protocol_us", mean(protocol_s) * 1e6, "us",
              protocol_s.size(), "client frame encode + decode, mean");
  r.add_layer("server.connect_us", mean(connect_s) * 1e6, "us",
              connect_s.size(), "reconnecting client, mean");
  r.add_layer("server.overhead_us", hit_p50_us - median(cache_hit_us), "us", 0,
              "hit_p50 - explore.cache_hit_us");
  r.add_layer("trace.overhead_ratio", rate_traced / rate_untraced, "ratio", 0,
              "traced / untraced req_per_s");
  return r;
}

}  // namespace

Result run_serve_mixed(const RunConfig& cfg, const Reference& ref) {
  return cfg.trace ? traced(cfg, ref) : measure(cfg, ref);
}

}  // namespace hmbench
