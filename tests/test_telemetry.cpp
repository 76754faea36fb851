// Flight-recorder telemetry contracts (src/telemetry/):
//
//   * concurrent writers on shared handles merge exactly (counters sum,
//     gauges max, histogram buckets sum) — and do so TSan-clean, which the
//     sanitizer CI matrix re-runs this suite to prove;
//   * histogram bucket edges are inclusive on the bound, with one overflow
//     bucket past the last bound;
//   * disabled telemetry drops increments (the no-op fast path);
//   * the Chrome tracer emits well-formed trace_event JSON with one
//     complete "X" event per finished span across threads;
//   * and the headline rule — telemetry never perturbs simulation — by
//     re-running the committed golden sweep with the registry *and* the
//     tracer armed at 1/4/8 threads and requiring byte-identical exports,
//     while the library's own histograms (sweep.job_us, sat.probe_us)
//     record one sample per job and per probe.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/evaluator.hpp"
#include "explore/export.hpp"
#include "explore/sweep.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"

namespace {

namespace tel = hm::telemetry;

#ifndef HM_GOLDEN_DIR
#define HM_GOLDEN_DIR "tests/golden"
#endif

/// Every test runs on zeroed slots with the switch restored afterwards, so
/// suite order (and HM_TELEMETRY in the environment) cannot leak between
/// tests.
class Telemetry : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = tel::enabled();
    tel::reset_for_test();
  }
  void TearDown() override {
    tel::set_enabled(was_enabled_);
    tel::reset_for_test();
  }

 private:
  bool was_enabled_ = false;
};

TEST_F(Telemetry, ConcurrentWritersMergeExactly) {
  tel::set_enabled(true);
  tel::Counter counter("test.concurrent.count");
  tel::Gauge gauge("test.concurrent.hwm");
  tel::Histogram hist("test.concurrent.hist", {10, 100});

  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kAddsPerThread; ++i) {
        counter.add();
        // Per-thread high-water; the snapshot max is the global max.
        gauge.set_max(static_cast<std::uint64_t>(t * 1000 + i % 7));
        hist.record(static_cast<std::uint64_t>(i % 3 == 0 ? 5 : 50));
      }
    });
  }
  // Half the threads finish before the snapshot-relevant joins complete,
  // exercising the exited-thread fold into the retired accumulator.
  for (auto& th : threads) th.join();

  const tel::Snapshot snap = tel::snapshot();
  EXPECT_EQ(snap.counters.at("test.concurrent.count"),
            static_cast<std::uint64_t>(kThreads) * kAddsPerThread);
  EXPECT_EQ(snap.gauges.at("test.concurrent.hwm"),
            static_cast<std::uint64_t>((kThreads - 1) * 1000 + 6));
  const auto& h = snap.histograms.at("test.concurrent.hist");
  ASSERT_EQ(h.buckets.size(), 3u);  // <=10, <=100, overflow
  const std::uint64_t total = static_cast<std::uint64_t>(kThreads) *
                              kAddsPerThread;
  EXPECT_EQ(h.count, total);
  EXPECT_EQ(h.buckets[0] + h.buckets[1], total);
  EXPECT_EQ(h.buckets[2], 0u);
}

TEST_F(Telemetry, HistogramBucketEdgesAreInclusive) {
  tel::set_enabled(true);
  tel::Histogram hist("test.edges", {10, 20});
  hist.record(0);   // bucket 0 (v <= 10)
  hist.record(10);  // bucket 0: the bound itself is inside
  hist.record(11);  // bucket 1 (v <= 20)
  hist.record(20);  // bucket 1
  hist.record(21);  // overflow
  const auto h = tel::snapshot().histograms.at("test.edges");
  ASSERT_EQ(h.bounds, (std::vector<std::uint64_t>{10, 20}));
  ASSERT_EQ(h.buckets.size(), 3u);
  EXPECT_EQ(h.buckets[0], 2u);
  EXPECT_EQ(h.buckets[1], 2u);
  EXPECT_EQ(h.buckets[2], 1u);
  EXPECT_EQ(h.count, 5u);
  EXPECT_EQ(h.sum, 0u + 10 + 11 + 20 + 21);
}

TEST_F(Telemetry, DisabledDropsIncrements) {
  tel::set_enabled(false);
  tel::Counter counter("test.disabled.count");
  tel::Gauge gauge("test.disabled.hwm");
  tel::Histogram hist("test.disabled.hist", {10});
  counter.add(1000);
  gauge.set_max(1000);
  hist.record(1000);
  const tel::Snapshot snap = tel::snapshot();
  EXPECT_EQ(snap.counters.at("test.disabled.count"), 0u);
  EXPECT_EQ(snap.gauges.at("test.disabled.hwm"), 0u);
  EXPECT_EQ(snap.histograms.at("test.disabled.hist").count, 0u);
}

TEST_F(Telemetry, SnapshotJsonIsStructured) {
  tel::set_enabled(true);
  tel::Counter counter("test.json.count");
  counter.add(3);
  const std::string json = tel::snapshot_json();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"test.json.count\": 3"), std::string::npos);
}

TEST_F(Telemetry, TraceFileIsWellFormedAcrossThreads) {
  const std::string path = "test_telemetry_trace.json";
  ASSERT_TRUE(tel::trace_start(path));
  EXPECT_TRUE(tel::tracing());
  EXPECT_FALSE(tel::trace_start(path)) << "double-arm must be rejected";

  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 8;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        tel::Span outer("test.outer");
        tel::Span inner("test.inner");  // nested: ends before outer
      }
    });
  }
  for (auto& th : threads) th.join();

  ASSERT_TRUE(tel::trace_stop());
  EXPECT_FALSE(tel::tracing());
  EXPECT_FALSE(tel::trace_stop()) << "second stop must report inactive";

  std::ifstream is(path, std::ios::binary);
  ASSERT_TRUE(is.good());
  std::ostringstream os;
  os << is.rdbuf();
  const std::string body = os.str();
  std::remove(path.c_str());

  EXPECT_EQ(body.rfind("{\"traceEvents\": [", 0), 0u)
      << "file must open the traceEvents array";
  EXPECT_NE(body.find("]}"), std::string::npos);
  // One complete X event per finished span, every one carrying the full
  // key set (the checker tools/check_trace.py revalidates this shape on
  // the real design_sweep trace in CI).
  std::size_t events = 0;
  for (std::size_t pos = body.find("\"ph\": \"X\""); pos != std::string::npos;
       pos = body.find("\"ph\": \"X\"", pos + 1)) {
    ++events;
  }
  EXPECT_EQ(events, static_cast<std::size_t>(kThreads) * kSpansPerThread * 2);
  for (const char* key : {"\"name\": ", "\"cat\": \"hm\"", "\"ts\": ",
                          "\"dur\": ", "\"pid\": 1", "\"tid\": "}) {
    EXPECT_NE(body.find(key), std::string::npos) << key;
  }
}

TEST_F(Telemetry, SpanIsNoOpWhenNotTracing) {
  ASSERT_FALSE(tel::tracing());
  {
    tel::Span span("test.noop");
  }
  EXPECT_FALSE(tel::trace_stop());
}

/// The golden spec of test_golden_sweep: 3 families x {4, 9} chiplets x
/// {uniform, hotspot}, short windows, default base seed.
hm::explore::SweepSpec golden_spec() {
  hm::core::EvaluationParams params;
  params.latency_warmup = 300;
  params.latency_measure = 600;
  params.latency_drain_limit = 60000;
  params.throughput_warmup = 400;
  params.throughput_measure = 400;

  hm::noc::TrafficSpec hotspot;
  hotspot.pattern = hm::noc::TrafficPattern::kHotspot;
  hotspot.hotspot_fraction = 0.3;
  hotspot.hotspots = {0, 3};

  hm::explore::SweepSpec spec;
  spec.types = {hm::core::ArrangementType::kGrid,
                hm::core::ArrangementType::kBrickwall,
                hm::core::ArrangementType::kHexaMesh};
  spec.chiplet_counts = {4, 9};
  spec.param_grid = {params};
  spec.traffic_grid = {hm::noc::TrafficSpec{}, hotspot};
  return spec;
}

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.good()) << "missing golden file: " << path;
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

/// Design rule #1 (telemetry.hpp): with the registry AND the tracer armed,
/// the sweep exports stay byte-identical to the committed pre-telemetry
/// goldens at every thread count.
class TelemetryGoldenSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(TelemetryGoldenSweep, ExportsUnchangedWithTelemetryOn) {
  const std::string golden_csv =
      read_file(std::string(HM_GOLDEN_DIR) + "/sweep_small.csv");
  const std::string golden_json =
      read_file(std::string(HM_GOLDEN_DIR) + "/sweep_small.json");
  ASSERT_FALSE(golden_csv.empty());
  ASSERT_FALSE(golden_json.empty());

  const bool was_enabled = tel::enabled();
  tel::set_enabled(true);
  const std::string trace_path =
      "test_telemetry_golden_t" + std::to_string(GetParam()) + ".json";
  const bool armed = tel::trace_start(trace_path);

  hm::explore::SweepEngine::Options opt;
  opt.threads = GetParam();
  hm::explore::SweepEngine engine(opt);
  const auto records = engine.run(golden_spec());

  if (armed) tel::trace_stop();
  tel::set_enabled(was_enabled);
  std::remove(trace_path.c_str());

  EXPECT_EQ(hm::explore::to_csv(records), golden_csv)
      << "telemetry perturbed the CSV export at " << GetParam() << " threads";
  EXPECT_EQ(hm::explore::to_json(records), golden_json)
      << "telemetry perturbed the JSON export at " << GetParam() << " threads";

  // The instrumented layers must actually have reported: a sweep runs
  // simulations, so flits were routed and pool jobs executed.
  const tel::Snapshot snap = tel::snapshot();
  EXPECT_GT(snap.counters.at("sim.flits_routed"), 0u);
  EXPECT_GT(snap.counters.at("pool.jobs_run"), 0u);
  EXPECT_GT(snap.counters.at("sat.probes"), 0u);
  // The library's histograms time every sweep job and every probe: one
  // sample per counted event.
  EXPECT_EQ(snap.histograms.at("sweep.job_us").count,
            snap.counters.at("sweep.jobs"));
  EXPECT_EQ(snap.histograms.at("sat.probe_us").count,
            snap.counters.at("sat.probes"));
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, TelemetryGoldenSweep,
                         ::testing::Values(1u, 4u, 8u),
                         [](const auto& info) {
                           return "t" + std::to_string(info.param);
                         });

}  // namespace
