// hm_server contracts (src/server/): wire-protocol codec strictness, the
// request queue's round-robin fairness + admission control, and a live
// loopback server exercised over a Unix socket — determinism of evaluate,
// sweep and search replies, malformed-frame survival, and clean shutdown.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "server/protocol.hpp"
#include "server/queue.hpp"
#include "server/server.hpp"
#include "store/record.hpp"
#include "util/byte_io.hpp"

namespace fs = std::filesystem;
using namespace hm::server;

namespace {

// ---------------------------------------------------------------- protocol

std::vector<std::uint8_t> frame_bytes(std::uint32_t magic, Command command,
                                      const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> out;
  encode_frame(magic, command, payload, out);
  return out;
}

TEST(Protocol, FrameHeaderRoundTrip) {
  const std::vector<std::uint8_t> payload{1, 2, 3};
  const auto bytes = frame_bytes(kRequestMagic, Command::kEvaluate, payload);
  ASSERT_EQ(bytes.size(), kFrameHeaderSize + payload.size());

  const auto header = parse_frame_header(bytes.data(), bytes.size());
  ASSERT_TRUE(header.has_value());
  EXPECT_EQ(header->magic, kRequestMagic);
  EXPECT_EQ(header->version, kProtocolVersion);
  EXPECT_EQ(header->command,
            static_cast<std::uint16_t>(Command::kEvaluate));
  EXPECT_EQ(header->payload_len, payload.size());
  EXPECT_TRUE(frame_header_ok(*header, kRequestMagic));
  EXPECT_FALSE(frame_header_ok(*header, kReplyMagic));  // wrong direction
}

TEST(Protocol, FrameHeaderRejectsShortVersionAndOversize) {
  const auto bytes = frame_bytes(kRequestMagic, Command::kPing, {});
  EXPECT_FALSE(parse_frame_header(bytes.data(), kFrameHeaderSize - 1));

  auto header = *parse_frame_header(bytes.data(), bytes.size());
  header.version = kProtocolVersion + 1;
  EXPECT_FALSE(frame_header_ok(header, kRequestMagic));

  header = *parse_frame_header(bytes.data(), bytes.size());
  header.payload_len = kMaxPayload + 1;
  EXPECT_FALSE(frame_header_ok(header, kRequestMagic));
}

TEST(Protocol, EvaluateRequestRoundTripAndStrictDecode) {
  EvaluateRequest req;
  req.type = hm::core::ArrangementType::kBrickwall;
  req.chiplet_count = 19;
  req.seed = 7;
  req.measure_latency = true;
  req.measure_saturation = false;
  std::vector<std::uint8_t> bytes;
  encode_evaluate_request(req, bytes);

  const auto decoded = decode_evaluate_request(bytes.data(), bytes.size());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->type, req.type);
  EXPECT_EQ(decoded->chiplet_count, req.chiplet_count);
  EXPECT_EQ(decoded->seed, req.seed);
  EXPECT_EQ(decoded->measure_latency, req.measure_latency);
  EXPECT_EQ(decoded->measure_saturation, req.measure_saturation);

  // Truncated body, unknown family, flag bits outside 0..3, n == 0 — all
  // rejected, never best-effort decoded. Layout: u8 family, u64 n,
  // u64 seed, u8 flags.
  EXPECT_FALSE(decode_evaluate_request(bytes.data(), bytes.size() - 1));
  auto bad = bytes;
  bad[0] = 0x7f;
  EXPECT_FALSE(decode_evaluate_request(bad.data(), bad.size()));
  bad = bytes;
  bad[17] = 4;
  EXPECT_FALSE(decode_evaluate_request(bad.data(), bad.size()));
  EvaluateRequest zero = req;
  zero.chiplet_count = 0;
  bytes.clear();
  encode_evaluate_request(zero, bytes);
  EXPECT_FALSE(decode_evaluate_request(bytes.data(), bytes.size()));
}

TEST(Protocol, SweepRequestRoundTripAndStrictDecode) {
  SweepRequest req;
  req.types = {hm::core::ArrangementType::kGrid,
               hm::core::ArrangementType::kHexaMesh};
  req.chiplet_counts = {4, 7, 12};
  req.base_seed = 99;
  req.simulate = false;
  std::vector<std::uint8_t> bytes;
  encode_sweep_request(req, bytes);

  const auto decoded = decode_sweep_request(bytes.data(), bytes.size());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->types, req.types);
  EXPECT_EQ(decoded->chiplet_counts, req.chiplet_counts);
  EXPECT_EQ(decoded->base_seed, req.base_seed);
  EXPECT_EQ(decoded->simulate, req.simulate);

  EXPECT_FALSE(decode_sweep_request(bytes.data(), bytes.size() - 1));
  SweepRequest empty = req;
  empty.types.clear();
  bytes.clear();
  encode_sweep_request(empty, bytes);
  EXPECT_FALSE(decode_sweep_request(bytes.data(), bytes.size()));
  empty = req;
  empty.chiplet_counts.clear();
  bytes.clear();
  encode_sweep_request(empty, bytes);
  EXPECT_FALSE(decode_sweep_request(bytes.data(), bytes.size()));
}

TEST(Protocol, SearchRequestRoundTripAndStrictDecode) {
  SearchRequest req;
  req.type = hm::core::ArrangementType::kHexaMesh;
  req.chiplet_count = 9;
  req.steps = 25;
  req.seed = 5;
  std::vector<std::uint8_t> bytes;
  encode_search_request(req, bytes);

  const auto decoded = decode_search_request(bytes.data(), bytes.size());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->chiplet_count, req.chiplet_count);
  EXPECT_EQ(decoded->steps, req.steps);

  SearchRequest bad = req;
  bad.chiplet_count = 1;  // nothing to search below 2 chiplets
  bytes.clear();
  encode_search_request(bad, bytes);
  EXPECT_FALSE(decode_search_request(bytes.data(), bytes.size()));
  bad = req;
  bad.steps = 0;
  bytes.clear();
  encode_search_request(bad, bytes);
  EXPECT_FALSE(decode_search_request(bytes.data(), bytes.size()));
}

TEST(Protocol, ReplyPayloadRoundTrip) {
  const std::vector<std::uint8_t> body{9, 8, 7};
  std::vector<std::uint8_t> payload;
  encode_reply_payload(Status::kRejected, body, payload);

  const auto view = parse_reply_payload(payload.data(), payload.size());
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->status, Status::kRejected);
  ASSERT_EQ(view->body_size, body.size());
  EXPECT_EQ(std::memcmp(view->body, body.data(), body.size()), 0);

  EXPECT_FALSE(parse_reply_payload(payload.data(), 1));  // shorter than u16
}

// ------------------------------------------------------------ RequestQueue

TEST(RequestQueueTest, PopBatchIsRoundRobinAcrossClients) {
  RequestQueue<int> queue(64, 8);
  // Client 1 pipelines three requests before 2 and 3 send one each.
  EXPECT_TRUE(queue.push(1, 10));
  EXPECT_TRUE(queue.push(1, 11));
  EXPECT_TRUE(queue.push(1, 12));
  EXPECT_TRUE(queue.push(2, 20));
  EXPECT_TRUE(queue.push(3, 30));

  const auto batch = queue.pop_batch(5);
  // One request per client per rotation: every client's first request
  // rides in the first fan-out, then client 1's backlog drains.
  EXPECT_EQ(batch, (std::vector<int>{10, 20, 30, 11, 12}));
  EXPECT_EQ(queue.pending(), 0u);
}

TEST(RequestQueueTest, RotationResumesAfterLastServedClient) {
  RequestQueue<int> queue(64, 8);
  EXPECT_TRUE(queue.push(1, 10));
  EXPECT_TRUE(queue.push(2, 20));
  EXPECT_EQ(queue.pop_batch(1), (std::vector<int>{10}));
  // The cursor sits on client 1, so client 2 goes first in the next batch.
  EXPECT_TRUE(queue.push(1, 11));
  EXPECT_EQ(queue.pop_batch(2), (std::vector<int>{20, 11}));
}

TEST(RequestQueueTest, AdmissionCapsPerClientAndGlobally) {
  RequestQueue<int> queue(3, 2);
  EXPECT_TRUE(queue.push(1, 0));
  EXPECT_TRUE(queue.push(1, 1));
  EXPECT_FALSE(queue.push(1, 2));  // per-client cap: one chatty client
  EXPECT_TRUE(queue.push(2, 0));
  EXPECT_FALSE(queue.push(3, 0));  // global cap
  EXPECT_EQ(queue.pending(), 3u);

  (void)queue.pop_batch(1);
  EXPECT_TRUE(queue.push(3, 0));  // capacity freed, admitted again
}

TEST(RequestQueueTest, CloseDrainsThenReturnsEmpty) {
  RequestQueue<int> queue(64, 8);
  EXPECT_TRUE(queue.push(1, 10));
  EXPECT_TRUE(queue.push(2, 20));
  queue.close();
  EXPECT_FALSE(queue.push(1, 99));  // closed: nothing new admitted

  EXPECT_EQ(queue.pop_batch(16), (std::vector<int>{10, 20}));
  EXPECT_TRUE(queue.pop_batch(16).empty());  // drained: unblocked, empty
}

// --------------------------------------------------------- loopback server

int connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Sends one request frame and reads one reply frame; returns the reply
/// payload (u16 status + body) or nullopt on transport failure.
std::optional<std::vector<std::uint8_t>> roundtrip(
    int fd, Command command, const std::vector<std::uint8_t>& payload) {
  if (!write_frame(fd, kRequestMagic, command, payload)) return std::nullopt;
  FrameHeader header;
  std::vector<std::uint8_t> reply;
  if (read_frame(fd, kReplyMagic, &header, &reply) != ReadResult::kOk) {
    return std::nullopt;
  }
  EXPECT_EQ(header.command, static_cast<std::uint16_t>(command));
  return reply;
}

Status reply_status(const std::vector<std::uint8_t>& payload) {
  const auto view = parse_reply_payload(payload.data(), payload.size());
  return view ? view->status : Status::kError;
}

std::vector<std::uint8_t> reply_body(const std::vector<std::uint8_t>& payload) {
  const auto view = parse_reply_payload(payload.data(), payload.size());
  if (!view) return {};
  return std::vector<std::uint8_t>(view->body, view->body + view->body_size);
}

/// A started server on a Unix socket in a private temp dir, plus one
/// connected client fd per connect() call. Analytic-only requests keep
/// every test interactive-speed.
class LoopbackServer : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("hm_server_test_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    options_.unix_path = (dir_ / "hm.sock").string();
    options_.threads = 2;
    server_ = std::make_unique<Server>(options_);
    server_->start();
  }

  void TearDown() override {
    for (const int fd : fds_) {
      if (fd >= 0) ::close(fd);
    }
    server_->stop();
    server_.reset();
    fs::remove_all(dir_);
  }

  int connect() {
    const int fd = connect_unix(options_.unix_path);
    EXPECT_GE(fd, 0);
    fds_.push_back(fd);
    return fd;
  }

  fs::path dir_;
  ServerOptions options_;
  std::unique_ptr<Server> server_;
  std::vector<int> fds_;
};

TEST_F(LoopbackServer, PingPongs) {
  const auto reply = roundtrip(connect(), Command::kPing, {});
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply_status(*reply), Status::kOk);
  EXPECT_TRUE(reply_body(*reply).empty());
}

TEST_F(LoopbackServer, EvaluateRepliesAreDeterministicAndDecodable) {
  EvaluateRequest req;
  req.type = hm::core::ArrangementType::kHexaMesh;
  req.chiplet_count = 12;
  req.seed = 3;
  req.measure_latency = false;  // analytic-only: fast and deterministic
  req.measure_saturation = false;
  std::vector<std::uint8_t> payload;
  encode_evaluate_request(req, payload);

  const auto first = roundtrip(connect(), Command::kEvaluate, payload);
  const auto second = roundtrip(connect(), Command::kEvaluate, payload);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(reply_status(*first), Status::kOk);
  // The byte-identity CI cmp's, from two independent connections.
  EXPECT_EQ(*first, *second);

  const auto body = reply_body(*first);
  const auto result = hm::store::decode_result(body.data(), body.size());
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->chiplet_count, req.chiplet_count);
  EXPECT_GT(result->link_count, 0u);
}

TEST_F(LoopbackServer, SweepRepliesAreDeterministicCsv) {
  SweepRequest req;
  req.types = {hm::core::ArrangementType::kGrid,
               hm::core::ArrangementType::kHexaMesh};
  req.chiplet_counts = {4, 9};
  req.simulate = false;
  std::vector<std::uint8_t> payload;
  encode_sweep_request(req, payload);

  const auto first = roundtrip(connect(), Command::kSweep, payload);
  const auto second = roundtrip(connect(), Command::kSweep, payload);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(reply_status(*first), Status::kOk);
  EXPECT_EQ(*first, *second);

  const auto body = reply_body(*first);
  const std::string csv(body.begin(), body.end());
  EXPECT_NE(csv.find("arrangement"), std::string::npos);  // header row
  // One row per (type, count) pair plus the header.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 5);
}

TEST_F(LoopbackServer, SearchRepliesDecodeAndMatchAcrossThreadCounts) {
  SearchRequest req;
  req.type = hm::core::ArrangementType::kHexaMesh;
  req.chiplet_count = 7;
  req.steps = 2;
  req.seed = 5;
  std::vector<std::uint8_t> payload;
  encode_search_request(req, payload);

  // The fixture's server keeps paper-length windows; a search request
  // simulates every candidate, so run it on servers with short windows.
  std::vector<std::vector<std::uint8_t>> bodies;
  for (const unsigned threads : {1u, 4u}) {
    ServerOptions opt;
    opt.unix_path = (dir_ / ("search" + std::to_string(threads) + ".sock"))
                        .string();
    opt.threads = threads;
    opt.params.throughput_warmup = 250;
    opt.params.throughput_measure = 250;
    Server server(opt);
    server.start();
    const int fd = connect_unix(opt.unix_path);
    ASSERT_GE(fd, 0);
    const auto reply = roundtrip(fd, Command::kSearch, payload);
    ::close(fd);
    server.stop();
    ASSERT_TRUE(reply.has_value());
    ASSERT_EQ(reply_status(*reply), Status::kOk);
    bodies.push_back(reply_body(*reply));
  }
  EXPECT_EQ(bodies[0], bodies[1]);

  const auto& body = bodies[0];
  hm::util::ByteReader rd(body.data(), body.size());
  const double best = rd.f64();
  const double baseline = rd.f64();
  const std::uint64_t evaluations = rd.u64();
  ASSERT_TRUE(rd.ok());
  EXPECT_GT(baseline, 0.0);
  EXPECT_GE(best, baseline);
  EXPECT_GT(evaluations, 1u);
  const auto result = hm::store::decode_result(
      body.data() + (body.size() - rd.remaining()), rd.remaining());
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->chiplet_count, req.chiplet_count);
  EXPECT_EQ(result->saturation_throughput_bps, best);
}

TEST_F(LoopbackServer, UndecodableRequestBodyIsBadRequestNotDeath) {
  const std::vector<std::uint8_t> garbage{0xff, 0xfe, 0xfd};
  const auto reply = roundtrip(connect(), Command::kEvaluate, garbage);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply_status(*reply), Status::kBadRequest);
  // The server survives: a fresh connection still works.
  const auto ping = roundtrip(connect(), Command::kPing, {});
  ASSERT_TRUE(ping.has_value());
  EXPECT_EQ(reply_status(*ping), Status::kOk);
}

TEST_F(LoopbackServer, MalformedFramesRejectedWithoutKillingServer) {
  // Bad magic: the server replies kBadRequest and closes the connection.
  {
    const int fd = connect();
    std::vector<std::uint8_t> raw;
    hm::util::ByteWriter w(raw);
    w.u32(0x58585858u)  // "XXXX"
        .u16(kProtocolVersion)
        .u16(static_cast<std::uint16_t>(Command::kPing))
        .u32(0);
    ASSERT_TRUE(write_all(fd, raw.data(), raw.size()));
    FrameHeader header;
    std::vector<std::uint8_t> reply;
    ASSERT_EQ(read_frame(fd, kReplyMagic, &header, &reply), ReadResult::kOk);
    EXPECT_EQ(reply_status(reply), Status::kBadRequest);
    EXPECT_EQ(read_frame(fd, kReplyMagic, &header, &reply),
              ReadResult::kEof);  // connection closed behind the reply
  }
  // Truncated frame: header promises 64 payload bytes, one arrives.
  {
    const int fd = connect();
    std::vector<std::uint8_t> raw;
    hm::util::ByteWriter w(raw);
    w.u32(kRequestMagic)
        .u16(kProtocolVersion)
        .u16(static_cast<std::uint16_t>(Command::kEvaluate))
        .u32(64);
    raw.push_back(0xab);
    ASSERT_TRUE(write_all(fd, raw.data(), raw.size()));
    ::shutdown(fd, SHUT_WR);
    FrameHeader header;
    std::vector<std::uint8_t> reply;
    // No reply is owed for a frame that never finished arriving.
    EXPECT_NE(read_frame(fd, kReplyMagic, &header, &reply), ReadResult::kOk);
  }
  // The server survived both.
  const auto ping = roundtrip(connect(), Command::kPing, {});
  ASSERT_TRUE(ping.has_value());
  EXPECT_EQ(reply_status(*ping), Status::kOk);
}

TEST_F(LoopbackServer, StatsReportServedRequests) {
  (void)roundtrip(connect(), Command::kPing, {});
  const auto reply = roundtrip(connect(), Command::kStats, {});
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply_status(*reply), Status::kOk);
  const auto body = reply_body(*reply);
  const std::string json(body.begin(), body.end());
  EXPECT_NE(json.find("\"requests\""), std::string::npos);
  EXPECT_NE(json.find("\"uptime_s\""), std::string::npos);
  EXPECT_GE(server_->stats_snapshot().requests, 2u);
}

TEST_F(LoopbackServer, ShutdownCommandStopsServerAndUnlinksSocket) {
  const auto reply = roundtrip(connect(), Command::kShutdown, {});
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply_status(*reply), Status::kOk);
  server_->wait();  // returns because the command requested shutdown
  server_->stop();
  EXPECT_FALSE(fs::exists(options_.unix_path));
  // Stop is idempotent; a second stop is a no-op.
  server_->stop();
}

}  // namespace
