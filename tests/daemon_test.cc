// serve-daemon tests: TopK round-trips over TCP, malformed/truncated/
// oversized frame handling (one poisoned connection never disturbs its
// neighbors), per-tenant admission control (unknown tenant, rate limit,
// queue shedding), TopK micro-batch coalescing, network-triggered hot
// reload, graceful-drain semantics (admitted requests complete, late
// ones get kDraining, new connects are refused, Wait() returns 0), and
// output backpressure (a client that does not read is paused alone).
//
// Runs as one ctest entry (SINGLE_PROCESS): every case shares the static
// two-tenant serving world below — the engine runs that build its
// snapshots are the expensive part.
#include "serve/daemon.h"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <thread>

#include "core/engine_registry.h"
#include "graph/graph_io.h"
#include "loadgen.h"
#include "serve/protocol.h"
#include "synth/click_graph_generator.h"
#include "util/logging.h"

namespace simrankpp {
namespace {

using loadgen::Client;
using loadgen::Reply;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

void WriteAllBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string ReadAllBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

BipartiteGraph SeededGraph(size_t num_queries, uint64_t seed) {
  GeneratorOptions options;
  options.num_queries = num_queries;
  options.num_ads = num_queries / 3;
  options.taxonomy.num_categories = 8;
  options.taxonomy.subtopics_per_category = 6;
  options.mean_impressions_per_query = 25.0;
  options.seed = seed;
  auto world = GenerateClickGraph(options);
  SRPP_CHECK(world.ok());
  return std::move(world)->graph;
}

void WriteSnapshotFile(const BipartiteGraph& graph, SimRankVariant variant,
                       size_t iterations, const std::string& path) {
  SimRankOptions options;
  options.variant = variant;
  options.iterations = iterations;
  options.prune_threshold = 1e-6;
  options.max_partners_per_node = 100;
  options.num_threads = 1;
  auto engine = CreateSimRankEngine("sparse", options);
  SRPP_CHECK(engine.ok());
  SRPP_CHECK((*engine)->Run(graph).ok());
  SRPP_CHECK(SaveSnapshot((*engine)->ExportQueryScores(1e-6),
                          SimRankVariantName(variant), path,
                          SnapshotSide::kQueryQuery)
                 .ok());
}

// The shared two-tenant world: "alpha" and "beta" with distinct graphs.
// snapshot_a_alt holds a second, different-scores generation for alpha
// (reload tests overwrite alpha's snapshot with it and back).
struct DaemonWorld {
  BipartiteGraph graph_a;
  BipartiteGraph graph_b;
  std::string graph_a_path = TempPath("daemon_a_graph.tsv");
  std::string graph_b_path = TempPath("daemon_b_graph.tsv");
  std::string snapshot_a_path = TempPath("daemon_a.snap");
  std::string snapshot_b_path = TempPath("daemon_b.snap");
  std::string manifest_path = TempPath("daemon_manifest.txt");
  std::string bytes_a_v1;
  std::string bytes_a_v2;

  DaemonWorld() : graph_a(SeededGraph(150, 42)), graph_b(SeededGraph(150, 43)) {
    SetLogLevel(LogLevel::kError);
    SRPP_CHECK(SaveGraph(graph_a, graph_a_path).ok());
    SRPP_CHECK(SaveGraph(graph_b, graph_b_path).ok());
    WriteSnapshotFile(graph_a, SimRankVariant::kWeighted, 5, snapshot_a_path);
    bytes_a_v1 = ReadAllBytes(snapshot_a_path);
    WriteSnapshotFile(graph_a, SimRankVariant::kEvidence, 4, snapshot_a_path);
    bytes_a_v2 = ReadAllBytes(snapshot_a_path);
    SRPP_CHECK(bytes_a_v1 != bytes_a_v2);
    WriteAllBytes(snapshot_a_path, bytes_a_v1);
    WriteSnapshotFile(graph_b, SimRankVariant::kWeighted, 5, snapshot_b_path);
    WriteAllBytes(manifest_path,
                  "manifest-version 1\n"
                  "tenant alpha\n  graph " + graph_a_path + "\n  snapshot " +
                      snapshot_a_path + "\n"
                  "tenant beta\n  graph " + graph_b_path + "\n  snapshot " +
                      snapshot_b_path + "\n");
  }

  // Resets alpha to its v1 snapshot (tests that reload must not leak
  // state into later cases call this from their teardown path).
  void RestoreAlphaV1() { WriteAllBytes(snapshot_a_path, bytes_a_v1); }

  DaemonOptions Options() const {
    DaemonOptions options;
    options.manifest_path = manifest_path;
    options.enable_watcher = false;  // tests trigger reloads explicitly
    return options;
  }
};

DaemonWorld& World() {
  static DaemonWorld* world = new DaemonWorld();
  return *world;
}

std::unique_ptr<ServeDaemon> StartDaemon(const DaemonOptions& options) {
  Result<std::unique_ptr<ServeDaemon>> daemon = ServeDaemon::Start(options);
  SRPP_CHECK(daemon.ok());
  return std::move(daemon).value();
}

Client ConnectTo(const ServeDaemon& daemon) {
  Client client;
  SRPP_CHECK(client.Connect("127.0.0.1", daemon.port()).ok());
  return client;
}

// Expected wire items for `query` under the daemon's currently-published
// generation of `tenant` — same call path the daemon's batch worker uses.
std::vector<TopKItem> ExpectedItems(const ServeDaemon& daemon,
                                    const std::string& tenant,
                                    const std::string& query, size_t k) {
  std::shared_ptr<const Tenant> generation = daemon.registry().Lookup(tenant);
  SRPP_CHECK(generation != nullptr);
  Result<uint32_t> id = generation->service->rewriter().ResolveNode(query);
  if (!id.ok()) return {};
  std::vector<TopKItem> items;
  for (const RewriteCandidate& candidate :
       generation->service->TopK(*id, k)) {
    items.push_back(TopKItem{candidate.text, candidate.score});
  }
  return items;
}

// ------------------------------------------------------- basic serving

TEST(ServeDaemonTest, AnswersTopKBitIdentical) {
  auto daemon = StartDaemon(World().Options());
  Client client = ConnectTo(*daemon);
  const std::string query = World().graph_a.query_label(3);
  std::vector<TopKItem> expected = ExpectedItems(*daemon, "alpha", query, 10);
  ASSERT_FALSE(expected.empty());

  Result<Reply> reply = client.TopK("alpha", query, 10, 41);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->type, FrameType::kTopKResponse);
  EXPECT_EQ(reply->code, WireCode::kOk);
  EXPECT_EQ(reply->request_id, 41u);
  EXPECT_EQ(reply->items, expected);
}

TEST(ServeDaemonTest, UnknownQueryServesEmptyOk) {
  auto daemon = StartDaemon(World().Options());
  Client client = ConnectTo(*daemon);
  Result<Reply> reply =
      client.TopK("alpha", "no such query text", 10, 1);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->code, WireCode::kOk);
  EXPECT_TRUE(reply->items.empty());
}

TEST(ServeDaemonTest, PingAnswersAndRegistryCoversEveryTenant) {
  auto daemon = StartDaemon(World().Options());
  Client client = ConnectTo(*daemon);
  ASSERT_TRUE(client.SendPing(5).ok());
  Result<Reply> pong = client.ReadReply();
  ASSERT_TRUE(pong.ok());
  EXPECT_EQ(pong->type, FrameType::kPingResponse);
  EXPECT_EQ(pong->request_id, 5u);

  ASSERT_TRUE(client.TopK("alpha", World().graph_a.query_label(0), 5, 6).ok());
  MetricsSnapshot snapshot = daemon->metrics_registry().Snapshot();
  for (const char* tenant : {"alpha", "beta"}) {
    MetricLabels only{{"tenant", tenant}};
    // Identity, admission and latency series exist for every manifest
    // tenant from boot on, precomputed ones included.
    EXPECT_EQ(snapshot.Total("srpp_tenant_info", only), 1.0) << tenant;
    ASSERT_NE(snapshot.Find("srpp_cold_requests_total", only), nullptr)
        << tenant;
    ASSERT_NE(snapshot.Find("srpp_tenant_latency_seconds", only), nullptr)
        << tenant;
    ASSERT_NE(snapshot.Find("srpp_queue_fill_ratio", only), nullptr)
        << tenant;
  }
  // The one TopK: admitted warm, queued, answered, timed.
  MetricLabels alpha{{"tenant", "alpha"}};
  EXPECT_EQ(snapshot.Total("srpp_requests_total", alpha), 1.0);
  EXPECT_EQ(snapshot.Value("srpp_cold_requests_total", alpha), 0.0);
  EXPECT_EQ(snapshot.Value("srpp_served_requests_total", alpha), 1.0);
  EXPECT_EQ(snapshot.Find("srpp_tenant_latency_seconds", alpha)
                ->histogram->count,
            1u);
  EXPECT_EQ(
      snapshot.Find("srpp_queue_fill_ratio", alpha)->histogram->count, 1u);
}

TEST(ServeDaemonTest, OnDemandTenantAnswersColdQueriesOverTcp) {
  // A tenant with no snapshot at all: every row is computed on first
  // touch by the linearized engine behind the daemon.
  std::string manifest = TempPath("daemon_on_demand_manifest.txt");
  WriteAllBytes(manifest, "manifest-version 1\ntenant lazy\n  graph " +
                              World().graph_a_path + "\n  scoring on-demand\n");
  DaemonOptions options;
  options.manifest_path = manifest;
  options.enable_watcher = false;
  auto daemon = StartDaemon(options);
  Client client = ConnectTo(*daemon);
  const std::string query = World().graph_a.query_label(3);

  // Cold query: admitted at cold_row_cost, computed, answered.
  Result<Reply> cold = client.TopK("lazy", query, 5, 21);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_EQ(cold->code, WireCode::kOk);
  ASSERT_FALSE(cold->items.empty());

  // The in-process service view (now a cache hit) is bit-identical to
  // what went over the wire.
  EXPECT_EQ(cold->items, ExpectedItems(*daemon, "lazy", query, 5));

  // Repeat over TCP: served from the row cache, admitted warm.
  Result<Reply> warm = client.TopK("lazy", query, 5, 22);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->items, cold->items);

  MetricsSnapshot snapshot = daemon->metrics_registry().Snapshot();
  MetricLabels lazy{{"tenant", "lazy"}};
  EXPECT_EQ(snapshot.Total("srpp_tenant_info",
                           {{"tenant", "lazy"}, {"scoring", "on-demand"}}),
            1.0);
  EXPECT_EQ(snapshot.Value("srpp_rows_computed_total", lazy), 1.0);
  // Two cache hits: the ExpectedItems call and the warm wire request.
  EXPECT_EQ(snapshot.Value("srpp_row_cache_hits_total", lazy), 2.0);
  EXPECT_EQ(snapshot.Value("srpp_row_cache_misses_total", lazy), 1.0);
  // Only the first wire request found the row absent at admission time.
  EXPECT_EQ(snapshot.Value("srpp_cold_requests_total", lazy), 1.0);
  std::remove(manifest.c_str());
}

// --------------------------------------------------- admission control

TEST(ServeDaemonTest, UnknownTenantCodeAndConnectionSurvives) {
  auto daemon = StartDaemon(World().Options());
  Client client = ConnectTo(*daemon);
  Result<Reply> reply = client.TopK("nope", "anything", 5, 11);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->type, FrameType::kError);
  EXPECT_EQ(reply->code, WireCode::kUnknownTenant);
  EXPECT_EQ(reply->request_id, 11u);
  // The connection is intact.
  ASSERT_TRUE(client.SendPing(12).ok());
  Result<Reply> pong = client.ReadReply();
  ASSERT_TRUE(pong.ok());
  EXPECT_EQ(pong->type, FrameType::kPingResponse);
}

TEST(ServeDaemonTest, ZeroAndHugeKAreBadRequests) {
  auto daemon = StartDaemon(World().Options());
  Client client = ConnectTo(*daemon);
  Result<Reply> zero = client.TopK("alpha", "q", 0, 1);
  ASSERT_TRUE(zero.ok());
  EXPECT_EQ(zero->code, WireCode::kBadRequest);
  Result<Reply> huge =
      client.TopK("alpha", "q", kMaxTopKPerRequest + 1, 2);
  ASSERT_TRUE(huge.ok());
  EXPECT_EQ(huge->code, WireCode::kBadRequest);
}

TEST(ServeDaemonTest, RateLimitReturnsDedicatedCode) {
  DaemonOptions options = World().Options();
  options.tenant_qps = 0.001;  // effectively: burst only
  options.tenant_burst = 2.0;
  auto daemon = StartDaemon(options);
  Client client = ConnectTo(*daemon);
  const std::string query = World().graph_a.query_label(1);
  std::map<WireCode, int> codes;
  for (uint32_t i = 0; i < 4; ++i) {
    Result<Reply> reply = client.TopK("alpha", query, 5, i);
    ASSERT_TRUE(reply.ok());
    ++codes[reply->code];
  }
  EXPECT_EQ(codes[WireCode::kOk], 2);
  EXPECT_EQ(codes[WireCode::kRateLimited], 2);
  EXPECT_EQ(daemon->metrics_registry().Snapshot().Total(
                "srpp_requests_total", {{"code", "rate_limited"}}),
            2.0);
}

TEST(ServeDaemonTest, FullQueueShedsWithOverloaded) {
  DaemonOptions options = World().Options();
  options.max_queue_per_tenant = 1;
  options.debug_batch_delay_ms = 300;
  auto daemon = StartDaemon(options);
  Client client = ConnectTo(*daemon);
  const std::string query = World().graph_a.query_label(2);

  // r1 is swapped into the (now sleeping) batch worker; r2 occupies the
  // single queue slot; r3 must be shed.
  ASSERT_TRUE(client.SendTopK("alpha", query, 5, 1).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ASSERT_TRUE(client.SendTopK("alpha", query, 5, 2).ok());
  ASSERT_TRUE(client.SendTopK("alpha", query, 5, 3).ok());

  std::map<uint32_t, WireCode> codes;
  for (int i = 0; i < 3; ++i) {
    Result<Reply> reply = client.ReadReply();
    ASSERT_TRUE(reply.ok());
    codes[reply->request_id] = reply->code;
  }
  EXPECT_EQ(codes[1], WireCode::kOk);
  EXPECT_EQ(codes[2], WireCode::kOk);
  EXPECT_EQ(codes[3], WireCode::kOverloaded);
  EXPECT_EQ(daemon->metrics_registry().Snapshot().Total(
                "srpp_requests_total", {{"code", "shed"}}),
            1.0);
}

TEST(ServeDaemonTest, ConcurrentRequestsCoalesceIntoBatches) {
  DaemonOptions options = World().Options();
  options.debug_batch_delay_ms = 100;
  auto daemon = StartDaemon(options);
  Client client = ConnectTo(*daemon);
  const std::string query = World().graph_a.query_label(4);
  std::vector<TopKItem> expected = ExpectedItems(*daemon, "alpha", query, 5);

  // r1 opens a batch (which then sleeps); r2..r5 pile up and must be
  // served by one coalesced TopKBatch call.
  ASSERT_TRUE(client.SendTopK("alpha", query, 5, 1).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  for (uint32_t id = 2; id <= 5; ++id) {
    ASSERT_TRUE(client.SendTopK("alpha", query, 5, id).ok());
  }
  for (int i = 0; i < 5; ++i) {
    Result<Reply> reply = client.ReadReply();
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply->code, WireCode::kOk);
    EXPECT_EQ(reply->items, expected);
  }
  MetricsSnapshot metrics = daemon->metrics_registry().Snapshot();
  EXPECT_EQ(metrics.Total("srpp_served_requests_total"), 5.0);
  EXPECT_LT(metrics.Total("srpp_batches_total"), 5.0);
}

TEST(ServeDaemonTest, MixedKValuesInOneBatchAnswerPerRequest) {
  DaemonOptions options = World().Options();
  options.debug_batch_delay_ms = 100;
  auto daemon = StartDaemon(options);
  Client client = ConnectTo(*daemon);
  const std::string query = World().graph_a.query_label(5);

  ASSERT_TRUE(client.SendTopK("alpha", query, 3, 1).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  ASSERT_TRUE(client.SendTopK("alpha", query, 7, 2).ok());
  ASSERT_TRUE(client.SendTopK("alpha", query, 2, 3).ok());

  std::map<uint32_t, std::vector<TopKItem>> replies;
  for (int i = 0; i < 3; ++i) {
    Result<Reply> reply = client.ReadReply();
    ASSERT_TRUE(reply.ok());
    ASSERT_EQ(reply->code, WireCode::kOk);
    replies[reply->request_id] = reply->items;
  }
  EXPECT_EQ(replies[1], ExpectedItems(*daemon, "alpha", query, 3));
  EXPECT_EQ(replies[2], ExpectedItems(*daemon, "alpha", query, 7));
  EXPECT_EQ(replies[3], ExpectedItems(*daemon, "alpha", query, 2));
}

// ----------------------------------------------------- malformed input

TEST(ServeDaemonTest, BadMagicClosesOnlyThatConnection) {
  auto daemon = StartDaemon(World().Options());
  Client bystander = ConnectTo(*daemon);
  Client offender = ConnectTo(*daemon);

  ASSERT_TRUE(offender.SendBytes("XXXXGARBAGEGARBAGE").ok());
  Result<Reply> error = offender.ReadReply();
  ASSERT_TRUE(error.ok());
  EXPECT_EQ(error->type, FrameType::kError);
  EXPECT_EQ(error->code, WireCode::kBadFrame);
  // After the error frame the daemon hangs up on the offender...
  Result<Reply> eof = offender.ReadReply();
  EXPECT_FALSE(eof.ok());

  // ...while the bystander's connection keeps serving.
  Result<Reply> reply =
      bystander.TopK("beta", World().graph_b.query_label(0), 5, 9);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->code, WireCode::kOk);
}

TEST(ServeDaemonTest, OversizedFrameHeaderIsRejected) {
  auto daemon = StartDaemon(World().Options());
  Client client = ConnectTo(*daemon);
  // A valid-magic header announcing a payload over the ceiling.
  std::string frame;
  AppendEmptyFrame(FrameType::kTopKRequest, WireCode::kOk, 1, &frame);
  frame[8] = static_cast<char>(0xff);
  frame[9] = static_cast<char>(0xff);
  frame[10] = static_cast<char>(0xff);
  frame[11] = static_cast<char>(0x7f);
  ASSERT_TRUE(client.SendBytes(frame).ok());
  Result<Reply> error = client.ReadReply();
  ASSERT_TRUE(error.ok());
  EXPECT_EQ(error->code, WireCode::kBadFrame);
  EXPECT_FALSE(client.ReadReply().ok());  // connection dropped
  EXPECT_EQ(
      daemon->metrics_registry().Snapshot().Value("srpp_bad_frames_total"),
      1.0);
}

TEST(ServeDaemonTest, MalformedPayloadKeepsConnectionAlive) {
  auto daemon = StartDaemon(World().Options());
  Client client = ConnectTo(*daemon);
  // Valid header (type TopK), garbage payload: framing is intact, so
  // only this request dies.
  std::string garbage = "\xff\xff\xff\xff garbage payload";
  std::string frame;
  AppendTextFrame(FrameType::kTopKRequest, WireCode::kOk, 21, garbage,
                  &frame);
  // AppendTextFrame writes a length-prefixed string; corrupt the length
  // so the payload cannot parse as a TopK request.
  frame[kFrameHeaderBytes] = static_cast<char>(0xee);
  ASSERT_TRUE(client.SendBytes(frame).ok());
  Result<Reply> error = client.ReadReply();
  ASSERT_TRUE(error.ok());
  EXPECT_EQ(error->type, FrameType::kError);
  EXPECT_EQ(error->code, WireCode::kBadRequest);
  EXPECT_EQ(error->request_id, 21u);

  Result<Reply> reply =
      client.TopK("alpha", World().graph_a.query_label(6), 5, 22);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->code, WireCode::kOk);
  EXPECT_EQ(
      daemon->metrics_registry().Snapshot().Value("srpp_bad_requests_total"),
      1.0);
}

TEST(ServeDaemonTest, TruncatedFrameThenRestIsOneRequest) {
  auto daemon = StartDaemon(World().Options());
  Client client = ConnectTo(*daemon);
  const std::string query = World().graph_a.query_label(7);
  std::string frame;
  AppendTopKRequestFrame(TopKRequest{"alpha", query, 5}, 31, &frame);
  // Dribble the frame across three writes; the daemon must buffer and
  // answer exactly once.
  ASSERT_TRUE(client.SendBytes(std::string_view(frame).substr(0, 7)).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(client.SendBytes(std::string_view(frame).substr(7, 13)).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(client.SendBytes(std::string_view(frame).substr(20)).ok());
  Result<Reply> reply = client.ReadReply();
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->code, WireCode::kOk);
  EXPECT_EQ(reply->request_id, 31u);
  EXPECT_EQ(reply->items, ExpectedItems(*daemon, "alpha", query, 5));
}

TEST(ServeDaemonTest, UnknownFrameTypeIsBadRequest) {
  auto daemon = StartDaemon(World().Options());
  Client client = ConnectTo(*daemon);
  // 0x55 was never assigned; 0x02 is the retired STATS request.
  for (uint8_t type : {0x55, 0x02}) {
    std::string frame;
    AppendEmptyFrame(static_cast<FrameType>(type), WireCode::kOk, type,
                     &frame);
    ASSERT_TRUE(client.SendBytes(frame).ok());
    Result<Reply> error = client.ReadReply();
    ASSERT_TRUE(error.ok());
    EXPECT_EQ(error->type, FrameType::kError);
    EXPECT_EQ(error->code, WireCode::kBadRequest);
    EXPECT_EQ(error->request_id, type);
  }
  // Framing stayed intact, so the connection keeps serving.
  ASSERT_TRUE(client.SendPing(78).ok());
  Result<Reply> pong = client.ReadReply();
  ASSERT_TRUE(pong.ok());
  EXPECT_EQ(pong->type, FrameType::kPingResponse);
}

// -------------------------------------------------------------- reload

TEST(ServeDaemonTest, ReloadFrameSwapsSnapshotWhileServing) {
  auto daemon = StartDaemon(World().Options());
  Client client = ConnectTo(*daemon);
  const std::string query = World().graph_a.query_label(8);
  std::vector<TopKItem> before = ExpectedItems(*daemon, "alpha", query, 10);
  uint64_t generation_before =
      daemon->registry().Lookup("alpha")->generation;

  WriteAllBytes(World().snapshot_a_path, World().bytes_a_v2);
  ASSERT_TRUE(client.SendReload(91).ok());
  Result<Reply> reloaded = client.ReadReply();
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(reloaded->type, FrameType::kReloadResponse);
  EXPECT_EQ(reloaded->code, WireCode::kOk);
  EXPECT_NE(reloaded->text.find("alpha"), std::string::npos);
  EXPECT_EQ(daemon->registry().Lookup("alpha")->generation,
            generation_before + 1);

  std::vector<TopKItem> after = ExpectedItems(*daemon, "alpha", query, 10);
  EXPECT_NE(after, before);
  Result<Reply> reply = client.TopK("alpha", query, 10, 92);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->items, after);

  World().RestoreAlphaV1();
  ASSERT_TRUE(daemon->PollNow().ok());
}

// --------------------------------------------------------------- drain

TEST(ServeDaemonTest, GracefulDrainCompletesAdmittedWork) {
  DaemonOptions options = World().Options();
  options.debug_batch_delay_ms = 300;
  auto daemon = StartDaemon(options);
  Client client = ConnectTo(*daemon);
  const std::string query = World().graph_a.query_label(9);
  std::vector<TopKItem> expected = ExpectedItems(*daemon, "alpha", query, 5);

  // r1 enters the sleeping batch; r2 waits in the queue. Both were
  // admitted, so both must be answered despite the shutdown below.
  ASSERT_TRUE(client.SendTopK("alpha", query, 5, 1).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ASSERT_TRUE(client.SendTopK("alpha", query, 5, 2).ok());

  daemon->RequestShutdown();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // New connections are refused once the drain begins.
  Client late;
  Status late_connect = late.Connect("127.0.0.1", daemon->port());
  if (late_connect.ok()) {
    // A race-window accept is allowed, but the socket must be dead.
    EXPECT_FALSE(late.ReadReply().ok());
  }

  // A request sent after the drain started is refused with kDraining.
  ASSERT_TRUE(client.SendTopK("alpha", query, 5, 3).ok());

  std::map<uint32_t, Reply> replies;
  for (int i = 0; i < 3; ++i) {
    Result<Reply> reply = client.ReadReply();
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    replies[reply->request_id] = *reply;
  }
  EXPECT_EQ(replies[1].code, WireCode::kOk);
  EXPECT_EQ(replies[1].items, expected);
  EXPECT_EQ(replies[2].code, WireCode::kOk);
  EXPECT_EQ(replies[2].items, expected);
  EXPECT_EQ(replies[3].code, WireCode::kDraining);

  EXPECT_EQ(daemon->Wait(), 0);
}

TEST(ServeDaemonTest, ShutdownIsIdempotentAndDestructorJoins) {
  auto daemon = StartDaemon(World().Options());
  daemon->RequestShutdown();
  daemon->RequestShutdown();
  EXPECT_EQ(daemon->Wait(), 0);
  EXPECT_EQ(daemon->Wait(), 0);  // Wait after Wait is a no-op
  daemon.reset();                 // destructor after Wait is clean
}

TEST(ServeDaemonTest, StartFailsOnUnreadableManifest) {
  DaemonOptions options;
  options.manifest_path = TempPath("daemon_no_such_manifest.txt");
  Result<std::unique_ptr<ServeDaemon>> daemon = ServeDaemon::Start(options);
  EXPECT_FALSE(daemon.ok());
}

// ---------------------------------------------------------------------------
// Observability: metrics frame, HTTP scrape, stage traces
// ---------------------------------------------------------------------------

// Minimal blocking HTTP GET against the daemon's metrics listener; the
// server closes after each response, so read-until-EOF.
std::string HttpGet(uint16_t port, const std::string& target) {
  int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  SRPP_CHECK(fd >= 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  SRPP_CHECK(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
             0);
  std::string request = "GET " + target + " HTTP/1.1\r\nHost: t\r\n\r\n";
  SRPP_CHECK(send(fd, request.data(), request.size(), MSG_NOSIGNAL) ==
             static_cast<ssize_t>(request.size()));
  std::string response;
  char buf[4096];
  for (;;) {
    ssize_t n = recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<size_t>(n));
  }
  close(fd);
  return response;
}

TEST(ServeDaemonTest, MetricsFrameServesPrometheusText) {
  auto daemon = StartDaemon(World().Options());
  Client client = ConnectTo(*daemon);
  ASSERT_TRUE(client.TopK("alpha", World().graph_a.query_label(2), 5, 1).ok());
  ASSERT_TRUE(client.SendMetrics(2).ok());
  Result<Reply> reply = client.ReadReply();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->type, FrameType::kMetricsResponse);
  EXPECT_EQ(reply->code, WireCode::kOk);
  EXPECT_EQ(reply->request_id, 2u);
  EXPECT_NE(reply->text.find("# TYPE srpp_requests_total counter"),
            std::string::npos);
  EXPECT_NE(reply->text.find(
                "srpp_requests_total{tenant=\"alpha\",code=\"ok\"} 1"),
            std::string::npos);
  EXPECT_NE(reply->text.find("srpp_simd_info{level="), std::string::npos);
  // The collector bridges per-generation serving stats into the scrape.
  EXPECT_NE(reply->text.find("srpp_tenant_queries_total{tenant=\"alpha\"}"),
            std::string::npos);
  // The frame and the in-process registry render the same document shape.
  EXPECT_NE(daemon->metrics_registry().PrometheusText().find(
                "# TYPE srpp_requests_total counter"),
            std::string::npos);
}

TEST(ServeDaemonTest, MetricsHttpEndpointServesScrapeAndHealth) {
  DaemonOptions options = World().Options();
  options.metrics_port = 0;  // ephemeral
  auto daemon = StartDaemon(options);
  ASSERT_NE(daemon->metrics_port(), 0);

  Client client = ConnectTo(*daemon);
  ASSERT_TRUE(client.TopK("beta", World().graph_b.query_label(4), 5, 1).ok());

  std::string health = HttpGet(daemon->metrics_port(), "/healthz");
  EXPECT_NE(health.find("HTTP/1.1 200 OK"), std::string::npos);

  std::string scrape = HttpGet(daemon->metrics_port(), "/metrics");
  EXPECT_NE(scrape.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(scrape.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(
      scrape.find("srpp_requests_total{tenant=\"beta\",code=\"ok\"} 1"),
      std::string::npos);
  // Every stage series counts the one request served.
  for (int s = 0; s < kNumTraceStages; ++s) {
    std::string series =
        std::string("\nsrpp_stage_duration_seconds_count{stage=\"") +
        TraceStageName(static_cast<TraceStage>(s)) + "\"} 1\n";
    EXPECT_NE(scrape.find(series), std::string::npos) << series;
  }

  // The default daemon (metrics_port = -1) has no listener.
  auto plain = StartDaemon(World().Options());
  EXPECT_EQ(plain->metrics_port(), 0);
}

TEST(ServeDaemonTest, StageSpansTileTheRequestWallTime) {
  DaemonOptions options = World().Options();
  options.debug_batch_delay_ms = 100;  // lands in the batch span
  auto daemon = StartDaemon(options);
  Client client = ConnectTo(*daemon);
  ASSERT_TRUE(client.TopK("alpha", World().graph_a.query_label(6), 5, 1).ok());

  std::vector<RequestTrace> traces = daemon->RecentTraces();
  ASSERT_EQ(traces.size(), 1u);
  const RequestTrace& trace = traces[0];
  EXPECT_EQ(trace.tenant, "alpha");
  // The artificial batch delay must be attributed to the batch span,
  // not smeared into queue/score. Relative bounds, not absolute ones:
  // under TSAN a cold worker wakeup alone can cost tens of ms.
  EXPECT_GE(trace.StageSeconds(TraceStage::kBatch), 0.09);
  EXPECT_LT(trace.StageSeconds(TraceStage::kQueue),
            trace.StageSeconds(TraceStage::kBatch));
  EXPECT_LT(trace.StageSeconds(TraceStage::kScore),
            trace.StageSeconds(TraceStage::kBatch));
  // Spans tile the in-daemon wall time: the whole request took at least
  // the injected delay, and no span is negative.
  EXPECT_GE(trace.total_seconds(), 0.1);
  for (int s = 0; s < kNumTraceStages; ++s) {
    EXPECT_GE(trace.stage_seconds[s], 0.0) << s;
  }
  // The per-stage histograms and the total histogram are fed from the
  // same traces, so their sums must agree.
  MetricsSnapshot snapshot = daemon->metrics_registry().Snapshot();
  double stage_sum = 0.0;
  for (int s = 0; s < kNumTraceStages; ++s) {
    const MetricPoint* stage = snapshot.Find(
        "srpp_stage_duration_seconds",
        {{"stage", TraceStageName(static_cast<TraceStage>(s))}});
    ASSERT_NE(stage, nullptr) << s;
    ASSERT_TRUE(stage->histogram.has_value());
    EXPECT_EQ(stage->histogram->count, 1u) << s;
    stage_sum += stage->histogram->sum;
  }
  const MetricPoint* total = snapshot.Find("srpp_request_duration_seconds");
  ASSERT_NE(total, nullptr);
  ASSERT_TRUE(total->histogram.has_value());
  EXPECT_NEAR(stage_sum, total->histogram->sum, 1e-9);
  EXPECT_NEAR(trace.total_seconds(), total->histogram->sum, 1e-9);
}

TEST(ServeDaemonTest, EveryReplyIsAccountedBeforeTheClientReadsIt) {
  // Reply visible => trace and counters visible: each read below comes
  // straight after its reply, with no polling.
  auto daemon = StartDaemon(World().Options());
  Client client = ConnectTo(*daemon);
  MetricLabels alpha{{"tenant", "alpha"}};
  constexpr uint32_t kRequests = 20;
  for (uint32_t i = 1; i <= kRequests; ++i) {
    Result<Reply> reply =
        client.TopK("alpha", World().graph_a.query_label(i), 5, i);
    ASSERT_TRUE(reply.ok());
    ASSERT_TRUE(reply->ok());
    EXPECT_EQ(daemon->RecentTraces().size(), i);
    MetricsSnapshot snapshot = daemon->metrics_registry().Snapshot();
    const MetricPoint* duration =
        snapshot.Find("srpp_request_duration_seconds");
    ASSERT_NE(duration, nullptr);
    EXPECT_EQ(duration->histogram->count, i);
    EXPECT_EQ(snapshot.Value("srpp_requests_total",
                             {{"tenant", "alpha"}, {"code", "ok"}}),
              i);
    EXPECT_EQ(snapshot.Value("srpp_served_requests_total", alpha), i);
    EXPECT_EQ(snapshot.Find("srpp_tenant_latency_seconds", alpha)
                  ->histogram->count,
              i);
    EXPECT_EQ(snapshot.Value("srpp_responses_total"), i);
  }
  // An error reply is counted before it is written too.
  Result<Reply> error = client.TopK("nope", "anything", 5, kRequests + 1);
  ASSERT_TRUE(error.ok());
  EXPECT_EQ(error->code, WireCode::kUnknownTenant);
  MetricsSnapshot snapshot = daemon->metrics_registry().Snapshot();
  EXPECT_EQ(snapshot.Total("srpp_requests_total", {{"code", "unknown_tenant"}}),
            1.0);
  EXPECT_EQ(snapshot.Value("srpp_responses_total"), kRequests + 1);
}

TEST(ServeDaemonTest, SlowRequestsAreCountedAndKeptInRing) {
  DaemonOptions options = World().Options();
  options.debug_batch_delay_ms = 50;
  options.slow_request_seconds = 0.01;  // every request is "slow"
  auto daemon = StartDaemon(options);
  Client client = ConnectTo(*daemon);
  ASSERT_TRUE(client.TopK("alpha", World().graph_a.query_label(8), 5, 1).ok());
  EXPECT_EQ(
      daemon->metrics_registry().Snapshot().Value("srpp_slow_requests_total"),
      1.0);
  std::vector<RequestTrace> traces = daemon->RecentTraces();
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_NE(traces[0].Summary().find("tenant=alpha"), std::string::npos);

  // Below the threshold nothing is counted.
  DaemonOptions fast_options = World().Options();
  fast_options.slow_request_seconds = 10.0;
  auto fast = StartDaemon(fast_options);
  Client fast_client = ConnectTo(*fast);
  ASSERT_TRUE(
      fast_client.TopK("alpha", World().graph_a.query_label(8), 5, 1).ok());
  EXPECT_EQ(
      fast->metrics_registry().Snapshot().Value("srpp_slow_requests_total"),
      0.0);
}

// A client that pipelines TopKs and does not read its replies is paused
// (its socket stops being read) once its unsent replies pass the output
// cap; other connections keep being served, and once the client reads it
// gets every reply, in order and intact.
TEST(ServeDaemonTest, NonReadingClientIsPausedWhileOthersAreServed) {
  DaemonOptions options = World().Options();
  options.max_queue_per_tenant = 1 << 16;  // nothing shed: count replies
  auto daemon = StartDaemon(options);

  // The query with the longest reply makes the backlog grow fastest.
  std::string query;
  std::vector<TopKItem> expected;
  for (QueryId q = 0; q < 40; ++q) {
    const std::string& label = World().graph_a.query_label(q);
    std::vector<TopKItem> items = ExpectedItems(*daemon, "alpha", label, 100);
    if (items.size() > expected.size()) {
      query = label;
      expected = std::move(items);
    }
  }
  ASSERT_GE(expected.size(), 10u);

  Client slow = ConnectTo(*daemon);
  const int fd = slow.fd();
  // The timeout turns a lost reply into a failure instead of a hang.
  timeval timeout{};
  timeout.tv_sec = 20;
  ASSERT_EQ(
      setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout)), 0);

  auto backpressure = [&daemon] {
    return daemon->metrics_registry().Snapshot().Value(
        "srpp_backpressure_total");
  };
  // At most half the queue bound is ever pipelined, so nothing is shed
  // even when the batch workers fall behind the IO thread's reads (a shed
  // reply would overtake the queued ones). The pause needs far fewer.
  const uint32_t max_pipelined =
      static_cast<uint32_t>(options.max_queue_per_tenant / 2);
  uint32_t requests = 0;
  std::string unsent;
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (backpressure() < 1.0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "no pause after " << requests << " pipelined requests";
    if (unsent.empty()) {
      if (requests >= max_pipelined) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        continue;
      }
      for (int i = 0; i < 16; ++i) {
        AppendTopKRequestFrame(TopKRequest{"alpha", query, 100}, ++requests,
                               &unsent);
      }
    }
    ssize_t w = send(fd, unsent.data(), unsent.size(),
                     MSG_DONTWAIT | MSG_NOSIGNAL);
    if (w > 0) {
      unsent.erase(0, static_cast<size_t>(w));
    } else {
      ASSERT_TRUE(errno == EAGAIN || errno == EWOULDBLOCK) << errno;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  // The paused connection does not hold up anyone else.
  Client other = ConnectTo(*daemon);
  const std::string other_query = World().graph_b.query_label(3);
  Result<Reply> served = other.TopK("beta", other_query, 5, 1);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_EQ(served->code, WireCode::kOk);
  EXPECT_EQ(served->items, ExpectedItems(*daemon, "beta", other_query, 5));

  // Reading drains the backlog; the daemon then reads the rest of the
  // requests, which a helper finishes sending meanwhile.
  std::thread finish([fd, rest = std::move(unsent)] {
    size_t sent = 0;
    while (sent < rest.size()) {
      ssize_t w = send(fd, rest.data() + sent, rest.size() - sent,
                       MSG_NOSIGNAL);
      if (w <= 0) break;
      sent += static_cast<size_t>(w);
    }
  });
  for (uint32_t id = 1; id <= requests; ++id) {
    Result<Reply> reply = slow.ReadReply();
    if (!reply.ok() || reply->request_id != id ||
        reply->code != WireCode::kOk || reply->items != expected) {
      ADD_FAILURE() << "reply " << id << " of " << requests << ": "
                    << (reply.ok() ? "wrong id, code or items"
                                   : reply.status().ToString());
      shutdown(fd, SHUT_RDWR);  // unblocks the helper's send
      break;
    }
  }
  finish.join();
}

}  // namespace
}  // namespace simrankpp
