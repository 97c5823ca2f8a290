// The serve-daemon acceptance hammer: N concurrent loadgen connections
// drive TopK traffic at a two-tenant daemon while a reload loop swaps
// one tenant's snapshot between two generations. Invariants:
//
//   1. Every response matches exactly one generation of its tenant —
//      bit-identical scores against the v1 or v2 reference, never a torn
//      mix (the network extension of serve_test's
//      HotReloadIsAtomicUnderBatchLoad).
//   2. The steady tenant's responses stay byte-stable throughout.
//   3. After the storm, SIGTERM-style shutdown drains cleanly (exit 0).
//
// Registered as one ctest entry (SINGLE_PROCESS) and part of the CI
// TSAN job: the epoll loop, the batch workers, the watcher thread, and
// the registry's RCU path all race here under load.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <map>
#include <thread>
#include <vector>

#include "core/engine_registry.h"
#include "graph/graph_io.h"
#include "loadgen.h"
#include "serve/daemon.h"
#include "synth/click_graph_generator.h"
#include "util/logging.h"
#include "util/random.h"

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

using ItemList = std::vector<TopKItem>;

TEST(DaemonHammerTest, ConcurrentLoadSurvivesHotReloads) {
  SetLogLevel(LogLevel::kError);
  BipartiteGraph graph_a = SeededGraph(120, 7);
  BipartiteGraph graph_b = SeededGraph(120, 8);
  std::string graph_a_path = TempPath("hammer_a_graph.tsv");
  std::string graph_b_path = TempPath("hammer_b_graph.tsv");
  std::string snap_a_path = TempPath("hammer_a.snap");
  std::string snap_b_path = TempPath("hammer_b.snap");
  std::string manifest_path = TempPath("hammer_manifest.txt");
  ASSERT_TRUE(SaveGraph(graph_a, graph_a_path).ok());
  ASSERT_TRUE(SaveGraph(graph_b, graph_b_path).ok());

  // Two generations of alpha's snapshot with genuinely different scores;
  // beta never changes.
  WriteSnapshotFile(graph_a, SimRankVariant::kWeighted, 5, snap_a_path);
  std::string bytes_v1 = ReadAllBytes(snap_a_path);
  WriteSnapshotFile(graph_a, SimRankVariant::kEvidence, 4, snap_a_path);
  std::string bytes_v2 = ReadAllBytes(snap_a_path);
  ASSERT_NE(bytes_v1, bytes_v2);
  WriteAllBytes(snap_a_path, bytes_v1);
  WriteSnapshotFile(graph_b, SimRankVariant::kWeighted, 5, snap_b_path);
  WriteAllBytes(manifest_path,
                "manifest-version 1\n"
                "tenant alpha\n  graph " + graph_a_path + "\n  snapshot " +
                    snap_a_path + "\n"
                "tenant beta\n  graph " + graph_b_path + "\n  snapshot " +
                    snap_b_path + "\n");

  DaemonOptions options;
  options.manifest_path = manifest_path;
  // The watcher thread stays on (its inotify/poll machinery must be
  // TSAN-clean alongside everything else); the swap loop below uses
  // PollNow so the reload schedule itself is deterministic.
  options.enable_watcher = true;
  options.watch_poll_seconds = 0.05;
  Result<std::unique_ptr<ServeDaemon>> started = ServeDaemon::Start(options);
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  ServeDaemon& daemon = **started;

  // Reference answers per query under alpha/v1, alpha/v2, and beta,
  // computed through the same pinned-generation call path the daemon
  // uses. The generation pins keep v1 alive across the swaps.
  const size_t kProbes = 24;
  const uint16_t kTopK = 8;
  // The generator only admits clicked queries, so the graphs hold far
  // fewer queries than the requested universe — index within bounds.
  const size_t nq_a = graph_a.num_queries();
  const size_t nq_b = graph_b.num_queries();
  std::vector<std::string> queries_a, queries_b;
  for (size_t i = 0; i < kProbes; ++i) {
    queries_a.push_back(graph_a.query_label(static_cast<QueryId>(i * 5 % nq_a)));
    queries_b.push_back(graph_b.query_label(static_cast<QueryId>(i * 7 % nq_b)));
  }
  auto reference = [&](const std::string& tenant,
                       const std::vector<std::string>& queries) {
    std::map<std::string, ItemList> expected;
    std::shared_ptr<const Tenant> generation =
        daemon.registry().Lookup(tenant);
    SRPP_CHECK(generation != nullptr);
    for (const std::string& query : queries) {
      ItemList items;
      Result<uint32_t> id =
          generation->service->rewriter().ResolveNode(query);
      if (id.ok()) {
        for (const RewriteCandidate& candidate :
             generation->service->TopK(*id, kTopK)) {
          items.push_back(TopKItem{candidate.text, candidate.score});
        }
      }
      expected[query] = std::move(items);
    }
    return expected;
  };
  std::map<std::string, ItemList> ref_a_v1 = reference("alpha", queries_a);
  std::map<std::string, ItemList> ref_b = reference("beta", queries_b);
  WriteAllBytes(snap_a_path, bytes_v2);
  ASSERT_TRUE(daemon.PollNow().ok());
  std::map<std::string, ItemList> ref_a_v2 = reference("alpha", queries_a);
  ASSERT_NE(ref_a_v1, ref_a_v2);  // the generations must be tellable apart

  // ------------------------------------------------------- the hammer
  const size_t kThreads = 4;
  const size_t kRequestsPerThread = 150;
  std::atomic<bool> failed{false};
  std::atomic<uint64_t> matched_v1{0}, matched_v2{0}, served_b{0};

  auto hammer = [&](size_t index) {
    Client client;
    Status status = client.Connect("127.0.0.1", daemon.port());
    if (!status.ok()) {
      ADD_FAILURE() << status.ToString();
      failed.store(true);
      return;
    }
    Rng rng(1000 + index);
    for (size_t i = 0; i < kRequestsPerThread && !failed.load(); ++i) {
      bool to_alpha = rng.NextBounded(3) != 0;  // 2:1 alpha:beta mix
      const std::string& query =
          to_alpha ? queries_a[rng.NextBounded(queries_a.size())]
                   : queries_b[rng.NextBounded(queries_b.size())];
      Result<Reply> reply =
          client.TopK(to_alpha ? "alpha" : "beta", query, kTopK,
                      static_cast<uint32_t>(i));
      if (!reply.ok() || reply->code != WireCode::kOk) {
        ADD_FAILURE() << "request failed: "
                      << (reply.ok() ? reply->text
                                     : reply.status().ToString());
        failed.store(true);
        return;
      }
      if (to_alpha) {
        // Invariant 1: bit-identical to exactly one alpha generation.
        bool is_v1 = reply->items == ref_a_v1[query];
        bool is_v2 = reply->items == ref_a_v2[query];
        if (!(is_v1 || is_v2)) {
          ADD_FAILURE() << "torn alpha response for \"" << query << "\"";
          failed.store(true);
          return;
        }
        (is_v1 ? matched_v1 : matched_v2).fetch_add(1);
      } else {
        // Invariant 2: the steady tenant is byte-stable.
        if (reply->items != ref_b[query]) {
          ADD_FAILURE() << "beta response drifted for \"" << query << "\"";
          failed.store(true);
          return;
        }
        served_b.fetch_add(1);
      }
    }
  };

  std::vector<std::thread> threads;
  for (size_t i = 0; i < kThreads; ++i) threads.emplace_back(hammer, i);

  // The swap loop: alternate alpha between v2 and v1 while the clients
  // fire. Each PollNow is a full mtime-diff + reload of the changed
  // tenant, racing the in-flight batches.
  const size_t kSwaps = 6;
  for (size_t swap = 0; swap < kSwaps; ++swap) {
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    WriteAllBytes(snap_a_path, swap % 2 == 0 ? bytes_v1 : bytes_v2);
    Result<std::vector<std::string>> reloaded = daemon.PollNow();
    ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  }
  for (std::thread& thread : threads) thread.join();
  ASSERT_FALSE(failed.load());

  // The swaps really interleaved with traffic: both generations served.
  EXPECT_GT(matched_v1.load() + matched_v2.load(), 0u);
  EXPECT_GT(served_b.load(), 0u);
  uint64_t alpha_generation = daemon.registry().Lookup("alpha")->generation;
  EXPECT_GE(alpha_generation, kSwaps);  // every swap published

  // Invariant 3: clean drain after the storm.
  daemon.RequestShutdown();
  EXPECT_EQ(started.value()->Wait(), 0);
  MetricsSnapshot metrics = daemon.metrics_registry().Snapshot();
  EXPECT_EQ(metrics.Total("srpp_requests_total", {{"code", "ok"}}),
            static_cast<double>(matched_v1.load() + matched_v2.load() +
                                served_b.load()));
  EXPECT_EQ(metrics.Value("srpp_bad_frames_total"), 0.0);

  for (const std::string& path :
       {graph_a_path, graph_b_path, snap_a_path, snap_b_path,
        manifest_path}) {
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace simrankpp
