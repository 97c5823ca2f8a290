// serve-daemon smoke client for the CI end-to-end check. Two modes:
//
//   daemon_smoke --make-world STEM
//       Writes a three-tenant serving world (two precomputed tenants,
//       "alpha" and "beta", and an on-demand tenant "lazy") to files
//       named STEM_*, and prints the manifest path for
//       `simrankpp serve-daemon --manifest` to load.
//
//   daemon_smoke --connect HOST:PORT
//       Drives that daemon over one connection: each of 32 sampled
//       queries of "alpha" and of "beta" once, then a cold and a warm
//       TopK on "lazy" checked against the daemon's own metrics. Exits 0
//       only when every reply is ok and answers its own request id.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/engine_registry.h"
#include "core/snapshot.h"
#include "graph/graph_io.h"
#include "loadgen.h"
#include "synth/click_graph_generator.h"
#include "util/logging.h"

namespace simrankpp {
namespace {

// Queries per tenant graph. --connect regenerates the graphs from the
// same seeds to know which query texts the daemon serves.
constexpr size_t kWorldQueries = 150;

// Deterministic synthetic click graph (the serve_test recipe).
BipartiteGraph SeededGraph(uint64_t seed) {
  GeneratorOptions options;
  options.num_queries = kWorldQueries;
  options.num_ads = kWorldQueries / 3;
  options.taxonomy.num_categories = 8;
  options.taxonomy.subtopics_per_category = 6;
  options.mean_impressions_per_query = 25.0;
  options.seed = seed;
  auto world = GenerateClickGraph(options);
  SRPP_CHECK(world.ok());
  return std::move(world)->graph;
}

void WriteSnapshotFile(const BipartiteGraph& graph, const std::string& path) {
  SimRankOptions options;
  options.variant = SimRankVariant::kWeighted;
  options.iterations = 5;
  options.prune_threshold = 1e-6;
  options.max_partners_per_node = 100;
  options.num_threads = 1;
  auto engine = CreateSimRankEngine("sparse", options);
  SRPP_CHECK(engine.ok());
  SRPP_CHECK((*engine)->Run(graph).ok());
  SimilarityMatrix scores = (*engine)->ExportQueryScores(1e-6);
  SRPP_CHECK(SaveSnapshot(scores, SimRankVariantName(options.variant), path,
                          SnapshotSide::kQueryQuery)
                 .ok());
}

// Writes the world's graphs, snapshots and manifest under `stem` and
// returns the manifest path.
std::string MakeWorld(const std::string& stem) {
  std::string graph_a_path = stem + "_a_graph.tsv";
  std::string graph_b_path = stem + "_b_graph.tsv";
  std::string snap_a_path = stem + "_a.snap";
  std::string snap_b_path = stem + "_b.snap";
  std::string manifest_path = stem + "_manifest.txt";
  BipartiteGraph graph_a = SeededGraph(42);
  BipartiteGraph graph_b = SeededGraph(43);
  SRPP_CHECK(SaveGraph(graph_a, graph_a_path).ok());
  SRPP_CHECK(SaveGraph(graph_b, graph_b_path).ok());
  WriteSnapshotFile(graph_a, snap_a_path);
  WriteSnapshotFile(graph_b, snap_b_path);
  // "lazy" shares alpha's graph but has no snapshot: its rows are
  // computed on demand by the linearized engine, so the e2e smoke
  // exercises the cold-row serving path too.
  std::string manifest =
      "manifest-version 1\n"
      "tenant alpha\n  graph " + graph_a_path + "\n  snapshot " +
      snap_a_path + "\ntenant beta\n  graph " + graph_b_path +
      "\n  snapshot " + snap_b_path + "\ntenant lazy\n  graph " +
      graph_a_path + "\n  scoring on-demand\n";
  FILE* out = std::fopen(manifest_path.c_str(), "w");
  SRPP_CHECK(out != nullptr);
  std::fputs(manifest.c_str(), out);
  std::fclose(out);
  return manifest_path;
}

std::vector<std::string> SampleQueries(const BipartiteGraph& graph,
                                       size_t count) {
  std::vector<std::string> queries;
  size_t step = std::max<size_t>(1, graph.num_queries() / count);
  for (size_t q = 0; q < graph.num_queries() && queries.size() < count;
       q += step) {
    queries.push_back(graph.query_label(static_cast<QueryId>(q)));
  }
  return queries;
}

// True when `reply` is an ok `type` frame answering `request_id`;
// otherwise says what came back on stderr.
bool CheckReply(const Result<loadgen::Reply>& reply, FrameType type,
                uint32_t request_id) {
  if (!reply.ok()) {
    std::fprintf(stderr, "request %u: %s\n", request_id,
                 reply.status().ToString().c_str());
    return false;
  }
  if (!reply->ok() || reply->type != type ||
      reply->request_id != request_id) {
    std::fprintf(stderr,
                 "request %u: got frame type 0x%02x, code %s, request id "
                 "%u\n",
                 request_id, static_cast<unsigned>(reply->type),
                 WireCodeName(reply->code), reply->request_id);
    return false;
  }
  return true;
}

// Value of one exposition sample ("<series> <value>" on its own line),
// or -1 when the daemon did not expose the series.
double SampleValue(const std::string& metrics_text,
                   const std::string& series) {
  size_t at = metrics_text.find("\n" + series + " ");
  if (at == std::string::npos) return -1.0;
  return std::strtod(metrics_text.c_str() + at + series.size() + 2, nullptr);
}

// Cold/warm round-trip against the world's "lazy" tenant: nothing before
// this queried it, so the first TopK computes its row on the spot; the
// repeat must match it, and the daemon's metrics must show the cold
// admission, the computed row, and the row-cache hit. Returns 0 on
// success.
int VerifyOnDemand(loadgen::Client* client, const BipartiteGraph& graph_a) {
  const std::string query = graph_a.query_label(1);
  Result<loadgen::Reply> cold = client->TopK("lazy", query, 5, 9001);
  if (!CheckReply(cold, FrameType::kTopKResponse, 9001)) return 1;
  if (cold->items.empty()) {
    std::fprintf(stderr, "cold on-demand query came back empty\n");
    return 1;
  }
  Result<loadgen::Reply> warm = client->TopK("lazy", query, 5, 9002);
  if (!CheckReply(warm, FrameType::kTopKResponse, 9002)) return 1;
  if (warm->items != cold->items) {
    std::fprintf(stderr, "warm repeat did not match the cold answer\n");
    return 1;
  }
  Status sent = client->SendMetrics(9003);
  if (!sent.ok()) {
    std::fprintf(stderr, "%s\n", sent.ToString().c_str());
    return 1;
  }
  Result<loadgen::Reply> metrics = client->ReadReply();
  if (!CheckReply(metrics, FrameType::kMetricsResponse, 9003)) return 1;
  for (const char* family : {"srpp_cold_requests_total",
                             "srpp_rows_computed_total",
                             "srpp_row_cache_hits_total"}) {
    std::string series = std::string(family) + "{tenant=\"lazy\"}";
    if (SampleValue(metrics->text, series) < 1.0) {
      std::fprintf(stderr, "expected %s >= 1:\n%s\n", series.c_str(),
                   metrics->text.c_str());
      return 1;
    }
  }
  std::printf("on-demand tenant verified: cold answered, repeat hit the "
              "row cache\n");
  return 0;
}

int ConnectMode(const std::string& endpoint) {
  size_t colon = endpoint.rfind(':');
  if (colon == std::string::npos) {
    std::fprintf(stderr, "--connect expects HOST:PORT, got %s\n",
                 endpoint.c_str());
    return 2;
  }
  loadgen::Client client;
  Status connected = client.Connect(
      endpoint.substr(0, colon),
      static_cast<uint16_t>(
          std::strtoul(endpoint.c_str() + colon + 1, nullptr, 10)));
  if (!connected.ok()) {
    std::fprintf(stderr, "%s\n", connected.ToString().c_str());
    return 1;
  }
  // The daemon serves the MakeWorld manifest: same tenants, same seeds,
  // so these query texts resolve.
  BipartiteGraph graph_a = SeededGraph(42);
  BipartiteGraph graph_b = SeededGraph(43);
  uint32_t request_id = 0;
  for (const auto& [tenant, graph] :
       {std::pair{"alpha", &graph_a}, std::pair{"beta", &graph_b}}) {
    for (const std::string& query : SampleQueries(*graph, 32)) {
      ++request_id;
      if (!CheckReply(client.TopK(tenant, query, 10, request_id),
                      FrameType::kTopKResponse, request_id)) {
        return 1;
      }
    }
  }
  std::printf("%u TopK requests answered ok\n", request_id);
  return VerifyOnDemand(&client, graph_a);
}

int Main(int argc, char** argv) {
  SetLogLevel(LogLevel::kWarning);
  std::string_view mode = argc == 3 ? argv[1] : "";
  if (mode == "--make-world") {
    std::printf("%s\n", MakeWorld(argv[2]).c_str());
    return 0;
  }
  if (mode == "--connect") return ConnectMode(argv[2]);
  std::fprintf(stderr,
               "usage: daemon_smoke --make-world STEM | --connect HOST:PORT\n");
  return 2;
}

}  // namespace
}  // namespace simrankpp

int main(int argc, char** argv) { return simrankpp::Main(argc, argv); }
