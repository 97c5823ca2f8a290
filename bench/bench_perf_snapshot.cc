// Snapshot writer/reader benchmark: the serialize pass (sort + record
// encode + checksum) that PR 5 parallelized over the shared pool, plus
// the LoadSnapshot parse path a serving process pays on every hot
// reload. Measures in-memory SerializeSnapshot separately from the
// file-backed SaveSnapshot so disk noise cannot hide an encode
// regression. Baseline/after numbers live in docs/BENCHMARKS.md.
//
// A second table times the serving layer on top of a loaded snapshot,
// on a generated click graph the size of perfbench's tenants:
// RewriteServiceBuilder::Build from a snapshot file (parse, finalize,
// per-generation rewrite index) and RewriteService::TopK(q, 10) over
// every query of the graph.
//
//   bench_perf_snapshot [--smoke] [--repeats N] [--json <path>]
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "core/engine_registry.h"
#include "core/snapshot.h"
#include "perf_harness.h"
#include "rewrite/rewrite_service.h"
#include "synth/click_graph_generator.h"
#include "util/string_util.h"

namespace simrankpp {
namespace {

// A dense-ish random matrix of the size a Table-5 subgraph exports:
// deterministic (seeded LCG) so every run serializes identical bytes.
SimilarityMatrix BenchMatrix(size_t num_nodes, size_t target_pairs) {
  SimilarityMatrix matrix(num_nodes);
  uint64_t state = 0x9e3779b97f4a7c15ull;
  while (matrix.num_pairs() < target_pairs) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    uint32_t u = static_cast<uint32_t>((state >> 33) % num_nodes);
    uint32_t v = static_cast<uint32_t>((state >> 11) % num_nodes);
    if (u == v) continue;
    matrix.Set(u, v, 1.0 / static_cast<double>(1 + (state % 4096)));
  }
  return matrix;
}

[[noreturn]] void Die(const Status& status) {
  std::fprintf(stderr, "%s\n", status.ToString().c_str());
  std::exit(1);
}

// The serving-layer cases. The graph is generated the way perfbench
// generates its tenants (`num_queries` requested, one ad per three
// queries, seed 2024; the generator keeps the queries that drew
// impressions), and its weighted sparse scores are written to `path` the
// way `simrankpp compute` writes them.
void RunServiceCases(size_t num_queries, const std::string& path,
                     size_t repeats, bench::JsonReport* report) {
  GeneratorOptions generator;
  generator.num_queries = num_queries;
  generator.num_ads = num_queries / 3;
  generator.seed = 2024;
  Result<SyntheticClickGraph> world = GenerateClickGraph(generator);
  if (!world.ok()) Die(world.status());
  const BipartiteGraph& graph = world->graph;

  SimRankOptions options;
  options.variant = SimRankVariant::kWeighted;
  options.prune_threshold = 1e-5;
  Result<std::unique_ptr<SimRankEngine>> engine =
      CreateSimRankEngine("sparse", options);
  if (!engine.ok()) Die(engine.status());
  if (Status status = (*engine)->Run(graph); !status.ok()) Die(status);
  SimilarityMatrix scores = (*engine)->ExportQueryScores(1e-6);
  if (Status status = SaveSnapshot(scores, "weighted Simrank", path);
      !status.ok()) {
    Die(status);
  }

  RewritePipelineOptions pipeline;
  pipeline.apply_bid_filter = false;  // perfbench's tenants carry no bids
  auto build = [&] {
    Result<std::unique_ptr<RewriteService>> service =
        RewriteServiceBuilder()
            .WithGraph(&graph)
            .WithSnapshot(path)
            .WithPipelineOptions(pipeline)
            .Build();
    if (!service.ok()) Die(service.status());
    return std::move(service).value();
  };

  const size_t nq = graph.num_queries();
  bench::PerfTable table(
      StringPrintf("rewrite service (%zu queries, %zu pairs)", nq,
                   scores.num_pairs()),
      repeats);
  table.Run(StringPrintf("service_build/%zuq", nq), [&] {
    build();
    return StringPrintf("%zu pairs", scores.num_pairs());
  });
  std::unique_ptr<RewriteService> service = build();
  table.Run(StringPrintf("service_topk10/%zuq", nq), [&] {
    size_t items = 0;
    for (QueryId q = 0; q < nq; ++q) items += service->TopK(q, 10).size();
    return StringPrintf("%zu TopKs, %zu items", nq, items);
  });
  table.Print();
  report->Add(table);
}

int Main(int argc, char** argv) {
  bool smoke = bench::HasFlag(argc, argv, "--smoke");
  size_t repeats = std::strtoull(
      bench::FlagValue(argc, argv, "--repeats", smoke ? "2" : "5"), nullptr,
      10);
  const char* json_path = bench::FlagValue(argc, argv, "--json", "");
  if (repeats == 0) {
    std::fprintf(stderr,
                 "usage: bench_perf_snapshot [--smoke] [--repeats N] "
                 "[--json <path>]\n");
    return 2;
  }

  const size_t num_nodes = smoke ? 2000 : 8000;
  const size_t target_pairs = smoke ? 200000 : 2000000;
  SimilarityMatrix matrix = BenchMatrix(num_nodes, target_pairs);
  std::string path = "/tmp/bench_perf_snapshot.snap";

  bench::PerfTable table(
      StringPrintf("snapshot writer/reader (%zu nodes, %zu pairs)",
                   matrix.num_nodes(), matrix.num_pairs()),
      repeats);
  std::string note = StringPrintf("%zu pairs", matrix.num_pairs());

  size_t serialized_bytes = 0;
  table.Run(StringPrintf("serialize/%zu", matrix.num_pairs()), [&] {
    serialized_bytes = SerializeSnapshot(matrix, "bench").size();
    return note;
  });
  table.Run(StringPrintf("save/%zu", matrix.num_pairs()), [&] {
    Status status = SaveSnapshot(matrix, "bench", path);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      std::exit(1);
    }
    return note;
  });
  table.Run(StringPrintf("load/%zu", matrix.num_pairs()), [&] {
    Result<SimilaritySnapshot> snapshot = LoadSnapshot(path);
    if (!snapshot.ok() ||
        snapshot->matrix.num_pairs() != matrix.num_pairs()) {
      std::fprintf(stderr, "reload mismatch\n");
      std::exit(1);
    }
    return note;
  });
  table.Print();
  std::printf("serialized bytes: %zu\n", serialized_bytes);
  std::remove(path.c_str());

  bench::JsonReport report;
  report.Add(table);
  RunServiceCases(smoke ? 3000 : 8000, path, repeats, &report);
  std::remove(path.c_str());

  if (json_path[0] != '\0') {
    if (!report.WriteFile(json_path)) {
      std::fprintf(stderr, "cannot write %s\n", json_path);
      return 1;
    }
    std::printf("wrote %s\n", json_path);
  }
  return 0;
}

}  // namespace
}  // namespace simrankpp

int main(int argc, char** argv) { return simrankpp::Main(argc, argv); }
