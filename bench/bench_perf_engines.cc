// Engine micro-benchmarks on the vendored timing harness (perf_harness.h,
// no google-benchmark dependency): dense vs sparse across graph sizes,
// the three variants on the sparse engine, and a pruning-threshold sweep
// with the surviving pair counts.
//
//   bench_perf_engines [--smoke] [--repeats N] [--json <path>]
//
// --smoke shrinks the graphs and repeats so the binary finishes in a few
// seconds; CI runs it as an executable smoke test. --json writes the
// machine-readable per-case report (median/best ns); CI merges the
// `--smoke --json` reports of the perf benches and diffs them against
// the committed `BENCH_PR9.json` baseline at the repo root.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/dense_engine.h"
#include "core/sparse_engine.h"
#include "perf_harness.h"
#include "synth/click_graph_generator.h"
#include "util/logging.h"

namespace simrankpp {
namespace {

BipartiteGraph BenchGraph(size_t num_queries) {
  GeneratorOptions options;
  options.num_queries = num_queries;
  options.num_ads = num_queries / 3;
  options.taxonomy.num_categories = 16;
  options.taxonomy.subtopics_per_category = 10;
  options.mean_impressions_per_query = 25.0;
  options.seed = 99;
  auto world = GenerateClickGraph(options);
  SRPP_CHECK(world.ok());
  return std::move(world)->graph;
}

SimRankOptions BenchOptions(SimRankVariant variant) {
  SimRankOptions options;
  options.variant = variant;
  options.iterations = 5;
  options.prune_threshold = 1e-4;
  options.max_partners_per_node = 200;
  return options;
}

std::string GraphNote(const BipartiteGraph& graph) {
  return std::to_string(graph.num_queries()) + "q/" +
         std::to_string(graph.num_edges()) + "e";
}

int Main(int argc, char** argv) {
  bool smoke = bench::HasFlag(argc, argv, "--smoke");
  size_t repeats = std::strtoull(
      bench::FlagValue(argc, argv, "--repeats", smoke ? "1" : "3"), nullptr,
      10);
  const char* json_path = bench::FlagValue(argc, argv, "--json", "");
  if (repeats == 0) {
    std::fprintf(stderr,
                 "usage: bench_perf_engines [--smoke] [--repeats N] "
                 "[--json <path>]\n");
    return 2;
  }
  bench::JsonReport report;

  // Dense engine across sizes.
  {
    bench::PerfTable table("dense engine, plain SimRank", repeats);
    for (size_t size : smoke ? std::vector<size_t>{300}
                             : std::vector<size_t>{500, 1500}) {
      BipartiteGraph graph = BenchGraph(size);
      table.Run("dense/" + std::to_string(size), [&] {
        DenseSimRankEngine engine(BenchOptions(SimRankVariant::kSimRank));
        SRPP_CHECK(engine.Run(graph).ok());
        return GraphNote(graph);
      });
    }
    table.Print();
    report.Add(table);
  }

  // Sparse engine across sizes.
  {
    bench::PerfTable table("sparse engine, plain SimRank", repeats);
    for (size_t size : smoke ? std::vector<size_t>{500}
                             : std::vector<size_t>{500, 1500, 4000}) {
      BipartiteGraph graph = BenchGraph(size);
      table.Run("sparse/" + std::to_string(size), [&] {
        SparseSimRankEngine engine(BenchOptions(SimRankVariant::kSimRank));
        SRPP_CHECK(engine.Run(graph).ok());
        return GraphNote(graph);
      });
    }
    table.Print();
    report.Add(table);
  }

  // Variants on one sparse graph.
  {
    BipartiteGraph graph = BenchGraph(smoke ? 500 : 1500);
    bench::PerfTable table("sparse engine variants, " + GraphNote(graph),
                           repeats);
    for (SimRankVariant variant :
         {SimRankVariant::kSimRank, SimRankVariant::kEvidence,
          SimRankVariant::kWeighted}) {
      table.Run(SimRankVariantName(variant), [&] {
        SparseSimRankEngine engine(BenchOptions(variant));
        SRPP_CHECK(engine.Run(graph).ok());
        return std::string("pairs=") +
               std::to_string(engine.stats().query_pairs);
      });
    }
    table.Print();
    report.Add(table);
  }

  // Pruning sweep: threshold vs surviving pairs.
  {
    BipartiteGraph graph = BenchGraph(smoke ? 500 : 1500);
    bench::PerfTable table("sparse pruning sweep, " + GraphNote(graph),
                           repeats);
    for (double threshold : {1e-2, 1e-4, 1e-6}) {
      SimRankOptions options = BenchOptions(SimRankVariant::kSimRank);
      options.prune_threshold = threshold;
      char name[32];
      std::snprintf(name, sizeof(name), "threshold=%g", threshold);
      table.Run(name, [&] {
        SparseSimRankEngine engine(options);
        SRPP_CHECK(engine.Run(graph).ok());
        return std::string("query_pairs=") +
               std::to_string(engine.stats().query_pairs);
      });
    }
    table.Print();
    report.Add(table);
  }

  if (json_path[0] != '\0' && !report.WriteFile(json_path)) {
    std::fprintf(stderr, "failed to write %s\n", json_path);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace simrankpp

int main(int argc, char** argv) { return simrankpp::Main(argc, argv); }
