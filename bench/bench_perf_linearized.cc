// Linearized-engine benchmark: the on-demand serving hot path. Prepare()
// (one-off diagonal-correction estimation) across graph sizes, then
// single-source ScoredRow latency — the cost a cold query pays inside
// the daemon — and the crossover against a full sparse-engine
// materialization: Prepare + a handful of rows should beat computing
// every row when only a few are ever asked for. The measured tables
// live in docs/BENCHMARKS.md. Last, the serving tenant's layer: Prepare
// and every query's row on the end-to-end benchmark's tenant graph.
//
//   bench_perf_linearized [--smoke] [--repeats N] [--json <path>]
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/linearized_engine.h"
#include "core/sparse_engine.h"
#include "perf_harness.h"
#include "synth/click_graph_generator.h"
#include "util/logging.h"

namespace simrankpp {
namespace {

// Identical generator settings to bench_perf_engines/bench_perf_sparse
// so the numbers are comparable across binaries.
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

// The end-to-end benchmark's tenant recipe (`num_queries` requested, one
// ad per three, seed 2024; the generator keeps the queries that drew
// impressions), as bench_perf_snapshot's service cases use it.
BipartiteGraph TenantGraph(size_t num_queries) {
  GeneratorOptions options;
  options.num_queries = num_queries;
  options.num_ads = num_queries / 3;
  options.seed = 2024;
  auto world = GenerateClickGraph(options);
  SRPP_CHECK(world.ok());
  return std::move(world)->graph;
}

SimRankOptions BenchOptions() {
  SimRankOptions options;
  options.variant = SimRankVariant::kSimRank;
  options.iterations = 10;
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
                 "usage: bench_perf_linearized [--smoke] [--repeats N] "
                 "[--json <path>]\n");
    return 2;
  }
  bench::JsonReport report;

  // One-off setup cost: diagonal-correction estimation across sizes.
  {
    bench::PerfTable table("linearized Prepare (diag estimation)", repeats);
    for (size_t size : smoke ? std::vector<size_t>{500}
                             : std::vector<size_t>{500, 1500, 4000}) {
      BipartiteGraph graph = BenchGraph(size);
      table.Run("prepare/" + std::to_string(size), [&] {
        LinearizedSimRankEngine engine(BenchOptions());
        SRPP_CHECK(engine.Prepare(graph).ok());
        return GraphNote(graph) + " sweeps=" +
               std::to_string(engine.stats().iterations_run);
      });
    }
    table.Print();
    report.Add(table);
  }

  // The per-cold-query cost: 64 single-source rows on a prepared engine
  // (amortized; the daemon pays one of these per row-cache miss).
  {
    BipartiteGraph graph = BenchGraph(smoke ? 500 : 1500);
    LinearizedSimRankEngine engine(BenchOptions());
    SRPP_CHECK(engine.Prepare(graph).ok());
    bench::PerfTable table(
        "single-source ScoredRow x64, " + GraphNote(graph), repeats);
    table.Run("scored_row/64", [&] {
      size_t entries = 0;
      for (uint32_t node = 0; node < 64; ++node) {
        auto row = engine.ScoredRow(/*ad_side=*/false,
                                    node % graph.num_queries(),
                                    /*min_score=*/1e-4, /*max_partners=*/100);
        SRPP_CHECK(row.ok());
        entries += row->size();
      }
      return "entries=" + std::to_string(entries);
    });
    table.Print();
    report.Add(table);
  }

  // Crossover: full sparse materialization vs Prepare + 64 lazy rows.
  // When a tenant's working set is a sliver of the graph, the lazy
  // column should win by a wide margin.
  {
    BipartiteGraph graph = BenchGraph(smoke ? 500 : 1500);
    bench::PerfTable table(
        "full materialization vs lazy slice, " + GraphNote(graph), repeats);
    table.Run("sparse/full-run", [&] {
      SparseSimRankEngine engine(BenchOptions());
      SRPP_CHECK(engine.Run(graph).ok());
      return "pairs=" + std::to_string(engine.stats().query_pairs);
    });
    table.Run("linearized/prepare+64rows", [&] {
      LinearizedSimRankEngine engine(BenchOptions());
      SRPP_CHECK(engine.Prepare(graph).ok());
      size_t entries = 0;
      for (uint32_t node = 0; node < 64; ++node) {
        auto row = engine.ScoredRow(/*ad_side=*/false,
                                    node % graph.num_queries(),
                                    /*min_score=*/1e-4, /*max_partners=*/100);
        SRPP_CHECK(row.ok());
        entries += row->size();
      }
      return "entries=" + std::to_string(entries);
    });
    table.Print();
    report.Add(table);
  }

  // An on-demand tenant's engine as the snapshot store builds it (default
  // options): its Prepare, then every query's row once, at the depth and
  // floor the rewrite service asks for.
  {
    BipartiteGraph graph = TenantGraph(smoke ? 3000 : 8000);
    const uint32_t nq = static_cast<uint32_t>(graph.num_queries());
    bench::PerfTable table("on-demand tenant, " + GraphNote(graph), repeats);
    table.Run("prepare/" + std::to_string(nq) + "q", [&] {
      LinearizedSimRankEngine engine{SimRankOptions{}};
      SRPP_CHECK(engine.Prepare(graph).ok());
      return "sweeps=" + std::to_string(engine.stats().iterations_run);
    });
    LinearizedSimRankEngine engine{SimRankOptions{}};
    SRPP_CHECK(engine.Prepare(graph).ok());
    table.Run("scored_row/" + std::to_string(nq) + "q", [&] {
      size_t entries = 0;
      for (uint32_t node = 0; node < nq; ++node) {
        auto row = engine.ScoredRow(/*ad_side=*/false, node,
                                    /*min_score=*/1e-6, /*max_partners=*/100);
        SRPP_CHECK(row.ok());
        entries += row->size();
      }
      return std::to_string(nq) + " rows, entries=" + std::to_string(entries);
    });
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
