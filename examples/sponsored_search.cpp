// Sponsored-search front-end demo (the Figure 2 architecture): generate a
// synthetic click log, build a RewriteService that computes weighted
// SimRank through the sparse engine, and serve query rewrites against a
// bid database — then show, for a handful of live queries, the rewrites
// and which of them carry active bids.
//
//   ./build/examples/example_sponsored_search
//   (configure with -DSIMRANKPP_BUILD_EXAMPLES=ON)
#include <cstdio>

#include "rewrite/rewrite_service.h"
#include "synth/bid_generator.h"
#include "synth/click_graph_generator.h"
#include "synth/workload.h"
#include "util/logging.h"
#include "util/stopwatch.h"

using namespace simrankpp;

int main() {
  SetLogLevel(LogLevel::kWarning);
  Stopwatch timer;

  // 1. Two weeks of click history (synthetic).
  GeneratorOptions generator;
  generator.num_queries = 12000;
  generator.num_ads = 3500;
  generator.seed = 31;
  Result<SyntheticClickGraph> world_result = GenerateClickGraph(generator);
  if (!world_result.ok()) {
    std::fprintf(stderr, "%s\n", world_result.status().ToString().c_str());
    return 1;
  }
  SyntheticClickGraph world = std::move(world_result).value();
  std::printf("click graph: %zu queries / %zu ads / %zu edges  (%.2fs)\n",
              world.graph.num_queries(), world.graph.num_ads(),
              world.graph.num_edges(), timer.ElapsedSeconds());

  // 2. The advertiser bid list.
  BidDatabase bids(GenerateBidSet(world, BidGeneratorOptions{}));
  std::printf("bid database: %zu bid terms\n", bids.size());

  // 3-4. The serving front-end: one builder assembles the engine (picked
  // from the registry by name), the bid database, and the pipeline into
  // an immutable, thread-safe service.
  SimRankOptions options;
  options.variant = SimRankVariant::kWeighted;
  options.iterations = 7;
  options.prune_threshold = 1e-5;
  options.num_threads = 0;
  timer.Reset();
  auto service_result = RewriteServiceBuilder()
                            .WithGraph(&world.graph)
                            .WithEngine("sparse", options)
                            .WithMinScore(1e-5)
                            .WithBidDatabase(&bids)
                            .WithPipelineOptions(RewritePipelineOptions{})
                            .Build();
  if (!service_result.ok()) {
    std::fprintf(stderr, "%s\n", service_result.status().ToString().c_str());
    return 1;
  }
  RewriteService& service = **service_result;
  std::printf("weighted Simrank: %s\n",
              service.Stats().engine_stats.ToString().c_str());

  // 5. Rewrite a few live-traffic queries.
  WorkloadOptions workload;
  workload.sample_size = 400;
  workload.seed = 17;
  std::vector<uint32_t> sample = SampleWorkload(world, workload);
  std::vector<std::string> live =
      FilterWorkloadToGraph(world, world.graph, sample);

  size_t shown = 0;
  std::printf("\nincoming query -> rewrites (all carry active bids):\n");
  for (const std::string& query : live) {
    auto rewrites = service.TopK(query, 5);
    if (!rewrites.ok() || rewrites->empty()) continue;
    std::printf("  %-28s ->", query.c_str());
    for (const RewriteCandidate& rewrite : *rewrites) {
      std::printf("  %s (%.3f)", rewrite.text.c_str(), rewrite.score);
    }
    std::printf("\n");
    if (++shown == 8) break;
  }

  // 6. Coverage over the whole live sample, served as one batch on the
  // shared thread pool.
  std::vector<QueryId> live_ids;
  live_ids.reserve(live.size());
  for (const std::string& query : live) {
    if (auto q = world.graph.FindQuery(query); q.has_value()) {
      live_ids.push_back(*q);
    }
  }
  auto batched = service.TopKBatch(live_ids, 5);
  size_t covered = 0;
  for (const auto& rewrites : batched) {
    if (!rewrites.empty()) ++covered;
  }
  std::printf(
      "\ncoverage: %zu of %zu live queries in the click graph received at "
      "least one\nbid-backed rewrite.\n",
      covered, live_ids.size());
  std::printf("service: %s\n", service.Stats().ToString().c_str());
  return 0;
}
