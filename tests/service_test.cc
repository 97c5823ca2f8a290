// RewriteService tests: builder validation, equivalence of the three
// score sources, batched vs sequential retrieval, snapshot round trips
// into an identical service, open engine registration (no core-header
// edits), and thread safety of concurrent engine Runs + batched serving
// on the shared pool.
#include "rewrite/rewrite_service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <set>
#include <thread>
#include <utility>

#include "core/engine_registry.h"
#include "core/sample_graphs.h"
#include "core/sparse_engine.h"
#include "synth/click_graph_generator.h"
#include "util/logging.h"

namespace simrankpp {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

BipartiteGraph SeededGraph(size_t num_queries = 300, uint64_t seed = 71) {
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

SimRankOptions ServiceEngineOptions(size_t num_threads = 1) {
  SimRankOptions options;
  options.variant = SimRankVariant::kWeighted;
  options.iterations = 5;
  options.prune_threshold = 1e-6;
  options.max_partners_per_node = 100;
  options.num_threads = num_threads;
  return options;
}

RewritePipelineOptions NoBidPipeline() {
  RewritePipelineOptions pipeline;
  pipeline.apply_bid_filter = false;
  return pipeline;
}

// ------------------------------------------------------ builder validation

TEST(RewriteServiceBuilderTest, RequiresAGraph) {
  auto result = RewriteServiceBuilder()
                    .WithSimilarities(SimilarityMatrix(3), "m")
                    .Build();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("graph"), std::string::npos);
}

TEST(RewriteServiceBuilderTest, RequiresExactlyOneScoreSource) {
  BipartiteGraph graph = MakeFigure3Graph();
  auto none = RewriteServiceBuilder().WithGraph(&graph).Build();
  ASSERT_FALSE(none.ok());
  EXPECT_EQ(none.status().code(), StatusCode::kInvalidArgument);

  auto both = RewriteServiceBuilder()
                  .WithGraph(&graph)
                  .WithEngine("sparse", ServiceEngineOptions())
                  .WithSimilarities(SimilarityMatrix(graph.num_queries()),
                                    "m")
                  .Build();
  ASSERT_FALSE(both.ok());
  EXPECT_EQ(both.status().code(), StatusCode::kInvalidArgument);
}

TEST(RewriteServiceBuilderTest, UnknownEngineNameSurfacesRegistryError) {
  BipartiteGraph graph = MakeFigure3Graph();
  auto result = RewriteServiceBuilder()
                    .WithGraph(&graph)
                    .WithEngine("no-such-engine", ServiceEngineOptions())
                    .Build();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(RewriteServiceBuilderTest, InvalidEngineOptionsFailBuild) {
  BipartiteGraph graph = MakeFigure3Graph();
  SimRankOptions bad = ServiceEngineOptions();
  bad.iterations = 0;
  auto result =
      RewriteServiceBuilder().WithGraph(&graph).WithEngine("sparse", bad)
          .Build();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(RewriteServiceBuilderTest, RejectsMatrixSizedForADifferentGraph) {
  BipartiteGraph graph = MakeFigure3Graph();
  auto result = RewriteServiceBuilder()
                    .WithGraph(&graph)
                    .WithSimilarities(
                        SimilarityMatrix(graph.num_queries() + 3), "m")
                    .Build();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

// --------------------------------------------------------------- serving

TEST(RewriteServiceTest, EngineAndMatrixSourcesServeIdentically) {
  BipartiteGraph graph = SeededGraph();
  SimRankOptions options = ServiceEngineOptions();

  auto engine_service = RewriteServiceBuilder()
                            .WithGraph(&graph)
                            .WithEngine("sparse", options)
                            .WithMinScore(1e-6)
                            .WithPipelineOptions(NoBidPipeline())
                            .Build();
  ASSERT_TRUE(engine_service.ok()) << engine_service.status().ToString();

  SparseSimRankEngine engine(options);
  ASSERT_TRUE(engine.Run(graph).ok());
  auto matrix_service = RewriteServiceBuilder()
                            .WithGraph(&graph)
                            .WithSimilarities(engine.ExportQueryScores(1e-6),
                                              "weighted Simrank")
                            .WithPipelineOptions(NoBidPipeline())
                            .Build();
  ASSERT_TRUE(matrix_service.ok());

  for (QueryId q = 0; q < graph.num_queries(); ++q) {
    EXPECT_EQ((*engine_service)->TopK(q, 5), (*matrix_service)->TopK(q, 5))
        << "query " << q;
  }
  EXPECT_EQ((*engine_service)->Stats().source, "engine");
  EXPECT_EQ((*engine_service)->Stats().engine_name, "sparse");
  EXPECT_GT((*engine_service)->Stats().engine_stats.iterations_run, 0u);
  EXPECT_EQ((*matrix_service)->Stats().source, "matrix");
}

TEST(RewriteServiceTest, TextLookupMirrorsIdLookupAndReportsNotFound) {
  BipartiteGraph graph = SeededGraph();
  auto service = RewriteServiceBuilder()
                     .WithGraph(&graph)
                     .WithEngine("sparse", ServiceEngineOptions())
                     .WithPipelineOptions(NoBidPipeline())
                     .Build();
  ASSERT_TRUE(service.ok());
  const std::string& label = graph.query_label(0);
  auto by_text = (*service)->TopK(label, 5);
  ASSERT_TRUE(by_text.ok());
  EXPECT_EQ(*by_text, (*service)->TopK(QueryId{0}, 5));

  auto missing = (*service)->TopK("query text no generator can emit", 5);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST(RewriteServiceTest, OversizedKReturnsEveryCandidateOnce) {
  BipartiteGraph graph = SeededGraph();
  auto service = RewriteServiceBuilder()
                     .WithGraph(&graph)
                     .WithEngine("sparse", ServiceEngineOptions())
                     .WithPipelineOptions(NoBidPipeline())
                     .Build();
  ASSERT_TRUE(service.ok());
  // k far beyond any candidate set: results saturate and never repeat.
  std::vector<RewriteCandidate> all = (*service)->TopK(QueryId{0}, 100000);
  std::vector<RewriteCandidate> plus = (*service)->TopK(QueryId{0}, 100001);
  EXPECT_EQ(all, plus);
  EXPECT_LT(all.size(), graph.num_queries());
  // Out-of-range ids and k == 0 serve empty, never crash.
  EXPECT_TRUE(
      (*service)->TopK(static_cast<QueryId>(graph.num_queries()), 5).empty());
  EXPECT_TRUE((*service)->TopK(QueryId{0}, 0).empty());
}

TEST(RewriteServiceTest, BatchMatchesSequentialAndCountsServedQueries) {
  BipartiteGraph graph = SeededGraph();
  auto service_result = RewriteServiceBuilder()
                            .WithGraph(&graph)
                            .WithEngine("sparse", ServiceEngineOptions())
                            .WithPipelineOptions(NoBidPipeline())
                            .Build();
  ASSERT_TRUE(service_result.ok());
  RewriteService& service = **service_result;

  std::vector<QueryId> queries(graph.num_queries());
  std::iota(queries.begin(), queries.end(), 0u);
  std::vector<std::vector<RewriteCandidate>> batched =
      service.TopKBatch(queries, 4);
  ASSERT_EQ(batched.size(), queries.size());
  uint64_t after_batch = service.Stats().queries_served;
  EXPECT_EQ(after_batch, queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(batched[i], service.TopK(queries[i], 4)) << "query " << i;
  }
  EXPECT_EQ(service.Stats().queries_served, after_batch + queries.size());
}

// ------------------------------------------------------ snapshot serving

TEST(RewriteServiceTest, SnapshotRoundTripServesBitIdenticalResults) {
  BipartiteGraph graph = SeededGraph();
  std::string path = TempPath("service_round_trip.snap");
  auto computed = RewriteServiceBuilder()
                      .WithGraph(&graph)
                      .WithEngine("sparse", ServiceEngineOptions())
                      .WithPipelineOptions(NoBidPipeline())
                      .Build();
  ASSERT_TRUE(computed.ok());
  ASSERT_TRUE(SaveSnapshot((*computed)->rewriter().similarities(),
                           (*computed)->Stats().method_name, path)
                  .ok());

  auto served = RewriteServiceBuilder()
                    .WithGraph(&graph)
                    .WithSnapshot(path)
                    .WithPipelineOptions(NoBidPipeline())
                    .Build();
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_EQ((*served)->Stats().source, "snapshot");
  EXPECT_EQ((*served)->Stats().method_name, "weighted Simrank");
  EXPECT_EQ((*served)->Stats().similarity_pairs,
            (*computed)->Stats().similarity_pairs);
  // Bit-identical serving: same texts AND bit-equal scores everywhere
  // (RewriteCandidate::operator== compares the doubles exactly).
  for (QueryId q = 0; q < graph.num_queries(); ++q) {
    EXPECT_EQ((*computed)->TopK(q, 10), (*served)->TopK(q, 10))
        << "query " << q;
  }
  std::remove(path.c_str());
}

TEST(RewriteServiceTest, CorruptSnapshotFailsBuildWithStatus) {
  BipartiteGraph graph = SeededGraph(120, 9);
  std::string path = TempPath("service_corrupt.snap");
  std::ofstream(path, std::ios::binary) << "not a snapshot at all";
  auto service = RewriteServiceBuilder()
                     .WithGraph(&graph)
                     .WithSnapshot(path)
                     .Build();
  ASSERT_FALSE(service.ok());
  EXPECT_EQ(service.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(RewriteServiceTest, SnapshotFromDifferentGraphIsRejected) {
  BipartiteGraph graph = SeededGraph(200, 3);
  BipartiteGraph other = SeededGraph(300, 4);
  ASSERT_NE(graph.num_queries(), other.num_queries());
  std::string path = TempPath("service_wrong_graph.snap");
  auto computed = RewriteServiceBuilder()
                      .WithGraph(&other)
                      .WithEngine("sparse", ServiceEngineOptions())
                      .Build();
  ASSERT_TRUE(computed.ok());
  ASSERT_TRUE(SaveSnapshot((*computed)->rewriter().similarities(),
                           (*computed)->Stats().method_name, path)
                  .ok());
  auto mismatched =
      RewriteServiceBuilder().WithGraph(&graph).WithSnapshot(path).Build();
  ASSERT_FALSE(mismatched.ok());
  EXPECT_EQ(mismatched.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(mismatched.status().message().find("different graph"),
            std::string::npos);
  std::remove(path.c_str());
}

// ------------------------------------------------------- ad-ad serving

TEST(RewriteServiceTest, AdSideServiceServesAdLabels) {
  BipartiteGraph graph = SeededGraph();
  auto service = RewriteServiceBuilder()
                     .WithGraph(&graph)
                     .WithEngine("sparse", ServiceEngineOptions())
                     .WithSide(SnapshotSide::kAdAd)
                     .WithPipelineOptions(NoBidPipeline())
                     .Build();
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  EXPECT_EQ((*service)->side(), SnapshotSide::kAdAd);
  EXPECT_EQ((*service)->Stats().num_queries, graph.num_ads());

  // Candidates are ad labels; text lookup resolves ads, not queries.
  bool found = false;
  for (AdId a = 0; a < graph.num_ads() && !found; ++a) {
    for (const RewriteCandidate& c : (*service)->TopK(a, 5)) {
      found = true;
      EXPECT_TRUE(graph.FindAd(c.text).has_value()) << c.text;
    }
  }
  ASSERT_TRUE(found);
  EXPECT_TRUE((*service)->TopK(graph.ad_label(0), 5).ok());
  auto as_query = (*service)->TopK(graph.query_label(0), 5);
  ASSERT_FALSE(as_query.ok());
  EXPECT_EQ(as_query.status().code(), StatusCode::kNotFound);
  // Ids beyond the ad count serve empty.
  EXPECT_TRUE(
      (*service)->TopK(static_cast<AdId>(graph.num_ads()), 5).empty());
}

TEST(RewriteServiceTest, AdSideSnapshotRoundTripsThroughTheSideTag) {
  BipartiteGraph graph = SeededGraph();
  std::string path = TempPath("service_ad_side.snap");
  auto computed = RewriteServiceBuilder()
                      .WithGraph(&graph)
                      .WithEngine("sparse", ServiceEngineOptions())
                      .WithSide(SnapshotSide::kAdAd)
                      .WithPipelineOptions(NoBidPipeline())
                      .Build();
  ASSERT_TRUE(computed.ok());
  ASSERT_TRUE(SaveSnapshot((*computed)->rewriter().similarities(),
                           (*computed)->Stats().method_name, path,
                           (*computed)->side())
                  .ok());

  // No WithSide on the serving end: the file's tag is authoritative.
  auto served = RewriteServiceBuilder()
                    .WithGraph(&graph)
                    .WithSnapshot(path)
                    .WithPipelineOptions(NoBidPipeline())
                    .Build();
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_EQ((*served)->side(), SnapshotSide::kAdAd);
  for (AdId a = 0; a < graph.num_ads(); ++a) {
    EXPECT_EQ((*computed)->TopK(a, 5), (*served)->TopK(a, 5)) << "ad " << a;
  }

  // Declaring the wrong side rejects the file instead of serving it.
  auto mismatched = RewriteServiceBuilder()
                        .WithGraph(&graph)
                        .WithSnapshot(path)
                        .WithSide(SnapshotSide::kQueryQuery)
                        .Build();
  ASSERT_FALSE(mismatched.ok());
  EXPECT_EQ(mismatched.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(mismatched.status().message().find("ad-ad"), std::string::npos);
  std::remove(path.c_str());
}

// ------------------------------------------------- on-demand serving

SimRankOptions OnDemandEngineOptions() {
  // The linearized engine serves plain/evidence variants only; keep the
  // precomputed reference on the same engine + options so lazily
  // computed rows must be bit-identical to materialized ones.
  SimRankOptions options;
  options.variant = SimRankVariant::kSimRank;
  options.prune_threshold = 1e-6;
  options.num_threads = 1;
  return options;
}

// The precomputed engine stores the upper triangle only, so s(u, v) for
// u > v is served from row v's accumulation order while the lazy path
// recomputes it from row u's — identical mathematically, but the
// floating-point sums can differ in the last bits. Scores must agree up
// to that rounding; candidate identity and rank must agree exactly
// EXCEPT inside a group of rounding-equal scores (two symmetric
// candidates can land one ulp apart in opposite orders on the two
// paths), where identity must match as a set and rank may permute.
void ExpectEquivalentRewrites(const std::vector<RewriteCandidate>& lazy,
                              const std::vector<RewriteCandidate>& reference) {
  constexpr double kTolerance = 1e-12;
  ASSERT_EQ(lazy.size(), reference.size());
  size_t i = 0;
  while (i < reference.size()) {
    size_t j = i + 1;
    while (j < reference.size() &&
           std::fabs(reference[j].score - reference[i].score) <= kTolerance) {
      ++j;
    }
    std::set<std::pair<uint32_t, std::string>> ref_ids;
    std::set<std::pair<uint32_t, std::string>> lazy_ids;
    for (size_t k = i; k < j; ++k) {
      ref_ids.emplace(reference[k].query, reference[k].text);
      lazy_ids.emplace(lazy[k].query, lazy[k].text);
      EXPECT_NEAR(lazy[k].score, reference[k].score, kTolerance)
          << "rank " << k;
    }
    EXPECT_EQ(lazy_ids, ref_ids) << "tie group at ranks [" << i << ", " << j
                                 << ")";
    i = j;
  }
}

TEST(OnDemandServiceTest, PureOnDemandMatchesPrecomputedLinearizedService) {
  BipartiteGraph graph = SeededGraph(120, 5);
  auto precomputed = RewriteServiceBuilder()
                         .WithGraph(&graph)
                         .WithEngine("linearized", OnDemandEngineOptions())
                         .WithPipelineOptions(NoBidPipeline())
                         .Build();
  ASSERT_TRUE(precomputed.ok()) << precomputed.status().ToString();

  auto lazy = RewriteServiceBuilder()
                  .WithGraph(&graph)
                  .WithOnDemandEngine("linearized", OnDemandEngineOptions())
                  .WithPipelineOptions(NoBidPipeline())
                  .Build();
  ASSERT_TRUE(lazy.ok()) << lazy.status().ToString();
  EXPECT_TRUE((*lazy)->on_demand());
  EXPECT_EQ((*lazy)->Stats().source, "on-demand");
  EXPECT_EQ((*lazy)->Stats().engine_name, "linearized");
  EXPECT_EQ((*lazy)->Stats().similarity_pairs, 0u);

  for (QueryId q = 0; q < graph.num_queries(); ++q) {
    SCOPED_TRACE(q);
    ExpectEquivalentRewrites((*lazy)->TopK(q, 5), (*precomputed)->TopK(q, 5));
  }
  RewriteServiceStats stats = (*lazy)->Stats();
  EXPECT_TRUE(stats.on_demand);
  EXPECT_GT(stats.rows_computed, 0u);
  EXPECT_EQ(stats.row_cache_misses, graph.num_queries());
  EXPECT_EQ(stats.row_cache_hits, 0u);
  EXPECT_NE(stats.ToString().find("on_demand=1"), std::string::npos);

  // A repeated query is a cache hit, not a recomputation.
  uint64_t computed_before = stats.rows_computed;
  ExpectEquivalentRewrites((*lazy)->TopK(QueryId{0}, 5),
                           (*precomputed)->TopK(QueryId{0}, 5));
  stats = (*lazy)->Stats();
  EXPECT_EQ(stats.rows_computed, computed_before);
  EXPECT_GT(stats.row_cache_hits, 0u);
}

// The same equivalence at the deepest k and with every filter on: a bid
// list (two of every three queries bid) and stem dedup, so rows computed
// lazily go through the same index-backed selection as precomputed ones.
TEST(OnDemandServiceTest, OnDemandMatchesPrecomputedAtDepth100WithBids) {
  BipartiteGraph graph = SeededGraph(120, 5);
  BidDatabase bids;
  for (QueryId q = 0; q < graph.num_queries(); ++q) {
    if (q % 3 != 0) bids.AddBid(graph.query_label(q));
  }
  RewritePipelineOptions pipeline;  // dedup and bid filter on
  auto precomputed = RewriteServiceBuilder()
                         .WithGraph(&graph)
                         .WithEngine("linearized", OnDemandEngineOptions())
                         .WithBidDatabase(&bids)
                         .WithPipelineOptions(pipeline)
                         .Build();
  ASSERT_TRUE(precomputed.ok()) << precomputed.status().ToString();
  auto lazy = RewriteServiceBuilder()
                  .WithGraph(&graph)
                  .WithOnDemandEngine("linearized", OnDemandEngineOptions())
                  .WithBidDatabase(&bids)
                  .WithPipelineOptions(pipeline)
                  .Build();
  ASSERT_TRUE(lazy.ok()) << lazy.status().ToString();

  size_t deep = 0;
  for (QueryId q = 0; q < graph.num_queries(); ++q) {
    SCOPED_TRACE(q);
    for (size_t k : {5, 100}) {
      std::vector<RewriteCandidate> reference = (*precomputed)->TopK(q, k);
      for (const RewriteCandidate& candidate : reference) {
        EXPECT_TRUE(bids.HasBid(candidate.text)) << candidate.text;
      }
      if (k == 100 && reference.size() > 5) ++deep;
      ExpectEquivalentRewrites((*lazy)->TopK(q, k), reference);
    }
  }
  EXPECT_GT(deep, 0u);  // k = 100 reached past the default depth
}

TEST(OnDemandServiceTest, HybridMatrixFallsBackOnlyForMissingRows) {
  BipartiteGraph graph = SeededGraph(100, 13);
  // A matrix that covers query 0 only; every other row is missing and
  // must be computed lazily.
  SimilarityMatrix partial(graph.num_queries());
  partial.Set(0, 1, 0.5);
  partial.Set(0, 2, 0.25);
  auto service = RewriteServiceBuilder()
                     .WithGraph(&graph)
                     .WithSimilarities(std::move(partial), "partial")
                     .WithOnDemandEngine("linearized", OnDemandEngineOptions())
                     .WithPipelineOptions(NoBidPipeline())
                     .Build();
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  EXPECT_EQ((*service)->Stats().source, "matrix");
  EXPECT_TRUE((*service)->on_demand());

  // Query 0 has precomputed partners: served from the matrix, no
  // computation, and it is never "cold" for admission purposes.
  EXPECT_FALSE((*service)->RowIsCold(QueryId{0}));
  std::vector<RewriteCandidate> from_matrix = (*service)->TopK(QueryId{0}, 5);
  ASSERT_EQ(from_matrix.size(), 2u);
  EXPECT_EQ(from_matrix[0].score, 0.5);
  EXPECT_EQ((*service)->Stats().rows_computed, 0u);

  // Query 3 has no partners (the matrix is symmetric, so Set(0, 1)
  // and Set(0, 2) warmed queries 1 and 2 as well): cold before the
  // first lookup, warm after.
  EXPECT_TRUE((*service)->RowIsCold(QueryId{3}));
  EXPECT_TRUE((*service)->RowIsCold(graph.query_label(3)));
  (void)(*service)->TopK(QueryId{3}, 5);
  EXPECT_FALSE((*service)->RowIsCold(QueryId{3}));
  RewriteServiceStats stats = (*service)->Stats();
  EXPECT_EQ(stats.rows_computed, 1u);
  EXPECT_EQ(stats.row_cache_misses, 1u);
  // Unknown text is never cold (the lookup itself fails cheaply).
  EXPECT_FALSE((*service)->RowIsCold("no such query text"));
  // Out-of-range ids stay on the precomputed path's empty contract.
  EXPECT_FALSE(
      (*service)->RowIsCold(static_cast<QueryId>(graph.num_queries())));
  EXPECT_TRUE(
      (*service)->TopK(static_cast<QueryId>(graph.num_queries()), 5).empty());
}

TEST(OnDemandServiceTest, BatchMatchesSequentialUnderTheSharedCache) {
  BipartiteGraph graph = SeededGraph(150, 29);
  auto service = RewriteServiceBuilder()
                     .WithGraph(&graph)
                     .WithOnDemandEngine("linearized", OnDemandEngineOptions())
                     .WithPipelineOptions(NoBidPipeline())
                     .Build();
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  std::vector<QueryId> queries(graph.num_queries());
  std::iota(queries.begin(), queries.end(), 0u);
  std::vector<std::vector<RewriteCandidate>> batched =
      (*service)->TopKBatch(queries, 4);
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(batched[i], (*service)->TopK(queries[i], 4)) << "query " << i;
  }
}

TEST(OnDemandServiceTest, SmallRowCacheEvictsUnderChurn) {
  BipartiteGraph graph = SeededGraph(100, 31);
  auto service = RewriteServiceBuilder()
                     .WithGraph(&graph)
                     .WithOnDemandEngine("linearized", OnDemandEngineOptions())
                     .WithRowCacheCapacity(8)
                     .WithPipelineOptions(NoBidPipeline())
                     .Build();
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  for (QueryId q = 0; q < graph.num_queries(); ++q) {
    (void)(*service)->TopK(q, 3);
  }
  RewriteServiceStats stats = (*service)->Stats();
  EXPECT_GT(stats.row_cache_evictions, 0u);
  EXPECT_LE(stats.row_cache_entries, 8u);
  EXPECT_EQ(stats.row_cache_misses, graph.num_queries());
}

TEST(OnDemandServiceTest, BuilderRejectsInvalidOnDemandConfigurations) {
  BipartiteGraph graph = MakeFigure3Graph();
  // WithEngine + WithOnDemandEngine: contradictory.
  auto both = RewriteServiceBuilder()
                  .WithGraph(&graph)
                  .WithEngine("sparse", ServiceEngineOptions())
                  .WithOnDemandEngine("linearized", OnDemandEngineOptions())
                  .Build();
  ASSERT_FALSE(both.ok());
  EXPECT_EQ(both.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(both.status().message().find("mutually exclusive"),
            std::string::npos);
  // An engine without the OnDemandScorer capability is named in the error.
  auto dense = RewriteServiceBuilder()
                   .WithGraph(&graph)
                   .WithOnDemandEngine("dense", OnDemandEngineOptions())
                   .Build();
  ASSERT_FALSE(dense.ok());
  EXPECT_EQ(dense.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(dense.status().message().find("does not support on-demand"),
            std::string::npos);
  // Engine construction/Prepare failures surface (weighted cannot
  // linearize).
  SimRankOptions weighted = OnDemandEngineOptions();
  weighted.variant = SimRankVariant::kWeighted;
  auto bad_variant = RewriteServiceBuilder()
                         .WithGraph(&graph)
                         .WithOnDemandEngine("linearized", weighted)
                         .Build();
  ASSERT_FALSE(bad_variant.ok());
  EXPECT_EQ(bad_variant.status().code(), StatusCode::kNotImplemented);
}

// --------------------------------------------------------- row cache

TEST(RowCacheTest, LruEvictionAndCountersAreExact) {
  // One shard makes the LRU order fully deterministic.
  RowCache cache(/*capacity=*/2, /*num_shards=*/1);
  std::vector<ScoredNode> row;
  EXPECT_FALSE(cache.Lookup(1, &row));
  cache.Insert(1, {{2, 0.5}});
  cache.Insert(2, {{3, 0.25}});
  ASSERT_TRUE(cache.Lookup(1, &row));  // 1 becomes most recent
  EXPECT_EQ(row, (std::vector<ScoredNode>{{2, 0.5}}));
  cache.Insert(3, {{4, 0.125}});  // evicts 2, the least recent
  EXPECT_FALSE(cache.Contains(2));
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_TRUE(cache.Contains(3));
  // Re-inserting a resident key refreshes in place (no double entry).
  cache.Insert(1, {{5, 0.75}});
  ASSERT_TRUE(cache.Lookup(1, &row));
  EXPECT_EQ(row, (std::vector<ScoredNode>{{5, 0.75}}));

  // Counted above: one miss (the initial Lookup), two hits (the two
  // successful Lookups); Contains never touches the counters.
  RowCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
}

// ------------------------------------------------------- thread safety

// Two concurrent engine Runs plus concurrent TopKBatch streams, all on
// the shared pool. Verifies (a) nothing deadlocks or races (run under
// the CI sanitizer-less build this is still a meaningful smoke under
// load), (b) concurrently-computed scores are bit-identical to serial
// runs, and (c) every batch equals the precomputed reference.
TEST(RewriteServiceStressTest, ConcurrentRunsAndBatchesStayCorrect) {
  BipartiteGraph graph = SeededGraph(250, 21);

  // Serial references.
  SparseSimRankEngine reference_engine(ServiceEngineOptions(1));
  ASSERT_TRUE(reference_engine.Run(graph).ok());
  SimilarityMatrix reference_scores = reference_engine.ExportQueryScores(0.0);

  auto service_result = RewriteServiceBuilder()
                            .WithGraph(&graph)
                            .WithEngine("sparse", ServiceEngineOptions(0))
                            .WithPipelineOptions(NoBidPipeline())
                            .Build();
  ASSERT_TRUE(service_result.ok());
  RewriteService& service = **service_result;
  std::vector<QueryId> queries(graph.num_queries());
  std::iota(queries.begin(), queries.end(), 0u);
  const std::vector<std::vector<RewriteCandidate>> expected =
      service.TopKBatch(queries, 5);

  constexpr int kRunsPerThread = 3;
  constexpr int kBatchesPerThread = 8;
  std::atomic<int> failures{0};

  auto run_engines = [&] {
    for (int r = 0; r < kRunsPerThread; ++r) {
      SparseSimRankEngine engine(ServiceEngineOptions(0));
      if (!engine.Run(graph).ok() ||
          engine.ExportQueryScores(0.0).MaxAbsDifference(reference_scores) !=
              0.0) {
        failures.fetch_add(1);
      }
    }
  };
  auto run_batches = [&] {
    for (int r = 0; r < kBatchesPerThread; ++r) {
      if (service.TopKBatch(queries, 5) != expected) failures.fetch_add(1);
    }
  };

  std::thread engine_a(run_engines);
  std::thread engine_b(run_engines);
  std::thread batch_a(run_batches);
  std::thread batch_b(run_batches);
  engine_a.join();
  engine_b.join();
  batch_a.join();
  batch_b.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace simrankpp
