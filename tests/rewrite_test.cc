// Rewrite front-end tests: bid database, the selection pipeline (top-100,
// stem dedup, bid filter, top-5) with per-candidate audit outcomes, the
// QueryRewriter facade, and an oracle that checks the index-backed
// pipeline against a reference that works on texts.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/engine_registry.h"
#include "core/sample_graphs.h"
#include "graph/graph_builder.h"
#include "rewrite/pipeline.h"
#include "rewrite/rewriter.h"
#include "synth/bid_generator.h"
#include "synth/click_graph_generator.h"
#include "text/normalize.h"
#include "util/logging.h"

namespace simrankpp {
namespace {

TEST(BidDatabaseTest, NormalizesLookups) {
  BidDatabase bids;
  bids.AddBid("Digital  Camera");
  EXPECT_TRUE(bids.HasBid("digital camera"));
  EXPECT_TRUE(bids.HasBid(" DIGITAL CAMERA "));
  EXPECT_FALSE(bids.HasBid("camera digital"));  // order matters
  EXPECT_FALSE(bids.HasBid("camera"));
  EXPECT_EQ(bids.size(), 1u);
}

TEST(BidDatabaseTest, ConstructFromPreNormalizedSet) {
  BidDatabase bids({"camera", "digital camera"});
  EXPECT_TRUE(bids.HasBid("Camera"));
  EXPECT_EQ(bids.size(), 2u);
}

// A graph whose labels exercise dedup: "camera" and "cameras" stem the
// same; scores are planted directly in the matrix.
struct PipelineFixture {
  PipelineFixture() {
    GraphBuilder builder;
    for (const char* q : {"camera", "cameras", "digital camera",
                          "camera store", "tv", "flower", "pc"}) {
      builder.AddQuery(q);
    }
    EXPECT_TRUE(builder.AddClick("camera", "ad").ok());
    graph = std::move(builder.Build()).value();
    matrix = SimilarityMatrix(graph.num_queries());
  }

  QueryId Q(const char* label) { return *graph.FindQuery(label); }

  BipartiteGraph graph;
  SimilarityMatrix matrix{0};
};

TEST(PipelineTest, RanksByScoreAndCapsDepth) {
  PipelineFixture f;
  f.matrix.Set(f.Q("camera"), f.Q("digital camera"), 0.9);
  f.matrix.Set(f.Q("camera"), f.Q("tv"), 0.7);
  f.matrix.Set(f.Q("camera"), f.Q("flower"), 0.5);
  f.matrix.Set(f.Q("camera"), f.Q("pc"), 0.3);
  f.matrix.Finalize();

  RewritePipelineOptions options;
  options.max_rewrites = 2;
  options.apply_bid_filter = false;
  std::vector<RewriteCandidate> rewrites =
      SelectRewrites(f.graph, f.matrix, f.Q("camera"), nullptr, options);
  ASSERT_EQ(rewrites.size(), 2u);
  EXPECT_EQ(rewrites[0].text, "digital camera");
  EXPECT_EQ(rewrites[1].text, "tv");
}

TEST(PipelineTest, DedupDropsStemDuplicates) {
  PipelineFixture f;
  f.matrix.Set(f.Q("camera"), f.Q("cameras"), 0.95);  // dup of the query
  f.matrix.Set(f.Q("camera"), f.Q("digital camera"), 0.9);
  f.matrix.Finalize();

  RewritePipelineOptions options;
  options.apply_bid_filter = false;
  std::vector<RewriteCandidate> rewrites =
      SelectRewrites(f.graph, f.matrix, f.Q("camera"), nullptr, options);
  ASSERT_EQ(rewrites.size(), 1u);
  EXPECT_EQ(rewrites[0].text, "digital camera");
}

TEST(PipelineTest, DedupDropsLaterDuplicateCandidates) {
  PipelineFixture f;
  // "camera store" vs a stem-equal variant placed lower.
  GraphBuilder builder;
  builder.AddQuery("q");
  builder.AddQuery("camera store");
  builder.AddQuery("camera stores");
  builder.AddQuery("tv");
  BipartiteGraph graph = std::move(builder.Build()).value();
  SimilarityMatrix matrix(graph.num_queries());
  QueryId q = *graph.FindQuery("q");
  matrix.Set(q, *graph.FindQuery("camera store"), 0.9);
  matrix.Set(q, *graph.FindQuery("camera stores"), 0.8);
  matrix.Set(q, *graph.FindQuery("tv"), 0.7);
  matrix.Finalize();

  RewritePipelineOptions options;
  options.apply_bid_filter = false;
  std::vector<RewriteCandidate> rewrites =
      SelectRewrites(graph, matrix, q, nullptr, options);
  ASSERT_EQ(rewrites.size(), 2u);
  EXPECT_EQ(rewrites[0].text, "camera store");
  EXPECT_EQ(rewrites[1].text, "tv");
}

TEST(PipelineTest, BidFilterRemovesUnbidTerms) {
  PipelineFixture f;
  f.matrix.Set(f.Q("camera"), f.Q("digital camera"), 0.9);
  f.matrix.Set(f.Q("camera"), f.Q("tv"), 0.7);
  f.matrix.Finalize();

  BidDatabase bids;
  bids.AddBid("tv");
  RewritePipelineOptions options;
  std::vector<RewriteCandidate> rewrites =
      SelectRewrites(f.graph, f.matrix, f.Q("camera"), &bids, options);
  ASSERT_EQ(rewrites.size(), 1u);
  EXPECT_EQ(rewrites[0].text, "tv");
}

TEST(PipelineTest, NonPositiveScoresNeverSurface) {
  PipelineFixture f;
  f.matrix.Set(f.Q("camera"), f.Q("tv"), -0.8);  // Pearson can be negative
  f.matrix.Set(f.Q("camera"), f.Q("pc"), 0.4);
  f.matrix.Finalize();
  RewritePipelineOptions options;
  options.apply_bid_filter = false;
  std::vector<RewriteCandidate> rewrites =
      SelectRewrites(f.graph, f.matrix, f.Q("camera"), nullptr, options);
  ASSERT_EQ(rewrites.size(), 1u);
  EXPECT_EQ(rewrites[0].text, "pc");
}

TEST(PipelineTest, MaxCandidatesLimitsConsideration) {
  PipelineFixture f;
  f.matrix.Set(f.Q("camera"), f.Q("tv"), 0.9);
  f.matrix.Set(f.Q("camera"), f.Q("pc"), 0.8);
  f.matrix.Set(f.Q("camera"), f.Q("flower"), 0.7);
  f.matrix.Finalize();
  RewritePipelineOptions options;
  options.max_candidates = 2;
  options.apply_bid_filter = false;
  std::vector<RewriteCandidate> rewrites =
      SelectRewrites(f.graph, f.matrix, f.Q("camera"), nullptr, options);
  EXPECT_EQ(rewrites.size(), 2u);  // flower never considered
}

TEST(PipelineTest, AuditReportsDropReasons) {
  PipelineFixture f;
  f.matrix.Set(f.Q("camera"), f.Q("cameras"), 0.95);
  f.matrix.Set(f.Q("camera"), f.Q("digital camera"), 0.9);
  f.matrix.Set(f.Q("camera"), f.Q("tv"), 0.8);
  f.matrix.Set(f.Q("camera"), f.Q("pc"), 0.7);
  f.matrix.Finalize();

  BidDatabase bids;
  bids.AddBid("digital camera");
  bids.AddBid("pc");
  RewritePipelineOptions options;
  options.max_rewrites = 1;
  std::vector<AuditedCandidate> audit =
      AuditRewrites(f.graph, f.matrix, f.Q("camera"), &bids, options);
  ASSERT_EQ(audit.size(), 4u);
  EXPECT_EQ(audit[0].outcome, DropReason::kDuplicateOfQuery);   // cameras
  EXPECT_EQ(audit[1].outcome, DropReason::kKept);               // digital camera
  EXPECT_EQ(audit[2].outcome, DropReason::kNoBid);              // tv
  EXPECT_EQ(audit[3].outcome, DropReason::kBeyondDepth);        // pc
  EXPECT_STREQ(DropReasonName(audit[3].outcome), "beyond-depth");
}

TEST(RewriterTest, TextLookupNotFoundNamesTheQuery) {
  BipartiteGraph graph = MakeFigure3Graph();
  SimilarityMatrix matrix(graph.num_queries());
  QueryRewriter rewriter("test", &graph, std::move(matrix), nullptr, {});
  auto missing = rewriter.RewritesFor("espresso machine");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  // The message must identify the query so a caller can log it usefully.
  EXPECT_NE(missing.status().message().find("espresso machine"),
            std::string::npos);
}

TEST(RewriterTest, EmptyBidDatabaseWithFilterOnDropsEverything) {
  BipartiteGraph graph = MakeFigure3Graph();
  SimilarityMatrix matrix(graph.num_queries());
  QueryId camera = *graph.FindQuery("camera");
  matrix.Set(camera, *graph.FindQuery("digital camera"), 0.62);
  matrix.Set(camera, *graph.FindQuery("tv"), 0.61);

  BidDatabase empty_bids;
  RewritePipelineOptions options;  // bid filter on by default
  QueryRewriter rewriter("test", &graph, std::move(matrix), &empty_bids,
                         options);
  // No term has a bid, so the filter removes every candidate — empty
  // result, not an error.
  EXPECT_TRUE(rewriter.RewritesFor(camera).empty());
  auto by_text = rewriter.RewritesFor("camera");
  ASSERT_TRUE(by_text.ok());
  EXPECT_TRUE(by_text->empty());
}

TEST(RewriterTest, NullBidDatabaseDisablesTheFilter) {
  BipartiteGraph graph = MakeFigure3Graph();
  SimilarityMatrix matrix(graph.num_queries());
  QueryId camera = *graph.FindQuery("camera");
  matrix.Set(camera, *graph.FindQuery("tv"), 0.61);
  // Filter requested but no database wired: the pipeline treats the
  // filter as disabled rather than dropping everything.
  QueryRewriter rewriter("test", &graph, std::move(matrix), nullptr, {});
  EXPECT_EQ(rewriter.RewritesFor(camera).size(), 1u);
}

TEST(RewriterTest, TopKBeyondCandidateSetSaturates) {
  BipartiteGraph graph = MakeFigure3Graph();
  SimilarityMatrix matrix(graph.num_queries());
  QueryId camera = *graph.FindQuery("camera");
  matrix.Set(camera, *graph.FindQuery("digital camera"), 0.62);
  matrix.Set(camera, *graph.FindQuery("tv"), 0.61);
  matrix.Set(camera, *graph.FindQuery("pc"), 0.60);

  RewritePipelineOptions options;
  options.apply_bid_filter = false;
  options.max_rewrites = 2;  // TopK overrides this depth
  QueryRewriter rewriter("test", &graph, std::move(matrix), nullptr,
                         options);
  EXPECT_EQ(rewriter.TopK(camera, 2).size(), 2u);
  // k larger than the candidate set returns all three, exactly once.
  std::vector<RewriteCandidate> all = rewriter.TopK(camera, 500);
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].text, "digital camera");
  EXPECT_EQ(rewriter.TopK(camera, 501), all);
  // Degenerate inputs serve empty rather than crashing.
  EXPECT_TRUE(rewriter.TopK(camera, 0).empty());
  EXPECT_TRUE(
      rewriter.TopK(static_cast<QueryId>(graph.num_queries()), 5).empty());
}

TEST(RewriterTest, EndToEndOnFigure3) {
  BipartiteGraph graph = MakeFigure3Graph();
  SimilarityMatrix matrix(graph.num_queries());
  QueryId camera = *graph.FindQuery("camera");
  matrix.Set(camera, *graph.FindQuery("digital camera"), 0.62);
  matrix.Set(camera, *graph.FindQuery("tv"), 0.61);
  matrix.Set(camera, *graph.FindQuery("pc"), 0.60);

  RewritePipelineOptions options;
  options.apply_bid_filter = false;
  QueryRewriter rewriter("test", &graph, std::move(matrix), nullptr,
                         options);
  auto by_text = rewriter.RewritesFor("camera");
  ASSERT_TRUE(by_text.ok());
  ASSERT_EQ(by_text->size(), 3u);
  EXPECT_EQ((*by_text)[0].text, "digital camera");
  EXPECT_EQ(rewriter.method_name(), "test");

  auto missing = rewriter.RewritesFor("no such query");
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

// ------------------------------------------------------------- oracle

// Reference pipeline on texts: every candidate's text is stemmed and
// looked up in the bid list on every call, and the scan always runs to
// max_candidates. It shares no code with the index-backed loop.
std::vector<AuditedCandidate> ReferenceAudit(
    const BipartiteGraph& graph, std::span<const ScoredNode> ranked,
    QueryId q, const BidDatabase* bids,
    const RewritePipelineOptions& options) {
  if (ranked.size() > options.max_candidates) {
    ranked = ranked.first(options.max_candidates);
  }
  const std::string query_key = QueryStemKey(graph.query_label(q));
  std::unordered_set<std::string> seen_keys;
  size_t kept = 0;
  std::vector<AuditedCandidate> audited;
  for (const ScoredNode& scored : ranked) {
    if (scored.score <= options.min_score) break;
    AuditedCandidate entry;
    entry.candidate = {scored.node, graph.query_label(scored.node),
                       scored.score};
    const std::string key = QueryStemKey(entry.candidate.text);
    if (options.apply_dedup && key == query_key) {
      entry.outcome = DropReason::kDuplicateOfQuery;
    } else if (options.apply_dedup && seen_keys.count(key) > 0) {
      entry.outcome = DropReason::kDuplicateOfEarlier;
    } else if (options.apply_bid_filter && bids != nullptr &&
               !bids->HasBid(entry.candidate.text)) {
      entry.outcome = DropReason::kNoBid;
    } else if (kept >= options.max_rewrites) {
      entry.outcome = DropReason::kBeyondDepth;
    } else {
      entry.outcome = DropReason::kKept;
      ++kept;
    }
    if (options.apply_dedup) seen_keys.insert(key);
    audited.push_back(std::move(entry));
  }
  return audited;
}

std::vector<RewriteCandidate> KeptOf(
    const std::vector<AuditedCandidate>& audited) {
  std::vector<RewriteCandidate> kept;
  for (const AuditedCandidate& entry : audited) {
    if (entry.outcome == DropReason::kKept) kept.push_back(entry.candidate);
  }
  return kept;
}

// A generated click graph (plural query forms give stem duplicates),
// weighted Simrank scores and a generated bid list.
struct OracleWorld {
  OracleWorld() {
    GeneratorOptions generator;
    generator.num_queries = 2000;
    generator.num_ads = 100;
    generator.mean_impressions_per_query = 80.0;
    generator.seed = 19;
    Result<SyntheticClickGraph> generated = GenerateClickGraph(generator);
    SRPP_CHECK(generated.ok());
    world = std::move(generated).value();
    SimRankOptions options;
    options.variant = SimRankVariant::kWeighted;
    options.iterations = 5;
    options.prune_threshold = 1e-6;
    options.num_threads = 1;
    auto engine = CreateSimRankEngine("sparse", options);
    SRPP_CHECK(engine.ok());
    SRPP_CHECK((*engine)->Run(world.graph).ok());
    scores = (*engine)->ExportQueryScores(1e-6);
    scores.Finalize();
    bids = BidDatabase(GenerateBidSet(world, BidGeneratorOptions{}));
  }

  SyntheticClickGraph world;
  SimilarityMatrix scores{0};
  BidDatabase bids;
};

const OracleWorld& Oracle() {
  static const OracleWorld* world = new OracleWorld();
  return *world;
}

// Every node, every option combination of the grid: QueryRewriter::TopK,
// RewritesFor and AuditRewrites over the index agree exactly with the
// reference.
void ExpectIndexedPipelineMatchesReference(bool apply_dedup) {
  const OracleWorld& oracle = Oracle();
  const BipartiteGraph& graph = oracle.world.graph;
  size_t duplicate_drops = 0;
  size_t no_bid_drops = 0;
  size_t cases = 0;
  for (bool with_bids : {false, true}) {
    const BidDatabase* bids = with_bids ? &oracle.bids : nullptr;
    NodeLabelFn label = [&graph](uint32_t n) -> const std::string& {
      return graph.query_label(n);
    };
    RewriteIndex index = RewriteIndex::Build(graph.num_queries(), label, bids);
    for (size_t max_candidates : {size_t{2}, size_t{100}}) {
      for (double min_score : {0.0, 0.01}) {
        RewritePipelineOptions options;
        options.apply_dedup = apply_dedup;
        options.apply_bid_filter = true;  // off when bids is null
        options.max_candidates = max_candidates;
        options.min_score = min_score;
        QueryRewriter rewriter("oracle", &graph, oracle.scores, bids,
                               options);
        for (QueryId q = 0; q < graph.num_queries(); ++q) {
          std::span<const ScoredNode> row = oracle.scores.Partners(q);
          SCOPED_TRACE(testing::Message()
                       << "q=" << q << " bids=" << with_bids
                       << " max_candidates=" << max_candidates
                       << " min_score=" << min_score);
          std::vector<AuditedCandidate> reference =
              ReferenceAudit(graph, row, q, bids, options);
          ASSERT_EQ(AuditRewrites(label, index, row, q, options), reference);
          ASSERT_EQ(rewriter.RewritesFor(q), KeptOf(reference));
          for (size_t k : {1, 5, 10, 100}) {
            RewritePipelineOptions at_k = options;
            at_k.max_rewrites = k;
            at_k.max_candidates = std::max(max_candidates, k);
            std::vector<AuditedCandidate> audited =
                ReferenceAudit(graph, row, q, bids, at_k);
            ASSERT_EQ(rewriter.TopK(q, k), KeptOf(audited)) << "k=" << k;
            for (const AuditedCandidate& entry : audited) {
              duplicate_drops +=
                  entry.outcome == DropReason::kDuplicateOfQuery ||
                  entry.outcome == DropReason::kDuplicateOfEarlier;
              no_bid_drops += entry.outcome == DropReason::kNoBid;
            }
            ++cases;
          }
        }
      }
    }
  }
  EXPECT_EQ(cases, 2 * 2 * 2 * 4 * graph.num_queries());
  // Both filters must really have been exercised by the grid, and rows
  // must reach past the recording depth.
  size_t deep_rows = 0;
  for (QueryId q = 0; q < graph.num_queries(); ++q) {
    deep_rows += oracle.scores.Partners(q).size() > 100;
  }
  EXPECT_GT(deep_rows, 0u);
  EXPECT_GT(no_bid_drops, 0u);
  if (apply_dedup) {
    EXPECT_GT(duplicate_drops, 0u);
  } else {
    EXPECT_EQ(duplicate_drops, 0u);
  }
}

TEST(PipelineOracleTest, IndexedPipelineMatchesStringPipelineWithDedup) {
  ExpectIndexedPipelineMatchesReference(/*apply_dedup=*/true);
}

TEST(PipelineOracleTest, IndexedPipelineMatchesStringPipelineWithoutDedup) {
  ExpectIndexedPipelineMatchesReference(/*apply_dedup=*/false);
}

TEST(PipelineOracleTest, IndexIdsAreDeterministicAndMatchStemKeys) {
  const BipartiteGraph& graph = Oracle().world.graph;
  NodeLabelFn label = [&graph](uint32_t n) -> const std::string& {
    return graph.query_label(n);
  };
  RewriteIndex index =
      RewriteIndex::Build(graph.num_queries(), label, &Oracle().bids);
  ASSERT_EQ(index.num_nodes(), graph.num_queries());
  // Ids number distinct keys by first occurrence in node order, and two
  // nodes share an id exactly when their stem keys are equal.
  std::vector<std::string> first_key_of_id;
  for (QueryId q = 0; q < graph.num_queries(); ++q) {
    const std::string key = QueryStemKey(graph.query_label(q));
    uint32_t id = index.stem_id(q);
    if (id == first_key_of_id.size()) {
      first_key_of_id.push_back(key);
    } else {
      ASSERT_LT(id, first_key_of_id.size()) << "q=" << q;
      EXPECT_EQ(first_key_of_id[id], key) << "q=" << q;
    }
    EXPECT_EQ(index.has_bid(q), Oracle().bids.HasBid(graph.query_label(q)));
  }
  EXPECT_LT(first_key_of_id.size(), graph.num_queries());  // duplicates
  std::unordered_set<std::string> distinct(first_key_of_id.begin(),
                                           first_key_of_id.end());
  EXPECT_EQ(distinct.size(), first_key_of_id.size());
  RewriteIndex without_bids =
      RewriteIndex::Build(graph.num_queries(), label, nullptr);
  for (QueryId q = 0; q < graph.num_queries(); ++q) {
    EXPECT_EQ(without_bids.stem_id(q), index.stem_id(q));
    EXPECT_TRUE(without_bids.has_bid(q));
  }
}

}  // namespace
}  // namespace simrankpp
