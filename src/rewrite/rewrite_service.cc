#include "rewrite/rewrite_service.h"

#include <utility>

#include "core/engine_registry.h"
#include "core/snapshot.h"
#include "util/logging.h"
#include "util/simd/simd.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace simrankpp {

std::string RewriteServiceStats::ToString() const {
  std::string out = StringPrintf(
      "method=\"%s\" source=%s%s%s side=%s nodes=%zu pairs=%zu served=%llu",
      method_name.c_str(), source.c_str(),
      engine_name.empty() ? "" : " engine=", engine_name.c_str(),
      SnapshotSideName(side), num_queries, similarity_pairs,
      static_cast<unsigned long long>(queries_served));
  if (on_demand) {
    out += StringPrintf(
        " on_demand=1 rows_computed=%llu cache_hits=%llu cache_misses=%llu"
        " cache_evictions=%llu cache_entries=%zu",
        static_cast<unsigned long long>(rows_computed),
        static_cast<unsigned long long>(row_cache_hits),
        static_cast<unsigned long long>(row_cache_misses),
        static_cast<unsigned long long>(row_cache_evictions),
        row_cache_entries);
  }
  if (!simd_level.empty()) {
    out += StringPrintf(" simd=%s", simd_level.c_str());
  }
  return out;
}

RewriteService::RewriteService(const BipartiteGraph* graph,
                               QueryRewriter rewriter,
                               RewriteServiceStats base_stats)
    : graph_(graph),
      rewriter_(std::move(rewriter)),
      base_stats_(std::move(base_stats)) {}

std::vector<RewriteCandidate> RewriteService::TopKInner(QueryId query,
                                                        size_t k) const {
  // The lazy path triggers only for in-range nodes with no precomputed
  // partners — exactly the rows a snapshot never materialized (or, in
  // pure on-demand mode, every row). Out-of-range ids keep the
  // precomputed path's empty-result contract.
  if (scorer_ != nullptr && k != 0 && query < rewriter_.num_nodes() &&
      rewriter_.similarities().Partners(query).empty()) {
    return rewriter_.TopKFromRow(query, OnDemandRow(query, k), k);
  }
  return rewriter_.TopK(query, k);
}

std::vector<ScoredNode> RewriteService::OnDemandRow(uint32_t node,
                                                    size_t k) const {
  const size_t cache_depth = rewriter_.pipeline_options().max_candidates;
  auto compute = [this, node](size_t depth) {
    Result<std::vector<ScoredNode>> row = scorer_->ScoredRow(
        side() == SnapshotSide::kAdAd, node, row_min_score_, depth);
    // The caller range-checked the node and Prepare succeeded at Build()
    // time, so the scorer contract admits no failure here.
    SRPP_CHECK(row.ok()) << "on-demand ScoredRow: " << row.status().message();
    rows_computed_.fetch_add(1, std::memory_order_relaxed);
    return *std::move(row);
  };
  if (k > cache_depth) {
    // Deeper than the cached ranking depth: compute the exact depth
    // uncached so the result matches what a precomputed matrix would
    // have returned for the same k.
    return compute(k);
  }
  std::vector<ScoredNode> row;
  if (row_cache_->Lookup(node, &row)) return row;
  row = compute(cache_depth);
  row_cache_->Insert(node, row);
  return row;
}

std::vector<RewriteCandidate> RewriteService::TopK(QueryId query,
                                                   size_t k) const {
  queries_served_.fetch_add(1, std::memory_order_relaxed);
  return TopKInner(query, k);
}

bool RewriteService::RowIsCold(QueryId query) const {
  return scorer_ != nullptr && query < rewriter_.num_nodes() &&
         rewriter_.similarities().Partners(query).empty() &&
         !row_cache_->Contains(query);
}

bool RewriteService::RowIsCold(std::string_view query_text) const {
  Result<uint32_t> node = rewriter_.ResolveNode(query_text);
  return node.ok() && RowIsCold(*node);
}

Result<std::vector<RewriteCandidate>> RewriteService::TopK(
    std::string_view query_text, size_t k) const {
  // Side-aware lookup: queries for query–query services, ads for ad–ad.
  SRPP_ASSIGN_OR_RETURN(uint32_t q, rewriter_.ResolveNode(query_text));
  return TopK(q, k);
}

std::vector<std::vector<RewriteCandidate>> RewriteService::TopKBatch(
    std::span<const QueryId> queries, size_t k) const {
  std::vector<std::vector<RewriteCandidate>> results(queries.size());
  // Each slot is written by exactly one task, so the batch output is
  // position-identical to a serial loop regardless of scheduling.
  SharedThreadPool().ParallelFor(
      queries.size(), [this, &queries, &results, k](size_t begin,
                                                    size_t end) {
        for (size_t i = begin; i < end; ++i) {
          results[i] = TopKInner(queries[i], k);
        }
      });
  queries_served_.fetch_add(queries.size(), std::memory_order_relaxed);
  return results;
}

RewriteServiceStats RewriteService::Stats() const {
  RewriteServiceStats stats = base_stats_;
  stats.simd_level = simd::SimdLevelName(simd::ActiveSimdLevel());
  stats.queries_served = queries_served_.load(std::memory_order_relaxed);
  if (scorer_ != nullptr) {
    stats.rows_computed = rows_computed_.load(std::memory_order_relaxed);
    RowCache::Stats cache = row_cache_->GetStats();
    stats.row_cache_hits = cache.hits;
    stats.row_cache_misses = cache.misses;
    stats.row_cache_evictions = cache.evictions;
    stats.row_cache_entries = cache.entries;
  }
  return stats;
}

RewriteServiceBuilder& RewriteServiceBuilder::WithGraph(
    const BipartiteGraph* graph) {
  graph_ = graph;
  return *this;
}

RewriteServiceBuilder& RewriteServiceBuilder::WithEngine(
    std::string engine_name, SimRankOptions options) {
  engine_name_ = std::move(engine_name);
  engine_options_ = options;
  return *this;
}

RewriteServiceBuilder& RewriteServiceBuilder::WithSnapshot(std::string path) {
  snapshot_path_ = std::move(path);
  return *this;
}

RewriteServiceBuilder& RewriteServiceBuilder::WithSimilarities(
    SimilarityMatrix similarities, std::string method_name) {
  similarities_ = std::move(similarities);
  method_name_ = std::move(method_name);
  return *this;
}

RewriteServiceBuilder& RewriteServiceBuilder::WithSide(SnapshotSide side) {
  side_ = side;
  return *this;
}

RewriteServiceBuilder& RewriteServiceBuilder::WithBidDatabase(
    const BidDatabase* bids) {
  bids_ = bids;
  return *this;
}

RewriteServiceBuilder& RewriteServiceBuilder::WithPipelineOptions(
    RewritePipelineOptions options) {
  pipeline_ = options;
  return *this;
}

RewriteServiceBuilder& RewriteServiceBuilder::WithMinScore(double min_score) {
  min_score_ = min_score;
  return *this;
}

RewriteServiceBuilder& RewriteServiceBuilder::WithOnDemandEngine(
    std::string engine_name, SimRankOptions options) {
  on_demand_engine_ = std::move(engine_name);
  on_demand_options_ = options;
  return *this;
}

RewriteServiceBuilder& RewriteServiceBuilder::WithRowCacheCapacity(
    size_t capacity) {
  row_cache_capacity_ = capacity;
  return *this;
}

Result<std::unique_ptr<RewriteService>> RewriteServiceBuilder::Build() {
  if (graph_ == nullptr) {
    return Status::InvalidArgument(
        "RewriteServiceBuilder: a graph is required (WithGraph)");
  }
  int sources = (engine_name_.has_value() ? 1 : 0) +
                (snapshot_path_.has_value() ? 1 : 0) +
                (similarities_.has_value() ? 1 : 0);
  if (on_demand_engine_.has_value() && engine_name_.has_value()) {
    return Status::InvalidArgument(
        "RewriteServiceBuilder: WithEngine and WithOnDemandEngine are "
        "mutually exclusive — the engine source already materializes "
        "every row, leaving nothing to compute lazily");
  }
  // WithOnDemandEngine is a mode, not a source: alone it serves every
  // row lazily; with a snapshot/matrix source it fills the rows the
  // precomputed scores are missing.
  if (sources > 1 || (sources == 0 && !on_demand_engine_.has_value())) {
    return Status::InvalidArgument(StringPrintf(
        "RewriteServiceBuilder: exactly one score source is required "
        "(WithEngine / WithSnapshot / WithSimilarities), got %d",
        sources));
  }

  RewriteServiceStats stats;
  SnapshotSide side = side_.value_or(SnapshotSide::kQueryQuery);

  SimilarityMatrix scores;
  if (engine_name_.has_value()) {
    SRPP_ASSIGN_OR_RETURN(
        std::unique_ptr<SimRankEngine> engine,
        CreateSimRankEngine(*engine_name_, engine_options_));
    SRPP_RETURN_NOT_OK(engine->Run(*graph_));
    scores = side == SnapshotSide::kAdAd
                 ? engine->ExportAdScores(min_score_)
                 : engine->ExportQueryScores(min_score_);
    stats.source = "engine";
    stats.engine_name = *engine_name_;
    stats.engine_stats = engine->stats();
    stats.method_name = SimRankVariantName(engine_options_.variant);
  } else if (snapshot_path_.has_value()) {
    SRPP_ASSIGN_OR_RETURN(SimilaritySnapshot snapshot,
                          LoadSnapshot(*snapshot_path_));
    if (side_.has_value() && snapshot.side != *side_) {
      return Status::InvalidArgument(StringPrintf(
          "snapshot %s carries %s scores but the service was configured "
          "for %s",
          snapshot_path_->c_str(), SnapshotSideName(snapshot.side),
          SnapshotSideName(*side_)));
    }
    side = snapshot.side;  // the file's tag is authoritative
    size_t expected_nodes = side == SnapshotSide::kAdAd
                                ? graph_->num_ads()
                                : graph_->num_queries();
    if (snapshot.matrix.num_nodes() != expected_nodes) {
      return Status::InvalidArgument(StringPrintf(
          "snapshot %s covers %zu nodes but the graph has %zu %s — "
          "it was computed on a different graph",
          snapshot_path_->c_str(), snapshot.matrix.num_nodes(),
          expected_nodes,
          side == SnapshotSide::kAdAd ? "ads" : "queries"));
    }
    scores = std::move(snapshot.matrix);
    stats.source = "snapshot";
    stats.snapshot_checksum = snapshot.checksum;
    stats.method_name = std::move(snapshot.method_name);
  } else if (similarities_.has_value()) {
    size_t expected_nodes = side == SnapshotSide::kAdAd
                                ? graph_->num_ads()
                                : graph_->num_queries();
    if (similarities_->num_nodes() != expected_nodes) {
      return Status::InvalidArgument(StringPrintf(
          "similarity matrix covers %zu nodes but the graph has %zu %s",
          similarities_->num_nodes(), expected_nodes,
          side == SnapshotSide::kAdAd ? "ads" : "queries"));
    }
    scores = std::move(*similarities_);
    similarities_.reset();
    stats.source = "matrix";
    stats.method_name = method_name_;
  } else {
    // Pure on-demand: no precomputed rows at all. The empty (but
    // correctly sized) matrix makes every in-range lookup take the lazy
    // path.
    scores = SimilarityMatrix(side == SnapshotSide::kAdAd
                                  ? graph_->num_ads()
                                  : graph_->num_queries());
    stats.source = "on-demand";
    stats.method_name = SimRankVariantName(on_demand_options_.variant);
  }
  stats.side = side;
  stats.num_queries = side == SnapshotSide::kAdAd ? graph_->num_ads()
                                                  : graph_->num_queries();
  stats.similarity_pairs = scores.num_pairs();

  // Lazy-scoring mode: create the engine, discover the single-source
  // capability, and run its one-time graph analysis now so serving-time
  // ScoredRow calls are const and concurrent.
  std::unique_ptr<SimRankEngine> on_demand_engine;
  const OnDemandScorer* scorer = nullptr;
  if (on_demand_engine_.has_value()) {
    SRPP_ASSIGN_OR_RETURN(
        on_demand_engine,
        CreateSimRankEngine(*on_demand_engine_, on_demand_options_));
    auto* capability = dynamic_cast<OnDemandScorer*>(on_demand_engine.get());
    if (capability == nullptr) {
      return Status::InvalidArgument(StringPrintf(
          "engine \"%s\" does not support on-demand scoring (it cannot "
          "answer single-source rows); use \"linearized\", or precompute "
          "with WithEngine",
          on_demand_engine_->c_str()));
    }
    SRPP_RETURN_NOT_OK(capability->Prepare(*graph_));
    scorer = capability;
    stats.on_demand = true;
    stats.engine_name = *on_demand_engine_;
  }

  // QueryRewriter finalizes the matrix; after Build() every lookup path
  // reads immutable state only.
  QueryRewriter rewriter(stats.method_name, graph_, std::move(scores), bids_,
                         pipeline_, side);
  // srpp:allow(naked-new): the constructor is private (builder-only),
  // so make_unique cannot reach it; ownership transfers immediately.
  std::unique_ptr<RewriteService> service(new RewriteService(
      graph_, std::move(rewriter), std::move(stats)));
  if (scorer != nullptr) {
    service->engine_ = std::move(on_demand_engine);
    service->scorer_ = scorer;
    service->row_cache_ = std::make_unique<RowCache>(row_cache_capacity_);
    service->row_min_score_ = min_score_;
  }
  return service;
}

}  // namespace simrankpp
