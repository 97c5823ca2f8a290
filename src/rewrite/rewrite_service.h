/// @file rewrite_service.h
/// @brief The serving-layer façade: one object that answers "rewrites for
/// q" at serving time (the query-rewriting front-end of the paper's
/// Figure 2).
///
/// A RewriteService is built once — from an engine run, a precomputed
/// similarity matrix, or a snapshot file written by an earlier process —
/// and then serves lookups from any number of threads. It composes the
/// existing QueryRewriter/pipeline as a thin inner layer; what it adds is
/// the assembly (engine by name + snapshot I/O + bid database + pipeline
/// options behind one builder), batched retrieval on the process-wide
/// shared thread pool, and serving statistics.
#ifndef SIMRANKPP_REWRITE_REWRITE_SERVICE_H_
#define SIMRANKPP_REWRITE_REWRITE_SERVICE_H_

#include <atomic>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/simrank_engine.h"
#include "core/simrank_options.h"
#include "core/snapshot.h"
#include "graph/bipartite_graph.h"
#include "rewrite/bid_database.h"
#include "rewrite/rewriter.h"
#include "rewrite/row_cache.h"
#include "util/status.h"

namespace simrankpp {

/// \brief A point-in-time view of a service's configuration and counters.
struct RewriteServiceStats {
  /// Similarity method behind the scores ("weighted Simrank", ...).
  std::string method_name;
  /// Name of the engine that computed the scores in-process;
  /// empty when the scores came from a snapshot or a caller matrix.
  std::string engine_name;
  /// Where the scores came from: "engine", "snapshot", or "matrix".
  std::string source;
  /// Which node set the scores range over (and so which labels serve).
  SnapshotSide side = SnapshotSide::kQueryQuery;
  /// Nodes on the serving side (queries for query–query, ads for ad–ad).
  size_t num_queries = 0;
  size_t similarity_pairs = 0;
  /// Checksum of the loaded snapshot file; 0 for engine/matrix sources.
  uint64_t snapshot_checksum = 0;
  /// Engine diagnostics when source == "engine"; default elsewhere.
  SimRankStats engine_stats;
  /// Queries answered so far via TopK/TopKBatch (monotonic).
  uint64_t queries_served = 0;
  /// True when the service computes rows lazily for queries absent from
  /// the precomputed matrix (WithOnDemandEngine).
  bool on_demand = false;
  /// Cold rows computed through the on-demand engine so far (monotonic;
  /// each one is a full single-source power-series evaluation).
  uint64_t rows_computed = 0;
  /// Row-cache counters (on-demand mode only; all zero otherwise).
  uint64_t row_cache_hits = 0;
  uint64_t row_cache_misses = 0;
  uint64_t row_cache_evictions = 0;
  size_t row_cache_entries = 0;
  /// Active SIMD dispatch level for this process ("scalar", "avx2",
  /// "avx512") — the kernels any on-demand row computation runs on.
  std::string simd_level;

  std::string ToString() const;
};

/// \brief Immutable, thread-safe query-rewriting service.
///
/// All lookup state (graph pointer, finalized scores, bid set, pipeline
/// options) is fixed at Build() time; concurrent TopK/TopKBatch calls
/// never mutate anything but the served-queries counter.
class RewriteService {
 public:
  /// \brief Top-k rewrites for a query node, best first. Runs the full
  /// selection pipeline (dedup, bid filter, score floor) with the depth
  /// overridden to k; returns fewer than k when fewer candidates survive
  /// and an empty list for an out-of-range id.
  std::vector<RewriteCandidate> TopK(QueryId query, size_t k) const;

  /// \brief Top-k rewrites for a query by text. NotFound when the query
  /// never appeared in the click graph.
  Result<std::vector<RewriteCandidate>> TopK(std::string_view query_text,
                                             size_t k) const;

  /// \brief TopK for a batch of queries, parallelized on the process-wide
  /// shared thread pool. results[i] corresponds to queries[i]; the output
  /// is identical to calling TopK per query in order.
  std::vector<std::vector<RewriteCandidate>> TopKBatch(
      std::span<const QueryId> queries, size_t k) const;

  /// \brief Current configuration + serving counters.
  RewriteServiceStats Stats() const;

  /// \brief Which node set this service rewrites over.
  SnapshotSide side() const { return rewriter_.side(); }

  /// \brief True when this service computes rows lazily at lookup time.
  bool on_demand() const { return scorer_ != nullptr; }

  /// \brief True when answering for this node would compute a cold row
  /// right now: on-demand mode, node in range, no precomputed partners,
  /// and the row not resident in the cache. Admission control uses this
  /// to bill cold queries as heavier work; it never touches the cache's
  /// LRU order or hit/miss counters.
  bool RowIsCold(QueryId query) const;

  /// \brief RowIsCold for a text-addressed query; false when the text is
  /// not in the graph (the lookup itself will fail cheaply).
  bool RowIsCold(std::string_view query_text) const;

  /// \brief The inner rewriter (fixed pipeline depth, direct access to
  /// the similarity matrix).
  const QueryRewriter& rewriter() const { return rewriter_; }

  const BipartiteGraph& graph() const { return *graph_; }

 private:
  friend class RewriteServiceBuilder;

  RewriteService(const BipartiteGraph* graph, QueryRewriter rewriter,
                 RewriteServiceStats base_stats);

  /// \brief One TopK evaluation without the served counter (shared by
  /// TopK and TopKBatch). Falls back to an on-demand row when the
  /// precomputed matrix has no partners for the node.
  std::vector<RewriteCandidate> TopKInner(QueryId query, size_t k) const;

  /// \brief The ranked row for `node`, from the cache or computed fresh
  /// through the scorer (and then cached). Cached rows are ranked to the
  /// pipeline's max_candidates depth; a request deeper than that
  /// computes an uncached row of the exact depth instead, so results
  /// match what a precomputed matrix would have returned.
  std::vector<ScoredNode> OnDemandRow(uint32_t node, size_t k) const;

  const BipartiteGraph* graph_;
  QueryRewriter rewriter_;
  RewriteServiceStats base_stats_;
  /// On-demand mode only (all null/unset otherwise): the engine that
  /// computes cold rows, the capability interface discovered on it, and
  /// the bounded row cache. The scorer's ScoredRow is const and
  /// thread-safe after Prepare, and RowCache locks internally, so the
  /// lazy path preserves const-concurrent serving.
  std::unique_ptr<SimRankEngine> engine_;
  const OnDemandScorer* scorer_ = nullptr;
  std::unique_ptr<RowCache> row_cache_;
  double row_min_score_ = 0.0;
  mutable std::atomic<uint64_t> rows_computed_{0};
  /// Pure statistics counter bumped from concurrent TopK calls; relaxed
  /// ordering is deliberate (no data is published through it, so there
  /// is nothing for acquire/release to order). Everything else in the
  /// service is immutable after construction, which is what makes
  /// const-concurrent serving safe.
  mutable std::atomic<uint64_t> queries_served_{0};
};

/// \brief Assembles a RewriteService from a graph, a score source, and
/// the serving configuration.
///
/// Exactly one score source must be set:
///  - WithEngine(name, options): create the engine by name,
///    Run it on the graph, and export query scores (offline + serving in
///    one process);
///  - WithSnapshot(path): load scores computed by an earlier process;
///  - WithSimilarities(matrix, method): adopt caller-computed scores
///    (e.g. the Pearson baseline).
/// The graph must be set and must outlive the service, as must the bid
/// database when one is provided.
///
/// WithOnDemandEngine is a serving *mode*, not a source: it may be
/// combined with a snapshot or matrix source (hybrid — precomputed rows
/// serve as before, missing rows are computed lazily) or stand alone
/// (pure on-demand — every row is computed at lookup time; the zero-
/// source rule is relaxed for this case). Combining it with WithEngine
/// is an error, since the engine source already materializes every row.
class RewriteServiceBuilder {
 public:
  RewriteServiceBuilder& WithGraph(const BipartiteGraph* graph);
  RewriteServiceBuilder& WithEngine(std::string engine_name,
                                    SimRankOptions options);
  RewriteServiceBuilder& WithSnapshot(std::string path);
  RewriteServiceBuilder& WithSimilarities(SimilarityMatrix similarities,
                                          std::string method_name);
  /// \brief Which node set to serve over. For the engine source this
  /// selects which scores are exported (query–query vs ad–ad); for the
  /// matrix source it declares what the caller's matrix covers. For the
  /// snapshot source the file's own side tag is authoritative — setting a
  /// side here turns into a validation that the file matches. Defaults to
  /// query–query (and to the file's tag for snapshots).
  RewriteServiceBuilder& WithSide(SnapshotSide side);
  /// \param bids may be null (disables the bid filter).
  RewriteServiceBuilder& WithBidDatabase(const BidDatabase* bids);
  RewriteServiceBuilder& WithPipelineOptions(RewritePipelineOptions options);
  /// \brief Engine scores below this are not materialized (engine and
  /// on-demand paths; default 1e-6).
  RewriteServiceBuilder& WithMinScore(double min_score);

  /// \brief Enables lazy scoring: TopK/TopKBatch fall back to rows
  /// computed by this engine for queries absent from the precomputed
  /// matrix. The engine must implement OnDemandScorer ("linearized"
  /// today); its Prepare runs at Build() time. See the class comment for
  /// how this composes with the score sources.
  RewriteServiceBuilder& WithOnDemandEngine(std::string engine_name,
                                            SimRankOptions options);

  /// \brief Bounds the on-demand row cache (total rows across shards;
  /// default 1024). No effect outside on-demand mode.
  RewriteServiceBuilder& WithRowCacheCapacity(size_t capacity);

  /// \brief Validates the configuration, runs the engine or loads the
  /// snapshot as configured, and produces the immutable service.
  /// InvalidArgument on a missing graph, zero or multiple score sources,
  /// or a snapshot whose node count does not match the graph.
  Result<std::unique_ptr<RewriteService>> Build();

 private:
  const BipartiteGraph* graph_ = nullptr;
  std::optional<std::string> engine_name_;
  SimRankOptions engine_options_;
  std::optional<std::string> snapshot_path_;
  std::optional<SimilarityMatrix> similarities_;
  std::string method_name_;
  std::optional<SnapshotSide> side_;
  const BidDatabase* bids_ = nullptr;
  RewritePipelineOptions pipeline_;
  double min_score_ = 1e-6;
  std::optional<std::string> on_demand_engine_;
  SimRankOptions on_demand_options_;
  size_t row_cache_capacity_ = 1024;
};

}  // namespace simrankpp

#endif  // SIMRANKPP_REWRITE_REWRITE_SERVICE_H_
