// Front-end facade: owns a click graph, a similarity matrix (from any
// method) and a bid database, and answers "give me rewrites for this
// query" — the role of the query-rewriting front-end in Figure 2. The
// rewriter is side-aware: query–query scores rewrite queries (labels and
// text lookup on the query side), ad–ad scores rewrite ads.
#ifndef SIMRANKPP_REWRITE_REWRITER_H_
#define SIMRANKPP_REWRITE_REWRITER_H_

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/similarity_matrix.h"
#include "core/snapshot.h"
#include "rewrite/pipeline.h"
#include "util/status.h"

namespace simrankpp {

/// \brief A ready-to-serve rewriter for one similarity method and side.
class QueryRewriter {
 public:
  /// Finalizes the scores and builds the generation's RewriteIndex (a
  /// stem-key id per serving-side node, plus a has-bid bit per node when
  /// `bids` is set) on the shared pool, so lookups never stem or hash
  /// a text.
  ///
  /// \param method_name shown in reports ("weighted Simrank", ...).
  /// \param graph the click graph the scores refer to; must outlive this.
  /// \param similarities finalized scores (taken by value).
  /// \param bids bid list; may be null to disable the bid filter. Each
  ///        node's has-bid bit is read from it here, so later changes to
  ///        it do not reach this rewriter.
  /// \param side which node set the scores range over; candidate texts
  ///        and text lookup follow it (query labels vs ad labels).
  QueryRewriter(std::string method_name, const BipartiteGraph* graph,
                SimilarityMatrix similarities, const BidDatabase* bids,
                RewritePipelineOptions options = {},
                SnapshotSide side = SnapshotSide::kQueryQuery);

  /// \brief Rewrites for a node by id (a query id for query–query scores,
  /// an ad id for ad–ad scores).
  std::vector<RewriteCandidate> RewritesFor(QueryId q) const;

  /// \brief Rewrites for a node by text. NotFound when the text never
  /// appeared on this side of the click graph.
  Result<std::vector<RewriteCandidate>> RewritesFor(
      std::string_view query_text) const;

  /// \brief Resolves text to a node id on the serving side (query-label
  /// lookup for query–query scores, ad-label for ad–ad). NotFound, with
  /// a side-appropriate message, when the text is not in the graph. The
  /// single text→node seam every text-addressed lookup goes through.
  Result<uint32_t> ResolveNode(std::string_view text) const;

  /// \brief Like RewritesFor(q) but with the rewrite depth overridden to
  /// `k` (the rest of the pipeline options apply unchanged). Returns
  /// fewer than k when the pipeline keeps fewer candidates, and an empty
  /// list for a node id outside the graph. Stops reading the ranked row
  /// at the k-th kept rewrite. Thread-safe: the pipeline reads only
  /// finalized, immutable state.
  std::vector<RewriteCandidate> TopK(QueryId q, size_t k) const;

  /// \brief Like TopK, but selects from an externally ranked candidate
  /// row (descending score, ties by ascending id) instead of this
  /// rewriter's similarity matrix — the seam the on-demand serving path
  /// uses for rows computed lazily at lookup time. The full pipeline
  /// (dedup, bid filter, score floor) applies unchanged.
  std::vector<RewriteCandidate> TopKFromRow(QueryId q,
                                            std::span<const ScoredNode> row,
                                            size_t k) const;

  const std::string& method_name() const { return method_name_; }
  const SimilarityMatrix& similarities() const { return similarities_; }
  const RewritePipelineOptions& pipeline_options() const { return options_; }
  SnapshotSide side() const { return side_; }
  const BidDatabase* bids() const { return bids_; }

  /// \brief Number of nodes on the serving side (queries or ads).
  size_t num_nodes() const;

 private:
  /// Candidate texts on the serving side (query or ad labels).
  NodeLabelFn LabelFn() const;
  /// The pipeline over `row` at depth k (TopK and TopKFromRow).
  std::vector<RewriteCandidate> SelectTopK(QueryId q,
                                           std::span<const ScoredNode> row,
                                           size_t k) const;

  std::string method_name_;
  const BipartiteGraph* graph_;
  SimilarityMatrix similarities_;
  const BidDatabase* bids_;
  RewritePipelineOptions options_;
  SnapshotSide side_;
  RewriteIndex index_;
};

}  // namespace simrankpp

#endif  // SIMRANKPP_REWRITE_REWRITER_H_
