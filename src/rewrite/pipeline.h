// The rewrite selection pipeline of Section 9.3: record the top-100
// similar queries, drop stem-level duplicates, drop rewrites without bids,
// keep at most 5. The number that survives is the method's depth for that
// query.
//
// The texts the pipeline judges never change within one generation of
// scores, so their costly halves are computed once: a RewriteIndex holds,
// for every node of the serving side, an interned stem-key id (equal ids
// <=> equal QueryStemKey) and, when a bid list is set, a has-bid bit.
// QueryRewriter builds it next to the finalized similarity matrix. The
// per-lookup classification loop then compares integers and reads bits;
// it copies a label only for a candidate it returns, and SelectRewrites
// stops at the max_rewrites-th kept rewrite (a later candidate could only
// be dropped or ranked beyond depth). AuditRewrites runs the same loop to
// the end of the recorded candidates.
#ifndef SIMRANKPP_REWRITE_PIPELINE_H_
#define SIMRANKPP_REWRITE_PIPELINE_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/similarity_matrix.h"
#include "rewrite/bid_database.h"
#include "rewrite/candidate.h"

namespace simrankpp {

/// \brief Pipeline knobs (paper defaults).
struct RewritePipelineOptions {
  /// Candidates recorded from the similarity ranking.
  size_t max_candidates = 100;
  /// Rewrites kept after filtering.
  size_t max_rewrites = 5;
  bool apply_dedup = true;
  bool apply_bid_filter = true;
  /// Candidates must score strictly above this (Pearson can go negative;
  /// non-positive correlation is no similarity evidence).
  double min_score = 0.0;

  bool operator==(const RewritePipelineOptions&) const = default;
};

/// \brief Surface text of candidate node `n`. The pipeline is agnostic to
/// which node set the similarity scores range over — the serving layer
/// passes `query_label` for query–query scores and `ad_label` for ad–ad
/// snapshots.
using NodeLabelFn = std::function<const std::string&(uint32_t)>;

/// \brief The per-generation half of the pipeline: one stem-key id per
/// node and, with a bid list, one has-bid bit per node. O(nodes) memory:
/// 4 bytes of id plus 1 byte of bid bit per node. Immutable after Build,
/// so concurrent lookups may share it.
class RewriteIndex {
 public:
  RewriteIndex() = default;

  /// \brief Stems the label of every node in [0, num_nodes) and, when
  /// `bids` is non-null, looks each label up in it. Nodes are stemmed in
  /// parallel on the shared pool; the keys are then interned serially in
  /// node order, so a build is deterministic (ids number the distinct
  /// keys by first occurrence).
  static RewriteIndex Build(size_t num_nodes, const NodeLabelFn& label,
                            const BidDatabase* bids);

  size_t num_nodes() const { return stem_ids_.size(); }

  /// \brief Interned stem key of `node`: two nodes are stem-level
  /// duplicates exactly when their ids are equal.
  uint32_t stem_id(uint32_t node) const { return stem_ids_[node]; }

  /// \brief True when `node`'s text has a bid, or when the index was
  /// built without a bid list (nothing to filter against).
  bool has_bid(uint32_t node) const {
    return has_bid_.empty() || has_bid_[node] != 0;
  }

 private:
  std::vector<uint32_t> stem_ids_;
  /// One byte per node when built with a bid list; empty without one.
  std::vector<uint8_t> has_bid_;
};

/// \brief Runs the pipeline for node `node` over a ranked candidate row
/// (descending score, ties by ascending id — the order
/// SimilarityMatrix::Partners and OnDemandScorer::ScoredRow both
/// produce). Only the first max_candidates entries are recorded. The
/// bid filter applies when options.apply_bid_filter is set and `index`
/// was built with a bid list. Stops at the max_rewrites-th kept rewrite.
/// Precomputed and on-demand rows go through this same seam.
std::vector<RewriteCandidate> SelectRewrites(
    const NodeLabelFn& label, const RewriteIndex& index,
    std::span<const ScoredNode> ranked, uint32_t node,
    const RewritePipelineOptions& options);

/// \brief Same pipeline, but returns every recorded candidate together
/// with its outcome (kept / why dropped) for diagnostics.
std::vector<AuditedCandidate> AuditRewrites(
    const NodeLabelFn& label, const RewriteIndex& index,
    std::span<const ScoredNode> ranked, uint32_t node,
    const RewritePipelineOptions& options);

/// \brief Query-side convenience overloads over a finalized matrix (texts
/// from graph.query_label; `bids` may be null). Each call builds a
/// RewriteIndex over the whole graph, so they suit tests and one-off
/// diagnostics; serving goes through QueryRewriter, which builds its
/// index once per generation.
std::vector<RewriteCandidate> SelectRewrites(
    const BipartiteGraph& graph, const SimilarityMatrix& similarities,
    QueryId q, const BidDatabase* bids,
    const RewritePipelineOptions& options);

std::vector<AuditedCandidate> AuditRewrites(
    const BipartiteGraph& graph, const SimilarityMatrix& similarities,
    QueryId q, const BidDatabase* bids,
    const RewritePipelineOptions& options);

}  // namespace simrankpp

#endif  // SIMRANKPP_REWRITE_PIPELINE_H_
