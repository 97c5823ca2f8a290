#include "rewrite/pipeline.h"

#include <algorithm>
#include <string>
#include <string_view>
#include <unordered_map>

#include "text/normalize.h"
#include "util/thread_pool.h"

namespace simrankpp {

RewriteIndex RewriteIndex::Build(size_t num_nodes, const NodeLabelFn& label,
                                 const BidDatabase* bids) {
  RewriteIndex index;
  std::vector<std::string> keys(num_nodes);
  if (bids != nullptr) index.has_bid_.assign(num_nodes, 0);
  // Each slot is written by exactly one task; nothing here depends on
  // the schedule.
  SharedThreadPool().ParallelFor(num_nodes, [&](size_t begin, size_t end) {
    for (size_t n = begin; n < end; ++n) {
      const std::string& text = label(static_cast<uint32_t>(n));
      keys[n] = QueryStemKey(text);
      if (bids != nullptr) index.has_bid_[n] = bids->HasBid(text) ? 1 : 0;
    }
  });
  // Interning in node order numbers the keys by first occurrence, so the
  // ids do not depend on the pool's schedule either.
  std::unordered_map<std::string_view, uint32_t> ids;
  ids.reserve(num_nodes);
  index.stem_ids_.resize(num_nodes);
  for (size_t n = 0; n < num_nodes; ++n) {
    index.stem_ids_[n] =
        ids.try_emplace(keys[n], static_cast<uint32_t>(ids.size()))
            .first->second;
  }
  return index;
}

namespace {

// The one classification loop of the pipeline. `visit(scored, outcome)`
// sees the recorded candidates in rank order. With `stop_at_depth` the
// loop ends once max_rewrites candidates are kept: every later candidate
// could only be dropped or ranked beyond depth, so nothing kept changes.
template <typename Visit>
void ClassifyCandidates(const RewriteIndex& index,
                        std::span<const ScoredNode> ranked, uint32_t node,
                        const RewritePipelineOptions& options,
                        bool stop_at_depth, Visit&& visit) {
  if (ranked.size() > options.max_candidates) {
    ranked = ranked.first(options.max_candidates);
  }
  const uint32_t query_key = index.stem_id(node);
  // Stem ids of the candidates considered so far. A candidate dropped
  // for having no bid still records its id: a bid-less surface form
  // must not let its duplicate slip through later.
  std::vector<uint32_t> seen_keys;
  size_t kept = 0;
  for (const ScoredNode& scored : ranked) {
    if (scored.score <= options.min_score) break;  // ranked descending
    if (stop_at_depth && kept >= options.max_rewrites) break;
    const uint32_t key = index.stem_id(scored.node);
    DropReason outcome;
    if (options.apply_dedup && key == query_key) {
      outcome = DropReason::kDuplicateOfQuery;
    } else if (options.apply_dedup &&
               std::find(seen_keys.begin(), seen_keys.end(), key) !=
                   seen_keys.end()) {
      outcome = DropReason::kDuplicateOfEarlier;
    } else {
      if (options.apply_dedup) seen_keys.push_back(key);
      if (options.apply_bid_filter && !index.has_bid(scored.node)) {
        outcome = DropReason::kNoBid;
      } else if (kept >= options.max_rewrites) {
        outcome = DropReason::kBeyondDepth;
      } else {
        outcome = DropReason::kKept;
        ++kept;
      }
    }
    visit(scored, outcome);
  }
}

NodeLabelFn QueryLabels(const BipartiteGraph& graph) {
  return [&graph](uint32_t n) -> const std::string& {
    return graph.query_label(n);
  };
}

}  // namespace

std::vector<RewriteCandidate> SelectRewrites(
    const NodeLabelFn& label, const RewriteIndex& index,
    std::span<const ScoredNode> ranked, uint32_t node,
    const RewritePipelineOptions& options) {
  std::vector<RewriteCandidate> out;
  ClassifyCandidates(index, ranked, node, options, /*stop_at_depth=*/true,
                     [&](const ScoredNode& scored, DropReason outcome) {
                       if (outcome != DropReason::kKept) return;
                       out.push_back(RewriteCandidate{
                           scored.node, label(scored.node), scored.score});
                     });
  return out;
}

std::vector<AuditedCandidate> AuditRewrites(
    const NodeLabelFn& label, const RewriteIndex& index,
    std::span<const ScoredNode> ranked, uint32_t node,
    const RewritePipelineOptions& options) {
  std::vector<AuditedCandidate> audited;
  ClassifyCandidates(
      index, ranked, node, options, /*stop_at_depth=*/false,
      [&](const ScoredNode& scored, DropReason outcome) {
        audited.push_back(AuditedCandidate{
            RewriteCandidate{scored.node, label(scored.node), scored.score},
            outcome});
      });
  return audited;
}

std::vector<RewriteCandidate> SelectRewrites(
    const BipartiteGraph& graph, const SimilarityMatrix& similarities,
    QueryId q, const BidDatabase* bids,
    const RewritePipelineOptions& options) {
  NodeLabelFn label = QueryLabels(graph);
  return SelectRewrites(
      label, RewriteIndex::Build(graph.num_queries(), label, bids),
      similarities.Partners(q), q, options);
}

std::vector<AuditedCandidate> AuditRewrites(
    const BipartiteGraph& graph, const SimilarityMatrix& similarities,
    QueryId q, const BidDatabase* bids,
    const RewritePipelineOptions& options) {
  NodeLabelFn label = QueryLabels(graph);
  return AuditRewrites(
      label, RewriteIndex::Build(graph.num_queries(), label, bids),
      similarities.Partners(q), q, options);
}

}  // namespace simrankpp
