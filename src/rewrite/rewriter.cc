#include "rewrite/rewriter.h"

#include <algorithm>

namespace simrankpp {

QueryRewriter::QueryRewriter(std::string method_name,
                             const BipartiteGraph* graph,
                             SimilarityMatrix similarities,
                             const BidDatabase* bids,
                             RewritePipelineOptions options,
                             SnapshotSide side)
    : method_name_(std::move(method_name)),
      graph_(graph),
      similarities_(std::move(similarities)),
      bids_(bids),
      options_(options),
      side_(side) {
  similarities_.Finalize();
  index_ = RewriteIndex::Build(num_nodes(), LabelFn(), bids_);
}

size_t QueryRewriter::num_nodes() const {
  return side_ == SnapshotSide::kAdAd ? graph_->num_ads()
                                      : graph_->num_queries();
}

NodeLabelFn QueryRewriter::LabelFn() const {
  // The side is resolved once here, not per candidate.
  const BipartiteGraph* graph = graph_;
  if (side_ == SnapshotSide::kAdAd) {
    return [graph](uint32_t n) -> const std::string& {
      return graph->ad_label(n);
    };
  }
  return [graph](uint32_t n) -> const std::string& {
    return graph->query_label(n);
  };
}

std::vector<RewriteCandidate> QueryRewriter::RewritesFor(QueryId q) const {
  return SelectRewrites(LabelFn(), index_, similarities_.Partners(q), q,
                        options_);
}

Result<uint32_t> QueryRewriter::ResolveNode(std::string_view text) const {
  std::optional<uint32_t> node = side_ == SnapshotSide::kAdAd
                                     ? graph_->FindAd(text)
                                     : graph_->FindQuery(text);
  if (!node.has_value()) {
    return Status::NotFound(
        std::string(side_ == SnapshotSide::kAdAd
                        ? "ad not present in the click graph: "
                        : "query not present in the click graph: ") +
        std::string(text));
  }
  return *node;
}

Result<std::vector<RewriteCandidate>> QueryRewriter::RewritesFor(
    std::string_view query_text) const {
  SRPP_ASSIGN_OR_RETURN(uint32_t q, ResolveNode(query_text));
  return RewritesFor(q);
}

std::vector<RewriteCandidate> QueryRewriter::SelectTopK(
    QueryId q, std::span<const ScoredNode> row, size_t k) const {
  if (q >= num_nodes() || k == 0) return {};
  RewritePipelineOptions options = options_;
  options.max_rewrites = k;
  // Keep considering at least k candidates even when the configured
  // recording depth is narrower than the requested k.
  options.max_candidates = std::max(options.max_candidates, k);
  return SelectRewrites(LabelFn(), index_, row, q, options);
}

std::vector<RewriteCandidate> QueryRewriter::TopK(QueryId q, size_t k) const {
  if (q >= num_nodes()) return {};
  return SelectTopK(q, similarities_.Partners(q), k);
}

std::vector<RewriteCandidate> QueryRewriter::TopKFromRow(
    QueryId q, std::span<const ScoredNode> row, size_t k) const {
  return SelectTopK(q, row, k);
}

}  // namespace simrankpp
