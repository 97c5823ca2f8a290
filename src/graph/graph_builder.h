// Mutable accumulator producing an immutable BipartiteGraph. Repeated
// clicks on the same (query, ad) pair accumulate into one edge, mirroring
// how the back-end aggregates a click log over the collection window.
#ifndef SIMRANKPP_GRAPH_GRAPH_BUILDER_H_
#define SIMRANKPP_GRAPH_GRAPH_BUILDER_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "graph/bipartite_graph.h"
#include "util/status.h"

namespace simrankpp {

/// \brief Builds a BipartiteGraph from (query, ad, weights) observations.
class GraphBuilder {
 public:
  GraphBuilder() = default;

  /// \brief Interns a query label, returning its id.
  QueryId AddQuery(const std::string& label);

  /// \brief Interns an ad label, returning its id.
  AdId AddAd(const std::string& label);

  /// \brief Records an aggregated edge observation. Multiple calls for the
  /// same (q, a) add impressions/clicks and keep the maximum expected click
  /// rate (the back-end publishes a single adjusted rate per pair; max makes
  /// repeated ingestion idempotent for identical rates).
  Status AddObservation(QueryId q, AdId a, const EdgeWeights& weights);

  /// \brief Convenience: interns labels and records the observation.
  Status AddObservation(const std::string& query, const std::string& ad,
                        const EdgeWeights& weights);

  /// \brief Convenience for unweighted sample graphs: one click, one
  /// impression, expected click rate 1.
  Status AddClick(const std::string& query, const std::string& ad);

  /// \brief Edge observation with an explicit expected click rate and
  /// rate-derived impression/click counts; useful in tests.
  Status AddWeightedClick(const std::string& query, const std::string& ad,
                          double expected_click_rate);

  size_t num_queries() const { return query_labels_.size(); }
  size_t num_ads() const { return ad_labels_.size(); }
  size_t num_edges() const { return edge_map_.size(); }

  /// \brief Validates and assembles the immutable graph. The builder can be
  /// reused afterwards (it is left unchanged).
  Result<BipartiteGraph> Build() const;

  /// \brief Adds every edge of `graph` to this builder (labels are merged;
  /// weights accumulate for shared (query, ad) pairs).
  Status AddGraph(const BipartiteGraph& graph);

 private:
  std::vector<std::string> query_labels_;
  std::vector<std::string> ad_labels_;
  LabelIndex query_index_;
  LabelIndex ad_index_;
  // Keyed by (q << 32 | a).
  std::unordered_map<uint64_t, EdgeWeights> edge_map_;
};

}  // namespace simrankpp

#endif  // SIMRANKPP_GRAPH_GRAPH_BUILDER_H_
