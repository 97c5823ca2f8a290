// The click graph: an undirected, weighted, bipartite graph with queries on
// one side and ads on the other (paper, Section 2). Each edge carries three
// weights: impressions, clicks, and the expected click rate. The structure
// is immutable after construction (build through GraphBuilder) and stores
// CSR adjacency in both directions so both query->ads and ad->queries
// traversals are cache-friendly.
#ifndef SIMRANKPP_GRAPH_BIPARTITE_GRAPH_H_
#define SIMRANKPP_GRAPH_BIPARTITE_GRAPH_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/status.h"

namespace simrankpp {

/// Index of a query node within a BipartiteGraph.
using QueryId = uint32_t;
/// Index of an ad node within a BipartiteGraph.
using AdId = uint32_t;
/// Index of an edge within a BipartiteGraph.
using EdgeId = uint32_t;

constexpr uint32_t kInvalidId = UINT32_MAX;

/// \brief Hash for label-keyed maps that also accepts std::string_view
/// keys, so a lookup by a borrowed text builds no std::string.
struct LabelHash {
  using is_transparent = void;
  size_t operator()(std::string_view label) const noexcept {
    return std::hash<std::string_view>{}(label);
  }
};

/// \brief Label -> node id, with heterogeneous (string_view) lookup.
using LabelIndex =
    std::unordered_map<std::string, uint32_t, LabelHash, std::equal_to<>>;

/// \brief The three per-edge weights of the click graph (Section 2).
struct EdgeWeights {
  /// Number of times the ad was displayed for the query.
  uint32_t impressions = 0;
  /// Number of clicks the ad received when displayed for the query
  /// (<= impressions).
  uint32_t clicks = 0;
  /// Position-adjusted clicks-over-impressions rate computed by the
  /// back-end; this is the weight all weighted experiments use.
  double expected_click_rate = 0.0;
};

/// \brief Immutable weighted bipartite click graph.
class BipartiteGraph {
 public:
  BipartiteGraph() = default;

  size_t num_queries() const { return query_labels_.size(); }
  size_t num_ads() const { return ad_labels_.size(); }
  size_t num_edges() const { return edge_ads_.size(); }

  const std::string& query_label(QueryId q) const { return query_labels_[q]; }
  const std::string& ad_label(AdId a) const { return ad_labels_[a]; }

  /// \brief Looks up a query node by label (no allocation).
  std::optional<QueryId> FindQuery(std::string_view label) const;

  /// \brief Looks up an ad node by label (no allocation).
  std::optional<AdId> FindAd(std::string_view label) const;

  /// \brief Edge ids incident to query q, ordered by ad id.
  std::span<const EdgeId> QueryEdges(QueryId q) const {
    return {query_adj_.data() + query_offsets_[q],
            query_offsets_[q + 1] - query_offsets_[q]};
  }

  /// \brief Edge ids incident to ad a, ordered by query id.
  std::span<const EdgeId> AdEdges(AdId a) const {
    return {ad_adj_.data() + ad_offsets_[a],
            ad_offsets_[a + 1] - ad_offsets_[a]};
  }

  /// \brief Ad ids adjacent to query q, ascending. The flat neighbor-id
  /// twin of QueryEdges() — contiguous u32 node ids, the layout the
  /// SIMD intersection kernel consumes (and one indirection cheaper
  /// than mapping edge ids through edge_ad()).
  std::span<const AdId> QueryNeighborAds(QueryId q) const {
    return {query_neighbor_ads_.data() + query_offsets_[q], QueryDegree(q)};
  }

  /// \brief Query ids adjacent to ad a, ascending.
  std::span<const QueryId> AdNeighborQueries(AdId a) const {
    return {ad_neighbor_queries_.data() + ad_offsets_[a], AdDegree(a)};
  }

  /// \brief N(q): number of ads adjacent to query q.
  size_t QueryDegree(QueryId q) const {
    return query_offsets_[q + 1] - query_offsets_[q];
  }

  /// \brief N(a): number of queries adjacent to ad a.
  size_t AdDegree(AdId a) const {
    return ad_offsets_[a + 1] - ad_offsets_[a];
  }

  /// \brief Endpoints and weights of an edge.
  QueryId edge_query(EdgeId e) const { return edge_queries_[e]; }
  AdId edge_ad(EdgeId e) const { return edge_ads_[e]; }
  const EdgeWeights& edge_weights(EdgeId e) const { return weights_[e]; }

  /// \brief Finds the edge between q and a (binary search over the query's
  /// adjacency). Returns nullopt when no click connects them.
  std::optional<EdgeId> FindEdge(QueryId q, AdId a) const;

  /// \brief Sum of a chosen weight over the edges of a query.
  /// The weight used is the expected click rate.
  double QueryWeightSum(QueryId q) const;

  /// \brief Sum of expected click rate over the edges of an ad.
  double AdWeightSum(AdId a) const;

  /// \brief Ads adjacent to both q1 and q2 (sorted merge; linear in the two
  /// degrees). This is E(q1) ∩ E(q2) from the evidence definition (Eq. 7.3).
  std::vector<AdId> CommonAds(QueryId q1, QueryId q2) const;

  /// \brief Queries adjacent to both a1 and a2.
  std::vector<QueryId> CommonQueries(AdId a1, AdId a2) const;

  /// \brief Number of common ads without materializing them.
  size_t CountCommonAds(QueryId q1, QueryId q2) const;

  /// \brief Number of common queries without materializing them.
  size_t CountCommonQueries(AdId a1, AdId a2) const;

  /// \brief Invokes fn(e1, e2) for every ad adjacent to both q1 and q2,
  /// in ascending ad order, where e1 connects q1 and e2 connects q2 to
  /// that ad. A single sorted-adjacency merge — callers that need both
  /// edges' weights (Pearson) avoid a per-common-ad FindEdge search.
  template <typename Fn>
  void ForEachCommonAdEdge(QueryId q1, QueryId q2, Fn&& fn) const {
    MergeIntersect(QueryEdges(q1), QueryEdges(q2), edge_ads_,
                   std::forward<Fn>(fn));
  }

  /// \brief Invokes fn(e1, e2) for every query adjacent to both a1 and
  /// a2, in ascending query order.
  template <typename Fn>
  void ForEachCommonQueryEdge(AdId a1, AdId a2, Fn&& fn) const {
    MergeIntersect(AdEdges(a1), AdEdges(a2), edge_queries_,
                   std::forward<Fn>(fn));
  }

 private:
  friend class GraphBuilder;

  /// Merge-intersection of two neighbor-sorted edge lists: fn(e1, e2) for
  /// each shared opposite endpoint (`ends[e]` maps an edge to it), in
  /// ascending endpoint order. The substrate of all common-neighbor
  /// queries above.
  template <typename Fn>
  static void MergeIntersect(std::span<const EdgeId> e1,
                             std::span<const EdgeId> e2,
                             const std::vector<uint32_t>& ends, Fn&& fn) {
    size_t i = 0, j = 0;
    while (i < e1.size() && j < e2.size()) {
      uint32_t n1 = ends[e1[i]];
      uint32_t n2 = ends[e2[j]];
      if (n1 == n2) {
        fn(e1[i], e2[j]);
        ++i;
        ++j;
      } else if (n1 < n2) {
        ++i;
      } else {
        ++j;
      }
    }
  }

  std::vector<std::string> query_labels_;
  std::vector<std::string> ad_labels_;
  LabelIndex query_index_;
  LabelIndex ad_index_;

  // Edge store (parallel arrays).
  std::vector<QueryId> edge_queries_;
  std::vector<AdId> edge_ads_;
  std::vector<EdgeWeights> weights_;

  // CSR adjacency, both directions, neighbor-sorted.
  std::vector<uint32_t> query_offsets_;  // size num_queries()+1
  std::vector<EdgeId> query_adj_;
  std::vector<uint32_t> ad_offsets_;  // size num_ads()+1
  std::vector<EdgeId> ad_adj_;
  // Flat neighbor-id twins of the adjacency (node ids instead of edge
  // ids, same offsets). Strictly ascending per node — GraphBuilder
  // merges duplicate (query, ad) observations into one edge — which is
  // the precondition of the SIMD intersection kernel.
  std::vector<AdId> query_neighbor_ads_;      // parallel to query_adj_
  std::vector<QueryId> ad_neighbor_queries_;  // parallel to ad_adj_
};

}  // namespace simrankpp

#endif  // SIMRANKPP_GRAPH_BIPARTITE_GRAPH_H_
