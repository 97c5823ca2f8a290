#include "graph/bipartite_graph.h"

#include <algorithm>

#include "util/simd/simd.h"

namespace simrankpp {

std::optional<QueryId> BipartiteGraph::FindQuery(
    std::string_view label) const {
  auto it = query_index_.find(label);
  if (it == query_index_.end()) return std::nullopt;
  return it->second;
}

std::optional<AdId> BipartiteGraph::FindAd(std::string_view label) const {
  auto it = ad_index_.find(label);
  if (it == ad_index_.end()) return std::nullopt;
  return it->second;
}

std::optional<EdgeId> BipartiteGraph::FindEdge(QueryId q, AdId a) const {
  auto edges = QueryEdges(q);
  auto it = std::lower_bound(
      edges.begin(), edges.end(), a,
      [this](EdgeId e, AdId target) { return edge_ads_[e] < target; });
  if (it == edges.end() || edge_ads_[*it] != a) return std::nullopt;
  return *it;
}

double BipartiteGraph::QueryWeightSum(QueryId q) const {
  double sum = 0.0;
  for (EdgeId e : QueryEdges(q)) sum += weights_[e].expected_click_rate;
  return sum;
}

double BipartiteGraph::AdWeightSum(AdId a) const {
  double sum = 0.0;
  for (EdgeId e : AdEdges(a)) sum += weights_[e].expected_click_rate;
  return sum;
}

std::vector<AdId> BipartiteGraph::CommonAds(QueryId q1, QueryId q2) const {
  std::vector<AdId> out;
  ForEachCommonAdEdge(q1, q2, [&](EdgeId e1, EdgeId e2) {
    (void)e2;
    out.push_back(edge_ads_[e1]);
  });
  return out;
}

std::vector<QueryId> BipartiteGraph::CommonQueries(AdId a1, AdId a2) const {
  std::vector<QueryId> out;
  ForEachCommonQueryEdge(a1, a2, [&](EdgeId e1, EdgeId e2) {
    (void)e2;
    out.push_back(edge_queries_[e1]);
  });
  return out;
}

size_t BipartiteGraph::CountCommonAds(QueryId q1, QueryId q2) const {
  // Counting needs no edge ids, so it runs on the flat neighbor arrays
  // through the vectorized intersection kernel instead of the
  // MergeIntersect zipper.
  std::span<const AdId> n1 = QueryNeighborAds(q1);
  std::span<const AdId> n2 = QueryNeighborAds(q2);
  return simd::ActiveKernels().count_common_sorted(n1.data(), n1.size(),
                                                   n2.data(), n2.size());
}

size_t BipartiteGraph::CountCommonQueries(AdId a1, AdId a2) const {
  std::span<const QueryId> n1 = AdNeighborQueries(a1);
  std::span<const QueryId> n2 = AdNeighborQueries(a2);
  return simd::ActiveKernels().count_common_sorted(n1.data(), n1.size(),
                                                   n2.data(), n2.size());
}

}  // namespace simrankpp
