/// @file dense_engine.h
/// @brief Exact dense-matrix SimRank engine.
///
/// Stores full |Q|x|Q| and |A|x|A| score matrices and iterates with the
/// intermediate-product trick (T = A * S per side), giving
/// O(edges * nodes) work per iteration instead of the naive
/// O(pairs * degree^2).
#ifndef SIMRANKPP_CORE_DENSE_ENGINE_H_
#define SIMRANKPP_CORE_DENSE_ENGINE_H_

#include <vector>

#include "core/simrank_engine.h"

namespace simrankpp {

/// \brief Reference SimRank engine; exact, quadratic memory.
///
/// Refuses graphs whose score matrices would exceed ~1 GiB; use the sparse
/// engine there.
class DenseSimRankEngine : public SimRankEngine {
 public:
  explicit DenseSimRankEngine(SimRankOptions options);

  Status Run(const BipartiteGraph& graph) override;
  double QueryScore(QueryId q1, QueryId q2) const override;
  double AdScore(AdId a1, AdId a2) const override;
  SimilarityMatrix ExportQueryScores(double min_score) const override;
  SimilarityMatrix ExportAdScores(double min_score) const override;
  const SimRankStats& stats() const override { return stats_; }
  const SimRankOptions& options() const override { return options_; }

  /// \brief Raw (pre-evidence) iterated score between queries; used by
  /// tests to check the plain recursion under every variant.
  double RawQueryScore(QueryId q1, QueryId q2) const;

 private:
  void ComputeEvidenceMatrices(const BipartiteGraph& graph);
  /// One Jacobi iteration. Returns the largest per-pair change and leaves
  /// the per-row nonzero off-diagonal pair counts (upper triangle) in
  /// `row_pairs_q` / `row_pairs_a`, so stats never need a separate
  /// O(nq^2 + na^2) counting sweep after the final iteration.
  double IterateOnce(const BipartiteGraph& graph,
                     std::vector<size_t>* row_pairs_q,
                     std::vector<size_t>* row_pairs_a);

  SimRankOptions options_;
  SimRankStats stats_;
  const BipartiteGraph* graph_ = nullptr;
  // Threads (the caller included) that Run() may use on the shared pool.
  size_t max_participants_ = 1;

  size_t nq_ = 0;
  size_t na_ = 0;
  std::vector<double> query_scores_;  // nq x nq row-major
  std::vector<double> ad_scores_;     // na x na row-major
  // Evidence factors (with floor), present for kEvidence and kWeighted.
  std::vector<double> query_evidence_;
  std::vector<double> ad_evidence_;
  // W(q,i) / W(alpha,i) factors per edge for kWeighted.
  std::vector<double> w_query_to_ad_;
  std::vector<double> w_ad_to_query_;
  // The same factors laid out parallel to the graph's flat neighbor
  // arrays (QueryNeighborAds / AdNeighborQueries order), so the row
  // passes can feed contiguous weight slices to the SIMD gather kernel.
  std::vector<double> flat_w_query_to_ad_;
  std::vector<double> flat_w_ad_to_query_;
};

}  // namespace simrankpp

#endif  // SIMRANKPP_CORE_DENSE_ENGINE_H_
