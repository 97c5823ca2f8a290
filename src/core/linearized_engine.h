/// @file linearized_engine.h
/// @brief Linearized SimRank: single-source scoring without materializing
/// all pairs ("Efficient SimRank Computation via Linearization", Maehara
/// et al., adapted to the bipartite click graph — docs/LINEARIZED_ENGINE.md).
///
/// The bipartite SimRank fixed point
///   S_q = C1 * Q S_a Q^T   (off-diagonal),   diag(S_q) = I,
///   S_a = C2 * R S_q R^T   (off-diagonal),   diag(S_a) = I
/// (Q / R the row-normalized query->ad / ad->query adjacency) is rewritten
/// as the linear system S_q = C1 C2 * M S_q M^T + C with M = Q R and a
/// correction matrix C = D_q + C1 * Q D_a Q^T built from two DIAGONAL
/// vectors D_q, D_a — the only unknowns that must be solved for globally.
/// Prepare() estimates them once with a Jacobi iteration over walk-based
/// linear forms (parallelized per node on the shared pool); after that a
/// single node's full score row is a truncated power-series evaluation
/// costing O(T) matrix-vector products over the node's connected
/// component — no n^2 state anywhere. That is the step past the
/// all-pairs precompute ceiling: rows become answerable at serve time
/// (see OnDemandScorer and the RewriteService on-demand mode).
///
/// Run() keeps the engine a drop-in peer of the others ("linearized"): it
/// loops the single-source evaluation over every node, materializing the
/// same exportable score sets as the dense/sparse engines for small
/// graphs and snapshot round-trips.
#ifndef SIMRANKPP_CORE_LINEARIZED_ENGINE_H_
#define SIMRANKPP_CORE_LINEARIZED_ENGINE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/simrank_engine.h"

namespace simrankpp {

/// \brief Linearized SimRank engine (plain and evidence-based variants;
/// weighted SimRank's in-recursion evidence does not linearize and is
/// rejected by Prepare/Run).
class LinearizedSimRankEngine : public SimRankEngine, public OnDemandScorer {
 public:
  explicit LinearizedSimRankEngine(SimRankOptions options);

  // SimRankEngine --------------------------------------------------------
  Status Run(const BipartiteGraph& graph) override;
  double QueryScore(QueryId q1, QueryId q2) const override;
  double AdScore(AdId a1, AdId a2) const override;
  SimilarityMatrix ExportQueryScores(double min_score) const override;
  SimilarityMatrix ExportAdScores(double min_score) const override;
  const SimRankStats& stats() const override { return stats_; }
  const SimRankOptions& options() const override { return options_; }

  // OnDemandScorer -------------------------------------------------------
  /// \brief Estimates the diagonal correction vectors (the offline part);
  /// after it returns, ScoredRow is safe from any number of threads.
  Status Prepare(const BipartiteGraph& graph) override;
  Result<std::vector<ScoredNode>> ScoredRow(
      bool ad_side, uint32_t node, double min_score,
      size_t max_partners) const override;

  /// \brief The paper-facing single-source operation: every query scored
  /// against query `node`, descending. Shorthand for
  /// ScoredRow(/*ad_side=*/false, node, 0.0, /*max_partners=*/0).
  Result<std::vector<ScoredNode>> ScoresFor(uint32_t node) const {
    return ScoredRow(/*ad_side=*/false, node, 0.0, 0);
  }

  /// \brief The estimated diagonal corrections (exposed for tests and the
  /// perf bench; sized num_queries / num_ads after Prepare).
  std::span<const double> diag_query() const { return diag_query_; }
  std::span<const double> diag_ad() const { return diag_ad_; }

 private:
  /// One side of the click graph in component order: ids are renumbered
  /// so that every connected component is one contiguous id range on
  /// each side, original order kept inside a component. Since a node's
  /// neighbours all lie in its component, ascending neighbour order is
  /// the same in both numberings. The walk loops never touch edge ids.
  struct SideAdjacency {
    std::vector<size_t> offsets;      // n + 1
    std::vector<uint32_t> neighbors;  // opposite-side ids, ascending per node
    std::vector<double> inv_degree;   // n; 0 for isolated nodes
    std::vector<uint32_t> component;  // n; component of each id
    std::vector<uint32_t> begin;      // components + 1; first id of each
    std::vector<uint32_t> to_new;       // original id -> id
    std::vector<uint32_t> to_original;  // id -> original id

    std::span<const uint32_t> Neighbors(uint32_t u) const {
      return {neighbors.data() + offsets[u], offsets[u + 1] - offsets[u]};
    }
  };

  /// A sparse score row: (node, score) pairs ascending by node.
  using SparseRow = std::vector<ScoredNode>;

  /// A node's forward walk, dense over its component: the iterates
  /// w_k = (M^T)^k e_node and their opposite-side projections
  /// t_k = A^T w_k for k = 0..K, K = T unless the walk dies out first.
  /// Entries are component-relative (id minus the component's first id).
  struct Walk {
    uint32_t own_begin = 0, own_size = 0;  // the component's own-side ids
    uint32_t opp_begin = 0, opp_size = 0;  // and its opposite-side ids
    size_t steps = 0;                      // K + 1
    std::vector<double> w;  // (T + 1) x own_size, the first steps filled
    std::vector<double> t;  // (T + 1) x opp_size, likewise

    double* W(size_t k) { return w.data() + k * own_size; }
    double* T(size_t k) { return t.data() + k * opp_size; }
  };

  /// The diagonal conditions are LINEAR in (D_q, D_a): the walk iterates
  /// w_k never depend on the diagonals, so one pass precomputes, per node
  /// u, the coefficients of
  ///   F_u(D) = sum_v own[v] * D_own[v] + sum_b cross[b] * D_opp[b]
  /// and the Jacobi sweeps reduce to sparse dot products. alpha (the
  /// self-coefficient own[u]) is >= 1 from the k = 0 term, which keeps
  /// the per-node update d[u] += (1 - F_u) / alpha_u well defined.
  /// Stored structure-of-arrays (parallel node / coefficient vectors,
  /// ascending by node) so each Jacobi sweep's dot products run through
  /// the SIMD dense-gather kernel.
  struct DiagForm {
    std::vector<uint32_t> own_nodes;   // this side's diagonal indices
    std::vector<double> own_coeffs;    // parallel coefficients
    std::vector<uint32_t> cross_nodes;  // opposite side's diagonal indices
    std::vector<double> cross_coeffs;   // parallel coefficients
    double alpha = 1.0;
  };

  /// Rejects unsupported configurations (weighted variant, C1*C2 >= 1)
  /// and builds the component-ordered adjacency.
  Status BindGraph(const BipartiteGraph& graph);

  /// The forward walk of `node` (an original id). Each pass is a dense
  /// pull over the target side of the component: every target sums its
  /// neighbours' terms in ascending neighbour order, so every value is
  /// fixed by the graph alone, whatever the thread count.
  Walk ForwardWalk(bool ad_side, uint32_t node) const;

  /// Walk-based linear form of one node's diagonal condition (original
  /// ids throughout, ascending).
  DiagForm BuildDiagForm(bool ad_side, uint32_t node) const;

  /// Jacobi estimation of diag_query_ / diag_ad_ from the precomputed
  /// linear forms. Returns the final residual max |1 - F_u| and counts
  /// sweeps into stats_.iterations_run.
  double EstimateDiagonals(const std::vector<DiagForm>& forms_q,
                           const std::vector<DiagForm>& forms_a);

  /// Raw (pre-evidence) truncated-series row of `node`, entries > 0 in
  /// ascending node order (self excluded).
  SparseRow RawRow(bool ad_side, uint32_t node) const;

  /// Variant read semantics (evidence post-multiply where configured).
  double VariantFactor(bool ad_side, uint32_t u, uint32_t v) const;

  SimilarityMatrix ExportSide(bool ad_side, double min_score) const;

  SimRankOptions options_;
  SimRankStats stats_;
  const BipartiteGraph* graph_ = nullptr;
  bool prepared_ = false;

  // Threads (the caller included) that Prepare/Run may use on the shared
  // pool.
  size_t max_participants_ = 1;

  SideAdjacency query_adj_;  // query -> ads
  SideAdjacency ad_adj_;     // ad -> queries

  // The estimated diagonal corrections D_q / D_a.
  std::vector<double> diag_query_;
  std::vector<double> diag_ad_;

  // Run()-materialized raw rows: rows_*_[u] holds (v, score) for v > u,
  // ascending, score >= prune_threshold. Empty until Run().
  std::vector<SparseRow> rows_query_;
  std::vector<SparseRow> rows_ad_;
};

}  // namespace simrankpp

#endif  // SIMRANKPP_CORE_LINEARIZED_ENGINE_H_
