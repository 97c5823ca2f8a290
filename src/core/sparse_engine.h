/// @file sparse_engine.h
/// @brief Threshold-pruned sparse SimRank engine on flat structures.
///
/// Scores live in one sorted flat PairStore per side (parallel key/value
/// arrays rebuilt by concatenating shard outputs, never re-hashed). The
/// candidate-pair set is NOT rediscovered every iteration: a CSR two-hop
/// candidate index is built once before iteration 0 (pairs reachable
/// through a common neighbor — fixed by the graph topology), and pairs
/// that only become reachable through scored opposite-side pairs (4+ hops)
/// are appended to a per-side overlay exactly once, when the enabling
/// opposite pair first appears. From the third iteration on, delta-driven
/// rescoring (SimRankOptions::incremental) recomputes only pairs whose
/// opposite-side neighborhood actually changed and carries every other
/// score over untouched. All of this is bit-identical to the classic
/// rescore-everything map-based update for every variant and thread count
/// (candidate supersets only ever add zero-sum pairs, which are never
/// stored; skipped pairs would recompute to exactly their previous value
/// when convergence_epsilon is 0). Pruning (score threshold + per-node
/// partner cap) keeps memory bounded on power-law click graphs, which is
/// how SimRank is deployed at the paper's scale.
#ifndef SIMRANKPP_CORE_SPARSE_ENGINE_H_
#define SIMRANKPP_CORE_SPARSE_ENGINE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/pair_store.h"
#include "core/simrank_engine.h"

namespace simrankpp {

/// \brief Scalable SimRank engine with score pruning.
class SparseSimRankEngine : public SimRankEngine {
 public:
  explicit SparseSimRankEngine(SimRankOptions options);

  Status Run(const BipartiteGraph& graph) override;
  double QueryScore(QueryId q1, QueryId q2) const override;
  double AdScore(AdId a1, AdId a2) const override;
  SimilarityMatrix ExportQueryScores(double min_score) const override;
  SimilarityMatrix ExportAdScores(double min_score) const override;
  const SimRankStats& stats() const override { return stats_; }
  const SimRankOptions& options() const override { return options_; }

  /// \brief Raw (pre-evidence) iterated score between queries.
  double RawQueryScore(QueryId q1, QueryId q2) const;

 private:
  /// CSR rows of candidate partners: for node u, the sorted v > u that u
  /// can ever share score mass with. The two-hop base rows are a pure
  /// function of the graph and are built once per Run.
  struct CandidateIndex {
    std::vector<size_t> offsets;  // n + 1
    std::vector<uint32_t> partners;

    std::span<const uint32_t> Row(uint32_t u) const {
      return {partners.data() + offsets[u], offsets[u + 1] - offsets[u]};
    }
  };

  /// CSR view of one side's scores for the update pass: per node a, the
  /// sorted (b, s(a, b)) entries including the implicit diagonal
  /// (a, 1.0), so a pair sum is a merge of this row against the other
  /// node's edge list.
  struct ScoreCsr {
    std::vector<size_t> offsets;  // n + 1
    std::vector<uint32_t> nodes;
    std::vector<double> scores;
  };

  /// Flattened one-directional adjacency for one side: opposite-node ids
  /// (and, for the weighted variant, the matching W transition factors)
  /// packed contiguously per node. Built once per Run so the iteration
  /// hot loops never chase edge ids through the graph's edge arrays.
  struct SideAdjacency {
    std::vector<size_t> offsets;      // n + 1
    std::vector<uint32_t> neighbors;  // ascending per node
    std::vector<double> weights;      // aligned with neighbors; kWeighted only

    size_t degree(uint32_t u) const { return offsets[u + 1] - offsets[u]; }
    std::span<const uint32_t> Neighbors(uint32_t u) const {
      return {neighbors.data() + offsets[u], offsets[u + 1] - offsets[u]};
    }
  };

  SideAdjacency BuildSideAdjacency(bool query_side) const;

  /// Two-hop candidate rows for one side (common-neighbor partners).
  CandidateIndex BuildTwoHopIndex(bool query_side);

  static ScoreCsr BuildScoreCsr(const PairStore& store, size_t n);

  /// One Jacobi update of one side from the opposite side's previous
  /// post-cap scores (`source_csr`). With `allow_skip`, pairs whose
  /// neighborhood holds no recently-changed opposite pair reuse their
  /// previous pre-cap score instead of being recomputed.
  PairStore UpdateSide(bool query_side, const ScoreCsr& source_csr,
                       double decay, bool allow_skip);

  /// Applies the per-node top-K cap (a pair survives when it ranks within
  /// the top K of either endpoint).
  void ApplyPartnerCap(PairStore* store, size_t n) const;

  /// Marks endpoints of pairs whose score differs between the two stores
  /// by more than `threshold` (appearing/disappearing pairs included).
  static void MarkTouched(const PairStore& old_store,
                          const PairStore& new_store, double threshold,
                          std::vector<uint8_t>* touched);

  /// dirty[u] = some neighbor of u (on the opposite side) is touched.
  void ComputeDirty(bool query_side,
                    const std::vector<uint8_t>& touched_opposite,
                    std::vector<uint8_t>* dirty) const;

  /// Folds the keys of `new_store` (one side's post-cap scores) into that
  /// side's ever-scored set and expands first-time pairs into the
  /// opposite side's candidate overlay: a newly scored pair (a, b) makes
  /// every (u, v) in E(a) x E(b) reachable. Each pair is expanded exactly
  /// once per Run.
  void ExpandNewPairs(const PairStore& new_store, bool store_is_query_side);

  /// Evidence factor for a query pair under the configured formula+floor.
  double QueryEvidenceFactor(QueryId q1, QueryId q2) const;
  double AdEvidenceFactor(AdId a1, AdId a2) const;

  SimRankOptions options_;
  SimRankStats stats_;
  const BipartiteGraph* graph_ = nullptr;
  // Threads (the caller included) that Run() may use on the shared pool.
  size_t max_participants_ = 1;

  // Post-cap scores, the engine's output state.
  PairStore query_scores_;
  PairStore ad_scores_;

  // Per-Run iteration state (released when Run returns).
  SideAdjacency side_query_;  // query -> ad neighbors (+ W(q,a) factors)
  SideAdjacency side_ad_;     // ad -> query neighbors (+ W(a,q) factors)
  CandidateIndex base_query_;
  CandidateIndex base_ad_;
  // Candidate pairs beyond two hops, sorted canonical keys, disjoint from
  // the base rows; grows monotonically as opposite-side pairs appear.
  std::vector<uint64_t> overlay_query_;
  std::vector<uint64_t> overlay_ad_;
  // Sorted keys of every pair that has ever been stored post-cap (the
  // expansion-dedup set).
  std::vector<uint64_t> ever_scored_query_;
  std::vector<uint64_t> ever_scored_ad_;
  // Previous iteration's pre-cap update results: the reuse source for
  // delta-skipped pairs (a pair's own cap removal must not perturb what a
  // full recompute would produce).
  PairStore prev_precap_query_;
  PairStore prev_precap_ad_;
  // Nodes whose next update must be rescored (some opposite neighbor is
  // an endpoint of a changed pair).
  std::vector<uint8_t> dirty_query_;
  std::vector<uint8_t> dirty_ad_;

  std::vector<double> w_q2a_;
  std::vector<double> w_a2q_;
};

}  // namespace simrankpp

#endif  // SIMRANKPP_CORE_SPARSE_ENGINE_H_
