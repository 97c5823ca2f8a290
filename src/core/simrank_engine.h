/// @file simrank_engine.h
/// @brief Abstract interface shared by the SimRank computation engines.
///
/// Three implementations exist:
///  - DenseSimRankEngine: exact dense-matrix iteration, O((|Q|+|A|)^2)
///    memory; the reference implementation for small graphs and for
///    validating the sparse engine.
///  - SparseSimRankEngine: threshold-pruned pair maps, scaling to the
///    Table-5-sized subgraphs the evaluation uses.
///  - LinearizedSimRankEngine: linear-system reformulation with
///    single-source rows answerable on demand (also an OnDemandScorer;
///    plain / evidence variants only — weighted does not linearize).
/// All implement the SimRankVariant read-side semantics identically for
/// the variants they support.
#ifndef SIMRANKPP_CORE_SIMRANK_ENGINE_H_
#define SIMRANKPP_CORE_SIMRANK_ENGINE_H_

#include <memory>

#include "core/similarity_matrix.h"
#include "core/simrank_options.h"
#include "graph/bipartite_graph.h"
#include "util/status.h"

namespace simrankpp {

/// \brief Iterative bipartite SimRank computation (all variants).
class SimRankEngine {
 public:
  virtual ~SimRankEngine() = default;

  /// \brief Runs the configured number of iterations on `graph`. The graph
  /// must outlive the engine's read calls.
  virtual Status Run(const BipartiteGraph& graph) = 0;

  /// \brief Similarity of two queries under the configured variant
  /// (evidence factors applied where the variant requires). 1 when q1==q2.
  virtual double QueryScore(QueryId q1, QueryId q2) const = 0;

  /// \brief Similarity of two ads under the configured variant.
  virtual double AdScore(AdId a1, AdId a2) const = 0;

  /// \brief Materializes all query-query scores >= min_score as a
  /// finalized SimilarityMatrix (variant semantics applied).
  virtual SimilarityMatrix ExportQueryScores(double min_score) const = 0;

  /// \brief Materializes all ad-ad scores >= min_score.
  virtual SimilarityMatrix ExportAdScores(double min_score) const = 0;

  /// \brief Post-run diagnostics.
  virtual const SimRankStats& stats() const = 0;

  /// \brief The options the engine was constructed with.
  virtual const SimRankOptions& options() const = 0;
};

/// \brief Optional engine capability: single-source rows answerable at
/// query time, without an all-pairs Run.
///
/// Engines that can score one node against every other node on demand
/// (today the linearized engine) additionally implement this interface;
/// the serving layer discovers it with a dynamic_cast on the
/// registry-created engine. The contract mirrors the serving layer's
/// needs: Prepare once (graph analysis, e.g. the linearized engine's
/// diagonal estimation), then any number of concurrent const ScoredRow
/// calls — implementations must not mutate shared state after Prepare.
class OnDemandScorer {
 public:
  virtual ~OnDemandScorer() = default;

  /// \brief One-time graph analysis. The graph must outlive every
  /// subsequent ScoredRow call.
  virtual Status Prepare(const BipartiteGraph& graph) = 0;

  /// \brief Scores of `node` against every other node of its side
  /// (queries when ad_side is false), sorted by descending score with
  /// ties broken by ascending node id. Entries <= min_score are dropped
  /// and at most max_partners are returned (0 = unlimited). OutOfRange
  /// for a node outside the graph; FailedPrecondition before Prepare.
  virtual Result<std::vector<ScoredNode>> ScoredRow(
      bool ad_side, uint32_t node, double min_score,
      size_t max_partners) const = 0;
};

// Engine instantiation is name-based: see core/engine_registry.h for
// CreateSimRankEngine("dense" | "sparse" | "linearized", options).

}  // namespace simrankpp

#endif  // SIMRANKPP_CORE_SIMRANK_ENGINE_H_
