// The edge-removal desirability-prediction experiment of Section 9.3
// (Figure 12). For a query q1 and two rewrite candidates q2, q3 that share
// ads with it: record which candidate the click-graph evidence prefers
// (the desirability scores), delete the edges carrying that direct
// evidence, recompute similarities on the remaining graph, and test
// whether each SimRank variant still predicts the preferred candidate.
// Pearson is excluded — after the removal the queries share no ads, so it
// cannot score them at all (as the paper notes).
#ifndef SIMRANKPP_EVAL_DESIRABILITY_EXPERIMENT_H_
#define SIMRANKPP_EVAL_DESIRABILITY_EXPERIMENT_H_

#include <string>
#include <vector>

#include "core/simrank_engine.h"
#include "graph/bipartite_graph.h"
#include "util/status.h"

namespace simrankpp {

/// \brief Experiment parameters.
struct DesirabilityExperimentOptions {
  /// Number of (q1, q2, q3) trials (the paper ran 50).
  size_t num_trials = 50;
  /// Attempts at sampling a valid triple before giving up.
  size_t max_attempts = 5000;
  /// Candidates must have at least this many ads. Degree-1 candidates
  /// make the orderings structurally undecidable: their single normalized
  /// weight is 1 whatever the click rate (Section 8.2's
  /// normalized_weight), so all SimRank variants yield exact ties. The
  /// paper's requirement that "a similarity score can be computed"
  /// implies usable structure; we make the constraint explicit.
  size_t min_candidate_degree = 2;
  /// q2/q3 must stay reachable from q1 within this many hops after the
  /// removal; paths longer than 2 * iterations are invisible to a k-
  /// iteration SimRank, so unbounded connectivity would admit trials
  /// whose similarities are identically zero.
  size_t max_path_hops = 10;
  /// Engine + SimRank parameters shared by all three variants (the
  /// variant field itself is overridden per method). The engine is
  /// selected by name (core/engine_registry.h).
  SimRankOptions simrank;
  std::string engine = "sparse";
  uint64_t seed = 123;
};

/// \brief Outcome for one method.
struct DesirabilityResult {
  std::string method;
  size_t correct = 0;
  size_t trials = 0;

  double Accuracy() const {
    return trials == 0 ? 0.0
                       : static_cast<double>(correct) /
                             static_cast<double>(trials);
  }
};

/// \brief One sampled trial (exposed for inspection/testing).
struct DesirabilityTrial {
  QueryId q1 = 0;
  QueryId q2 = 0;
  QueryId q3 = 0;
  double des_q2 = 0.0;
  double des_q3 = 0.0;
  /// Edges (by id in the original graph) deleted before recomputation.
  std::vector<EdgeId> removed_edges;
};

/// \brief Runs the experiment for the three SimRank variants on `graph`.
/// Returns one DesirabilityResult per variant (plain, evidence, weighted).
Result<std::vector<DesirabilityResult>> RunDesirabilityExperiment(
    const BipartiteGraph& graph,
    const DesirabilityExperimentOptions& options);

/// \brief Samples the trials only (no similarity computation); used by
/// tests to validate the sampling invariants: q2/q3 share >= 1 ad with q1,
/// desirabilities differ, and q1 stays connected to both candidates after
/// the removal.
Result<std::vector<DesirabilityTrial>> SampleDesirabilityTrials(
    const BipartiteGraph& graph,
    const DesirabilityExperimentOptions& options);

}  // namespace simrankpp

#endif  // SIMRANKPP_EVAL_DESIRABILITY_EXPERIMENT_H_
