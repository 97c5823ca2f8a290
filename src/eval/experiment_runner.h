// End-to-end orchestration of the paper's evaluation (Sections 9-10):
// generate the synthetic world, extract the five-subgraph dataset, build
// the bid list, sample the live-traffic evaluation queries, run all four
// rewriting methods (Pearson + three SimRank variants), grade every
// rewrite with the editorial oracle, and compute the Figure 8-11 metrics.
// Every bench binary for those figures calls this runner with the same
// seed, so the figures come from one consistent experiment.
#ifndef SIMRANKPP_EVAL_EXPERIMENT_RUNNER_H_
#define SIMRANKPP_EVAL_EXPERIMENT_RUNNER_H_

#include <string>
#include <vector>

#include "core/simrank_engine.h"
#include "eval/metrics.h"
#include "graph/graph_stats.h"
#include "partition/subgraph_extractor.h"
#include "rewrite/pipeline.h"
#include "synth/bid_generator.h"
#include "synth/click_graph_generator.h"
#include "synth/workload.h"
#include "util/status.h"

namespace simrankpp {

/// \brief Full experiment configuration. Defaults reproduce the paper's
/// pipeline at roughly 1:300 of the Yahoo! dataset scale (documented per
/// bench in EXPERIMENTS.md).
struct ExperimentConfig {
  GeneratorOptions generator;
  ExtractorOptions extractor;
  BidGeneratorOptions bids;
  WorkloadOptions workload;

  /// Engine parameters; the variant field is overridden per method. The
  /// engine is selected by name (core/engine_registry.h).
  SimRankOptions simrank;
  std::string engine = "sparse";
  RewritePipelineOptions pipeline;

  /// Scores below this are not materialized into rewriter input.
  double min_export_score = 1e-6;
  bool include_pearson = true;

  ExperimentConfig();
};

/// \brief Everything the figure benches need.
struct ExperimentOutcome {
  SyntheticClickGraph world;
  /// Union of the extracted subgraphs — the evaluation dataset.
  BipartiteGraph dataset;
  /// Table 5 rows: stats of each extracted subgraph, largest first.
  std::vector<GraphStats> subgraph_stats;
  std::vector<double> subgraph_conductances;

  size_t workload_sample_size = 0;
  /// Evaluation queries (workload ∩ dataset).
  std::vector<std::string> eval_queries;
  size_t bid_count = 0;

  /// Ranked, graded rewrites per method (Pearson first when enabled, then
  /// Simrank, evidence-based, weighted).
  std::vector<MethodReport> reports;
  /// Aggregate metrics, same order as `reports`.
  std::vector<MethodEvaluation> evaluations;
};

/// \brief Runs the complete evaluation pipeline.
Result<ExperimentOutcome> RunRewritingExperiment(
    const ExperimentConfig& config);

}  // namespace simrankpp

#endif  // SIMRANKPP_EVAL_EXPERIMENT_RUNNER_H_
