// Cross-engine agreement suite: the linearized engine's truncated-series
// scores pinned against the naive counts, the converged dense/sparse
// iterations, the K_{m,n} closed forms, and a random-walk Monte-Carlo
// sanity point. This is the contract behind `compute --engine linearized`
// and the on-demand serving path: any row the linearized engine answers
// at query time must match what the precompute engines would have
// snapshotted, within the tolerance documented here.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/closed_form.h"
#include "core/dense_engine.h"
#include "core/linearized_engine.h"
#include "core/naive_similarity.h"
#include "core/random_walk.h"
#include "core/sample_graphs.h"
#include "core/sparse_engine.h"

namespace simrankpp {
namespace {

// The documented agreement tolerance (docs/LINEARIZED_ENGINE.md). Three
// error sources separate the linearized scores from a converged
// iteration: the truncated series tail, bounded by
// (C1*C2)^(T+1) / (1 - C1*C2) ≈ 2.3e-4 at the paper defaults
// (C1 = C2 = 0.8, T = 20); the diagonal-estimation residual
// (linearized_diag_tolerance, 1e-4); and the reference engines' own
// remaining iteration error at 25 iterations (0.64^25 ≈ 1.4e-5). 1e-3
// covers their sum with headroom.
constexpr double kAgreementTolerance = 1e-3;

// Iterations after which the dense/sparse fixed-point iteration is
// converged well beyond kAgreementTolerance.
constexpr size_t kConvergedIterations = 25;

SimRankOptions ReferenceOptions(SimRankVariant variant) {
  SimRankOptions options;
  options.variant = variant;
  options.iterations = kConvergedIterations;
  options.prune_threshold = 0.0;
  options.max_partners_per_node = 0;
  return options;
}

struct SampleGraphCase {
  const char* label;
  BipartiteGraph (*make)();
};

BipartiteGraph MakeFigure5Balanced() { return MakeFigure5Graph(true); }
BipartiteGraph MakeFigure5Skewed() { return MakeFigure5Graph(false); }
BipartiteGraph MakeFigure6Heavy() { return MakeFigure6Graph(true); }
BipartiteGraph MakeK33() { return MakeCompleteBipartite(3, 3); }

const SampleGraphCase kSampleGraphs[] = {
    {"figure3", &MakeFigure3Graph},
    {"figure4_k22", &MakeFigure4K22},
    {"figure4_k12", &MakeFigure4K12},
    {"figure5_balanced", &MakeFigure5Balanced},
    {"figure5_skewed", &MakeFigure5Skewed},
    {"figure6_heavy", &MakeFigure6Heavy},
    {"k33", &MakeK33},
};

// Without it gtest prints the struct's bytes, pointers included, into the
// test's listed name, which then changes with every address layout.
void PrintTo(const SampleGraphCase& graph_case, std::ostream* os) {
  *os << graph_case.label;
}

class SampleGraphAgreementTest
    : public ::testing::TestWithParam<SampleGraphCase> {};

// ----------------------------------------- linearized vs dense vs sparse

TEST_P(SampleGraphAgreementTest, LinearizedMatchesConvergedEngines) {
  BipartiteGraph graph = GetParam().make();
  for (SimRankVariant variant :
       {SimRankVariant::kSimRank, SimRankVariant::kEvidence}) {
    SimRankOptions options = ReferenceOptions(variant);
    DenseSimRankEngine dense(options);
    SparseSimRankEngine sparse(options);
    LinearizedSimRankEngine linearized(options);
    ASSERT_TRUE(dense.Run(graph).ok());
    ASSERT_TRUE(sparse.Run(graph).ok());
    ASSERT_TRUE(linearized.Run(graph).ok());

    for (QueryId q1 = 0; q1 < graph.num_queries(); ++q1) {
      for (QueryId q2 = 0; q2 < graph.num_queries(); ++q2) {
        double expected = dense.QueryScore(q1, q2);
        EXPECT_NEAR(linearized.QueryScore(q1, q2), expected,
                    kAgreementTolerance)
            << GetParam().label << " variant=" << static_cast<int>(variant)
            << " queries " << q1 << "," << q2;
        EXPECT_NEAR(sparse.QueryScore(q1, q2), expected,
                    kAgreementTolerance)
            << GetParam().label << " queries " << q1 << "," << q2;
      }
    }
    for (AdId a1 = 0; a1 < graph.num_ads(); ++a1) {
      for (AdId a2 = 0; a2 < graph.num_ads(); ++a2) {
        EXPECT_NEAR(linearized.AdScore(a1, a2), dense.AdScore(a1, a2),
                    kAgreementTolerance)
            << GetParam().label << " variant=" << static_cast<int>(variant)
            << " ads " << a1 << "," << a2;
      }
    }
  }
}

// Exports must carry the same scores as the point lookups, so snapshots
// written by `compute --engine linearized` agree with sparse snapshots.
TEST_P(SampleGraphAgreementTest, LinearizedExportMatchesSparseExport) {
  BipartiteGraph graph = GetParam().make();
  SimRankOptions options = ReferenceOptions(SimRankVariant::kSimRank);
  SparseSimRankEngine sparse(options);
  LinearizedSimRankEngine linearized(options);
  ASSERT_TRUE(sparse.Run(graph).ok());
  ASSERT_TRUE(linearized.Run(graph).ok());
  SimilarityMatrix from_sparse = sparse.ExportQueryScores(1e-6);
  SimilarityMatrix from_linearized = linearized.ExportQueryScores(1e-6);
  EXPECT_LE(from_sparse.MaxAbsDifference(from_linearized),
            kAgreementTolerance)
      << GetParam().label;
}

// ----------------------------------------------- single-source serving row

TEST_P(SampleGraphAgreementTest, ScoredRowMatchesMaterializedScores) {
  BipartiteGraph graph = GetParam().make();
  SimRankOptions options = ReferenceOptions(SimRankVariant::kEvidence);
  LinearizedSimRankEngine materialized(options);
  LinearizedSimRankEngine on_demand(options);
  ASSERT_TRUE(materialized.Run(graph).ok());
  ASSERT_TRUE(on_demand.Prepare(graph).ok());

  for (QueryId q = 0; q < graph.num_queries(); ++q) {
    auto row = on_demand.ScoredRow(/*ad_side=*/false, q, 0.0,
                                   /*max_partners=*/0);
    ASSERT_TRUE(row.ok());
    // Descending score, ties by ascending node, no self entry.
    for (size_t i = 1; i < row->size(); ++i) {
      const ScoredNode& prev = (*row)[i - 1];
      const ScoredNode& cur = (*row)[i];
      EXPECT_TRUE(prev.score > cur.score ||
                  (prev.score == cur.score && prev.node < cur.node));
    }
    for (const ScoredNode& entry : *row) {
      ASSERT_NE(entry.node, q);
      EXPECT_NEAR(entry.score, materialized.QueryScore(q, entry.node), 1e-12)
          << GetParam().label << " row " << q << " -> " << entry.node;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllSampleGraphs, SampleGraphAgreementTest,
                         ::testing::ValuesIn(kSampleGraphs),
                         [](const auto& info) {
                           return std::string(info.param.label);
                         });

// --------------------------------------------------- naive cross-check

// Common-ad counts (Table 1) versus SimRank: a pair with direct evidence
// must get a positive score, and the disconnected flower pairs exactly 0.
TEST(NaiveAgreementTest, PositiveCountsImplyPositiveScores) {
  BipartiteGraph graph = MakeFigure3Graph();
  SimilarityMatrix counts = ComputeNaiveSimilarities(graph);
  LinearizedSimRankEngine engine(ReferenceOptions(SimRankVariant::kSimRank));
  ASSERT_TRUE(engine.Run(graph).ok());
  for (QueryId q1 = 0; q1 < graph.num_queries(); ++q1) {
    for (QueryId q2 = q1 + 1; q2 < graph.num_queries(); ++q2) {
      if (counts.Get(q1, q2) > 0.0) {
        EXPECT_GT(engine.QueryScore(q1, q2), 0.0) << q1 << "," << q2;
      }
    }
  }
  QueryId flower = *graph.FindQuery("flower");
  QueryId pc = *graph.FindQuery("pc");
  EXPECT_DOUBLE_EQ(engine.QueryScore(flower, pc), 0.0);
}

// ------------------------------------------------- closed-form backfill

// K_{m,n} has exact per-iteration scores from the Appendix A recurrence;
// at converged iteration counts every engine must land on them. This also
// backfills direct coverage for closed_form beyond the K2,2 Table 3 rows.
TEST(ClosedFormAgreementTest, EnginesMatchCompleteBipartiteRecurrence) {
  struct Shape {
    size_t m, n;
  };
  for (Shape shape : {Shape{2, 2}, Shape{2, 3}, Shape{3, 4}, Shape{4, 2}}) {
    BipartiteGraph graph = MakeCompleteBipartite(shape.m, shape.n);
    CompleteBipartiteScores expected = SimRankOnCompleteBipartite(
        shape.m, shape.n, kConvergedIterations, 0.8, 0.8);
    SimRankOptions options = ReferenceOptions(SimRankVariant::kSimRank);
    DenseSimRankEngine dense(options);
    LinearizedSimRankEngine linearized(options);
    ASSERT_TRUE(dense.Run(graph).ok());
    ASSERT_TRUE(linearized.Run(graph).ok());
    if (shape.m >= 2) {
      EXPECT_NEAR(dense.QueryScore(0, 1), expected.v1_pair, 1e-9)
          << "K" << shape.m << "," << shape.n;
      EXPECT_NEAR(linearized.QueryScore(0, 1), expected.v1_pair,
                  kAgreementTolerance)
          << "K" << shape.m << "," << shape.n;
    }
    if (shape.n >= 2) {
      EXPECT_NEAR(dense.AdScore(0, 1), expected.v2_pair, 1e-9)
          << "K" << shape.m << "," << shape.n;
      EXPECT_NEAR(linearized.AdScore(0, 1), expected.v2_pair,
                  kAgreementTolerance)
          << "K" << shape.m << "," << shape.n;
    }
  }
  // The Theorem A.1 series is yet another independent route to the same
  // K2,2 number.
  EXPECT_NEAR(TheoremA1Series(kConvergedIterations, 0.8, 0.8),
              SimRankOnCompleteBipartite(2, 2, kConvergedIterations, 0.8, 0.8)
                  .v2_pair,
              1e-12);
}

// --------------------------------------------- random-walk sanity point

// Section 5's random-surfer semantics: the Monte-Carlo estimator (fixed
// seed, so this is deterministic) must land near the analytic engines on
// the Figure 3 K2,2 pair. Backfills direct coverage for random_walk.
TEST(RandomWalkAgreementTest, MonteCarloMatchesLinearizedEngine) {
  BipartiteGraph graph = MakeFigure3Graph();
  LinearizedSimRankEngine engine(ReferenceOptions(SimRankVariant::kSimRank));
  ASSERT_TRUE(engine.Run(graph).ok());

  RandomWalkOptions mc;
  mc.trials = 200000;
  QueryId camera = *graph.FindQuery("camera");
  QueryId digital = *graph.FindQuery("digital camera");
  double estimated = EstimateQuerySimRank(graph, camera, digital, mc);
  // Monte-Carlo error at 200k trials is ~2e-3 standard deviation on this
  // pair; 0.02 gives 10 sigma against flakiness while still pinning the
  // first two digits.
  EXPECT_NEAR(estimated, engine.QueryScore(camera, digital), 0.02);

  AdId hp = *graph.FindAd("hp.com");
  AdId bestbuy = *graph.FindAd("bestbuy.com");
  double ad_estimated = EstimateAdSimRank(graph, hp, bestbuy, mc);
  EXPECT_NEAR(ad_estimated, engine.AdScore(hp, bestbuy), 0.02);
}

// ----------------------------------------------------- error contracts

TEST(LinearizedContractTest, RejectsWeightedVariant) {
  BipartiteGraph graph = MakeFigure3Graph();
  SimRankOptions options = ReferenceOptions(SimRankVariant::kWeighted);
  LinearizedSimRankEngine engine(options);
  Status status = engine.Run(graph);
  EXPECT_EQ(status.code(), StatusCode::kNotImplemented);
  EXPECT_NE(status.message().find("weighted"), std::string::npos);
}

TEST(LinearizedContractTest, RejectsNonContractingDecay) {
  BipartiteGraph graph = MakeFigure3Graph();
  SimRankOptions options = ReferenceOptions(SimRankVariant::kSimRank);
  options.c1 = options.c2 = 1.0;  // C1*C2 = 1: the series diverges
  LinearizedSimRankEngine engine(options);
  Status status = engine.Run(graph);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("C1*C2"), std::string::npos);
}

TEST(LinearizedContractTest, ScoredRowErrorsAreTyped) {
  BipartiteGraph graph = MakeFigure3Graph();
  LinearizedSimRankEngine engine(ReferenceOptions(SimRankVariant::kSimRank));
  EXPECT_EQ(engine.ScoredRow(false, 0, 0.0, 0).status().code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(engine.Prepare(graph).ok());
  EXPECT_EQ(engine.ScoredRow(false, 999, 0.0, 0).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(engine.ScoredRow(true, 999, 0.0, 0).status().code(),
            StatusCode::kOutOfRange);
  // max_partners truncates after the descending sort.
  auto top1 = engine.ScoredRow(false, *graph.FindQuery("camera"), 0.0, 1);
  ASSERT_TRUE(top1.ok());
  EXPECT_EQ(top1->size(), 1u);
  // ScoresFor is the unlimited query-side row.
  auto full = engine.ScoresFor(*graph.FindQuery("camera"));
  ASSERT_TRUE(full.ok());
  EXPECT_GE(full->size(), top1->size());
  EXPECT_EQ((*full)[0], (*top1)[0]);
}

// Thread-count independence: the diagonal estimation and row sweeps shard
// deterministically, so exports are bit-identical for any num_threads.
TEST(LinearizedContractTest, ExportsAreThreadCountIndependent) {
  BipartiteGraph graph = MakeCompleteBipartite(5, 7);
  SimRankOptions serial = ReferenceOptions(SimRankVariant::kSimRank);
  serial.num_threads = 1;
  SimRankOptions parallel = ReferenceOptions(SimRankVariant::kSimRank);
  parallel.num_threads = 4;
  LinearizedSimRankEngine engine1(serial);
  LinearizedSimRankEngine engine4(parallel);
  ASSERT_TRUE(engine1.Run(graph).ok());
  ASSERT_TRUE(engine4.Run(graph).ok());
  EXPECT_EQ(engine1.ExportQueryScores(0.0).MaxAbsDifference(
                engine4.ExportQueryScores(0.0)),
            0.0);
  EXPECT_EQ(engine1.ExportAdScores(0.0).MaxAbsDifference(
                engine4.ExportAdScores(0.0)),
            0.0);
}

}  // namespace
}  // namespace simrankpp
