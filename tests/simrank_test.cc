// Core SimRank engine tests: exact reproduction of the paper's Tables 2
// and 3, agreement with the K_{m,n} closed forms, structural invariants
// (symmetry, range, self-similarity), convergence behavior, and dense vs
// sparse engine agreement across variants.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <set>
#include <tuple>

#include "core/closed_form.h"
#include "core/dense_engine.h"
#include "core/engine_registry.h"
#include "core/linearized_engine.h"
#include "core/naive_similarity.h"
#include "core/sample_graphs.h"
#include "core/sparse_engine.h"
#include "graph/graph_builder.h"

namespace simrankpp {

// Parameter printers for the listed test names. They live in the
// enum's namespace so gtest finds them by argument-dependent lookup;
// without them it prints the enum's bytes and the engine name's pointer.
void PrintTo(SimRankVariant variant, std::ostream* os) {
  switch (variant) {
    case SimRankVariant::kSimRank:
      *os << "simrank";
      return;
    case SimRankVariant::kEvidence:
      *os << "evidence";
      return;
    case SimRankVariant::kWeighted:
      *os << "weighted";
      return;
  }
}

void PrintTo(const std::tuple<const char*, SimRankVariant>& engine_variant,
             std::ostream* os) {
  *os << std::get<0>(engine_variant) << "_";
  PrintTo(std::get<1>(engine_variant), os);
}

namespace {

SimRankOptions PaperOptions(size_t iterations = 7) {
  SimRankOptions options;
  options.c1 = 0.8;
  options.c2 = 0.8;
  options.iterations = iterations;
  options.prune_threshold = 0.0;
  options.max_partners_per_node = 0;
  return options;
}

double Score(const SimRankEngine& engine, const BipartiteGraph& graph,
             const char* q1, const char* q2) {
  return engine.QueryScore(*graph.FindQuery(q1), *graph.FindQuery(q2));
}

// ------------------------------------------------- Table 1 (naive counts)

TEST(NaiveSimilarityTest, ReproducesTable1) {
  BipartiteGraph graph = MakeFigure3Graph();
  SimilarityMatrix matrix = ComputeNaiveSimilarities(graph);
  auto count = [&](const char* a, const char* b) {
    return matrix.Get(*graph.FindQuery(a), *graph.FindQuery(b));
  };
  EXPECT_DOUBLE_EQ(count("pc", "camera"), 1.0);
  EXPECT_DOUBLE_EQ(count("pc", "digital camera"), 1.0);
  EXPECT_DOUBLE_EQ(count("pc", "tv"), 0.0);
  EXPECT_DOUBLE_EQ(count("pc", "flower"), 0.0);
  EXPECT_DOUBLE_EQ(count("camera", "digital camera"), 2.0);
  EXPECT_DOUBLE_EQ(count("camera", "tv"), 1.0);
  EXPECT_DOUBLE_EQ(count("digital camera", "tv"), 1.0);
  EXPECT_DOUBLE_EQ(count("tv", "flower"), 0.0);
}

// ----------------------------------------------- Table 2 (Fig. 3 scores)

TEST(DenseEngineTest, ReproducesTable2ConvergedScores) {
  BipartiteGraph graph = MakeFigure3Graph();
  DenseSimRankEngine engine(PaperOptions(/*iterations=*/100));
  ASSERT_TRUE(engine.Run(graph).ok());

  EXPECT_NEAR(Score(engine, graph, "pc", "camera"), 0.619, 0.001);
  EXPECT_NEAR(Score(engine, graph, "pc", "digital camera"), 0.619, 0.001);
  EXPECT_NEAR(Score(engine, graph, "pc", "tv"), 0.437, 0.001);
  EXPECT_NEAR(Score(engine, graph, "camera", "digital camera"), 0.619,
              0.001);
  EXPECT_NEAR(Score(engine, graph, "camera", "tv"), 0.619, 0.001);
  EXPECT_NEAR(Score(engine, graph, "digital camera", "tv"), 0.619, 0.001);
  // flower is disconnected from the rest: similarity exactly 0.
  EXPECT_DOUBLE_EQ(Score(engine, graph, "flower", "pc"), 0.0);
  EXPECT_DOUBLE_EQ(Score(engine, graph, "flower", "camera"), 0.0);
  EXPECT_DOUBLE_EQ(Score(engine, graph, "flower", "tv"), 0.0);
}

// ------------------------------------- Table 3 (K2,2 vs K1,2 iterations)

struct IterationCase {
  size_t iterations;
  double k22_expected;  // sim("camera", "digital camera")
};

// Without it gtest prints the struct's bytes, padding included, into the
// test's listed name, which then differs between build types.
void PrintTo(const IterationCase& iteration_case, std::ostream* os) {
  *os << iteration_case.iterations << "_iterations";
}

class Table3Test : public ::testing::TestWithParam<IterationCase> {};

TEST_P(Table3Test, DenseEngineMatchesPrintedValues) {
  BipartiteGraph k22 = MakeFigure4K22();
  BipartiteGraph k12 = MakeFigure4K12();
  DenseSimRankEngine e22(PaperOptions(GetParam().iterations));
  DenseSimRankEngine e12(PaperOptions(GetParam().iterations));
  ASSERT_TRUE(e22.Run(k22).ok());
  ASSERT_TRUE(e12.Run(k12).ok());
  EXPECT_NEAR(Score(e22, k22, "camera", "digital camera"),
              GetParam().k22_expected, 1e-9);
  // The K1,2 pair sits at C = 0.8 from iteration 1 onward.
  EXPECT_NEAR(Score(e12, k12, "pc", "camera"), 0.8, 1e-12);
}

TEST_P(Table3Test, ClosedFormAndSeriesAgree) {
  double recurrence =
      SimRankOnCompleteBipartite(2, 2, GetParam().iterations, 0.8, 0.8)
          .v1_pair;
  double series = TheoremA1Series(GetParam().iterations, 0.8, 0.8);
  EXPECT_NEAR(recurrence, GetParam().k22_expected, 1e-12);
  EXPECT_NEAR(series, GetParam().k22_expected, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    PaperTable3, Table3Test,
    ::testing::Values(IterationCase{1, 0.4}, IterationCase{2, 0.56},
                      IterationCase{3, 0.624}, IterationCase{4, 0.6496},
                      IterationCase{5, 0.65984},
                      IterationCase{6, 0.663936},
                      IterationCase{7, 0.6655744}));

// --------------------------------------------------- structural invariants

class EngineVariantTest
    : public ::testing::TestWithParam<
          std::tuple<const char*, SimRankVariant>> {
 protected:
  std::unique_ptr<SimRankEngine> MakeEngine(size_t iterations = 7) {
    SimRankOptions options = PaperOptions(iterations);
    options.variant = std::get<1>(GetParam());
    auto result = CreateSimRankEngine(std::get<0>(GetParam()), options);
    EXPECT_TRUE(result.ok());
    return std::move(result).value();
  }
};

TEST_P(EngineVariantTest, SelfSimilarityIsOne) {
  BipartiteGraph graph = MakeFigure3Graph();
  auto engine = MakeEngine();
  ASSERT_TRUE(engine->Run(graph).ok());
  for (QueryId q = 0; q < graph.num_queries(); ++q) {
    EXPECT_DOUBLE_EQ(engine->QueryScore(q, q), 1.0);
  }
  for (AdId a = 0; a < graph.num_ads(); ++a) {
    EXPECT_DOUBLE_EQ(engine->AdScore(a, a), 1.0);
  }
}

TEST_P(EngineVariantTest, ScoresSymmetricAndBounded) {
  BipartiteGraph graph = MakeFigure3Graph();
  auto engine = MakeEngine();
  ASSERT_TRUE(engine->Run(graph).ok());
  for (QueryId a = 0; a < graph.num_queries(); ++a) {
    for (QueryId b = 0; b < graph.num_queries(); ++b) {
      double ab = engine->QueryScore(a, b);
      double ba = engine->QueryScore(b, a);
      EXPECT_DOUBLE_EQ(ab, ba);
      EXPECT_GE(ab, 0.0);
      EXPECT_LE(ab, 1.0 + 1e-12);
    }
  }
}

TEST_P(EngineVariantTest, DisconnectedPairsStayZero) {
  BipartiteGraph graph = MakeFigure3Graph();
  auto engine = MakeEngine(/*iterations=*/30);
  ASSERT_TRUE(engine->Run(graph).ok());
  QueryId flower = *graph.FindQuery("flower");
  for (const char* other : {"pc", "camera", "digital camera", "tv"}) {
    EXPECT_DOUBLE_EQ(engine->QueryScore(flower, *graph.FindQuery(other)),
                     0.0);
  }
}

TEST_P(EngineVariantTest, ExportedMatrixMatchesPointReads) {
  BipartiteGraph graph = MakeFigure3Graph();
  auto engine = MakeEngine();
  ASSERT_TRUE(engine->Run(graph).ok());
  SimilarityMatrix matrix = engine->ExportQueryScores(0.0);
  for (QueryId a = 0; a < graph.num_queries(); ++a) {
    for (QueryId b = 0; b < graph.num_queries(); ++b) {
      EXPECT_NEAR(matrix.Get(a, b), engine->QueryScore(a, b), 1e-12);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllEnginesAllVariants, EngineVariantTest,
    ::testing::Combine(::testing::Values("dense", "sparse"),
                       ::testing::Values(SimRankVariant::kSimRank,
                                         SimRankVariant::kEvidence,
                                         SimRankVariant::kWeighted)));

// ----------------------------------------------- dense vs sparse agreement

class EngineAgreementTest : public ::testing::TestWithParam<SimRankVariant> {
};

TEST_P(EngineAgreementTest, DenseAndUnprunedSparseAgree) {
  BipartiteGraph graph = MakeFigure3Graph();
  SimRankOptions options = PaperOptions(/*iterations=*/10);
  options.variant = GetParam();
  DenseSimRankEngine dense(options);
  SparseSimRankEngine sparse(options);
  ASSERT_TRUE(dense.Run(graph).ok());
  ASSERT_TRUE(sparse.Run(graph).ok());
  for (QueryId a = 0; a < graph.num_queries(); ++a) {
    for (QueryId b = 0; b < graph.num_queries(); ++b) {
      EXPECT_NEAR(dense.QueryScore(a, b), sparse.QueryScore(a, b), 1e-9)
          << "pair (" << a << ", " << b << ")";
    }
  }
  for (AdId a = 0; a < graph.num_ads(); ++a) {
    for (AdId b = 0; b < graph.num_ads(); ++b) {
      EXPECT_NEAR(dense.AdScore(a, b), sparse.AdScore(a, b), 1e-9);
    }
  }
}

TEST_P(EngineAgreementTest, MultithreadedMatchesSingleThreaded) {
  BipartiteGraph graph = MakeCompleteBipartite(5, 4);
  SimRankOptions options = PaperOptions(/*iterations=*/6);
  options.variant = GetParam();
  SimRankOptions parallel_options = options;
  parallel_options.num_threads = 4;
  DenseSimRankEngine serial(options);
  DenseSimRankEngine parallel(parallel_options);
  ASSERT_TRUE(serial.Run(graph).ok());
  ASSERT_TRUE(parallel.Run(graph).ok());
  for (QueryId a = 0; a < graph.num_queries(); ++a) {
    for (QueryId b = 0; b < graph.num_queries(); ++b) {
      EXPECT_DOUBLE_EQ(serial.QueryScore(a, b), parallel.QueryScore(a, b));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Variants, EngineAgreementTest,
                         ::testing::Values(SimRankVariant::kSimRank,
                                           SimRankVariant::kEvidence,
                                           SimRankVariant::kWeighted));

// ------------------------------------------------------------ convergence

TEST(ConvergenceTest, DeltaShrinksMonotonically) {
  BipartiteGraph graph = MakeCompleteBipartite(3, 3);
  double previous_delta = 2.0;
  for (size_t k = 1; k <= 8; ++k) {
    DenseSimRankEngine engine(PaperOptions(k));
    ASSERT_TRUE(engine.Run(graph).ok());
    EXPECT_LE(engine.stats().last_delta, previous_delta + 1e-12);
    previous_delta = engine.stats().last_delta;
  }
}

TEST(ConvergenceTest, EarlyExitOnEpsilon) {
  BipartiteGraph graph = MakeCompleteBipartite(3, 3);
  SimRankOptions options = PaperOptions(/*iterations=*/1000);
  options.convergence_epsilon = 1e-10;
  DenseSimRankEngine engine(options);
  ASSERT_TRUE(engine.Run(graph).ok());
  EXPECT_LT(engine.stats().iterations_run, 1000u);
  EXPECT_LT(engine.stats().last_delta, 1e-10);
}

TEST(ConvergenceTest, ScoresIncreaseWithIterations) {
  // On K2,2 the pair score is monotonically increasing in k (Theorem A.1's
  // series has positive terms).
  double previous = -1.0;
  for (size_t k = 1; k <= 10; ++k) {
    double score = SimRankOnCompleteBipartite(2, 2, k, 0.8, 0.8).v1_pair;
    EXPECT_GT(score, previous);
    previous = score;
  }
}

// --------------------------------------------------------- decay factors

TEST(DecayFactorTest, SmallerCGivesSmallerScores) {
  BipartiteGraph graph = MakeFigure3Graph();
  SimRankOptions strong = PaperOptions(20);
  SimRankOptions weak = PaperOptions(20);
  weak.c1 = weak.c2 = 0.4;
  DenseSimRankEngine strong_engine(strong);
  DenseSimRankEngine weak_engine(weak);
  ASSERT_TRUE(strong_engine.Run(graph).ok());
  ASSERT_TRUE(weak_engine.Run(graph).ok());
  EXPECT_LT(Score(weak_engine, graph, "pc", "camera"),
            Score(strong_engine, graph, "pc", "camera"));
}

TEST(DecayFactorTest, C2OneMakesK12PairPerfect) {
  BipartiteGraph k12 = MakeFigure4K12();
  SimRankOptions options = PaperOptions(5);
  options.c1 = options.c2 = 1.0;
  DenseSimRankEngine engine(options);
  ASSERT_TRUE(engine.Run(k12).ok());
  EXPECT_DOUBLE_EQ(Score(engine, k12, "pc", "camera"), 1.0);
}

// ----------------------------------------------------------- validation

// One row per rejected field: every out-of-range value must produce an
// InvalidArgument whose message names the offending field, so a caller
// can fix their configuration from the error alone.
TEST(OptionsValidationTest, EveryInvalidRangeGetsADistinctActionableError) {
  struct Case {
    const char* label;
    std::function<void(SimRankOptions*)> corrupt;
    const char* expected_substring;
  };
  const Case cases[] = {
      {"c1 zero", [](SimRankOptions* o) { o->c1 = 0.0; }, "C1"},
      {"c1 negative", [](SimRankOptions* o) { o->c1 = -0.2; }, "C1"},
      {"c1 above one", [](SimRankOptions* o) { o->c1 = 1.5; }, "C1"},
      {"c2 zero", [](SimRankOptions* o) { o->c2 = 0.0; }, "C2"},
      {"c2 above one", [](SimRankOptions* o) { o->c2 = 1.01; }, "C2"},
      {"no iterations", [](SimRankOptions* o) { o->iterations = 0; },
       "iterations"},
      {"negative epsilon",
       [](SimRankOptions* o) { o->convergence_epsilon = -1e-9; },
       "convergence_epsilon"},
      {"evidence floor negative",
       [](SimRankOptions* o) { o->zero_evidence_floor = -0.1; },
       "zero_evidence_floor"},
      {"evidence floor above one",
       [](SimRankOptions* o) { o->zero_evidence_floor = 2.0; },
       "zero_evidence_floor"},
      {"negative prune threshold",
       [](SimRankOptions* o) { o->prune_threshold = -1.0; },
       "prune_threshold"},
      {"zero series depth",
       [](SimRankOptions* o) { o->linearized_series_depth = 0; },
       "linearized_series_depth"},
      {"zero diag tolerance",
       [](SimRankOptions* o) { o->linearized_diag_tolerance = 0.0; },
       "linearized_diag_tolerance"},
      {"negative diag tolerance",
       [](SimRankOptions* o) { o->linearized_diag_tolerance = -1e-6; },
       "linearized_diag_tolerance"},
  };
  for (const Case& test_case : cases) {
    SimRankOptions options;
    test_case.corrupt(&options);
    Status status = options.Validate();
    EXPECT_FALSE(status.ok()) << test_case.label;
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << test_case.label;
    EXPECT_NE(status.message().find(test_case.expected_substring),
              std::string::npos)
        << test_case.label << ": message \"" << status.message()
        << "\" does not name the field";
  }
  // Distinctness: every message embeds the offending value, so no two
  // rows — even two bad values of the same field — may collide.
  std::set<std::string> messages;
  for (const Case& test_case : cases) {
    SimRankOptions options;
    test_case.corrupt(&options);
    messages.insert(options.Validate().message());
  }
  EXPECT_EQ(messages.size(), std::size(cases));
  EXPECT_TRUE(SimRankOptions().Validate().ok());
}

// ------------------------------------------------------- engine registry

TEST(EngineRegistryTest, CreatesEveryEngineByName) {
  auto dense = CreateSimRankEngine("dense", SimRankOptions());
  ASSERT_TRUE(dense.ok()) << dense.status().ToString();
  EXPECT_NE(dynamic_cast<DenseSimRankEngine*>(dense->get()), nullptr);
  auto sparse = CreateSimRankEngine("sparse", SimRankOptions());
  ASSERT_TRUE(sparse.ok()) << sparse.status().ToString();
  EXPECT_NE(dynamic_cast<SparseSimRankEngine*>(sparse->get()), nullptr);
  auto linearized = CreateSimRankEngine("linearized", SimRankOptions());
  ASSERT_TRUE(linearized.ok()) << linearized.status().ToString();
  EXPECT_NE(dynamic_cast<LinearizedSimRankEngine*>(linearized->get()),
            nullptr);
}

TEST(EngineRegistryTest, UnknownNameListsRegisteredEngines) {
  auto result = CreateSimRankEngine("quadratic", SimRankOptions());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  EXPECT_NE(result.status().message().find("quadratic"), std::string::npos);
  EXPECT_NE(result.status().message().find("dense"), std::string::npos);
  EXPECT_NE(result.status().message().find("linearized"), std::string::npos);
  EXPECT_NE(result.status().message().find("sparse"), std::string::npos);
}

TEST(EngineRegistryTest, PropagatesInvalidOptions) {
  SimRankOptions options;
  options.iterations = 0;
  EXPECT_FALSE(CreateSimRankEngine("dense", options).ok());
  EXPECT_FALSE(CreateSimRankEngine("sparse", options).ok());
}

// ------------------------------------------------------- sparse pruning

TEST(SparsePruningTest, ThresholdDropsSmallScoresOnly) {
  BipartiteGraph graph = MakeFigure3Graph();
  SimRankOptions exact = PaperOptions(10);
  SimRankOptions pruned = PaperOptions(10);
  pruned.prune_threshold = 0.3;
  SparseSimRankEngine exact_engine(exact);
  SparseSimRankEngine pruned_engine(pruned);
  ASSERT_TRUE(exact_engine.Run(graph).ok());
  ASSERT_TRUE(pruned_engine.Run(graph).ok());
  // Big scores survive pruning (possibly slightly perturbed by dropped
  // small contributions); tiny ones vanish.
  QueryId pc = *graph.FindQuery("pc");
  QueryId camera = *graph.FindQuery("camera");
  EXPECT_GT(pruned_engine.QueryScore(pc, camera), 0.5);
  EXPECT_LE(pruned_engine.stats().query_pairs,
            exact_engine.stats().query_pairs);
}

TEST(SparsePruningTest, PartnerCapBoundsPerNodeFanout) {
  BipartiteGraph graph = MakeCompleteBipartite(12, 3);
  SimRankOptions options = PaperOptions(4);
  options.max_partners_per_node = 4;
  SparseSimRankEngine engine(options);
  ASSERT_TRUE(engine.Run(graph).ok());
  SimilarityMatrix matrix = engine.ExportQueryScores(0.0);
  // Every query pair in K12,3 has an identical score, so the union-keep
  // rule retains pairs within anyone's top-4 — at most all ties. We only
  // require the cap to have reduced the total count below the full
  // 12*11/2 = 66.
  EXPECT_LE(matrix.num_pairs(), 66u);
}

TEST(SparsePruningTest, PartnerCapAppliesOnAdSide) {
  // Ads a-d score (a,c) = (b,d) = 0.4 and (c,d) = 0.2 after one
  // iteration; with cap 1 the (c,d) pair is below the cutoff of both of
  // its endpoints and must be dropped, while a and b (under the cap) keep
  // their pairs. One iteration: both runs then cap the identical pre-cap
  // map, so surviving scores can be compared exactly.
  GraphBuilder builder;
  ASSERT_TRUE(builder.AddClick("q1", "a").ok());
  ASSERT_TRUE(builder.AddClick("q1", "c").ok());
  ASSERT_TRUE(builder.AddClick("q2", "b").ok());
  ASSERT_TRUE(builder.AddClick("q2", "d").ok());
  ASSERT_TRUE(builder.AddClick("q3", "c").ok());
  ASSERT_TRUE(builder.AddClick("q3", "d").ok());
  BipartiteGraph graph = std::move(builder.Build()).value();
  SimRankOptions uncapped_options = PaperOptions(1);
  SimRankOptions capped_options = PaperOptions(1);
  capped_options.max_partners_per_node = 1;
  SparseSimRankEngine uncapped(uncapped_options);
  SparseSimRankEngine capped(capped_options);
  ASSERT_TRUE(uncapped.Run(graph).ok());
  ASSERT_TRUE(capped.Run(graph).ok());

  EXPECT_LT(capped.stats().ad_pairs, uncapped.stats().ad_pairs);
  EXPECT_GT(capped.stats().ad_pairs, 0u);
  // Every surviving pair ranks first for at least one of its endpoints:
  // with cap 1 each ad keeps only its single best partner (union-keep).
  SimilarityMatrix kept = capped.ExportAdScores(0.0);
  SimilarityMatrix full = uncapped.ExportAdScores(0.0);
  full.Finalize();
  kept.ForEachPair([&](uint32_t a, uint32_t b, double score) {
    EXPECT_DOUBLE_EQ(score, full.Get(a, b));
    bool best_of_a = full.TopK(a, 1)[0].score <= score;
    bool best_of_b = full.TopK(b, 1)[0].score <= score;
    EXPECT_TRUE(best_of_a || best_of_b)
        << "pair (" << a << ", " << b << ") survives without ranking "
        << "first for either endpoint";
  });
}

}  // namespace
}  // namespace simrankpp
