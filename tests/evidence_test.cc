// Evidence metric tests (Section 7): both formulas, the Table 4
// per-iteration reproduction, and read-side semantics of the
// evidence-based variant.
#include <gtest/gtest.h>

#include <cmath>

#include "core/closed_form.h"
#include "core/dense_engine.h"
#include "core/evidence.h"
#include "core/sample_graphs.h"

namespace simrankpp {
namespace {

TEST(EvidenceTest, GeometricFormulaValues) {
  // Eq. 7.3: sum_{i=1..n} 2^-i.
  EXPECT_DOUBLE_EQ(
      EvidenceFromCommonCount(0, EvidenceFormula::kGeometric), 0.0);
  EXPECT_DOUBLE_EQ(
      EvidenceFromCommonCount(1, EvidenceFormula::kGeometric), 0.5);
  EXPECT_DOUBLE_EQ(
      EvidenceFromCommonCount(2, EvidenceFormula::kGeometric), 0.75);
  EXPECT_DOUBLE_EQ(
      EvidenceFromCommonCount(3, EvidenceFormula::kGeometric), 0.875);
  EXPECT_DOUBLE_EQ(
      EvidenceFromCommonCount(10, EvidenceFormula::kGeometric),
      1.0 - std::ldexp(1.0, -10));
  EXPECT_DOUBLE_EQ(
      EvidenceFromCommonCount(100, EvidenceFormula::kGeometric), 1.0);
}

TEST(EvidenceTest, ExponentialFormulaValues) {
  // Eq. 7.4: 1 - e^-n.
  EXPECT_DOUBLE_EQ(
      EvidenceFromCommonCount(0, EvidenceFormula::kExponential), 0.0);
  EXPECT_DOUBLE_EQ(
      EvidenceFromCommonCount(1, EvidenceFormula::kExponential),
      1.0 - std::exp(-1.0));
  EXPECT_DOUBLE_EQ(
      EvidenceFromCommonCount(4, EvidenceFormula::kExponential),
      1.0 - std::exp(-4.0));
}

TEST(EvidenceTest, BothFormulasIncreaseTowardOne) {
  for (EvidenceFormula formula :
       {EvidenceFormula::kGeometric, EvidenceFormula::kExponential}) {
    double previous = 0.0;
    for (size_t n = 1; n <= 30; ++n) {
      double e = EvidenceFromCommonCount(n, formula);
      EXPECT_GT(e, previous);
      EXPECT_LE(e, 1.0);
      previous = e;
    }
  }
}

TEST(EvidenceTest, FloorAppliesOnlyAtZeroCommon) {
  EXPECT_DOUBLE_EQ(
      EvidenceWithFloor(0, EvidenceFormula::kGeometric, 0.25), 0.25);
  EXPECT_DOUBLE_EQ(
      EvidenceWithFloor(1, EvidenceFormula::kGeometric, 0.25), 0.5);
  EXPECT_DOUBLE_EQ(
      EvidenceWithFloor(0, EvidenceFormula::kGeometric, 0.0), 0.0);
}

TEST(EvidenceTest, GraphEvidenceCountsCommonNeighbors) {
  BipartiteGraph graph = MakeFigure3Graph();
  QueryId camera = *graph.FindQuery("camera");
  QueryId dc = *graph.FindQuery("digital camera");
  QueryId pc = *graph.FindQuery("pc");
  QueryId tv = *graph.FindQuery("tv");
  EXPECT_DOUBLE_EQ(QueryEvidence(graph, camera, dc), 0.75);  // 2 common
  EXPECT_DOUBLE_EQ(QueryEvidence(graph, pc, camera), 0.5);   // 1 common
  EXPECT_DOUBLE_EQ(QueryEvidence(graph, pc, tv), 0.0);       // none

  AdId hp = *graph.FindAd("hp.com");
  AdId bestbuy = *graph.FindAd("bestbuy.com");
  EXPECT_DOUBLE_EQ(AdEvidence(graph, hp, bestbuy), 0.75);  // camera + dc
}

// --------------------------------------- Table 4 (evidence-based scores)

struct Table4Case {
  size_t iterations;
  double k22_expected;  // sim("camera", "digital camera")
};

// Without it gtest prints the struct's bytes, padding included, into the
// test's listed name, which then differs between build types.
void PrintTo(const Table4Case& table_case, std::ostream* os) {
  *os << table_case.iterations << "_iterations";
}

class Table4Test : public ::testing::TestWithParam<Table4Case> {};

TEST_P(Table4Test, DenseEngineMatchesPrintedValues) {
  SimRankOptions options;
  options.variant = SimRankVariant::kEvidence;
  options.iterations = GetParam().iterations;
  BipartiteGraph k22 = MakeFigure4K22();
  BipartiteGraph k12 = MakeFigure4K12();
  DenseSimRankEngine e22(options);
  DenseSimRankEngine e12(options);
  ASSERT_TRUE(e22.Run(k22).ok());
  ASSERT_TRUE(e12.Run(k12).ok());
  EXPECT_NEAR(e22.QueryScore(*k22.FindQuery("camera"),
                             *k22.FindQuery("digital camera")),
              GetParam().k22_expected, 1e-9);
  // K1,2 pair: evidence 0.5 x plain 0.8 = 0.4, every iteration.
  EXPECT_NEAR(e12.QueryScore(*k12.FindQuery("pc"),
                             *k12.FindQuery("camera")),
              0.4, 1e-12);
}

TEST_P(Table4Test, ClosedFormAgrees) {
  EXPECT_NEAR(EvidenceBasedKm2Score(2, GetParam().iterations, 0.8, 0.8),
              GetParam().k22_expected, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    PaperTable4, Table4Test,
    ::testing::Values(Table4Case{1, 0.3}, Table4Case{2, 0.42},
                      Table4Case{3, 0.468}, Table4Case{4, 0.4872},
                      Table4Case{5, 0.49488}, Table4Case{6, 0.497952},
                      Table4Case{7, 0.4991808}));

// --------------------------------------------------- read-side semantics

TEST(EvidenceVariantTest, EvidenceMultipliesPlainScores) {
  BipartiteGraph graph = MakeFigure3Graph();
  SimRankOptions plain_options;
  plain_options.iterations = 9;
  SimRankOptions evidence_options = plain_options;
  evidence_options.variant = SimRankVariant::kEvidence;
  evidence_options.zero_evidence_floor = 0.25;

  DenseSimRankEngine plain(plain_options);
  DenseSimRankEngine evidence(evidence_options);
  ASSERT_TRUE(plain.Run(graph).ok());
  ASSERT_TRUE(evidence.Run(graph).ok());

  for (QueryId a = 0; a < graph.num_queries(); ++a) {
    for (QueryId b = 0; b < graph.num_queries(); ++b) {
      if (a == b) continue;
      double factor = EvidenceWithFloor(graph.CountCommonAds(a, b),
                                        EvidenceFormula::kGeometric, 0.25);
      EXPECT_NEAR(evidence.QueryScore(a, b),
                  factor * plain.QueryScore(a, b), 1e-12);
    }
  }
}

TEST(EvidenceVariantTest, ExponentialFormulaChangesScores) {
  BipartiteGraph graph = MakeFigure4K22();
  SimRankOptions geometric;
  geometric.variant = SimRankVariant::kEvidence;
  SimRankOptions exponential = geometric;
  exponential.evidence_formula = EvidenceFormula::kExponential;
  DenseSimRankEngine g_engine(geometric);
  DenseSimRankEngine e_engine(exponential);
  ASSERT_TRUE(g_engine.Run(graph).ok());
  ASSERT_TRUE(e_engine.Run(graph).ok());
  double g = g_engine.QueryScore(0, 1);
  double e = e_engine.QueryScore(0, 1);
  EXPECT_NE(g, e);
  // Both formulas agree qualitatively: more common neighbors, more
  // evidence. For two common ads: geometric 0.75 < exponential 0.865.
  EXPECT_LT(g, e);
}

TEST(EvidenceVariantTest, ZeroFloorErasesIndirectPairs) {
  BipartiteGraph graph = MakeFigure3Graph();
  SimRankOptions options;
  options.variant = SimRankVariant::kEvidence;
  options.zero_evidence_floor = 0.0;
  options.iterations = 20;
  DenseSimRankEngine engine(options);
  ASSERT_TRUE(engine.Run(graph).ok());
  QueryId pc = *graph.FindQuery("pc");
  QueryId tv = *graph.FindQuery("tv");
  // pc-tv share no ads: with the literal Eq. 7.3 (empty sum = 0) their
  // indirect similarity is wiped out.
  EXPECT_DOUBLE_EQ(engine.QueryScore(pc, tv), 0.0);
}

}  // namespace
}  // namespace simrankpp
