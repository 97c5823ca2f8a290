// Bit-exact oracle for the linearized engine's walk evaluation. The
// reference below is the engine's earlier formulation, kept test-local:
// every walk pass is a sparse push into a touched-list work vector whose
// touched indices are sorted before each read, the backward pass is the
// Horner recursion recomputing A^T w_k, and the diagonals come from the
// same walk-form Jacobi sweep through the SIMD gather kernel. The engine
// evaluates the same sums as dense pulls over component-ordered id
// ranges; it must reproduce the reference's diagonals, sweep count,
// every ScoredRow and the Run exports BIT-IDENTICALLY — for both
// variants, 1 and 4 threads, and every supported SIMD level — on a
// multi-component graph (with an isolated query, an isolated ad and a
// one-edge component) and on a connected one. The engine_agreement_test
// tolerance (1e-3) could not see a change of summation order; this can.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "core/evidence.h"
#include "core/linearized_engine.h"
#include "graph/components.h"
#include "graph/graph_builder.h"
#include "synth/click_graph_generator.h"
#include "util/logging.h"
#include "util/simd/simd.h"

namespace simrankpp {
namespace {

// ------------------------------------------------------------ reference

class ReferenceLinearized {
 public:
  ReferenceLinearized(const BipartiteGraph& graph, SimRankOptions options)
      : graph_(graph), options_(std::move(options)) {
    query_adj_ = BuildSide(/*ad_side=*/false);
    ad_adj_ = BuildSide(/*ad_side=*/true);
    Prepare();
    for (uint32_t q = 0; q < graph_.num_queries(); ++q) {
      raw_query_.push_back(RawRow(/*ad_side=*/false, q));
    }
    for (uint32_t a = 0; a < graph_.num_ads(); ++a) {
      raw_ad_.push_back(RawRow(/*ad_side=*/true, a));
    }
  }

  const std::vector<double>& diag_query() const { return diag_query_; }
  const std::vector<double>& diag_ad() const { return diag_ad_; }
  size_t sweeps() const { return sweeps_; }

  // ScoredRow(ad_side, node, min_score = 0, max_partners = 0).
  std::vector<ScoredNode> ScoredRow(bool ad_side, uint32_t node) const {
    std::vector<ScoredNode> row;
    for (const ScoredNode& entry : (ad_side ? raw_ad_ : raw_query_)[node]) {
      double score = entry.score * VariantFactor(ad_side, node, entry.node);
      if (score > 0.0) row.push_back({entry.node, score});
    }
    std::stable_sort(row.begin(), row.end(),
                     [](const ScoredNode& lhs, const ScoredNode& rhs) {
                       return lhs.score > rhs.score;
                     });
    return row;
  }

  // Run() followed by Export{Query,Ad}Scores(0.0).
  SimilarityMatrix Export(bool ad_side) const {
    size_t n = ad_side ? graph_.num_ads() : graph_.num_queries();
    SimilarityMatrix matrix(n);
    for (uint32_t u = 0; u < n; ++u) {
      for (const ScoredNode& entry : (ad_side ? raw_ad_ : raw_query_)[u]) {
        if (entry.node <= u || entry.score < options_.prune_threshold) {
          continue;
        }
        double score = entry.score * VariantFactor(ad_side, u, entry.node);
        if (score != 0.0) matrix.Set(u, entry.node, score);
      }
    }
    matrix.Finalize();
    return matrix;
  }

 private:
  using SparseRow = std::vector<ScoredNode>;

  struct SideAdjacency {
    std::vector<size_t> offsets;
    std::vector<uint32_t> neighbors;  // ascending per node
    std::vector<double> inv_degree;

    std::span<const uint32_t> Neighbors(uint32_t u) const {
      return {neighbors.data() + offsets[u], offsets[u + 1] - offsets[u]};
    }
  };

  // Dense values plus a touched list, sorted before every read pass.
  struct WorkVec {
    std::vector<double> value;
    std::vector<uint8_t> marked;
    std::vector<uint32_t> touched;

    explicit WorkVec(size_t n) : value(n, 0.0), marked(n, 0) {}
    void Add(uint32_t i, double v) {
      if (!marked[i]) {
        marked[i] = 1;
        touched.push_back(i);
      }
      value[i] += v;
    }
    void Clear() {
      for (uint32_t i : touched) {
        value[i] = 0.0;
        marked[i] = 0;
      }
      touched.clear();
    }
    void SortTouched() { std::sort(touched.begin(), touched.end()); }
    void CompactInto(SparseRow* out) {
      SortTouched();
      for (uint32_t i : touched) {
        if (value[i] != 0.0) out->push_back({i, value[i]});
      }
    }
  };

  struct DiagForm {
    std::vector<uint32_t> own_nodes;
    std::vector<double> own_coeffs;
    std::vector<uint32_t> cross_nodes;
    std::vector<double> cross_coeffs;
    double alpha = 1.0;
  };

  SideAdjacency BuildSide(bool ad_side) const {
    SideAdjacency adj;
    size_t n = ad_side ? graph_.num_ads() : graph_.num_queries();
    adj.offsets.assign(n + 1, 0);
    adj.inv_degree.assign(n, 0.0);
    for (uint32_t u = 0; u < n; ++u) {
      std::span<const EdgeId> edges =
          ad_side ? graph_.AdEdges(u) : graph_.QueryEdges(u);
      for (EdgeId e : edges) {
        adj.neighbors.push_back(ad_side ? graph_.edge_query(e)
                                        : graph_.edge_ad(e));
      }
      adj.offsets[u + 1] = adj.neighbors.size();
      if (!edges.empty()) adj.inv_degree[u] = 1.0 / edges.size();
      std::sort(adj.neighbors.begin() + adj.offsets[u], adj.neighbors.end());
    }
    return adj;
  }

  // w' = B^T (A^T w), leaving A^T w in `opp_out`; both touched-sorted.
  static void WalkStep(const SideAdjacency& own_adj,
                       const SideAdjacency& opp_adj, const SparseRow& from,
                       WorkVec* opp_out, WorkVec* own_out) {
    opp_out->Clear();
    for (const ScoredNode& entry : from) {
      double spread = entry.score * own_adj.inv_degree[entry.node];
      if (spread == 0.0) continue;
      for (uint32_t b : own_adj.Neighbors(entry.node)) opp_out->Add(b, spread);
    }
    opp_out->SortTouched();
    own_out->Clear();
    for (uint32_t b : opp_out->touched) {
      double spread = opp_out->value[b] * opp_adj.inv_degree[b];
      if (spread == 0.0) continue;
      for (uint32_t v : opp_adj.Neighbors(b)) own_out->Add(v, spread);
    }
    own_out->SortTouched();
  }

  DiagForm BuildDiagForm(bool ad_side, uint32_t node) const {
    const SideAdjacency& own_adj = ad_side ? ad_adj_ : query_adj_;
    const SideAdjacency& opp_adj = ad_side ? query_adj_ : ad_adj_;
    const double cross_factor = ad_side ? options_.c2 : options_.c1;
    const double decay = options_.c1 * options_.c2;
    WorkVec own(own_adj.inv_degree.size()), opposite(opp_adj.inv_degree.size());
    WorkVec own_coeff(own_adj.inv_degree.size());
    WorkVec cross_coeff(opp_adj.inv_degree.size());
    SparseRow walk = {{node, 1.0}};
    double weight = 1.0;
    for (size_t k = 0;; ++k) {
      for (const ScoredNode& entry : walk) {
        own_coeff.Add(entry.node, weight * entry.score * entry.score);
      }
      WalkStep(own_adj, opp_adj, walk, &opposite, &own);
      for (uint32_t b : opposite.touched) {
        double v = opposite.value[b];
        cross_coeff.Add(b, weight * cross_factor * v * v);
      }
      if (k == options_.linearized_series_depth || own.touched.empty()) break;
      walk.clear();
      own.CompactInto(&walk);
      weight *= decay;
    }
    DiagForm form;
    form.alpha = own_coeff.value[node];
    SparseRow own_entries, cross_entries;
    own_coeff.CompactInto(&own_entries);
    cross_coeff.CompactInto(&cross_entries);
    for (const ScoredNode& entry : own_entries) {
      form.own_nodes.push_back(entry.node);
      form.own_coeffs.push_back(entry.score);
    }
    for (const ScoredNode& entry : cross_entries) {
      form.cross_nodes.push_back(entry.node);
      form.cross_coeffs.push_back(entry.score);
    }
    return form;
  }

  // Staggered Jacobi: the ad half-sweep reads the query diagonals just
  // updated; the dot products run through the dispatched gather kernel.
  void Prepare() {
    size_t nq = graph_.num_queries();
    size_t na = graph_.num_ads();
    std::vector<DiagForm> forms_q, forms_a;
    for (uint32_t q = 0; q < nq; ++q) {
      forms_q.push_back(BuildDiagForm(/*ad_side=*/false, q));
    }
    for (uint32_t a = 0; a < na; ++a) {
      forms_a.push_back(BuildDiagForm(/*ad_side=*/true, a));
    }
    diag_query_.assign(nq, 1.0 - options_.c1);
    diag_ad_.assign(na, 1.0 - options_.c2);
    const simd::KernelTable& kern = simd::ActiveKernels();
    auto sweep_side = [&kern](const std::vector<DiagForm>& forms,
                              const std::vector<double>& d_own,
                              const std::vector<double>& d_opp,
                              std::vector<double>* residual) {
      std::vector<double> next(forms.size());
      for (size_t u = 0; u < forms.size(); ++u) {
        const DiagForm& form = forms[u];
        double f = kern.gather_sum_weighted(
                       d_own.data(), form.own_nodes.data(),
                       form.own_coeffs.data(), 1.0, form.own_nodes.size()) +
                   kern.gather_sum_weighted(
                       d_opp.data(), form.cross_nodes.data(),
                       form.cross_coeffs.data(), 1.0, form.cross_nodes.size());
        double violation = 1.0 - f;
        (*residual)[u] = std::fabs(violation);
        next[u] = std::clamp(d_own[u] + violation / form.alpha, 0.0, 1.0);
      }
      return next;
    };
    std::vector<double> residual_q(nq), residual_a(na);
    for (sweeps_ = 0; sweeps_ < 50;) {
      diag_query_ = sweep_side(forms_q, diag_query_, diag_ad_, &residual_q);
      diag_ad_ = sweep_side(forms_a, diag_ad_, diag_query_, &residual_a);
      double residual = 0.0;
      for (double v : residual_q) residual = std::max(residual, v);
      for (double v : residual_a) residual = std::max(residual, v);
      ++sweeps_;
      if (residual <= options_.linearized_diag_tolerance) break;
    }
  }

  // Horner form of sum_k decay^k M^k C (M^T)^k e_node.
  SparseRow RawRow(bool ad_side, uint32_t node) const {
    const SideAdjacency& own_adj = ad_side ? ad_adj_ : query_adj_;
    const SideAdjacency& opp_adj = ad_side ? query_adj_ : ad_adj_;
    const std::vector<double>& diag_own = ad_side ? diag_ad_ : diag_query_;
    const std::vector<double>& diag_opp = ad_side ? diag_query_ : diag_ad_;
    const double cross_factor = ad_side ? options_.c2 : options_.c1;
    const double decay = options_.c1 * options_.c2;
    WorkVec own(own_adj.inv_degree.size()), r(own_adj.inv_degree.size());
    WorkVec t(opp_adj.inv_degree.size());

    std::vector<SparseRow> walk = {{{node, 1.0}}};
    for (size_t k = 0; k < options_.linearized_series_depth; ++k) {
      WalkStep(own_adj, opp_adj, walk.back(), &t, &own);
      if (own.touched.empty()) break;
      SparseRow next;
      own.CompactInto(&next);
      walk.push_back(std::move(next));
    }

    for (size_t k = walk.size(); k-- > 0;) {
      WorkVec& next = own;
      next.Clear();
      t.Clear();
      for (uint32_t p : r.touched) {
        double v = r.value[p];
        if (v == 0.0) continue;
        for (uint32_t a : own_adj.Neighbors(p)) {
          t.Add(a, v * opp_adj.inv_degree[a]);
        }
      }
      t.SortTouched();
      for (uint32_t a : t.touched) {
        double v = decay * t.value[a];
        if (v == 0.0) continue;
        for (uint32_t q : opp_adj.Neighbors(a)) {
          next.Add(q, v * own_adj.inv_degree[q]);
        }
      }
      t.Clear();
      for (const ScoredNode& entry : walk[k]) {
        double spread = entry.score * own_adj.inv_degree[entry.node];
        if (spread == 0.0) continue;
        for (uint32_t a : own_adj.Neighbors(entry.node)) t.Add(a, spread);
      }
      t.SortTouched();
      for (uint32_t a : t.touched) {
        double v = cross_factor * diag_opp[a] * t.value[a];
        if (v == 0.0) continue;
        for (uint32_t q : opp_adj.Neighbors(a)) {
          next.Add(q, v * own_adj.inv_degree[q]);
        }
      }
      for (const ScoredNode& entry : walk[k]) {
        next.Add(entry.node, diag_own[entry.node] * entry.score);
      }
      next.SortTouched();
      std::swap(r, own);
    }

    SparseRow row;
    for (uint32_t i : r.touched) {
      if (i != node && r.value[i] > 0.0) row.push_back({i, r.value[i]});
    }
    return row;
  }

  double VariantFactor(bool ad_side, uint32_t u, uint32_t v) const {
    if (options_.variant != SimRankVariant::kEvidence) return 1.0;
    size_t common = ad_side ? graph_.CountCommonQueries(u, v)
                            : graph_.CountCommonAds(u, v);
    return EvidenceWithFloor(common, options_.evidence_formula,
                             options_.zero_evidence_floor);
  }

  const BipartiteGraph& graph_;
  SimRankOptions options_;
  SideAdjacency query_adj_;
  SideAdjacency ad_adj_;
  std::vector<double> diag_query_;
  std::vector<double> diag_ad_;
  size_t sweeps_ = 0;
  std::vector<SparseRow> raw_query_;  // RawRow of every node
  std::vector<SparseRow> raw_ad_;
};

// ---------------------------------------------------------------- graphs

BipartiteGraph GeneratedGraph() {
  GeneratorOptions options;
  options.num_queries = 700;
  options.num_ads = 230;
  options.taxonomy.num_categories = 8;
  options.taxonomy.subtopics_per_category = 6;
  options.mean_impressions_per_query = 25.0;
  options.seed = 4242;
  auto world = GenerateClickGraph(options);
  SRPP_CHECK(world.ok());
  return std::move(world)->graph;
}

// The generated graph plus an isolated query, an isolated ad and a
// one-edge component.
BipartiteGraph MultiComponentGraph() {
  GraphBuilder builder;
  SRPP_CHECK(builder.AddGraph(GeneratedGraph()).ok());
  builder.AddQuery("oracle isolated query");
  builder.AddAd("oracle isolated ad");
  SRPP_CHECK(builder.AddClick("oracle lone query", "oracle lone ad").ok());
  auto graph = builder.Build();
  SRPP_CHECK(graph.ok());
  return std::move(graph).value();
}

// The generated graph with one added ad clicked from the first query of
// every component, which joins them into one.
BipartiteGraph ConnectedGraph() {
  BipartiteGraph base = GeneratedGraph();
  ComponentInfo components = FindConnectedComponents(base);
  GraphBuilder builder;
  SRPP_CHECK(builder.AddGraph(base).ok());
  std::vector<bool> linked(components.num_components(), false);
  for (QueryId q = 0; q < base.num_queries(); ++q) {
    uint32_t c = components.query_component[q];
    if (linked[c]) continue;
    linked[c] = true;
    SRPP_CHECK(builder.AddClick(base.query_label(q), "oracle connector").ok());
  }
  auto graph = builder.Build();
  SRPP_CHECK(graph.ok());
  return std::move(graph).value();
}

// ----------------------------------------------------------------- checks

void ExpectSameRows(const std::vector<ScoredNode>& got,
                    const std::vector<ScoredNode>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].node, want[i].node) << "entry " << i;
    ASSERT_EQ(got[i].score, want[i].score) << "entry " << i;
  }
}

void ExpectSameMatrix(const SimilarityMatrix& got,
                      const SimilarityMatrix& want) {
  ASSERT_EQ(got.num_nodes(), want.num_nodes());
  ASSERT_EQ(got.num_pairs(), want.num_pairs());
  for (uint32_t u = 0; u < got.num_nodes(); ++u) {
    SCOPED_TRACE(testing::Message() << "row " << u);
    ExpectSameRows(got.Partners(u), want.Partners(u));
  }
}

void ExpectSameDoubles(std::span<const double> got,
                       const std::vector<double>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << "node " << i;
  }
}

struct OracleCase {
  SimRankVariant variant;
  size_t num_threads;
  bool connected;
};

std::string CaseName(const OracleCase& config) {
  return std::string(config.connected ? "Connected" : "Components") +
         (config.variant == SimRankVariant::kEvidence ? "Evidence"
                                                      : "Simrank") +
         "Threads" + std::to_string(config.num_threads);
}

// Without it gtest prints the struct's bytes, padding included, into the
// test's listed name.
void PrintTo(const OracleCase& config, std::ostream* os) {
  *os << CaseName(config);
}

class LinearizedOracleTest : public ::testing::TestWithParam<OracleCase> {};

TEST_P(LinearizedOracleTest, BitIdenticalToSortedPushReference) {
  const OracleCase& config = GetParam();
  BipartiteGraph graph =
      config.connected ? ConnectedGraph() : MultiComponentGraph();
  size_t components = FindConnectedComponents(graph).num_components();
  if (config.connected) {
    ASSERT_EQ(components, 1u);
  } else {
    ASSERT_GT(components, 3u);
  }

  SimRankOptions options;
  options.variant = config.variant;
  options.num_threads = config.num_threads;
  const simd::SimdLevel before = simd::ActiveSimdLevel();
  for (simd::SimdLevel level :
       {simd::SimdLevel::kScalar, simd::SimdLevel::kAvx2,
        simd::SimdLevel::kAvx512}) {
    if (!simd::SimdLevelSupported(level)) continue;
    SCOPED_TRACE(simd::SimdLevelName(level));
    ASSERT_TRUE(simd::SetSimdLevel(level));
    ReferenceLinearized reference(graph, options);

    LinearizedSimRankEngine engine(options);
    ASSERT_TRUE(engine.Prepare(graph).ok());
    EXPECT_EQ(engine.stats().iterations_run, reference.sweeps());
    ExpectSameDoubles(engine.diag_query(), reference.diag_query());
    ExpectSameDoubles(engine.diag_ad(), reference.diag_ad());

    size_t nonempty = 0;
    for (bool ad_side : {false, true}) {
      size_t n = ad_side ? graph.num_ads() : graph.num_queries();
      for (uint32_t node = 0; node < n; ++node) {
        SCOPED_TRACE(testing::Message()
                     << (ad_side ? "ad " : "query ") << node);
        auto row = engine.ScoredRow(ad_side, node, 0.0, 0);
        ASSERT_TRUE(row.ok());
        ExpectSameRows(*row, reference.ScoredRow(ad_side, node));
        nonempty += !row->empty();
      }
    }
    EXPECT_GT(nonempty, graph.num_queries() / 2);

    LinearizedSimRankEngine runner(options);
    ASSERT_TRUE(runner.Run(graph).ok());
    ExpectSameMatrix(runner.ExportQueryScores(0.0), reference.Export(false));
    ExpectSameMatrix(runner.ExportAdScores(0.0), reference.Export(true));
  }
  ASSERT_TRUE(simd::SetSimdLevel(before));
}

std::vector<OracleCase> AllCases() {
  std::vector<OracleCase> cases;
  for (bool connected : {false, true}) {
    for (SimRankVariant variant :
         {SimRankVariant::kSimRank, SimRankVariant::kEvidence}) {
      for (size_t threads : {size_t{1}, size_t{4}}) {
        cases.push_back({variant, threads, connected});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    VariantsThreadsGraphs, LinearizedOracleTest,
    ::testing::ValuesIn(AllCases()),
    [](const ::testing::TestParamInfo<OracleCase>& info) {
      return CaseName(info.param);
    });

}  // namespace
}  // namespace simrankpp
