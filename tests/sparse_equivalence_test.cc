// Equivalence of the flat sparse engine (CSR candidate index + PairStore +
// delta-driven rescoring) with a reference map-based Jacobi update — the
// algorithm the engine used before the hot path was flattened. The
// reference rediscovers candidate pairs from scratch every iteration and
// stores scores in an unordered_map; the engine must reproduce its
// exports BIT-IDENTICALLY for every variant, thread count, and the
// incremental toggle (convergence_epsilon = 0), including under an
// aggressive partner cap.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/evidence.h"
#include "core/sparse_engine.h"
#include "core/weighted_transitions.h"
#include "synth/click_graph_generator.h"
#include "util/logging.h"
#include "util/simd/simd.h"

namespace simrankpp {
namespace {

// ------------------------------------------------------------ reference

// Map-based sparse SimRank, single-threaded, candidates rediscovered per
// iteration. Deliberately naive: this is the semantics oracle.
class ReferenceSparseSimRank {
 public:
  explicit ReferenceSparseSimRank(SimRankOptions options)
      : options_(std::move(options)) {}

  void Run(const BipartiteGraph& graph) {
    graph_ = &graph;
    query_scores_.clear();
    ad_scores_.clear();
    if (options_.variant == SimRankVariant::kWeighted) {
      WeightedTransitionModel model(graph);
      w_q2a_.resize(graph.num_edges());
      w_a2q_.resize(graph.num_edges());
      for (EdgeId e = 0; e < graph.num_edges(); ++e) {
        w_q2a_[e] = model.QueryToAdFactor(e);
        w_a2q_[e] = model.AdToQueryFactor(e);
      }
    }
    for (size_t iter = 0; iter < options_.iterations; ++iter) {
      Adjacency ad_adjacency = BuildAdjacency(ad_scores_, graph.num_ads());
      Adjacency query_adjacency =
          BuildAdjacency(query_scores_, graph.num_queries());
      PairMap new_query =
          UpdateSide(true, ad_scores_, ad_adjacency, options_.c1);
      PairMap new_ad =
          UpdateSide(false, query_scores_, query_adjacency, options_.c2);
      ApplyPartnerCap(&new_query, graph.num_queries());
      ApplyPartnerCap(&new_ad, graph.num_ads());
      query_scores_ = std::move(new_query);
      ad_scores_ = std::move(new_ad);
    }
  }

  SimilarityMatrix ExportQueryScores() const {
    return Export(query_scores_, graph_->num_queries(), true);
  }
  SimilarityMatrix ExportAdScores() const {
    return Export(ad_scores_, graph_->num_ads(), false);
  }

 private:
  using PairMap = std::unordered_map<uint64_t, double>;
  using Adjacency = std::vector<std::vector<ScoredNode>>;

  static uint64_t Key(uint32_t u, uint32_t v) {
    if (u > v) std::swap(u, v);
    return (static_cast<uint64_t>(u) << 32) | v;
  }
  static double Lookup(const PairMap& map, uint32_t u, uint32_t v) {
    if (u == v) return 1.0;
    auto it = map.find(Key(u, v));
    return it == map.end() ? 0.0 : it->second;
  }

  Adjacency BuildAdjacency(const PairMap& map, size_t n) const {
    Adjacency adjacency(n);
    for (const auto& [key, score] : map) {
      uint32_t u = static_cast<uint32_t>(key >> 32);
      uint32_t v = static_cast<uint32_t>(key & 0xffffffffu);
      adjacency[u].push_back({v, score});
      adjacency[v].push_back({u, score});
    }
    return adjacency;
  }

  PairMap UpdateSide(bool query_side, const PairMap& source_scores,
                     const Adjacency& source_adjacency, double decay) {
    const BipartiteGraph& g = *graph_;
    const bool weighted = options_.variant == SimRankVariant::kWeighted;
    size_t n = query_side ? g.num_queries() : g.num_ads();
    auto edges_of = [&](uint32_t u) {
      return query_side ? g.QueryEdges(u) : g.AdEdges(u);
    };
    auto other_end = [&](EdgeId e) {
      return query_side ? g.edge_ad(e) : g.edge_query(e);
    };
    auto degree_of = [&](uint32_t u) {
      return query_side ? g.QueryDegree(u) : g.AdDegree(u);
    };
    auto weight_of = [&](EdgeId e) {
      return query_side ? w_q2a_[e] : w_a2q_[e];
    };
    auto opposite_edges_of = [&](uint32_t v) {
      return query_side ? g.AdEdges(v) : g.QueryEdges(v);
    };
    auto opposite_other_end = [&](EdgeId e) {
      return query_side ? g.edge_query(e) : g.edge_ad(e);
    };

    PairMap result;
    std::vector<uint32_t> candidates;
    for (uint32_t u = 0; u < n; ++u) {
      candidates.clear();
      for (EdgeId e : edges_of(u)) {
        uint32_t mid = other_end(e);
        for (EdgeId e2 : opposite_edges_of(mid)) {
          uint32_t partner = opposite_other_end(e2);
          if (partner > u) candidates.push_back(partner);
        }
        for (const ScoredNode& scored : source_adjacency[mid]) {
          for (EdgeId e2 : opposite_edges_of(scored.node)) {
            uint32_t partner = opposite_other_end(e2);
            if (partner > u) candidates.push_back(partner);
          }
        }
      }
      std::sort(candidates.begin(), candidates.end());
      candidates.erase(std::unique(candidates.begin(), candidates.end()),
                       candidates.end());

      for (uint32_t v : candidates) {
        // The engine accumulates every eu-segment in the documented
        // 8-lane SIMD order (docs/SIMD_KERNELS.md): the term for
        // position p of v's edge list lands in lane p % 8 (ascending
        // p), lanes reduce through the fixed simd::ReduceLanes tree,
        // and segments add in ascending eu order. The oracle mirrors
        // that order exactly; skipping s == 0 terms is bit-neutral
        // (+0.0 onto nonnegative partials).
        double sum = 0.0;
        auto v_edges = edges_of(v);
        for (EdgeId eu : edges_of(u)) {
          uint32_t a = other_end(eu);
          double wu = weighted ? weight_of(eu) : 1.0;
          double lanes[simd::kLanes] = {0.0};
          for (size_t p = 0; p < v_edges.size(); ++p) {
            uint32_t b = other_end(v_edges[p]);
            double s = Lookup(source_scores, a, b);
            if (s == 0.0) continue;
            double wv = weighted ? weight_of(v_edges[p]) : 1.0;
            lanes[p % simd::kLanes] += (wu * wv) * s;
          }
          sum += simd::ReduceLanes(lanes);
        }
        double value;
        if (weighted) {
          size_t common = query_side ? g.CountCommonAds(u, v)
                                     : g.CountCommonQueries(u, v);
          double evidence =
              EvidenceWithFloor(common, options_.evidence_formula,
                                options_.zero_evidence_floor);
          value = evidence * decay * sum;
        } else {
          size_t du = degree_of(u);
          size_t dv = degree_of(v);
          value = du > 0 && dv > 0
                      ? decay * sum /
                            (static_cast<double>(du) *
                             static_cast<double>(dv))
                      : 0.0;
        }
        if (value >= options_.prune_threshold && value > 0.0) {
          result.emplace(Key(u, v), value);
        }
      }
    }
    return result;
  }

  void ApplyPartnerCap(PairMap* map, size_t n) const {
    size_t cap = options_.max_partners_per_node;
    if (cap == 0 || map->empty()) return;
    std::vector<uint32_t> partner_count(n, 0);
    for (const auto& [key, score] : *map) {
      (void)score;
      ++partner_count[static_cast<uint32_t>(key >> 32)];
      ++partner_count[static_cast<uint32_t>(key & 0xffffffffu)];
    }
    bool any_over = false;
    for (uint32_t c : partner_count) any_over = any_over || c > cap;
    if (!any_over) return;

    std::vector<std::vector<double>> node_scores(n);
    for (const auto& [key, score] : *map) {
      uint32_t u = static_cast<uint32_t>(key >> 32);
      uint32_t v = static_cast<uint32_t>(key & 0xffffffffu);
      if (partner_count[u] > cap) node_scores[u].push_back(score);
      if (partner_count[v] > cap) node_scores[v].push_back(score);
    }
    std::vector<double> cutoff(n, 0.0);
    for (size_t u = 0; u < n; ++u) {
      auto& scores = node_scores[u];
      if (scores.size() <= cap) continue;
      std::nth_element(scores.begin(), scores.begin() + (cap - 1),
                       scores.end(), std::greater<double>());
      cutoff[u] = scores[cap - 1];
    }
    PairMap kept;
    for (const auto& [key, score] : *map) {
      uint32_t u = static_cast<uint32_t>(key >> 32);
      uint32_t v = static_cast<uint32_t>(key & 0xffffffffu);
      bool keep_u = partner_count[u] <= cap || score >= cutoff[u];
      bool keep_v = partner_count[v] <= cap || score >= cutoff[v];
      if (keep_u || keep_v) kept.emplace(key, score);
    }
    *map = std::move(kept);
  }

  SimilarityMatrix Export(const PairMap& map, size_t n,
                          bool query_side) const {
    SimilarityMatrix matrix(n);
    for (const auto& [key, raw] : map) {
      uint32_t u = static_cast<uint32_t>(key >> 32);
      uint32_t v = static_cast<uint32_t>(key & 0xffffffffu);
      double score = raw;
      if (options_.variant == SimRankVariant::kEvidence) {
        size_t common = query_side ? graph_->CountCommonAds(u, v)
                                   : graph_->CountCommonQueries(u, v);
        score = EvidenceWithFloor(common, options_.evidence_formula,
                                  options_.zero_evidence_floor) *
                raw;
      }
      if (score != 0.0) matrix.Set(u, v, score);
    }
    matrix.Finalize();
    return matrix;
  }

  SimRankOptions options_;
  const BipartiteGraph* graph_ = nullptr;
  PairMap query_scores_;
  PairMap ad_scores_;
  std::vector<double> w_q2a_;
  std::vector<double> w_a2q_;
};

// ------------------------------------------------------------- fixtures

BipartiteGraph SeededGraph() {
  GeneratorOptions options;
  options.num_queries = 400;
  options.num_ads = 130;
  options.taxonomy.num_categories = 8;
  options.taxonomy.subtopics_per_category = 6;
  options.mean_impressions_per_query = 25.0;
  options.seed = 7777;
  auto world = GenerateClickGraph(options);
  SRPP_CHECK(world.ok());
  return std::move(world)->graph;
}

SimRankOptions BaseOptions(SimRankVariant variant) {
  SimRankOptions options;
  options.variant = variant;
  options.iterations = 6;
  options.prune_threshold = 1e-5;
  options.max_partners_per_node = 50;
  return options;
}

void ExpectIdentical(const SimilarityMatrix& got,
                     const SimilarityMatrix& want) {
  EXPECT_EQ(got.num_pairs(), want.num_pairs());
  EXPECT_EQ(got.MaxAbsDifference(want), 0.0);
}

struct Config {
  SimRankVariant variant;
  size_t num_threads;
  bool incremental;
};

class SparseEquivalenceTest : public ::testing::TestWithParam<Config> {};

TEST_P(SparseEquivalenceTest, BitIdenticalToMapBasedReference) {
  const Config& config = GetParam();
  BipartiteGraph graph = SeededGraph();

  SimRankOptions reference_options = BaseOptions(config.variant);
  ReferenceSparseSimRank reference(reference_options);
  reference.Run(graph);
  SimilarityMatrix want_queries = reference.ExportQueryScores();
  SimilarityMatrix want_ads = reference.ExportAdScores();
  ASSERT_GT(want_queries.num_pairs(), 0u);
  ASSERT_GT(want_ads.num_pairs(), 0u);

  SimRankOptions options = BaseOptions(config.variant);
  options.num_threads = config.num_threads;
  options.incremental = config.incremental;
  SparseSimRankEngine engine(options);
  ASSERT_TRUE(engine.Run(graph).ok());
  ExpectIdentical(engine.ExportQueryScores(0.0), want_queries);
  ExpectIdentical(engine.ExportAdScores(0.0), want_ads);
  if (config.incremental && options.iterations > 2) {
    EXPECT_GT(engine.stats().rescored_pairs, 0u);
  } else if (!config.incremental) {
    EXPECT_EQ(engine.stats().reused_pairs, 0u);
  }
}

std::vector<Config> AllConfigs() {
  std::vector<Config> configs;
  for (SimRankVariant variant :
       {SimRankVariant::kSimRank, SimRankVariant::kEvidence,
        SimRankVariant::kWeighted}) {
    for (size_t threads : {size_t{1}, size_t{4}}) {
      for (bool incremental : {true, false}) {
        configs.push_back({variant, threads, incremental});
      }
    }
  }
  return configs;
}

std::string ConfigName(const Config& c) {
  std::string name;
  switch (c.variant) {
    case SimRankVariant::kSimRank:
      name = "SimRank";
      break;
    case SimRankVariant::kEvidence:
      name = "Evidence";
      break;
    case SimRankVariant::kWeighted:
      name = "Weighted";
      break;
  }
  name += "T" + std::to_string(c.num_threads);
  name += c.incremental ? "Inc" : "Full";
  return name;
}

// Without it gtest prints the struct's bytes, padding included, into the
// test's listed name, which then differs between build types.
void PrintTo(const Config& config, std::ostream* os) {
  *os << ConfigName(config);
}

INSTANTIATE_TEST_SUITE_P(VariantsThreadsIncremental, SparseEquivalenceTest,
                         ::testing::ValuesIn(AllConfigs()),
                         [](const auto& info) {
                           return ConfigName(info.param);
                         });

// The partner cap interacts with delta-skipping (skipped pairs must be
// reused from the PRE-cap result, a pair's own cap removal must not
// perturb its recomputed value): force heavy capping and recheck.
TEST(SparseEquivalenceCapTest, TightPartnerCapStaysBitIdentical) {
  BipartiteGraph graph = SeededGraph();
  for (SimRankVariant variant :
       {SimRankVariant::kSimRank, SimRankVariant::kWeighted}) {
    SimRankOptions options = BaseOptions(variant);
    options.max_partners_per_node = 3;
    options.prune_threshold = 1e-7;
    options.iterations = 8;

    ReferenceSparseSimRank reference(options);
    reference.Run(graph);

    for (bool incremental : {true, false}) {
      SimRankOptions engine_options = options;
      engine_options.incremental = incremental;
      SparseSimRankEngine engine(engine_options);
      ASSERT_TRUE(engine.Run(graph).ok());
      ExpectIdentical(engine.ExportQueryScores(0.0),
                      reference.ExportQueryScores());
      ExpectIdentical(engine.ExportAdScores(0.0), reference.ExportAdScores());
    }
  }
}

// The determinism contract's headline guarantee: the same run exports
// the same bytes at every SIMD dispatch level.
// Each supported level is forced programmatically and compared against
// the scalar run; the unsupported ones are skipped (the CI
// simd-scalar-fallback leg plus vector-capable runners cover all).
TEST(SimdDispatchEquivalenceTest, ByteIdenticalAcrossDispatchLevels) {
  BipartiteGraph graph = SeededGraph();
  const simd::SimdLevel before = simd::ActiveSimdLevel();
  for (SimRankVariant variant :
       {SimRankVariant::kSimRank, SimRankVariant::kWeighted}) {
    SimRankOptions options = BaseOptions(variant);
    ASSERT_TRUE(simd::SetSimdLevel(simd::SimdLevel::kScalar));
    SparseSimRankEngine scalar_engine(options);
    ASSERT_TRUE(scalar_engine.Run(graph).ok());
    EXPECT_EQ(scalar_engine.stats().simd_level, "scalar");
    SimilarityMatrix want_queries = scalar_engine.ExportQueryScores(0.0);
    SimilarityMatrix want_ads = scalar_engine.ExportAdScores(0.0);
    ASSERT_GT(want_queries.num_pairs(), 0u);

    for (simd::SimdLevel level :
         {simd::SimdLevel::kAvx2, simd::SimdLevel::kAvx512}) {
      if (!simd::SimdLevelSupported(level)) continue;
      ASSERT_TRUE(simd::SetSimdLevel(level));
      SparseSimRankEngine engine(options);
      ASSERT_TRUE(engine.Run(graph).ok());
      EXPECT_EQ(engine.stats().simd_level, simd::SimdLevelName(level));
      ExpectIdentical(engine.ExportQueryScores(0.0), want_queries);
      ExpectIdentical(engine.ExportAdScores(0.0), want_ads);
    }
  }
  ASSERT_TRUE(simd::SetSimdLevel(before));
}

// Zero pruning keeps every reachable pair alive; the candidate-superset
// argument (extra candidates always sum to exactly zero and are dropped
// by the `value > 0` gate) must hold there too.
TEST(SparseEquivalenceCapTest, NoPruningNoCapStaysBitIdentical) {
  BipartiteGraph graph = SeededGraph();
  SimRankOptions options = BaseOptions(SimRankVariant::kSimRank);
  options.prune_threshold = 0.0;
  options.max_partners_per_node = 0;
  options.iterations = 5;

  ReferenceSparseSimRank reference(options);
  reference.Run(graph);
  SparseSimRankEngine engine(options);
  ASSERT_TRUE(engine.Run(graph).ok());
  ExpectIdentical(engine.ExportQueryScores(0.0), reference.ExportQueryScores());
  ExpectIdentical(engine.ExportAdScores(0.0), reference.ExportAdScores());
}

}  // namespace
}  // namespace simrankpp
