#include "core/dense_engine.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "core/evidence.h"
#include "core/weighted_transitions.h"
#include "util/simd/simd.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace simrankpp {

namespace {

// Upper bound on the larger score matrix: 1 GiB of doubles.
constexpr size_t kMaxMatrixElements = (1ull << 30) / sizeof(double);

}  // namespace

DenseSimRankEngine::DenseSimRankEngine(SimRankOptions options)
    : options_(std::move(options)) {}

Status DenseSimRankEngine::Run(const BipartiteGraph& graph) {
  SRPP_RETURN_NOT_OK(options_.Validate());
  size_t nq = graph.num_queries();
  size_t na = graph.num_ads();
  if (nq * nq > kMaxMatrixElements || na * na > kMaxMatrixElements ||
      nq * na > kMaxMatrixElements) {
    return Status::FailedPrecondition(StringPrintf(
        "graph too large for the dense engine (%zu queries, %zu ads); "
        "use the sparse engine",
        nq, na));
  }

  Stopwatch timer;
  graph_ = &graph;
  nq_ = nq;
  na_ = na;

  // Identity initialization: s_0(x, y) = [x == y].
  query_scores_.assign(nq * nq, 0.0);
  for (size_t q = 0; q < nq; ++q) query_scores_[q * nq + q] = 1.0;
  ad_scores_.assign(na * na, 0.0);
  for (size_t a = 0; a < na; ++a) ad_scores_[a * na + a] = 1.0;

  stats_ = SimRankStats();
  stats_.simd_level = simd::ActiveKernels().name;
  // Borrow the process-wide pool, capped at the requested thread count:
  // spawning threads per Run would cost more than the row updates
  // themselves on small graphs, and a service computing several engines
  // concurrently keeps one fixed set of workers. The cap is set before
  // the evidence precomputation so that sweep parallelizes too.
  max_participants_ = ResolveThreadCount(options_.num_threads);
  stats_.threads_used = SharedThreadPool().Participants(max_participants_);

  if (options_.variant != SimRankVariant::kSimRank) {
    ComputeEvidenceMatrices(graph);
  }
  if (options_.variant == SimRankVariant::kWeighted) {
    WeightedTransitionModel model(graph);
    w_query_to_ad_.resize(graph.num_edges());
    w_ad_to_query_.resize(graph.num_edges());
    for (EdgeId e = 0; e < graph.num_edges(); ++e) {
      w_query_to_ad_[e] = model.QueryToAdFactor(e);
      w_ad_to_query_[e] = model.AdToQueryFactor(e);
    }
    // Flatten the factors into graph-CSR order (parallel to the flat
    // neighbor arrays) once per Run for the vectorized row passes.
    flat_w_query_to_ad_.clear();
    flat_w_query_to_ad_.reserve(graph.num_edges());
    for (QueryId q = 0; q < nq; ++q) {
      for (EdgeId e : graph.QueryEdges(q)) {
        flat_w_query_to_ad_.push_back(w_query_to_ad_[e]);
      }
    }
    flat_w_ad_to_query_.clear();
    flat_w_ad_to_query_.reserve(graph.num_edges());
    for (AdId a = 0; a < na; ++a) {
      for (EdgeId e : graph.AdEdges(a)) {
        flat_w_ad_to_query_.push_back(w_ad_to_query_[e]);
      }
    }
  }

  // Nonzero-pair counts fall out of the last iteration's row passes
  // (Validate guarantees iterations >= 1, so both vectors are filled).
  std::vector<size_t> row_pairs_q(nq, 0);
  std::vector<size_t> row_pairs_a(na, 0);
  for (size_t iter = 0; iter < options_.iterations; ++iter) {
    double delta = IterateOnce(graph, &row_pairs_q, &row_pairs_a);
    stats_.last_delta = delta;
    ++stats_.iterations_run;
    if (options_.convergence_epsilon > 0.0 &&
        delta < options_.convergence_epsilon) {
      break;
    }
  }

  size_t query_pairs = 0;
  for (size_t count : row_pairs_q) query_pairs += count;
  size_t ad_pairs = 0;
  for (size_t count : row_pairs_a) ad_pairs += count;
  stats_.query_pairs = query_pairs;
  stats_.ad_pairs = ad_pairs;
  stats_.elapsed_seconds = timer.ElapsedSeconds();
  return Status::OK();
}

void DenseSimRankEngine::ComputeEvidenceMatrices(const BipartiteGraph& graph) {
  // Common-neighbor counts row by row: walking two hops from each node
  // touches only that node's matrix row, so rows parallelize over the
  // shared pool with no shared writes — and integer counts make the
  // result trivially thread-count-independent. (The off-diagonal count of
  // row u at column v is |E(u) ∩ E(v)|; the diagonal is left at 0, which
  // no caller reads — scores and exports special-case u == v.)
  std::vector<uint32_t> query_common(nq_ * nq_, 0);
  std::vector<uint32_t> ad_common(na_ * na_, 0);
  auto count_query_rows = [&](size_t begin, size_t end) {
    for (size_t q = begin; q < end; ++q) {
      uint32_t* row = &query_common[q * nq_];
      for (EdgeId e : graph.QueryEdges(static_cast<QueryId>(q))) {
        AdId mid = graph.edge_ad(e);
        for (EdgeId e2 : graph.AdEdges(mid)) {
          QueryId p = graph.edge_query(e2);
          if (p != q) ++row[p];
        }
      }
    }
  };
  auto count_ad_rows = [&](size_t begin, size_t end) {
    for (size_t a = begin; a < end; ++a) {
      uint32_t* row = &ad_common[a * na_];
      for (EdgeId e : graph.AdEdges(static_cast<AdId>(a))) {
        QueryId mid = graph.edge_query(e);
        for (EdgeId e2 : graph.QueryEdges(mid)) {
          AdId b = graph.edge_ad(e2);
          if (b != a) ++row[b];
        }
      }
    }
  };

  query_evidence_.resize(nq_ * nq_);
  ad_evidence_.resize(na_ * na_);
  auto evidence_query_rows = [&](size_t begin, size_t end) {
    for (size_t i = begin * nq_; i < end * nq_; ++i) {
      query_evidence_[i] =
          EvidenceWithFloor(query_common[i], options_.evidence_formula,
                            options_.zero_evidence_floor);
    }
  };
  auto evidence_ad_rows = [&](size_t begin, size_t end) {
    for (size_t i = begin * na_; i < end * na_; ++i) {
      ad_evidence_[i] =
          EvidenceWithFloor(ad_common[i], options_.evidence_formula,
                            options_.zero_evidence_floor);
    }
  };

  ThreadPool& pool = SharedThreadPool();
  pool.ParallelFor(nq_, count_query_rows, max_participants_);
  pool.ParallelFor(na_, count_ad_rows, max_participants_);
  pool.ParallelFor(nq_, evidence_query_rows, max_participants_);
  pool.ParallelFor(na_, evidence_ad_rows, max_participants_);
}

double DenseSimRankEngine::IterateOnce(const BipartiteGraph& graph,
                                       std::vector<size_t>* row_pairs_q,
                                       std::vector<size_t>* row_pairs_a) {
  const bool weighted = options_.variant == SimRankVariant::kWeighted;
  // One table lookup per iteration; the table is an immutable static, so
  // sharing the reference across the pool's workers is safe.
  const simd::KernelTable& kern = simd::ActiveKernels();
  // Base of the flat neighbor arrays, for translating a node's neighbor
  // span into an offset within the parallel flat weight arrays.
  const AdId* q_neigh_base =
      nq_ > 0 ? graph.QueryNeighborAds(0).data() : nullptr;
  const QueryId* a_neigh_base =
      na_ > 0 ? graph.AdNeighborQueries(0).data() : nullptr;

  // T[q][b] = sum over ads a in E(q) of (factor) * S_a[a][b].
  std::vector<double> t(nq_ * na_, 0.0);
  // U[a][p] = sum over queries q in E(a) of (factor) * S_q[q][p].
  std::vector<double> u(na_ * nq_, 0.0);

  auto compute_t_rows = [&](size_t begin, size_t end) {
    for (size_t q = begin; q < end; ++q) {
      double* trow = &t[q * na_];
      for (EdgeId e : graph.QueryEdges(static_cast<QueryId>(q))) {
        AdId a = graph.edge_ad(e);
        double factor = weighted ? w_query_to_ad_[e] : 1.0;
        const double* srow = &ad_scores_[static_cast<size_t>(a) * na_];
        kern.axpy(factor, srow, trow, na_);
      }
    }
  };
  auto compute_u_rows = [&](size_t begin, size_t end) {
    for (size_t a = begin; a < end; ++a) {
      double* urow = &u[a * nq_];
      for (EdgeId e : graph.AdEdges(static_cast<AdId>(a))) {
        QueryId q = graph.edge_query(e);
        double factor = weighted ? w_ad_to_query_[e] : 1.0;
        const double* srow = &query_scores_[static_cast<size_t>(q) * nq_];
        kern.axpy(factor, srow, urow, nq_);
      }
    }
  };

  std::vector<double> new_query(nq_ * nq_, 0.0);
  std::vector<double> new_ad(na_ * na_, 0.0);
  std::vector<double> row_delta_q(nq_, 0.0);
  std::vector<double> row_delta_a(na_, 0.0);

  auto compute_query_rows = [&](size_t begin, size_t end) {
    for (size_t q = begin; q < end; ++q) {
      const double* trow = &t[q * na_];
      double* out = &new_query[q * nq_];
      double inv_nq = graph.QueryDegree(static_cast<QueryId>(q)) > 0
                          ? 1.0 / static_cast<double>(graph.QueryDegree(
                                static_cast<QueryId>(q)))
                          : 0.0;
      double local_delta = 0.0;
      size_t nonzero = 0;
      for (size_t p = 0; p < nq_; ++p) {
        double value;
        if (p == q) {
          value = 1.0;
        } else {
          // Gather T[q][.] at p's neighbor ads through the SIMD kernel
          // (8-lane deterministic order; flat weights are laid out
          // parallel to the neighbor array).
          auto nb = graph.QueryNeighborAds(static_cast<QueryId>(p));
          double sum =
              weighted
                  ? kern.gather_sum_weighted(
                        trow, nb.data(),
                        flat_w_query_to_ad_.data() + (nb.data() - q_neigh_base),
                        1.0, nb.size())
                  : kern.gather_sum(trow, nb.data(), nb.size());
          if (weighted) {
            value = query_evidence_[q * nq_ + p] * options_.c1 * sum;
          } else {
            double inv_np =
                graph.QueryDegree(static_cast<QueryId>(p)) > 0
                    ? 1.0 / static_cast<double>(graph.QueryDegree(
                          static_cast<QueryId>(p)))
                    : 0.0;
            value = options_.c1 * inv_nq * inv_np * sum;
          }
          if (p > q && value != 0.0) ++nonzero;
        }
        local_delta =
            std::max(local_delta, std::fabs(value - query_scores_[q * nq_ + p]));
        out[p] = value;
      }
      row_delta_q[q] = local_delta;
      (*row_pairs_q)[q] = nonzero;
    }
  };
  auto compute_ad_rows = [&](size_t begin, size_t end) {
    for (size_t a = begin; a < end; ++a) {
      const double* urow = &u[a * nq_];
      double* out = &new_ad[a * na_];
      double inv_na = graph.AdDegree(static_cast<AdId>(a)) > 0
                          ? 1.0 / static_cast<double>(graph.AdDegree(
                                static_cast<AdId>(a)))
                          : 0.0;
      double local_delta = 0.0;
      size_t nonzero = 0;
      for (size_t b = 0; b < na_; ++b) {
        double value;
        if (b == a) {
          value = 1.0;
        } else {
          auto nb = graph.AdNeighborQueries(static_cast<AdId>(b));
          double sum =
              weighted
                  ? kern.gather_sum_weighted(
                        urow, nb.data(),
                        flat_w_ad_to_query_.data() + (nb.data() - a_neigh_base),
                        1.0, nb.size())
                  : kern.gather_sum(urow, nb.data(), nb.size());
          if (weighted) {
            value = ad_evidence_[a * na_ + b] * options_.c2 * sum;
          } else {
            double inv_nb = graph.AdDegree(static_cast<AdId>(b)) > 0
                                ? 1.0 / static_cast<double>(graph.AdDegree(
                                      static_cast<AdId>(b)))
                                : 0.0;
            value = options_.c2 * inv_na * inv_nb * sum;
          }
          if (b > a && value != 0.0) ++nonzero;
        }
        local_delta =
            std::max(local_delta, std::fabs(value - ad_scores_[a * na_ + b]));
        out[b] = value;
      }
      row_delta_a[a] = local_delta;
      (*row_pairs_a)[a] = nonzero;
    }
  };

  // Each task writes disjoint rows of its output and the per-row delta
  // and nonzero-count slots, so any chunking yields bit-identical results.
  ThreadPool& pool = SharedThreadPool();
  pool.ParallelFor(nq_, compute_t_rows, max_participants_);
  pool.ParallelFor(na_, compute_u_rows, max_participants_);
  pool.ParallelFor(nq_, compute_query_rows, max_participants_);
  pool.ParallelFor(na_, compute_ad_rows, max_participants_);

  query_scores_ = std::move(new_query);
  ad_scores_ = std::move(new_ad);

  double delta = 0.0;
  for (double d : row_delta_q) delta = std::max(delta, d);
  for (double d : row_delta_a) delta = std::max(delta, d);
  return delta;
}

double DenseSimRankEngine::RawQueryScore(QueryId q1, QueryId q2) const {
  if (q1 == q2) return 1.0;
  return query_scores_[static_cast<size_t>(q1) * nq_ + q2];
}

double DenseSimRankEngine::QueryScore(QueryId q1, QueryId q2) const {
  if (q1 == q2) return 1.0;
  double raw = query_scores_[static_cast<size_t>(q1) * nq_ + q2];
  if (options_.variant == SimRankVariant::kEvidence) {
    return query_evidence_[static_cast<size_t>(q1) * nq_ + q2] * raw;
  }
  return raw;  // kSimRank raw; kWeighted already carries evidence
}

double DenseSimRankEngine::AdScore(AdId a1, AdId a2) const {
  if (a1 == a2) return 1.0;
  double raw = ad_scores_[static_cast<size_t>(a1) * na_ + a2];
  if (options_.variant == SimRankVariant::kEvidence) {
    return ad_evidence_[static_cast<size_t>(a1) * na_ + a2] * raw;
  }
  return raw;
}

SimilarityMatrix DenseSimRankEngine::ExportQueryScores(
    double min_score) const {
  SimilarityMatrix matrix(nq_);
  for (uint32_t q = 0; q < nq_; ++q) {
    for (uint32_t p = q + 1; p < nq_; ++p) {
      double score = QueryScore(q, p);
      if (score >= min_score && score != 0.0) matrix.Set(q, p, score);
    }
  }
  matrix.Finalize();
  return matrix;
}

SimilarityMatrix DenseSimRankEngine::ExportAdScores(double min_score) const {
  SimilarityMatrix matrix(na_);
  for (uint32_t a = 0; a < na_; ++a) {
    for (uint32_t b = a + 1; b < na_; ++b) {
      double score = AdScore(a, b);
      if (score >= min_score && score != 0.0) matrix.Set(a, b, score);
    }
  }
  matrix.Finalize();
  return matrix;
}

}  // namespace simrankpp
