#include "core/linearized_engine.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/evidence.h"
#include "graph/components.h"
#include "util/simd/simd.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace simrankpp {

namespace {

// Chunks per node sweep. Fixed — not a function of the thread count — so
// the work partition is identical for every num_threads setting. Results
// do not depend on it either way (every write lands in a per-node slot);
// 64 matches the sparse engine's sharding granularity.
constexpr size_t kSweepChunks = 64;

// Safety cap on Jacobi sweeps for tolerances set tighter than the
// truncation error lets the residual reach.
constexpr size_t kMaxDiagSweeps = 50;

// Binary search of an ascending-by-node row.
double FindScore(const std::vector<ScoredNode>& row, uint32_t v) {
  auto it = std::lower_bound(
      row.begin(), row.end(), v,
      [](const ScoredNode& entry, uint32_t node) { return entry.node < node; });
  if (it != row.end() && it->node == v) return it->score;
  return 0.0;
}

}  // namespace

LinearizedSimRankEngine::LinearizedSimRankEngine(SimRankOptions options)
    : options_(std::move(options)) {}

Status LinearizedSimRankEngine::BindGraph(const BipartiteGraph& graph) {
  SRPP_RETURN_NOT_OK(options_.Validate());
  if (options_.variant == SimRankVariant::kWeighted) {
    return Status::NotImplemented(
        "the linearized engine supports plain and evidence-based Simrank "
        "only: weighted Simrank's evidence factors enter the recursion "
        "itself and do not linearize (use the dense or sparse engine)");
  }
  double decay = options_.c1 * options_.c2;
  if (decay >= 1.0) {
    return Status::InvalidArgument(StringPrintf(
        "the linearized power series requires C1*C2 < 1, got C1=%f C2=%f",
        options_.c1, options_.c2));
  }
  graph_ = &graph;

  // Component order: a counting sort of each side by component, stable
  // in the original ids.
  ComponentInfo components = FindConnectedComponents(graph);
  auto order_side = [&components](const std::vector<uint32_t>& component) {
    SideAdjacency adj;
    size_t n = component.size();
    adj.begin.assign(components.num_components() + 1, 0);
    for (uint32_t c : component) ++adj.begin[c + 1];
    for (size_t c = 1; c < adj.begin.size(); ++c) {
      adj.begin[c] += adj.begin[c - 1];
    }
    std::vector<uint32_t> next(adj.begin.begin(), adj.begin.end() - 1);
    adj.component.resize(n);
    adj.to_new.resize(n);
    adj.to_original.resize(n);
    for (uint32_t u = 0; u < n; ++u) {
      uint32_t id = next[component[u]]++;
      adj.component[id] = component[u];
      adj.to_new[u] = id;
      adj.to_original[id] = u;
    }
    return adj;
  };
  query_adj_ = order_side(components.query_component);
  ad_adj_ = order_side(components.ad_component);

  // Flatten both adjacency directions. Multi-edges stay as repeated
  // neighbor entries: plain SimRank's uniform 1/N transition is over edge
  // endpoints, exactly like the dense engine's per-edge loops.
  auto fill_side = [&graph](bool ad_side, const SideAdjacency& opp,
                            SideAdjacency* adj) {
    size_t n = adj->to_original.size();
    adj->offsets.assign(n + 1, 0);
    adj->inv_degree.assign(n, 0.0);
    adj->neighbors.reserve(graph.num_edges());
    for (size_t id = 0; id < n; ++id) {
      uint32_t u = adj->to_original[id];
      std::span<const EdgeId> edges = ad_side ? graph.AdEdges(u)
                                              : graph.QueryEdges(u);
      for (EdgeId e : edges) {
        adj->neighbors.push_back(
            opp.to_new[ad_side ? graph.edge_query(e) : graph.edge_ad(e)]);
      }
      adj->offsets[id + 1] = adj->neighbors.size();
      if (!edges.empty()) {
        adj->inv_degree[id] = 1.0 / static_cast<double>(edges.size());
      }
      std::sort(adj->neighbors.begin() + adj->offsets[id],
                adj->neighbors.end());
    }
  };
  fill_side(/*ad_side=*/false, ad_adj_, &query_adj_);
  fill_side(/*ad_side=*/true, query_adj_, &ad_adj_);
  return Status::OK();
}

LinearizedSimRankEngine::Walk LinearizedSimRankEngine::ForwardWalk(
    bool ad_side, uint32_t node) const {
  const SideAdjacency& own_adj = ad_side ? ad_adj_ : query_adj_;
  const SideAdjacency& opp_adj = ad_side ? query_adj_ : ad_adj_;
  const uint32_t start = own_adj.to_new[node];
  const uint32_t c = own_adj.component[start];
  Walk walk;
  walk.own_begin = own_adj.begin[c];
  walk.own_size = own_adj.begin[c + 1] - walk.own_begin;
  walk.opp_begin = opp_adj.begin[c];
  walk.opp_size = opp_adj.begin[c + 1] - walk.opp_begin;
  const size_t depth = options_.linearized_series_depth;
  walk.w.assign((depth + 1) * walk.own_size, 0.0);
  walk.t.assign((depth + 1) * walk.opp_size, 0.0);
  walk.w[start - walk.own_begin] = 1.0;

  // One pass: out[i] = sum of spread[u - from_begin] over the neighbors
  // u of target to_begin + i, ascending. Returns whether any is nonzero.
  // A gather, but scalar on purpose: the SIMD gather kernels sum in
  // 8-lane order, and the sequential order is what fixes every bit.
  auto pull = [](const SideAdjacency& to, uint32_t to_begin, uint32_t size,
                 const double* spread, uint32_t from_begin, double* out) {
    bool nonzero = false;
    for (uint32_t i = 0; i < size; ++i) {
      double sum = 0.0;
      for (uint32_t u : to.Neighbors(to_begin + i)) {
        sum += spread[u - from_begin];
      }
      out[i] = sum;
      nonzero |= sum != 0.0;
    }
    return nonzero;
  };
  std::vector<double> spread(std::max(walk.own_size, walk.opp_size));
  for (size_t k = 0;; ++k) {
    // t_k = A^T w_k with A the own side's row-normalized adjacency: mass
    // leaves each source node split evenly over its edges.
    const double* w = walk.W(k);
    for (uint32_t i = 0; i < walk.own_size; ++i) {
      spread[i] = w[i] * own_adj.inv_degree[walk.own_begin + i];
    }
    double* t = walk.T(k);
    pull(opp_adj, walk.opp_begin, walk.opp_size, spread.data(),
         walk.own_begin, t);
    walk.steps = k + 1;
    if (k == depth) break;
    // w_{k+1} = B^T t_k with B the opposite side's row-normalized
    // adjacency; the walk stops once it dies out (isolated nodes).
    for (uint32_t j = 0; j < walk.opp_size; ++j) {
      spread[j] = t[j] * opp_adj.inv_degree[walk.opp_begin + j];
    }
    if (!pull(own_adj, walk.own_begin, walk.own_size, spread.data(),
              walk.opp_begin, walk.W(k + 1))) {
      break;
    }
  }
  return walk;
}

LinearizedSimRankEngine::DiagForm LinearizedSimRankEngine::BuildDiagForm(
    bool ad_side, uint32_t node) const {
  const SideAdjacency& own_adj = ad_side ? ad_adj_ : query_adj_;
  const SideAdjacency& opp_adj = ad_side ? query_adj_ : ad_adj_;
  const double cross_factor = ad_side ? options_.c2 : options_.c1;
  const double decay = options_.c1 * options_.c2;

  // The truncated diagonal condition at `node`,
  //   F = sum_k decay^k [ sum_v D_own[v] w_k[v]^2
  //                       + cross_factor * sum_b D_opp[b] t_k[b]^2 ],
  // with w_k the forward walk iterate and t_k its opposite-side
  // projection, collected as coefficients on D_own / D_opp.
  Walk walk = ForwardWalk(ad_side, node);
  std::vector<double> own_coeff(walk.own_size, 0.0);
  std::vector<double> cross_coeff(walk.opp_size, 0.0);
  double weight = 1.0;
  for (size_t k = 0; k < walk.steps; ++k, weight *= decay) {
    const double* w = walk.W(k);
    for (uint32_t i = 0; i < walk.own_size; ++i) {
      own_coeff[i] += weight * w[i] * w[i];
    }
    const double cross_weight = weight * cross_factor;
    const double* t = walk.T(k);
    for (uint32_t j = 0; j < walk.opp_size; ++j) {
      cross_coeff[j] += cross_weight * t[j] * t[j];
    }
  }

  DiagForm form;
  // k = 0 contributes w_0[node]^2 = 1, so alpha >= 1 always.
  form.alpha = own_coeff[own_adj.to_new[node] - walk.own_begin];
  for (uint32_t i = 0; i < walk.own_size; ++i) {
    if (own_coeff[i] == 0.0) continue;
    form.own_nodes.push_back(own_adj.to_original[walk.own_begin + i]);
    form.own_coeffs.push_back(own_coeff[i]);
  }
  for (uint32_t j = 0; j < walk.opp_size; ++j) {
    if (cross_coeff[j] == 0.0) continue;
    form.cross_nodes.push_back(opp_adj.to_original[walk.opp_begin + j]);
    form.cross_coeffs.push_back(cross_coeff[j]);
  }
  return form;
}

double LinearizedSimRankEngine::EstimateDiagonals(
    const std::vector<DiagForm>& forms_q,
    const std::vector<DiagForm>& forms_a) {
  size_t nq = forms_q.size();
  size_t na = forms_a.size();
  std::vector<double> next_q(nq, 0.0);
  std::vector<double> next_a(na, 0.0);
  std::vector<double> residual_q(nq, 0.0);
  std::vector<double> residual_a(na, 0.0);

  // One Jacobi half-sweep: evaluate every node's condition against the
  // CURRENT diagonals and stage the update into per-node slots, so the
  // sweep parallelizes without ordering effects and the result is
  // bit-identical for any thread count. Each condition is two sparse dot
  // products over the SoA forms, run through the SIMD dense-gather kernel
  // (8-lane deterministic order; the table is an immutable static, safe
  // to share across the pool's workers).
  const simd::KernelTable& kern = simd::ActiveKernels();
  auto sweep_side = [&](const std::vector<DiagForm>& forms,
                        const std::vector<double>& d_own,
                        const std::vector<double>& d_opp,
                        std::vector<double>* next,
                        std::vector<double>* residual) {
    auto fn = [&forms, &d_own, &d_opp, &kern, next, residual](
                  size_t, size_t begin, size_t end) {
      for (size_t u = begin; u < end; ++u) {
        const DiagForm& form = forms[u];
        double f = kern.gather_sum_weighted(
                       d_own.data(), form.own_nodes.data(),
                       form.own_coeffs.data(), 1.0, form.own_nodes.size()) +
                   kern.gather_sum_weighted(
                       d_opp.data(), form.cross_nodes.data(),
                       form.cross_coeffs.data(), 1.0, form.cross_nodes.size());
        double violation = 1.0 - f;
        (*residual)[u] = std::fabs(violation);
        // A diagonal correction outside [0, 1] is non-physical (scores
        // are in [0, 1] with unit diagonal); clamping keeps transients
        // from overshooting.
        (*next)[u] = std::clamp(d_own[u] + violation / form.alpha, 0.0, 1.0);
      }
    };
    SharedThreadPool().ParallelForChunked(forms.size(), kSweepChunks, fn,
                                          max_participants_);
  };

  // Cross-side Gauss-Seidel: the ad half-sweep reads the query diagonals
  // JUST updated in the same sweep. The two sides are strongly coupled
  // (every query condition carries c1-weighted ad-diagonal mass and vice
  // versa), and updating both simultaneously oscillates — on K_{1,2} the
  // simultaneous-update iteration matrix has spectral radius ~0.95, the
  // staggered one ~0.3. Within a side the update stays Jacobi so the
  // per-node work parallelizes freely.
  double residual = 0.0;
  for (size_t sweep = 0; sweep < kMaxDiagSweeps; ++sweep) {
    sweep_side(forms_q, diag_query_, diag_ad_, &next_q, &residual_q);
    std::swap(diag_query_, next_q);
    sweep_side(forms_a, diag_ad_, diag_query_, &next_a, &residual_a);
    std::swap(diag_ad_, next_a);
    // Residuals are measured against the diagonals each half-sweep READ;
    // the final update only tightens them further (the iteration is a
    // contraction by the time the residual is this small).
    residual = 0.0;
    for (double v : residual_q) residual = std::max(residual, v);
    for (double v : residual_a) residual = std::max(residual, v);
    ++stats_.iterations_run;
    if (residual <= options_.linearized_diag_tolerance) break;
  }
  return residual;
}

Status LinearizedSimRankEngine::Prepare(const BipartiteGraph& graph) {
  Stopwatch timer;
  prepared_ = false;
  rows_query_.clear();
  rows_ad_.clear();
  SRPP_RETURN_NOT_OK(BindGraph(graph));

  stats_ = SimRankStats();
  stats_.simd_level = simd::ActiveKernels().name;
  // Same pool discipline as the other engines: borrow the process-wide
  // pool, capped at the requested thread count, for Prepare and Run.
  max_participants_ = ResolveThreadCount(options_.num_threads);
  stats_.threads_used = SharedThreadPool().Participants(max_participants_);

  size_t nq = graph.num_queries();
  size_t na = graph.num_ads();
  diag_query_.assign(nq, 1.0 - options_.c1);
  diag_ad_.assign(na, 1.0 - options_.c2);

  // The walk iterates never depend on the diagonals, so each node's
  // condition is precomputed once as a linear form; the Jacobi sweeps
  // are then cheap sparse dot products.
  std::vector<DiagForm> forms_q(nq);
  std::vector<DiagForm> forms_a(na);
  auto build_forms = [&](bool ad_side, std::vector<DiagForm>* forms) {
    auto fn = [this, ad_side, forms](size_t, size_t begin, size_t end) {
      for (size_t u = begin; u < end; ++u) {
        (*forms)[u] = BuildDiagForm(ad_side, static_cast<uint32_t>(u));
      }
    };
    SharedThreadPool().ParallelForChunked(forms->size(), kSweepChunks, fn,
                                          max_participants_);
  };
  build_forms(/*ad_side=*/false, &forms_q);
  build_forms(/*ad_side=*/true, &forms_a);

  stats_.last_delta = EstimateDiagonals(forms_q, forms_a);

  prepared_ = true;
  stats_.elapsed_seconds = timer.ElapsedSeconds();
  return Status::OK();
}

LinearizedSimRankEngine::SparseRow LinearizedSimRankEngine::RawRow(
    bool ad_side, uint32_t node) const {
  const SideAdjacency& own_adj = ad_side ? ad_adj_ : query_adj_;
  const SideAdjacency& opp_adj = ad_side ? query_adj_ : ad_adj_;
  const std::vector<double>& diag_own = ad_side ? diag_ad_ : diag_query_;
  const std::vector<double>& diag_opp = ad_side ? diag_query_ : diag_ad_;
  const double cross_factor = ad_side ? options_.c2 : options_.c1;
  const double decay = options_.c1 * options_.c2;

  // Forward: w_k = (M^T)^k e_node and t_k = A^T w_k for k = 0..K.
  Walk walk = ForwardWalk(ad_side, node);
  const uint32_t own_begin = walk.own_begin;
  const uint32_t opp_begin = walk.opp_begin;
  std::vector<double> d_own(walk.own_size);
  for (uint32_t i = 0; i < walk.own_size; ++i) {
    d_own[i] = diag_own[own_adj.to_original[own_begin + i]];
  }
  std::vector<double> cross_diag(walk.opp_size);
  for (uint32_t j = 0; j < walk.opp_size; ++j) {
    cross_diag[j] = cross_factor * diag_opp[opp_adj.to_original[opp_begin + j]];
  }

  // Backward: r <- decay * M r + C w_k for k = K..0 evaluates the
  // truncated series sum_k decay^k M^k C (M^T)^k e_node in Horner form;
  // r ends as the raw score row. C v = D_own ∘ v
  // + cross_factor * A (D_opp ∘ (A^T v)) with A the own side's
  // row-normalized adjacency, and A^T w_k is the forward pass's t_k.
  // Note M r spreads with TARGET-side degree factors (M = A B
  // row-normalized per matrix), while A^T v spreads with source factors.
  std::vector<double> r(walk.own_size, 0.0);
  std::vector<double> next(walk.own_size);
  std::vector<double> br(walk.opp_size);     // decay * B r, so M r = A br
  std::vector<double> cross(walk.opp_size);  // cross_factor * D_opp ∘ t_k
  for (size_t k = walk.steps; k-- > 0;) {
    const double* t = walk.T(k);
    for (uint32_t j = 0; j < walk.opp_size; ++j) {
      const double inv = opp_adj.inv_degree[opp_begin + j];
      double sum = 0.0;
      for (uint32_t p : opp_adj.Neighbors(opp_begin + j)) {
        sum += r[p - own_begin] * inv;
      }
      br[j] = decay * sum;
      cross[j] = cross_diag[j] * t[j];
    }
    // Each target sums decay * M r, then the cross part, then its own
    // diagonal term D_own ∘ w_k.
    const double* w = walk.W(k);
    for (uint32_t i = 0; i < walk.own_size; ++i) {
      const double inv = own_adj.inv_degree[own_begin + i];
      std::span<const uint32_t> neighbors = own_adj.Neighbors(own_begin + i);
      double sum = 0.0;
      for (uint32_t a : neighbors) sum += br[a - opp_begin] * inv;
      for (uint32_t a : neighbors) sum += cross[a - opp_begin] * inv;
      next[i] = sum + d_own[i] * w[i];
    }
    std::swap(r, next);
  }

  SparseRow row;
  const uint32_t self = own_adj.to_new[node] - own_begin;
  for (uint32_t i = 0; i < walk.own_size; ++i) {
    // The diagonal is implicit 1 everywhere in this codebase; the row
    // carries off-diagonal mass only.
    if (i != self && r[i] > 0.0) {
      row.push_back({own_adj.to_original[own_begin + i], r[i]});
    }
  }
  return row;
}

Status LinearizedSimRankEngine::Run(const BipartiteGraph& graph) {
  Stopwatch timer;
  SRPP_RETURN_NOT_OK(Prepare(graph));

  size_t nq = graph.num_queries();
  size_t na = graph.num_ads();
  rows_query_.assign(nq, {});
  rows_ad_.assign(na, {});

  // Every row lands in its own slot and each row's computation is
  // self-contained, so exports are bit-identical for any thread count.
  const double prune = options_.prune_threshold;
  auto materialize = [&](bool ad_side, std::vector<SparseRow>* rows) {
    auto fn = [this, ad_side, rows, prune](size_t, size_t begin, size_t end) {
      for (size_t u = begin; u < end; ++u) {
        SparseRow raw = RawRow(ad_side, static_cast<uint32_t>(u));
        SparseRow& out = (*rows)[u];
        for (const ScoredNode& entry : raw) {
          // Upper-triangle storage: the mirror entry is recovered by the
          // symmetric lookup in QueryScore/AdScore.
          if (entry.node > u && entry.score >= prune) out.push_back(entry);
        }
        out.shrink_to_fit();
      }
    };
    SharedThreadPool().ParallelForChunked(rows->size(), kSweepChunks, fn,
                                          max_participants_);
  };
  materialize(/*ad_side=*/false, &rows_query_);
  materialize(/*ad_side=*/true, &rows_ad_);

  size_t query_pairs = 0;
  for (const SparseRow& row : rows_query_) query_pairs += row.size();
  size_t ad_pairs = 0;
  for (const SparseRow& row : rows_ad_) ad_pairs += row.size();
  stats_.query_pairs = query_pairs;
  stats_.ad_pairs = ad_pairs;
  stats_.elapsed_seconds = timer.ElapsedSeconds();
  return Status::OK();
}

double LinearizedSimRankEngine::VariantFactor(bool ad_side, uint32_t u,
                                              uint32_t v) const {
  if (options_.variant != SimRankVariant::kEvidence) return 1.0;
  size_t common = ad_side ? graph_->CountCommonQueries(u, v)
                          : graph_->CountCommonAds(u, v);
  return EvidenceWithFloor(common, options_.evidence_formula,
                           options_.zero_evidence_floor);
}

double LinearizedSimRankEngine::QueryScore(QueryId q1, QueryId q2) const {
  if (q1 == q2) return 1.0;
  uint32_t u = std::min(q1, q2);
  uint32_t v = std::max(q1, q2);
  if (v >= rows_query_.size()) return 0.0;
  double raw = FindScore(rows_query_[u], v);
  if (raw == 0.0) return 0.0;
  return raw * VariantFactor(/*ad_side=*/false, q1, q2);
}

double LinearizedSimRankEngine::AdScore(AdId a1, AdId a2) const {
  if (a1 == a2) return 1.0;
  uint32_t u = std::min(a1, a2);
  uint32_t v = std::max(a1, a2);
  if (v >= rows_ad_.size()) return 0.0;
  double raw = FindScore(rows_ad_[u], v);
  if (raw == 0.0) return 0.0;
  return raw * VariantFactor(/*ad_side=*/true, a1, a2);
}

SimilarityMatrix LinearizedSimRankEngine::ExportSide(bool ad_side,
                                                     double min_score) const {
  const std::vector<SparseRow>& rows = ad_side ? rows_ad_ : rows_query_;
  SimilarityMatrix matrix(rows.size());
  for (uint32_t u = 0; u < rows.size(); ++u) {
    for (const ScoredNode& entry : rows[u]) {
      double score = entry.score * VariantFactor(ad_side, u, entry.node);
      if (score >= min_score && score != 0.0) {
        matrix.Set(u, entry.node, score);
      }
    }
  }
  matrix.Finalize();
  return matrix;
}

SimilarityMatrix LinearizedSimRankEngine::ExportQueryScores(
    double min_score) const {
  return ExportSide(/*ad_side=*/false, min_score);
}

SimilarityMatrix LinearizedSimRankEngine::ExportAdScores(
    double min_score) const {
  return ExportSide(/*ad_side=*/true, min_score);
}

Result<std::vector<ScoredNode>> LinearizedSimRankEngine::ScoredRow(
    bool ad_side, uint32_t node, double min_score,
    size_t max_partners) const {
  if (!prepared_) {
    return Status::FailedPrecondition(
        "ScoredRow called before Prepare() succeeded");
  }
  size_t n = ad_side ? graph_->num_ads() : graph_->num_queries();
  if (node >= n) {
    return Status::OutOfRange(StringPrintf("%s id %u out of range (graph "
                                           "has %zu)",
                                           ad_side ? "ad" : "query", node,
                                           n));
  }
  std::vector<ScoredNode> row = RawRow(ad_side, node);
  size_t kept = 0;
  for (const ScoredNode& entry : row) {
    double score = entry.score * VariantFactor(ad_side, node, entry.node);
    if (score > min_score) row[kept++] = {entry.node, score};
  }
  row.resize(kept);
  // Descending score; stable over the ascending-node input, so ties break
  // by ascending node id.
  std::stable_sort(row.begin(), row.end(),
                   [](const ScoredNode& lhs, const ScoredNode& rhs) {
                     return lhs.score > rhs.score;
                   });
  if (max_partners > 0 && row.size() > max_partners) row.resize(max_partners);
  return row;
}

}  // namespace simrankpp
