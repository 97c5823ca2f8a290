#include "core/sparse_engine.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "core/evidence.h"
#include "core/weighted_transitions.h"
#include "util/logging.h"
#include "util/simd/simd.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace simrankpp {

namespace {

// Shards per UpdateSide pass. Fixed (not a multiple of the thread count)
// so the node partition — and therefore the concatenated pair store — is
// the same for every num_threads setting; 64 keeps all realistic pools
// busy while staying coarse enough that per-shard buffers amortize.
constexpr size_t kShardChunks = 64;

// Largest opposite-side node count for which the dense-gather scoring
// path may allocate its per-chunk scratch row (8 B per opposite node per
// in-flight chunk). Beyond this the binary-search path is used
// unconditionally.
constexpr size_t kMaxDenseScratch = size_t{1} << 22;

// The sorted keys of `candidates` that fall in node u's row (lower
// endpoint == u).
std::span<const uint64_t> OverlayRow(const std::vector<uint64_t>& candidates,
                                     uint32_t u) {
  uint64_t lo = static_cast<uint64_t>(u) << 32;
  uint64_t hi = (static_cast<uint64_t>(u) + 1) << 32;
  auto begin = std::lower_bound(candidates.begin(), candidates.end(), lo);
  auto end = std::lower_bound(begin, candidates.end(), hi);
  return {candidates.data() + (begin - candidates.begin()),
          static_cast<size_t>(end - begin)};
}

// Merges sorted `fresh` keys into sorted `into`, deduplicating.
void MergeSortedInto(std::vector<uint64_t>&& fresh,
                     std::vector<uint64_t>* into) {
  if (fresh.empty()) return;
  size_t middle = into->size();
  into->insert(into->end(), fresh.begin(), fresh.end());
  std::inplace_merge(into->begin(), into->begin() + middle, into->end());
  into->erase(std::unique(into->begin(), into->end()), into->end());
}

}  // namespace

SparseSimRankEngine::SparseSimRankEngine(SimRankOptions options)
    : options_(std::move(options)) {}

Status SparseSimRankEngine::Run(const BipartiteGraph& graph) {
  SRPP_RETURN_NOT_OK(options_.Validate());
  Stopwatch timer;
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

  stats_ = SimRankStats();
  stats_.simd_level = simd::ActiveKernels().name;
  // Borrow the process-wide pool, capped at the requested thread count,
  // for the whole run; UpdateSide shards across it. Concurrent Runs share
  // the same workers without observing each other's batches.
  max_participants_ = ResolveThreadCount(options_.num_threads);
  stats_.threads_used = SharedThreadPool().Participants(max_participants_);

  // Flatten both adjacency directions, then build the two-hop candidate
  // rows — the reachable-pair skeleton is fixed by the topology, so both
  // are computed once per Run, never per iteration.
  side_query_ = BuildSideAdjacency(/*query_side=*/true);
  side_ad_ = BuildSideAdjacency(/*query_side=*/false);
  base_query_ = BuildTwoHopIndex(/*query_side=*/true);
  base_ad_ = BuildTwoHopIndex(/*query_side=*/false);
  overlay_query_.clear();
  overlay_ad_.clear();
  ever_scored_query_.clear();
  ever_scored_ad_.clear();
  prev_precap_query_.clear();
  prev_precap_ad_.clear();
  dirty_query_.assign(graph.num_queries(), 1);
  dirty_ad_.assign(graph.num_ads(), 1);

  // An order of magnitude under the tolerance the caller already accepts;
  // exactly 0 (bit-identity) when early exit is disabled.
  const double skip_threshold = options_.convergence_epsilon / 10.0;

  for (size_t iter = 0; iter < options_.iterations; ++iter) {
    // Jacobi: both sides update from the previous iteration's stores.
    ScoreCsr ad_csr = BuildScoreCsr(ad_scores_, graph.num_ads());
    ScoreCsr query_csr = BuildScoreCsr(query_scores_, graph.num_queries());
    // Iterations 0-1 seed every candidate pair; skipping starts once
    // there is a previous full result to carry scores over from.
    bool allow_skip = options_.incremental && iter >= 2;
    PairStore new_query_precap =
        UpdateSide(/*query_side=*/true, ad_csr, options_.c1, allow_skip);
    PairStore new_ad_precap =
        UpdateSide(/*query_side=*/false, query_csr, options_.c2, allow_skip);

    PairStore new_query = new_query_precap;
    PairStore new_ad = new_ad_precap;
    ApplyPartnerCap(&new_query, graph.num_queries());
    ApplyPartnerCap(&new_ad, graph.num_ads());

    double delta = std::max(PairStore::MaxAbsDiff(query_scores_, new_query),
                            PairStore::MaxAbsDiff(ad_scores_, new_ad));

    if (options_.incremental) {
      // Who must be rescored next iteration: endpoints of changed pairs
      // poison their two-hop neighborhoods on the other side.
      std::vector<uint8_t> touched_query(graph.num_queries(), 0);
      std::vector<uint8_t> touched_ad(graph.num_ads(), 0);
      MarkTouched(query_scores_, new_query, skip_threshold, &touched_query);
      MarkTouched(ad_scores_, new_ad, skip_threshold, &touched_ad);
      ComputeDirty(/*query_side=*/true, touched_ad, &dirty_query_);
      ComputeDirty(/*query_side=*/false, touched_query, &dirty_ad_);
    }
    // First-time pairs open new 4+-hop candidates on the opposite side.
    ExpandNewPairs(new_query, /*store_is_query_side=*/true);
    ExpandNewPairs(new_ad, /*store_is_query_side=*/false);

    prev_precap_query_ = std::move(new_query_precap);
    prev_precap_ad_ = std::move(new_ad_precap);
    query_scores_ = std::move(new_query);
    ad_scores_ = std::move(new_ad);
    stats_.last_delta = delta;
    ++stats_.iterations_run;
    if (options_.convergence_epsilon > 0.0 &&
        delta < options_.convergence_epsilon) {
      break;
    }
  }

  // Release the per-Run scaffolding; only the score stores outlive Run.
  side_query_ = SideAdjacency();
  side_ad_ = SideAdjacency();
  base_query_ = CandidateIndex();
  base_ad_ = CandidateIndex();
  overlay_query_.clear();
  overlay_query_.shrink_to_fit();
  overlay_ad_.clear();
  overlay_ad_.shrink_to_fit();
  ever_scored_query_.clear();
  ever_scored_query_.shrink_to_fit();
  ever_scored_ad_.clear();
  ever_scored_ad_.shrink_to_fit();
  prev_precap_query_.clear();
  prev_precap_ad_.clear();
  dirty_query_.clear();
  dirty_ad_.clear();

  stats_.query_pairs = query_scores_.size();
  stats_.ad_pairs = ad_scores_.size();
  stats_.elapsed_seconds = timer.ElapsedSeconds();
  return Status::OK();
}

SparseSimRankEngine::SideAdjacency SparseSimRankEngine::BuildSideAdjacency(
    bool query_side) const {
  const BipartiteGraph& g = *graph_;
  const bool weighted = options_.variant == SimRankVariant::kWeighted;
  size_t n = query_side ? g.num_queries() : g.num_ads();

  SideAdjacency adj;
  adj.offsets.assign(n + 1, 0);
  adj.neighbors.reserve(g.num_edges());
  if (weighted) adj.weights.reserve(g.num_edges());
  for (uint32_t u = 0; u < n; ++u) {
    auto edges = query_side ? g.QueryEdges(u) : g.AdEdges(u);
    for (EdgeId e : edges) {
      adj.neighbors.push_back(query_side ? g.edge_ad(e) : g.edge_query(e));
      if (weighted) adj.weights.push_back(query_side ? w_q2a_[e] : w_a2q_[e]);
    }
    adj.offsets[u + 1] = adj.neighbors.size();
  }
  return adj;
}

SparseSimRankEngine::CandidateIndex SparseSimRankEngine::BuildTwoHopIndex(
    bool query_side) {
  const SideAdjacency& adj = query_side ? side_query_ : side_ad_;
  const SideAdjacency& opp = query_side ? side_ad_ : side_query_;
  size_t n = adj.offsets.size() - 1;

  // Per-chunk rows (flat partners + per-node sizes), assembled into one
  // CSR in chunk order: content per node is a pure function of the graph,
  // so any thread count produces the same index.
  struct ChunkRows {
    std::vector<uint32_t> flat;
    std::vector<size_t> row_sizes;
  };
  size_t num_chunks = std::min<size_t>(std::max<size_t>(n, 1), kShardChunks);
  std::vector<ChunkRows> chunks(num_chunks);
  auto run_chunk = [&](size_t chunk, size_t begin, size_t end) {
    ChunkRows& rows = chunks[chunk];
    std::vector<uint32_t> candidates;
    for (uint32_t u = static_cast<uint32_t>(begin); u < end; ++u) {
      candidates.clear();
      for (uint32_t mid : adj.Neighbors(u)) {
        for (uint32_t partner : opp.Neighbors(mid)) {
          if (partner > u) candidates.push_back(partner);
        }
      }
      std::sort(candidates.begin(), candidates.end());
      candidates.erase(std::unique(candidates.begin(), candidates.end()),
                       candidates.end());
      rows.flat.insert(rows.flat.end(), candidates.begin(), candidates.end());
      rows.row_sizes.push_back(candidates.size());
    }
  };
  SharedThreadPool().ParallelForChunked(n, num_chunks, run_chunk,
                                        max_participants_);

  CandidateIndex index;
  index.offsets.assign(n + 1, 0);
  size_t node = 0;
  size_t total = 0;
  for (const ChunkRows& rows : chunks) {
    for (size_t size : rows.row_sizes) {
      total += size;
      index.offsets[++node] = total;
    }
  }
  SRPP_CHECK(node == n);
  index.partners.reserve(total);
  for (const ChunkRows& rows : chunks) {
    index.partners.insert(index.partners.end(), rows.flat.begin(),
                          rows.flat.end());
  }
  return index;
}

SparseSimRankEngine::ScoreCsr SparseSimRankEngine::BuildScoreCsr(
    const PairStore& store, size_t n) {
  ScoreCsr csr;
  csr.offsets.assign(n + 1, 0);
  std::span<const uint64_t> keys = store.keys();
  std::span<const double> values = store.values();
  // Row sizes: one implicit diagonal per node plus both directions of
  // every stored pair.
  for (uint64_t key : keys) {
    ++csr.offsets[PairStore::KeyLower(key) + 1];
    ++csr.offsets[PairStore::KeyUpper(key) + 1];
  }
  for (size_t a = 0; a < n; ++a) csr.offsets[a + 1] += 1;
  for (size_t a = 0; a < n; ++a) csr.offsets[a + 1] += csr.offsets[a];

  csr.nodes.resize(csr.offsets[n]);
  csr.scores.resize(csr.offsets[n]);
  std::vector<size_t> cursor(csr.offsets.begin(), csr.offsets.end() - 1);
  // Three ordered fill phases per row a: partners below a (store order is
  // (lower, upper) ascending, so for fixed upper the lowers arrive
  // ascending), then the diagonal, then partners above a. Each row ends
  // up sorted by partner id with the diagonal in place.
  for (size_t i = 0; i < keys.size(); ++i) {
    uint32_t upper = PairStore::KeyUpper(keys[i]);
    size_t at = cursor[upper]++;
    csr.nodes[at] = PairStore::KeyLower(keys[i]);
    csr.scores[at] = values[i];
  }
  for (size_t a = 0; a < n; ++a) {
    size_t at = cursor[a]++;
    csr.nodes[at] = static_cast<uint32_t>(a);
    csr.scores[at] = 1.0;
  }
  for (size_t i = 0; i < keys.size(); ++i) {
    uint32_t lower = PairStore::KeyLower(keys[i]);
    size_t at = cursor[lower]++;
    csr.nodes[at] = PairStore::KeyUpper(keys[i]);
    csr.scores[at] = values[i];
  }
  return csr;
}

PairStore SparseSimRankEngine::UpdateSide(bool query_side,
                                          const ScoreCsr& source_csr,
                                          double decay, bool allow_skip) {
  const bool weighted = options_.variant == SimRankVariant::kWeighted;
  const SideAdjacency& adj = query_side ? side_query_ : side_ad_;
  size_t n = adj.offsets.size() - 1;
  size_t n_opposite = source_csr.offsets.size() - 1;
  const CandidateIndex& base = query_side ? base_query_ : base_ad_;
  const std::vector<uint64_t>& overlay =
      query_side ? overlay_query_ : overlay_ad_;
  const PairStore& prev = query_side ? prev_precap_query_ : prev_precap_ad_;
  const std::vector<uint8_t>& dirty = query_side ? dirty_query_ : dirty_ad_;

  // Kernels for the hot accumulations (one table per Run; immutable, so
  // sharing the reference across worker threads is free).
  const simd::KernelTable& kern = simd::ActiveKernels();

  // sum over (a, b) in E(u) x E(v) of wu * wv * s(a, b), computed for
  // each edge u->a as an intersection of a's score row with v's neighbor
  // list — by binary search when a pair stands alone, or through a dense
  // scratch expansion of the row when one expansion serves many pairs of
  // u. Every path accumulates each a-segment in the documented 8-lane
  // SIMD order: the term for v-list position p lands in lane p % 8 (in
  // ascending p), the lanes reduce through the fixed simd::ReduceLanes
  // tree, and segments add up in ascending a order. Positions without a
  // score contribute +0.0, which is bit-neutral on these nonnegative
  // partials — so this hit-only path and the visit-every-position
  // dense-gather kernel below produce identical bits, at every dispatch
  // level (docs/SIMD_KERNELS.md; pinned by sparse_equivalence_test).
  auto binary_pair_sum = [&](uint32_t u, uint32_t v) {
    double sum = 0.0;
    size_t v_begin = adj.offsets[v];
    size_t v_end = adj.offsets[v + 1];
    for (size_t up = adj.offsets[u]; up < adj.offsets[u + 1]; ++up) {
      uint32_t a = adj.neighbors[up];
      double wu = weighted ? adj.weights[up] : 1.0;
      size_t row_begin = source_csr.offsets[a];
      size_t row_end = source_csr.offsets[a + 1];
      double lanes[simd::kLanes] = {0.0};
      if (row_end - row_begin >= v_end - v_begin) {
        // Probe the (longer) score row for each of v's neighbors.
        const uint32_t* lo = source_csr.nodes.data() + row_begin;
        const uint32_t* hi = source_csr.nodes.data() + row_end;
        for (size_t vp = v_begin; vp < v_end; ++vp) {
          const uint32_t* hit = std::lower_bound(lo, hi, adj.neighbors[vp]);
          if (hit != hi && *hit == adj.neighbors[vp]) {
            double s = source_csr.scores[hit - source_csr.nodes.data()];
            double wv = weighted ? adj.weights[vp] : 1.0;
            lanes[(vp - v_begin) % simd::kLanes] += (wu * wv) * s;
          }
          lo = hit;  // neighbors ascend, so the next probe starts here
        }
      } else {
        // Probe v's (longer) neighbor list for each row entry. Hits
        // arrive in ascending v-list position, so per-lane accumulation
        // order matches the branch above.
        const uint32_t* lo = adj.neighbors.data() + v_begin;
        const uint32_t* hi = adj.neighbors.data() + v_end;
        for (size_t i = row_begin; i < row_end; ++i) {
          const uint32_t* hit = std::lower_bound(lo, hi, source_csr.nodes[i]);
          if (hit != hi && *hit == source_csr.nodes[i]) {
            double s = source_csr.scores[i];
            size_t vp = static_cast<size_t>(hit - adj.neighbors.data());
            double wv = weighted ? adj.weights[vp] : 1.0;
            lanes[(vp - v_begin) % simd::kLanes] += (wu * wv) * s;
          }
          lo = hit;
        }
      }
      sum += simd::ReduceLanes(lanes);
    }
    return sum;
  };

  auto pair_value = [&](uint32_t u, uint32_t v, double sum) {
    if (weighted) {
      size_t common = kern.count_common_sorted(
          adj.neighbors.data() + adj.offsets[u], adj.degree(u),
          adj.neighbors.data() + adj.offsets[v], adj.degree(v));
      double evidence = EvidenceWithFloor(common, options_.evidence_formula,
                                          options_.zero_evidence_floor);
      return evidence * decay * sum;
    }
    size_t du = adj.degree(u);
    size_t dv = adj.degree(v);
    return du > 0 && dv > 0
               ? decay * sum /
                     (static_cast<double>(du) * static_cast<double>(dv))
               : 0.0;
  };

  size_t num_chunks = std::min<size_t>(std::max<size_t>(n, 1), kShardChunks);
  std::vector<std::vector<std::pair<uint64_t, double>>> partials(num_chunks);
  std::vector<size_t> chunk_rescored(num_chunks, 0);
  std::vector<size_t> chunk_reused(num_chunks, 0);
  const bool dense_allowed = n_opposite <= kMaxDenseScratch;

  auto run_chunk = [&](size_t chunk, size_t begin, size_t end) {
    auto* out = &partials[chunk];
    size_t rescored = 0;
    size_t reused = 0;
    // Per-chunk scratch, reused across the chunk's nodes: the merged
    // candidate list of the current node, the subset to rescore with its
    // sums, and the dense score row (always exactly 0.0 outside the
    // currently expanded entries). The dense row is zero-filled lazily on
    // the chunk's first dense-path node, so chunks that carry every row
    // over (or only take the binary path) never pay the n_opposite-sized
    // initialization.
    std::vector<uint32_t> cands;
    std::vector<uint32_t> compute;
    std::vector<double> sums;
    std::vector<double> dense;
    for (uint32_t u = static_cast<uint32_t>(begin); u < end; ++u) {
      if (allow_skip && !dirty[u]) {
        // Nothing u can see changed: carry its whole previous row over.
        PairStore::Row row = prev.RowOf(u);
        for (size_t i = row.begin; i < row.end; ++i) {
          out->emplace_back(prev.key(i), prev.value(i));
        }
        reused += row.end - row.begin;
        continue;
      }

      // Candidates: the fixed two-hop row merged with the overlay row
      // (kept disjoint by construction; equal entries are consumed
      // together defensively so a pair is never scored twice). The merge
      // is skipped — and the base row used in place — whenever the
      // overlay holds nothing for u, which is the common case.
      std::span<const uint32_t> base_row = base.Row(u);
      std::span<const uint64_t> extra_row = OverlayRow(overlay, u);
      std::span<const uint32_t> cand_row = base_row;
      if (!extra_row.empty()) {
        cands.clear();
        size_t bi = 0;
        size_t oi = 0;
        while (bi < base_row.size() || oi < extra_row.size()) {
          uint32_t v;
          if (oi == extra_row.size() ||
              (bi < base_row.size() &&
               base_row[bi] <= PairStore::KeyUpper(extra_row[oi]))) {
            v = base_row[bi++];
            if (oi < extra_row.size() &&
                PairStore::KeyUpper(extra_row[oi]) == v) {
              ++oi;
            }
          } else {
            v = PairStore::KeyUpper(extra_row[oi++]);
          }
          cands.push_back(v);
        }
        cand_row = cands;
      }
      if (cand_row.empty()) continue;

      compute.clear();
      size_t probes = 0;
      for (uint32_t v : cand_row) {
        if (allow_skip && !dirty[v]) continue;
        compute.push_back(v);
        probes += adj.degree(v);
      }
      probes *= adj.degree(u);

      if (!compute.empty()) {
        sums.assign(compute.size(), 0.0);
        size_t rows_total = 0;
        for (uint32_t a : adj.Neighbors(u)) {
          rows_total += source_csr.offsets[a + 1] - source_csr.offsets[a];
        }
        if (dense_allowed && probes >= rows_total) {
          if (dense.size() < n_opposite) dense.assign(n_opposite, 0.0);
          // Expand each score row once, then sweep every pair of u with
          // the vectorized gather kernel: one dense[] gather per v-list
          // position, whole 8-lane blocks in SIMD, positions without a
          // score contributing a bit-neutral +0.0. Per pair this yields
          // exactly binary_pair_sum's 8-lane a-segment sums (for the
          // unweighted variants wu == wv == 1.0, so the unweighted
          // gather_sum produces the same bit pattern as the weighted
          // kernel would, with the weight loads gone).
          for (size_t up = adj.offsets[u]; up < adj.offsets[u + 1]; ++up) {
            uint32_t a = adj.neighbors[up];
            size_t row_begin = source_csr.offsets[a];
            size_t row_end = source_csr.offsets[a + 1];
            for (size_t i = row_begin; i < row_end; ++i) {
              dense[source_csr.nodes[i]] = source_csr.scores[i];
            }
            if (weighted) {
              double wu = adj.weights[up];
              for (size_t k = 0; k < compute.size(); ++k) {
                uint32_t v = compute[k];
                size_t v_begin = adj.offsets[v];
                sums[k] += kern.gather_sum_weighted(
                    dense.data(), adj.neighbors.data() + v_begin,
                    adj.weights.data() + v_begin, wu,
                    adj.offsets[v + 1] - v_begin);
              }
            } else {
              for (size_t k = 0; k < compute.size(); ++k) {
                uint32_t v = compute[k];
                size_t v_begin = adj.offsets[v];
                sums[k] += kern.gather_sum(dense.data(),
                                           adj.neighbors.data() + v_begin,
                                           adj.offsets[v + 1] - v_begin);
              }
            }
            for (size_t i = row_begin; i < row_end; ++i) {
              dense[source_csr.nodes[i]] = 0.0;
            }
          }
        } else {
          for (size_t k = 0; k < compute.size(); ++k) {
            sums[k] = binary_pair_sum(u, compute[k]);
          }
        }
      }

      // Emit in ascending v order, interleaving fresh scores with reused
      // previous pre-cap scores for skipped pairs.
      PairStore::Row prev_row = prev.RowOf(u);
      size_t pi = prev_row.begin;
      size_t ci = 0;
      for (uint32_t v : cand_row) {
        if (ci < compute.size() && compute[ci] == v) {
          ++rescored;
          double value = pair_value(u, v, sums[ci]);
          ++ci;
          if (value >= options_.prune_threshold && value > 0.0) {
            out->emplace_back(PairStore::MakeKey(u, v), value);
          }
          continue;
        }
        // Unchanged neighborhood: reuse the previous pre-cap score (or
        // its absence) for this pair.
        while (pi < prev_row.end && PairStore::KeyUpper(prev.key(pi)) < v) {
          ++pi;
        }
        if (pi < prev_row.end && PairStore::KeyUpper(prev.key(pi)) == v) {
          out->emplace_back(prev.key(pi), prev.value(pi));
          ++pi;
          ++reused;
        }
      }
    }
    chunk_rescored[chunk] = rescored;
    chunk_reused[chunk] = reused;
  };

  // Shard nodes into per-chunk output buffers and concatenate them in
  // chunk order. The chunk count is a function of n only — never of the
  // thread count — and every pair is scored wholly inside one chunk, so
  // the flat store is built from the same (key, value) sequence for any
  // num_threads: results are bit-identical with no atomics on scores.
  SharedThreadPool().ParallelForChunked(n, num_chunks, run_chunk,
                                        max_participants_);
  for (size_t c = 0; c < num_chunks; ++c) {
    stats_.rescored_pairs += chunk_rescored[c];
    stats_.reused_pairs += chunk_reused[c];
  }
  return PairStore::FromShards(std::move(partials));
}

void SparseSimRankEngine::ApplyPartnerCap(PairStore* store, size_t n) const {
  size_t cap = options_.max_partners_per_node;
  if (cap == 0 || store->empty()) return;

  std::vector<uint32_t> partner_count(n, 0);
  for (uint64_t key : store->keys()) {
    uint32_t u = PairStore::KeyLower(key);
    uint32_t v = PairStore::KeyUpper(key);
    // Both sides' stores index raw node ids; a store passed with the
    // wrong side's n would silently read/write past the per-node arrays
    // below.
    SRPP_CHECK(u < n && v < n)
        << "ApplyPartnerCap: pair (" << u << ", " << v
        << ") out of range for n=" << n;
    ++partner_count[u];
    ++partner_count[v];
  }
  bool any_over = false;
  for (uint32_t c : partner_count) {
    if (c > cap) {
      any_over = true;
      break;
    }
  }
  if (!any_over) return;

  // Per-node cutoff: the cap-th largest incident score (nodes under the
  // cap keep everything).
  std::vector<std::vector<double>> node_scores(n);
  for (size_t i = 0; i < store->size(); ++i) {
    uint32_t u = PairStore::KeyLower(store->key(i));
    uint32_t v = PairStore::KeyUpper(store->key(i));
    if (partner_count[u] > cap) node_scores[u].push_back(store->value(i));
    if (partner_count[v] > cap) node_scores[v].push_back(store->value(i));
  }
  std::vector<double> cutoff(n, 0.0);
  for (size_t u = 0; u < n; ++u) {
    auto& scores = node_scores[u];
    if (scores.size() <= cap) continue;
    std::nth_element(scores.begin(), scores.begin() + (cap - 1),
                     scores.end(), std::greater<double>());
    cutoff[u] = scores[cap - 1];
  }

  // A pair survives when it makes the top-K of either endpoint; this keeps
  // the store symmetric without orphaning one direction.
  store->Filter([&](uint64_t key, double score) {
    uint32_t u = PairStore::KeyLower(key);
    uint32_t v = PairStore::KeyUpper(key);
    bool keep_u = partner_count[u] <= cap || score >= cutoff[u];
    bool keep_v = partner_count[v] <= cap || score >= cutoff[v];
    return keep_u || keep_v;
  });
}

void SparseSimRankEngine::MarkTouched(const PairStore& old_store,
                                      const PairStore& new_store,
                                      double threshold,
                                      std::vector<uint8_t>* touched) {
  auto mark = [&](uint64_t key, double diff) {
    if (std::fabs(diff) > threshold) {
      (*touched)[PairStore::KeyLower(key)] = 1;
      (*touched)[PairStore::KeyUpper(key)] = 1;
    }
  };
  size_t i = 0;
  size_t j = 0;
  while (i < old_store.size() || j < new_store.size()) {
    if (j == new_store.size() ||
        (i < old_store.size() && old_store.key(i) < new_store.key(j))) {
      mark(old_store.key(i), old_store.value(i));
      ++i;
    } else if (i == old_store.size() || new_store.key(j) < old_store.key(i)) {
      mark(new_store.key(j), new_store.value(j));
      ++j;
    } else {
      mark(old_store.key(i), old_store.value(i) - new_store.value(j));
      ++i;
      ++j;
    }
  }
}

void SparseSimRankEngine::ComputeDirty(
    bool query_side, const std::vector<uint8_t>& touched_opposite,
    std::vector<uint8_t>* dirty) const {
  const SideAdjacency& adj = query_side ? side_query_ : side_ad_;
  size_t n = adj.offsets.size() - 1;
  dirty->assign(n, 0);
  for (uint32_t u = 0; u < n; ++u) {
    for (uint32_t mid : adj.Neighbors(u)) {
      if (touched_opposite[mid]) {
        (*dirty)[u] = 1;
        break;
      }
    }
  }
}

void SparseSimRankEngine::ExpandNewPairs(const PairStore& new_store,
                                         bool store_is_query_side) {
  std::vector<uint64_t>& ever =
      store_is_query_side ? ever_scored_query_ : ever_scored_ad_;
  // A scored pair on this side opens candidates on the opposite side.
  std::vector<uint64_t>& overlay =
      store_is_query_side ? overlay_ad_ : overlay_query_;
  const CandidateIndex& opposite_base =
      store_is_query_side ? base_ad_ : base_query_;
  const SideAdjacency& adj = store_is_query_side ? side_query_ : side_ad_;

  std::vector<uint64_t> fresh_keys;
  {
    std::span<const uint64_t> keys = new_store.keys();
    size_t i = 0;
    for (uint64_t key : keys) {
      while (i < ever.size() && ever[i] < key) ++i;
      if (i == ever.size() || ever[i] != key) fresh_keys.push_back(key);
    }
  }
  if (fresh_keys.empty()) return;

  std::vector<uint64_t> expanded;
  expanded.reserve(fresh_keys.size() * 4);
  for (uint64_t key : fresh_keys) {
    uint32_t a = PairStore::KeyLower(key);
    uint32_t b = PairStore::KeyUpper(key);
    for (uint32_t u : adj.Neighbors(a)) {
      for (uint32_t v : adj.Neighbors(b)) {
        if (u == v) continue;
        uint64_t pair = PairStore::MakeKey(u, v);
        uint32_t lower = PairStore::KeyLower(pair);
        uint32_t upper = PairStore::KeyUpper(pair);
        // Keep the overlay disjoint from the fixed two-hop rows.
        std::span<const uint32_t> row = opposite_base.Row(lower);
        if (std::binary_search(row.begin(), row.end(), upper)) continue;
        expanded.push_back(pair);
      }
    }
  }
  std::sort(expanded.begin(), expanded.end());
  expanded.erase(std::unique(expanded.begin(), expanded.end()),
                 expanded.end());
  MergeSortedInto(std::move(expanded), &overlay);
  MergeSortedInto(std::move(fresh_keys), &ever);
}

double SparseSimRankEngine::QueryEvidenceFactor(QueryId q1, QueryId q2) const {
  return EvidenceWithFloor(graph_->CountCommonAds(q1, q2),
                           options_.evidence_formula,
                           options_.zero_evidence_floor);
}

double SparseSimRankEngine::AdEvidenceFactor(AdId a1, AdId a2) const {
  return EvidenceWithFloor(graph_->CountCommonQueries(a1, a2),
                           options_.evidence_formula,
                           options_.zero_evidence_floor);
}

double SparseSimRankEngine::RawQueryScore(QueryId q1, QueryId q2) const {
  return query_scores_.Lookup(q1, q2);
}

double SparseSimRankEngine::QueryScore(QueryId q1, QueryId q2) const {
  if (q1 == q2) return 1.0;
  double raw = query_scores_.Lookup(q1, q2);
  if (options_.variant == SimRankVariant::kEvidence && raw != 0.0) {
    return QueryEvidenceFactor(q1, q2) * raw;
  }
  return raw;
}

double SparseSimRankEngine::AdScore(AdId a1, AdId a2) const {
  if (a1 == a2) return 1.0;
  double raw = ad_scores_.Lookup(a1, a2);
  if (options_.variant == SimRankVariant::kEvidence && raw != 0.0) {
    return AdEvidenceFactor(a1, a2) * raw;
  }
  return raw;
}

SimilarityMatrix SparseSimRankEngine::ExportQueryScores(
    double min_score) const {
  SimilarityMatrix matrix(graph_->num_queries());
  for (size_t i = 0; i < query_scores_.size(); ++i) {
    uint32_t u = PairStore::KeyLower(query_scores_.key(i));
    uint32_t v = PairStore::KeyUpper(query_scores_.key(i));
    double score = query_scores_.value(i);
    if (options_.variant == SimRankVariant::kEvidence) {
      score = QueryEvidenceFactor(u, v) * score;
    }
    if (score >= min_score && score != 0.0) matrix.Set(u, v, score);
  }
  matrix.Finalize();
  return matrix;
}

SimilarityMatrix SparseSimRankEngine::ExportAdScores(double min_score) const {
  SimilarityMatrix matrix(graph_->num_ads());
  for (size_t i = 0; i < ad_scores_.size(); ++i) {
    uint32_t u = PairStore::KeyLower(ad_scores_.key(i));
    uint32_t v = PairStore::KeyUpper(ad_scores_.key(i));
    double score = ad_scores_.value(i);
    if (options_.variant == SimRankVariant::kEvidence) {
      score = AdEvidenceFactor(u, v) * score;
    }
    if (score >= min_score && score != 0.0) matrix.Set(u, v, score);
  }
  matrix.Finalize();
  return matrix;
}

}  // namespace simrankpp
