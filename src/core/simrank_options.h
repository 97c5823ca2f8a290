/// @file simrank_options.h
/// @brief Options and post-run diagnostics shared by all SimRank engine
/// variants (decay factors, iteration budget, evidence formula, pruning).
#ifndef SIMRANKPP_CORE_SIMRANK_OPTIONS_H_
#define SIMRANKPP_CORE_SIMRANK_OPTIONS_H_

#include <cstddef>
#include <string>

#include "util/status.h"

namespace simrankpp {

/// \brief Which similarity recursion to run.
enum class SimRankVariant {
  /// Plain bipartite SimRank (paper Eqs. 4.1 / 4.2).
  kSimRank,
  /// Plain SimRank scores post-multiplied by evidence (Eqs. 7.5 / 7.6).
  kEvidence,
  /// Weighted SimRank: evidence inside the recursion and W(q,i) transition
  /// factors replacing the uniform 1/N normalization (Section 8.2).
  kWeighted,
};

/// \brief The two evidence formulas of Section 7.
enum class EvidenceFormula {
  /// Eq. 7.3: sum_{i=1..n} 2^-i = 1 - 2^-n.
  kGeometric,
  /// Eq. 7.4: 1 - e^-n.
  kExponential,
};

const char* SimRankVariantName(SimRankVariant variant);

/// \brief Tuning knobs for the engines. Defaults follow the paper: decay
/// factors C1 = C2 = 0.8 and a small fixed iteration count.
struct SimRankOptions {
  SimRankVariant variant = SimRankVariant::kSimRank;
  EvidenceFormula evidence_formula = EvidenceFormula::kGeometric;

  /// Decay factor C1 of the query-side equation (Eq. 4.1).
  double c1 = 0.8;
  /// Decay factor C2 of the ad-side equation (Eq. 4.2).
  double c2 = 0.8;

  /// Number of SimRank iterations (the paper's tables use up to 7;
  /// Table 2 reports converged scores, reached well within ~25).
  size_t iterations = 7;

  /// Early-exit when the largest per-pair change falls below this bound
  /// (0 disables early exit).
  double convergence_epsilon = 0.0;

  /// Evidence factor used for pairs with zero common neighbors. The
  /// paper's Eq. 7.3 gives an empty sum (0) there, which would erase the
  /// indirect similarities SimRank exists to find (e.g. "pc"-"tv" in
  /// Fig. 3) and contradict the reported 99% coverage. We therefore scale
  /// such pairs by a uniform floor below the one-common-ad factor (0.5),
  /// preserving their relative order while ranking them beneath directly
  /// evidenced pairs. Set to 0 for the literal formula.
  double zero_evidence_floor = 0.25;

  /// Sparse engine: drop pair scores below this value after each
  /// iteration. 0 keeps everything (exact but memory-hungry).
  double prune_threshold = 1e-4;

  /// Sparse engine: cap on stored partners per node (0 = unlimited).
  size_t max_partners_per_node = 1000;

  /// Sparse engine: delta-driven rescoring. From the third iteration on,
  /// a pair is only rescored when some opposite-side pair in its
  /// neighborhood changed by more than convergence_epsilon / 10 in the
  /// previous iteration; untouched pairs reuse their previous score.
  /// With convergence_epsilon == 0 (the default) the change threshold is
  /// exact — any bitwise difference counts as a change — so results are
  /// bit-identical to a full rescore; with convergence_epsilon > 0 the
  /// skip tolerance sits an order of magnitude under the convergence
  /// tolerance the caller already accepted. Off = rescore every candidate
  /// pair every iteration.
  bool incremental = true;

  /// Linearized engine: truncation depth T of the power-series
  /// evaluation. The omitted tail is bounded by
  /// (C1*C2)^(T+1) / (1 - C1*C2) — at the paper defaults C1 = C2 = 0.8
  /// the default depth keeps it under ~2e-4 (docs/LINEARIZED_ENGINE.md).
  size_t linearized_series_depth = 20;

  /// Linearized engine: the diagonal-correction estimation stops once the
  /// largest violation of the diag(S) = 1 condition falls below this.
  double linearized_diag_tolerance = 1e-4;

  /// Worker threads for the iteration loops (0 = hardware concurrency,
  /// 1 = single-threaded). Engines borrow the process-wide shared pool
  /// (SharedThreadPool) capped at this many participating threads rather
  /// than constructing their own. Every engine shards work
  /// deterministically — the partition never depends on the thread count
  /// and per-shard results are merged in a fixed order — so exported
  /// scores are bit-identical for every value of this knob.
  size_t num_threads = 1;

  /// \brief Validates ranges (decays in (0,1], thresholds >= 0, ...).
  Status Validate() const;
};

/// \brief Post-run diagnostics reported by every engine.
struct SimRankStats {
  size_t iterations_run = 0;
  /// Largest per-pair score change in the final iteration.
  double last_delta = 0.0;
  /// Stored query-query / ad-ad pairs after pruning.
  size_t query_pairs = 0;
  size_t ad_pairs = 0;
  /// Threads that actually participated in the run: the resolved
  /// num_threads request, clamped to the shared pool's workers plus the
  /// calling thread (requests beyond hardware concurrency cannot
  /// oversubscribe the shared pool).
  size_t threads_used = 0;
  /// Sparse engine, cumulative over all iterations: candidate pairs whose
  /// score was actually recomputed vs. carried over unchanged by the
  /// delta-driven skip (SimRankOptions::incremental). Zero for engines
  /// without an incremental path.
  size_t rescored_pairs = 0;
  size_t reused_pairs = 0;
  double elapsed_seconds = 0.0;
  /// SIMD dispatch level the kernels ran at ("scalar", "avx2",
  /// "avx512"). Empty for engines that predate the kernel layer.
  std::string simd_level;

  std::string ToString() const;
};

}  // namespace simrankpp

#endif  // SIMRANKPP_CORE_SIMRANK_OPTIONS_H_
