// Rewrite candidate record flowing through the selection pipeline.
#ifndef SIMRANKPP_REWRITE_CANDIDATE_H_
#define SIMRANKPP_REWRITE_CANDIDATE_H_

#include <string>
#include <vector>

#include "graph/bipartite_graph.h"

namespace simrankpp {

/// \brief One candidate rewrite for an input query.
struct RewriteCandidate {
  /// Node id of the rewrite within the click graph the scores came from.
  QueryId query = 0;
  /// Surface text of the rewrite.
  std::string text;
  /// Similarity score under the producing method.
  double score = 0.0;

  bool operator==(const RewriteCandidate&) const = default;
};

/// \brief Why a candidate was dropped, for pipeline introspection.
enum class DropReason {
  kKept,
  kDuplicateOfQuery,     // stems to the original query
  kDuplicateOfEarlier,   // stems to a higher-ranked candidate
  kNoBid,                // failed the bid-term filter
  kBeyondDepth,          // ranked past the rewrite limit
};

const char* DropReasonName(DropReason reason);

/// \brief Candidate plus its pipeline outcome (for debugging/reports).
struct AuditedCandidate {
  RewriteCandidate candidate;
  DropReason outcome = DropReason::kKept;

  bool operator==(const AuditedCandidate&) const = default;
};

}  // namespace simrankpp

#endif  // SIMRANKPP_REWRITE_CANDIDATE_H_
