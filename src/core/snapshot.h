/// @file snapshot.h
/// @brief Binary snapshot format for SimilarityMatrix.
///
/// A snapshot separates the offline SimRank computation from the serving
/// path (the paper's Figure 2 split): `compute` writes the finalized
/// similarity scores to disk, and a serving process reloads them into a
/// RewriteService without re-running any engine. The format is versioned,
/// checksummed, and byte-deterministic — the same matrix always serializes
/// to the same bytes, and a round trip reproduces every score
/// bit-for-bit. A side tag lets one file format carry both query–query
/// and ad–ad scores. See docs/SNAPSHOT_FORMAT.md for the exact layout.
#ifndef SIMRANKPP_CORE_SNAPSHOT_H_
#define SIMRANKPP_CORE_SNAPSHOT_H_

#include <cstdint>
#include <string>

#include "core/similarity_matrix.h"
#include "util/status.h"

namespace simrankpp {

/// \brief The format version writers emit and readers accept; any other
/// version is rejected with an error naming both versions.
inline constexpr uint32_t kSnapshotFormatVersion = 2;

/// \brief Which node set a similarity snapshot's scores range over. The
/// serving layer uses the same tag to pick labels and text lookup
/// (query_label/FindQuery vs ad_label/FindAd).
enum class SnapshotSide : uint32_t {
  kQueryQuery = 0,
  kAdAd = 1,
};

/// \brief Human-readable side name: "query-query" or "ad-ad".
const char* SnapshotSideName(SnapshotSide side);

/// \brief Header fields of a snapshot file, readable without trusting the
/// payload (ReadSnapshotInfo still verifies the checksum).
struct SnapshotInfo {
  uint32_t version = 0;
  SnapshotSide side = SnapshotSide::kQueryQuery;
  /// The similarity method that produced the scores ("weighted Simrank",
  /// "Pearson", ...), as recorded by the writer.
  std::string method_name;
  uint64_t num_nodes = 0;
  uint64_t num_pairs = 0;
  /// FNV-1a 64 over everything before the trailing checksum field.
  uint64_t checksum = 0;
  uint64_t file_bytes = 0;
};

/// \brief A loaded snapshot: the method label, side tag, checksum of the
/// file it came from, and the scores.
struct SimilaritySnapshot {
  std::string method_name;
  SnapshotSide side = SnapshotSide::kQueryQuery;
  uint64_t checksum = 0;
  SimilarityMatrix matrix;
};

/// \brief Serializes `matrix` to the snapshot byte stream without touching
/// the filesystem. The stored pair order is canonical (ascending node-pair
/// key), so equal matrices produce identical bytes. The record-encoding
/// pass is parallelized on the shared thread pool; the output is
/// byte-identical for any thread count (each record lands at a
/// precomputed offset).
std::string SerializeSnapshot(const SimilarityMatrix& matrix,
                              const std::string& method_name,
                              SnapshotSide side = SnapshotSide::kQueryQuery);

/// \brief Writes `matrix` (with its producing method's name and side tag)
/// to `path`. IOError on filesystem failures.
Status SaveSnapshot(const SimilarityMatrix& matrix,
                    const std::string& method_name, const std::string& path,
                    SnapshotSide side = SnapshotSide::kQueryQuery);

/// \brief Reads a snapshot back. The returned matrix is not finalized
/// (call Finalize() before TopK). Fails with a descriptive Status — never
/// crashes — on missing files (IOError), foreign or truncated files,
/// version mismatches, and checksum failures (InvalidArgument).
Result<SimilaritySnapshot> LoadSnapshot(const std::string& path);

/// \brief Reads and verifies the header + checksum only (the pair payload
/// is scanned for the checksum but not materialized into a matrix).
Result<SnapshotInfo> ReadSnapshotInfo(const std::string& path);

}  // namespace simrankpp

#endif  // SIMRANKPP_CORE_SNAPSHOT_H_
