// Snapshot format tests: bit-exact round trips, byte determinism, header
// introspection, and — the part a serving process depends on — clear
// Status errors (never crashes) for missing, foreign, truncated, and
// corrupted files.
#include "core/snapshot.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

namespace simrankpp {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// A matrix with awkward values: denormal-adjacent, negative (Pearson),
// and exactly-representable scores.
SimilarityMatrix SampleMatrix() {
  SimilarityMatrix matrix(6);
  matrix.Set(0, 1, 0.625);
  matrix.Set(0, 5, 1e-300);
  matrix.Set(1, 2, -0.333333333333333314829616256247390992939472198486328125);
  matrix.Set(2, 3, 0.1);  // not exactly representable
  matrix.Set(4, 5, 1.0);
  return matrix;
}

class SnapshotTest : public ::testing::Test {
 protected:
  // Unique file per test case: ctest runs every case in its own process,
  // possibly in parallel, so a shared name would race.
  void SetUp() override {
    path_ = TempPath(
        std::string("snapshot_test_") +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() +
        ".snap");
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

TEST_F(SnapshotTest, RoundTripIsBitExact) {
  SimilarityMatrix original = SampleMatrix();
  ASSERT_TRUE(SaveSnapshot(original, "weighted Simrank", path_).ok());

  Result<SimilaritySnapshot> loaded = LoadSnapshot(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->method_name, "weighted Simrank");
  EXPECT_EQ(loaded->matrix.num_nodes(), original.num_nodes());
  EXPECT_EQ(loaded->matrix.num_pairs(), original.num_pairs());
  // MaxAbsDifference == 0.0 is exact equality over the pair union.
  EXPECT_EQ(loaded->matrix.MaxAbsDifference(original), 0.0);
  EXPECT_EQ(loaded->matrix.Get(0, 5), 1e-300);
  EXPECT_LT(loaded->matrix.Get(1, 2), 0.0);
}

TEST_F(SnapshotTest, SerializationIsByteDeterministic) {
  ASSERT_TRUE(SaveSnapshot(SampleMatrix(), "m", path_).ok());
  std::string first = ReadAll(path_);
  // Same matrix built in a different insertion order.
  SimilarityMatrix reordered(6);
  reordered.Set(4, 5, 1.0);
  reordered.Set(2, 3, 0.1);
  reordered.Set(1, 2,
                -0.333333333333333314829616256247390992939472198486328125);
  reordered.Set(0, 5, 1e-300);
  reordered.Set(0, 1, 0.625);
  ASSERT_TRUE(SaveSnapshot(reordered, "m", path_).ok());
  EXPECT_EQ(ReadAll(path_), first);
  EXPECT_FALSE(first.empty());
}

TEST_F(SnapshotTest, EmptyMatrixRoundTrips) {
  ASSERT_TRUE(SaveSnapshot(SimilarityMatrix(17), "empty", path_).ok());
  Result<SimilaritySnapshot> loaded = LoadSnapshot(path_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->matrix.num_nodes(), 17u);
  EXPECT_EQ(loaded->matrix.num_pairs(), 0u);
}

TEST_F(SnapshotTest, InfoReportsHeaderFields) {
  ASSERT_TRUE(SaveSnapshot(SampleMatrix(), "Pearson", path_).ok());
  Result<SnapshotInfo> info = ReadSnapshotInfo(path_);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->version, kSnapshotFormatVersion);
  EXPECT_EQ(info->method_name, "Pearson");
  EXPECT_EQ(info->num_nodes, 6u);
  EXPECT_EQ(info->num_pairs, 5u);
  EXPECT_EQ(info->file_bytes, ReadAll(path_).size());
}

TEST_F(SnapshotTest, MissingFileIsIOError) {
  Result<SimilaritySnapshot> loaded = LoadSnapshot(TempPath("nope.snap"));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
}

TEST_F(SnapshotTest, ForeignFileIsRejectedByMagic) {
  WriteAll(path_, "query\tad\t3\t1\t0.5\nthis is a TSV, not a snapshot\n");
  Result<SimilaritySnapshot> loaded = LoadSnapshot(path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("magic"), std::string::npos);
}

TEST_F(SnapshotTest, EveryTruncationFailsCleanly) {
  ASSERT_TRUE(SaveSnapshot(SampleMatrix(), "m", path_).ok());
  std::string intact = ReadAll(path_);
  // Chop the file at every length; no prefix may load or crash.
  for (size_t keep = 0; keep < intact.size(); ++keep) {
    WriteAll(path_, intact.substr(0, keep));
    Result<SimilaritySnapshot> loaded = LoadSnapshot(path_);
    ASSERT_FALSE(loaded.ok()) << "truncated to " << keep << " bytes";
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
    ASSERT_FALSE(ReadSnapshotInfo(path_).ok());
  }
}

TEST_F(SnapshotTest, EveryFlippedByteFailsTheChecksum) {
  ASSERT_TRUE(SaveSnapshot(SampleMatrix(), "m", path_).ok());
  std::string intact = ReadAll(path_);
  for (size_t i = 0; i < intact.size(); ++i) {
    std::string corrupt = intact;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x40);
    WriteAll(path_, corrupt);
    Result<SimilaritySnapshot> loaded = LoadSnapshot(path_);
    ASSERT_FALSE(loaded.ok()) << "flip at byte " << i;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
        << "flip at byte " << i;
  }
}

TEST_F(SnapshotTest, FutureVersionIsRejectedWithBothVersions) {
  ASSERT_TRUE(SaveSnapshot(SampleMatrix(), "m", path_).ok());
  std::string bytes = ReadAll(path_);
  // Version is the little-endian u32 after the 8-byte magic; bump it and
  // re-stamp the trailing checksum so only the version check can fire.
  bytes[8] = static_cast<char>(kSnapshotFormatVersion + 1);
  uint64_t hash = 0xcbf29ce484222325ull;
  for (size_t i = 0; i + 8 < bytes.size(); ++i) {
    hash ^= static_cast<unsigned char>(bytes[i]);
    hash *= 0x100000001b3ull;
  }
  for (int b = 0; b < 8; ++b) {
    bytes[bytes.size() - 8 + b] = static_cast<char>((hash >> (8 * b)) & 0xff);
  }
  WriteAll(path_, bytes);
  Result<SimilaritySnapshot> loaded = LoadSnapshot(path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  // The message names the file's version and the one this build reads.
  EXPECT_NE(loaded.status().message().find("version 3"), std::string::npos);
  EXPECT_NE(loaded.status().message().find("reads only version 2"),
            std::string::npos);
}

TEST_F(SnapshotTest, SideTagRoundTrips) {
  ASSERT_TRUE(SaveSnapshot(SampleMatrix(), "Simrank", path_,
                           SnapshotSide::kAdAd)
                  .ok());
  Result<SimilaritySnapshot> loaded = LoadSnapshot(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->side, SnapshotSide::kAdAd);
  Result<SnapshotInfo> info = ReadSnapshotInfo(path_);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->side, SnapshotSide::kAdAd);
  EXPECT_EQ(info->version, kSnapshotFormatVersion);
  // The default is query-query.
  ASSERT_TRUE(SaveSnapshot(SampleMatrix(), "Simrank", path_).ok());
  EXPECT_EQ(LoadSnapshot(path_)->side, SnapshotSide::kQueryQuery);
}

TEST_F(SnapshotTest, UnknownSideTagIsRejected) {
  ASSERT_TRUE(SaveSnapshot(SampleMatrix(), "m", path_).ok());
  std::string bytes = ReadAll(path_);
  // Side is the u32 after magic + version; 2 is out of range. Re-stamp
  // the checksum so only the side check can fire.
  bytes[12] = 2;
  uint64_t hash = 0xcbf29ce484222325ull;
  for (size_t i = 0; i + 8 < bytes.size(); ++i) {
    hash ^= static_cast<unsigned char>(bytes[i]);
    hash *= 0x100000001b3ull;
  }
  for (int b = 0; b < 8; ++b) {
    bytes[bytes.size() - 8 + b] = static_cast<char>((hash >> (8 * b)) & 0xff);
  }
  WriteAll(path_, bytes);
  Result<SimilaritySnapshot> loaded = LoadSnapshot(path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("side"), std::string::npos);
}

// Serializes SampleMatrix by hand in the version-1 layout (no side
// field, otherwise well formed and correctly checksummed). Readers take
// only the current version, so the file is refused with an error that
// names version 1 — not misparsed as a corrupt version-2 file.
TEST_F(SnapshotTest, VersionOneFilesAreRejected) {
  SimilarityMatrix original = SampleMatrix();
  std::string bytes;
  bytes.append("SRPPSIM\0", 8);
  auto append_u32 = [&bytes](uint32_t value) {
    for (int shift = 0; shift < 32; shift += 8) {
      bytes.push_back(static_cast<char>((value >> shift) & 0xff));
    }
  };
  auto append_u64 = [&bytes](uint64_t value) {
    for (int shift = 0; shift < 64; shift += 8) {
      bytes.push_back(static_cast<char>((value >> shift) & 0xff));
    }
  };
  append_u32(1);  // version 1: no side field follows
  append_u32(1);  // name_len
  bytes.push_back('m');
  append_u64(original.num_nodes());
  append_u64(original.num_pairs());
  struct Record {
    uint32_t u, v;
    double score;
  };
  std::vector<Record> records;
  original.ForEachPair([&records](uint32_t u, uint32_t v, double score) {
    records.push_back({u, v, score});
  });
  std::sort(records.begin(), records.end(),
            [](const Record& a, const Record& b) {
              return a.u != b.u ? a.u < b.u : a.v < b.v;
            });
  for (const Record& record : records) {
    append_u32(record.u);
    append_u32(record.v);
    uint64_t score_bits;
    std::memcpy(&score_bits, &record.score, sizeof(score_bits));
    append_u64(score_bits);
  }
  uint64_t hash = 0xcbf29ce484222325ull;
  for (char ch : bytes) {
    hash ^= static_cast<unsigned char>(ch);
    hash *= 0x100000001b3ull;
  }
  append_u64(hash);
  WriteAll(path_, bytes);

  Result<SimilaritySnapshot> loaded = LoadSnapshot(path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("format version 1;"),
            std::string::npos)
      << loaded.status().ToString();
  Result<SnapshotInfo> info = ReadSnapshotInfo(path_);
  ASSERT_FALSE(info.ok());
  EXPECT_EQ(info.status().message(), loaded.status().message());
}

TEST_F(SnapshotTest, SerializeMatchesSavedFileAndReportsChecksum) {
  ASSERT_TRUE(SaveSnapshot(SampleMatrix(), "m", path_,
                           SnapshotSide::kAdAd)
                  .ok());
  // SerializeSnapshot is the writer SaveSnapshot goes through; the bytes
  // must be identical (and therefore parallel-encoding-order-free).
  EXPECT_EQ(SerializeSnapshot(SampleMatrix(), "m", SnapshotSide::kAdAd),
            ReadAll(path_));
  Result<SimilaritySnapshot> loaded = LoadSnapshot(path_);
  ASSERT_TRUE(loaded.ok());
  Result<SnapshotInfo> info = ReadSnapshotInfo(path_);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(loaded->checksum, info->checksum);
  EXPECT_NE(loaded->checksum, 0u);
}

// Large enough to split into several serialization chunks (the writer
// parallelizes the sort + encode passes): the output must stay
// byte-deterministic and round-trip bit-exactly.
TEST_F(SnapshotTest, LargeMatrixParallelWriteIsDeterministic) {
  SimilarityMatrix matrix(512);
  uint64_t state = 7;
  for (size_t i = 0; i < 70000; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    uint32_t u = static_cast<uint32_t>((state >> 33) % 512);
    uint32_t v = static_cast<uint32_t>((state >> 13) % 512);
    if (u == v) continue;
    matrix.Set(u, v, 1.0 / static_cast<double>(1 + (state % 1000)));
  }
  ASSERT_GT(matrix.num_pairs(), 40000u);  // several 32768-record chunks

  ASSERT_TRUE(SaveSnapshot(matrix, "big", path_).ok());
  std::string first = ReadAll(path_);
  ASSERT_TRUE(SaveSnapshot(matrix, "big", path_).ok());
  EXPECT_EQ(ReadAll(path_), first);

  Result<SimilaritySnapshot> loaded = LoadSnapshot(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->matrix.num_pairs(), matrix.num_pairs());
  EXPECT_EQ(loaded->matrix.MaxAbsDifference(matrix), 0.0);
}

TEST_F(SnapshotTest, UnwritablePathIsIOError) {
  Status status =
      SaveSnapshot(SampleMatrix(), "m", "/no/such/directory/x.snap");
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIOError);
}

}  // namespace
}  // namespace simrankpp
