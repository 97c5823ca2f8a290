#include "core/snapshot.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <vector>

#include "util/string_util.h"
#include "util/thread_pool.h"

namespace simrankpp {

namespace {

// Layout constants (documented in docs/SNAPSHOT_FORMAT.md). All integers
// are little-endian regardless of host byte order; doubles are stored as
// their IEEE-754 bit pattern so a round trip is exact.
constexpr char kMagic[8] = {'S', 'R', 'P', 'P', 'S', 'I', 'M', '\0'};
constexpr size_t kMagicBytes = sizeof(kMagic);
constexpr size_t kChecksumBytes = 8;
// Magic + version + side + name_len (the name itself follows).
constexpr size_t kFixedPrefixBytes = kMagicBytes + 4 + 4 + 4;
constexpr size_t kPairRecordBytes = 4 + 4 + 8;
// Records per serialization chunk: big enough that chunk bookkeeping is
// noise, small enough that the encode pass parallelizes on mid-sized
// matrices.
constexpr size_t kRecordsPerChunk = 1 << 15;

// FNV-1a 64: tiny, dependency-free, and plenty to catch the truncation
// and bit-rot failures a serving process must refuse to load. Inherently
// sequential (each step is (hash ^ byte) * prime), which is why the
// parallel writer below parallelizes the record encoding but not this.
uint64_t Fnv1a64(const char* data, size_t size) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (size_t i = 0; i < size; ++i) {
    hash ^= static_cast<unsigned char>(data[i]);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

void AppendU32(std::string* out, uint32_t value) {
  for (int shift = 0; shift < 32; shift += 8) {
    out->push_back(static_cast<char>((value >> shift) & 0xff));
  }
}

void AppendU64(std::string* out, uint64_t value) {
  for (int shift = 0; shift < 64; shift += 8) {
    out->push_back(static_cast<char>((value >> shift) & 0xff));
  }
}

// In-place little-endian stores for the parallel encode pass: every pair
// record has a precomputed offset, so chunks write disjoint ranges.
void StoreU32(char* out, uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    out[i] = static_cast<char>((value >> (8 * i)) & 0xff);
  }
}

void StoreU64(char* out, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    out[i] = static_cast<char>((value >> (8 * i)) & 0xff);
  }
}

void StoreDouble(char* out, double value) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  StoreU64(out, bits);
}

// Bounded little-endian readers over an in-memory file image. The cursor
// never reads past `size`; callers check Ok() once after a parse group.
class Reader {
 public:
  Reader(const char* data, size_t size) : data_(data), size_(size) {}

  uint32_t ReadU32() { return static_cast<uint32_t>(ReadLittleEndian(4)); }
  uint64_t ReadU64() { return ReadLittleEndian(8); }

  double ReadDouble() {
    uint64_t bits = ReadU64();
    double value;
    std::memcpy(&value, &bits, sizeof(value));
    return value;
  }

  std::string ReadBytes(size_t count) {
    if (size_ - pos_ < count) {
      truncated_ = true;
      pos_ = size_;
      return {};
    }
    std::string out(data_ + pos_, count);
    pos_ += count;
    return out;
  }

  bool ok() const { return !truncated_; }
  size_t position() const { return pos_; }

 private:
  uint64_t ReadLittleEndian(size_t bytes) {
    if (size_ - pos_ < bytes) {
      truncated_ = true;
      pos_ = size_;
      return 0;
    }
    uint64_t value = 0;
    for (size_t i = 0; i < bytes; ++i) {
      value |= static_cast<uint64_t>(
                   static_cast<unsigned char>(data_[pos_ + i]))
               << (8 * i);
    }
    pos_ += bytes;
    return value;
  }

  const char* data_;
  size_t size_;
  size_t pos_ = 0;
  bool truncated_ = false;
};

Result<std::string> ReadFileBytes(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return Status::IOError("cannot open snapshot file: " + path);
  }
  std::string content;
  char buffer[1 << 16];
  size_t read;
  while ((read = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    content.append(buffer, read);
  }
  bool failed = std::ferror(file) != 0;
  std::fclose(file);
  if (failed) {
    return Status::IOError("read failure on snapshot file: " + path);
  }
  return content;
}

// Parses and validates everything up to the pair payload. On success the
// reader is positioned at the first pair record.
Result<SnapshotInfo> ParseHeader(const std::string& content,
                                 const std::string& path, Reader* reader) {
  if (content.size() < kFixedPrefixBytes + kChecksumBytes) {
    return Status::InvalidArgument(StringPrintf(
        "snapshot %s is truncated: %zu bytes is smaller than the smallest "
        "valid snapshot",
        path.c_str(), content.size()));
  }
  if (std::memcmp(content.data(), kMagic, kMagicBytes) != 0) {
    return Status::InvalidArgument(
        "not a simrankpp similarity snapshot (bad magic): " + path);
  }
  // The trailing checksum covers every preceding byte; verify before
  // trusting any variable-length field.
  size_t payload_bytes = content.size() - kChecksumBytes;
  uint64_t expected =
      Reader(content.data() + payload_bytes, kChecksumBytes).ReadU64();
  uint64_t actual = Fnv1a64(content.data(), payload_bytes);
  if (expected != actual) {
    return Status::InvalidArgument(StringPrintf(
        "snapshot %s is corrupt: checksum mismatch (stored %016llx, "
        "computed %016llx)",
        path.c_str(), static_cast<unsigned long long>(expected),
        static_cast<unsigned long long>(actual)));
  }

  SnapshotInfo info;
  info.file_bytes = content.size();
  info.checksum = expected;
  reader->ReadBytes(kMagicBytes);  // magic, already checked
  info.version = reader->ReadU32();
  if (info.version != kSnapshotFormatVersion) {
    return Status::InvalidArgument(StringPrintf(
        "snapshot %s has format version %u; this build reads only "
        "version %u",
        path.c_str(), info.version, kSnapshotFormatVersion));
  }
  uint32_t side = reader->ReadU32();
  if (side > static_cast<uint32_t>(SnapshotSide::kAdAd)) {
    return Status::InvalidArgument(StringPrintf(
        "snapshot %s is corrupt: unknown side tag %u", path.c_str(), side));
  }
  info.side = static_cast<SnapshotSide>(side);
  uint32_t name_bytes = reader->ReadU32();
  info.method_name = reader->ReadBytes(name_bytes);
  info.num_nodes = reader->ReadU64();
  info.num_pairs = reader->ReadU64();
  if (!reader->ok()) {
    return Status::InvalidArgument("snapshot header is truncated: " + path);
  }
  size_t body_bytes = payload_bytes - reader->position();
  if (info.num_pairs > body_bytes / kPairRecordBytes ||
      info.num_pairs * kPairRecordBytes != body_bytes) {
    return Status::InvalidArgument(StringPrintf(
        "snapshot %s is corrupt: header promises %llu pairs but the file "
        "holds %zu payload bytes",
        path.c_str(), static_cast<unsigned long long>(info.num_pairs),
        body_bytes));
  }
  return info;
}

}  // namespace

const char* SnapshotSideName(SnapshotSide side) {
  return side == SnapshotSide::kAdAd ? "ad-ad" : "query-query";
}

std::string SerializeSnapshot(const SimilarityMatrix& matrix,
                              const std::string& method_name,
                              SnapshotSide side) {
  // Canonical pair order: ascending (u << 32 | v) key with u < v. Equal
  // matrices therefore serialize to identical bytes, which is what makes
  // the CI round-trip check meaningful.
  struct PairRecord {
    uint32_t u;
    uint32_t v;
    double score;
  };
  std::vector<PairRecord> pairs;
  pairs.reserve(matrix.num_pairs());
  matrix.ForEachPair([&pairs](uint32_t u, uint32_t v, double score) {
    pairs.push_back({u, v, score});
  });
  auto by_key = [](const PairRecord& a, const PairRecord& b) {
    return a.u != b.u ? a.u < b.u : a.v < b.v;
  };

  // The sort and the record-encoding pass dominate large writes; both are
  // sharded on the shared pool. The chunk partition depends only on the
  // pair count (ParallelForChunked's contract), each record is encoded at
  // a precomputed offset, and adjacent sorted chunks are merged in a
  // fixed order — so the byte stream is identical for any thread count,
  // including a small matrix's single chunk, which runs on the caller.
  size_t num_chunks =
      std::max<size_t>(1, (pairs.size() + kRecordsPerChunk - 1) /
                              kRecordsPerChunk);
  ThreadPool& pool = SharedThreadPool();
  pool.ParallelForChunked(
      pairs.size(), num_chunks, [&](size_t, size_t begin, size_t end) {
        std::sort(pairs.begin() + static_cast<ptrdiff_t>(begin),
                  pairs.begin() + static_cast<ptrdiff_t>(end), by_key);
      });
  // Merge sorted chunks pairwise (serial; the merges are cheap relative
  // to the chunk sorts and their order is fixed).
  size_t chunk_span = pairs.empty()
                          ? 0
                          : (pairs.size() + num_chunks - 1) / num_chunks;
  for (size_t width = chunk_span; width != 0 && width < pairs.size();
       width *= 2) {
    for (size_t begin = 0; begin + width < pairs.size(); begin += 2 * width) {
      size_t mid = begin + width;
      size_t end = std::min(begin + 2 * width, pairs.size());
      std::inplace_merge(pairs.begin() + static_cast<ptrdiff_t>(begin),
                         pairs.begin() + static_cast<ptrdiff_t>(mid),
                         pairs.begin() + static_cast<ptrdiff_t>(end),
                         by_key);
    }
  }

  std::string buffer;
  buffer.reserve(kFixedPrefixBytes + method_name.size() + 16 +
                 pairs.size() * kPairRecordBytes + kChecksumBytes);
  buffer.append(kMagic, kMagicBytes);
  AppendU32(&buffer, kSnapshotFormatVersion);
  AppendU32(&buffer, static_cast<uint32_t>(side));
  AppendU32(&buffer, static_cast<uint32_t>(method_name.size()));
  buffer.append(method_name);
  AppendU64(&buffer, matrix.num_nodes());
  AppendU64(&buffer, pairs.size());

  size_t records_at = buffer.size();
  buffer.resize(records_at + pairs.size() * kPairRecordBytes);
  char* records = buffer.data() + records_at;
  pool.ParallelForChunked(
      pairs.size(), num_chunks, [&](size_t, size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          char* out = records + i * kPairRecordBytes;
          StoreU32(out, pairs[i].u);
          StoreU32(out + 4, pairs[i].v);
          StoreDouble(out + 8, pairs[i].score);
        }
      });

  AppendU64(&buffer, Fnv1a64(buffer.data(), buffer.size()));
  return buffer;
}

Status SaveSnapshot(const SimilarityMatrix& matrix,
                    const std::string& method_name, const std::string& path,
                    SnapshotSide side) {
  std::string buffer = SerializeSnapshot(matrix, method_name, side);

  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return Status::IOError("cannot create snapshot file: " + path);
  }
  size_t written = std::fwrite(buffer.data(), 1, buffer.size(), file);
  int close_rc = std::fclose(file);  // always close, even after a short write
  if (written != buffer.size() || close_rc != 0) {
    std::remove(path.c_str());
    return Status::IOError("write failure on snapshot file: " + path);
  }
  return Status::OK();
}

Result<SimilaritySnapshot> LoadSnapshot(const std::string& path) {
  SRPP_ASSIGN_OR_RETURN(std::string content, ReadFileBytes(path));
  Reader reader(content.data(), content.size());
  SRPP_ASSIGN_OR_RETURN(SnapshotInfo info,
                        ParseHeader(content, path, &reader));

  SimilaritySnapshot snapshot;
  snapshot.method_name = info.method_name;
  snapshot.side = info.side;
  snapshot.checksum = info.checksum;
  snapshot.matrix = SimilarityMatrix(info.num_nodes);
  for (uint64_t i = 0; i < info.num_pairs; ++i) {
    uint32_t u = reader.ReadU32();
    uint32_t v = reader.ReadU32();
    double score = reader.ReadDouble();
    // ParseHeader already sized the payload, so these reads cannot run
    // short; the value checks below reject well-formed files with
    // impossible contents.
    if (u >= info.num_nodes || v >= info.num_nodes || u == v) {
      return Status::InvalidArgument(StringPrintf(
          "snapshot %s is corrupt: pair %llu references nodes (%u, %u) "
          "outside [0, %llu)",
          path.c_str(), static_cast<unsigned long long>(i), u, v,
          static_cast<unsigned long long>(info.num_nodes)));
    }
    if (score == 0.0) {
      return Status::InvalidArgument(StringPrintf(
          "snapshot %s is corrupt: pair (%u, %u) stores a zero score",
          path.c_str(), u, v));
    }
    snapshot.matrix.Set(u, v, score);
  }
  return snapshot;
}

Result<SnapshotInfo> ReadSnapshotInfo(const std::string& path) {
  SRPP_ASSIGN_OR_RETURN(std::string content, ReadFileBytes(path));
  Reader reader(content.data(), content.size());
  return ParseHeader(content, path, &reader);
}

}  // namespace simrankpp
