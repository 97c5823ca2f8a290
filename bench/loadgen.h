/// @file loadgen.h
/// @brief Client-side harness for the serve-daemon wire protocol: a
/// minimal blocking Client plus a multi-connection closed-loop load
/// generator.
///
/// This is the one protocol client in the tree. The daemon unit tests,
/// the e2e hammer test, the bench_perf_loadgen benchmark, and the CI
/// smoke all drive the daemon through it, so client-side encode/decode
/// bugs surface in every tier at once. It lives in bench/ but builds
/// unconditionally (the simrankpp_loadgen library) — only the bench
/// binaries are gated behind SIMRANKPP_BUILD_BENCH.
#ifndef SIMRANKPP_BENCH_LOADGEN_H_
#define SIMRANKPP_BENCH_LOADGEN_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "serve/protocol.h"
#include "util/status.h"

namespace simrankpp::loadgen {

/// \brief One decoded response frame.
struct Reply {
  FrameType type = FrameType::kError;
  WireCode code = WireCode::kOk;
  uint32_t request_id = 0;
  /// Filled for kTopKResponse.
  std::vector<TopKItem> items;
  /// Filled for text-payload frames (metrics/reload responses, errors).
  std::string text;

  bool ok() const { return code == WireCode::kOk; }
};

/// \brief Blocking protocol client over one TCP connection. Not
/// thread-safe; use one Client per thread.
class Client {
 public:
  Client() = default;
  ~Client();

  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  Status Connect(const std::string& host, uint16_t port);
  void Close();
  bool connected() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  Status SendTopK(const std::string& tenant, const std::string& query,
                  uint16_t k, uint32_t request_id);
  Status SendPing(uint32_t request_id);
  Status SendReload(uint32_t request_id);
  /// \brief Requests the Prometheus text exposition (kMetricsRequest).
  Status SendMetrics(uint32_t request_id);
  /// \brief Writes raw bytes (malformed-frame tests).
  Status SendBytes(std::string_view bytes);

  /// \brief Blocks for the next complete frame. IOError when the daemon
  /// closes the connection first, InvalidArgument on an undecodable
  /// response.
  Result<Reply> ReadReply();

  /// \brief SendTopK + ReadReply convenience (assumes no pipelining).
  Result<Reply> TopK(const std::string& tenant, const std::string& query,
                     uint16_t k, uint32_t request_id);

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// \brief One tenant's traffic mix: requests sample uniformly from its
/// query texts.
struct LoadTarget {
  std::string tenant;
  std::vector<std::string> queries;
};

struct LoadOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  size_t connections = 4;
  size_t requests_per_connection = 200;
  uint16_t k = 10;
  /// Max requests in flight per connection (closed-loop window).
  size_t pipeline = 8;
  uint64_t seed = 42;
  std::vector<LoadTarget> targets;
};

/// \brief Aggregate outcome of one RunLoad.
struct LoadReport {
  uint64_t sent = 0;
  uint64_t ok = 0;
  /// Non-ok replies keyed by WireCode value.
  std::map<uint16_t, uint64_t> by_code;
  double seconds = 0.0;
  double qps = 0.0;
  double mean_us = 0.0;
  double p50_us = 0.0;
  double p90_us = 0.0;
  double p99_us = 0.0;

  std::string ToString() const;
};

/// \brief Drives `connections` concurrent client threads against a
/// daemon, each keeping up to `pipeline` requests in flight, and merges
/// the per-request round-trip latencies. Fails only on connect/transport
/// errors; protocol-level rejections (rate limit, shed, ...) are counted
/// in by_code.
Result<LoadReport> RunLoad(const LoadOptions& options);

/// \brief One serving stage's cumulative server-side cost, parsed from
/// the daemon's srpp_stage_duration_seconds histogram samples.
struct StageSample {
  double sum_seconds = 0.0;
  uint64_t count = 0;
};

/// \brief Server-side per-stage latency attribution over a measurement
/// window (the after-minus-before delta of two metric scrapes).
struct StageBreakdown {
  /// Keyed by stage label: admission, queue, batch, score, flush.
  std::map<std::string, StageSample> stages;

  double total_seconds() const;

  /// \brief "stage admission: count=... mean_us=... share=..%" lines.
  std::string ToString() const;
};

/// \brief Extracts srpp_stage_duration_seconds{stage=...} _sum/_count
/// samples from Prometheus exposition text (the shape the daemon
/// writes; not a general exposition parser).
std::map<std::string, StageSample> ParseStageSamples(
    std::string_view metrics_text);

/// \brief after - before per stage, clamped at zero.
StageBreakdown DiffStageSamples(
    const std::map<std::string, StageSample>& before,
    const std::map<std::string, StageSample>& after);

/// \brief One-shot scrape over the binary protocol (kMetricsRequest).
Result<std::string> FetchMetricsText(const std::string& host, uint16_t port);

}  // namespace simrankpp::loadgen

#endif  // SIMRANKPP_BENCH_LOADGEN_H_
