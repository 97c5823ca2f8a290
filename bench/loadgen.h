/// @file loadgen.h
/// @brief Client side of the serve-daemon wire protocol: one decoded
/// Reply and a minimal blocking Client.
///
/// This is the one protocol client in the tree. The daemon unit tests,
/// the e2e hammer test and the CI smoke client (daemon_smoke) all drive
/// the daemon through it, so client-side encode/decode bugs surface in
/// every tier at once. It lives in bench/ but builds unconditionally
/// (the simrankpp_loadgen library) — only the bench binaries are gated
/// behind SIMRANKPP_BUILD_BENCH.
#ifndef SIMRANKPP_BENCH_LOADGEN_H_
#define SIMRANKPP_BENCH_LOADGEN_H_

#include <cstdint>
#include <string>
#include <string_view>
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

}  // namespace simrankpp::loadgen

#endif  // SIMRANKPP_BENCH_LOADGEN_H_
