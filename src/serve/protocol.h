/// @file protocol.h
/// @brief Wire format of the serve-daemon's length-prefixed binary
/// protocol (docs/DAEMON_PROTOCOL.md).
///
/// Every message is one frame: a fixed 16-byte header followed by
/// `payload_bytes` of type-specific payload. All integers are
/// little-endian fixed width; doubles travel as their IEEE-754 bit
/// pattern, so a response compares bit-identical to the serving matrix.
/// The encode/decode helpers here are the single implementation shared by
/// the daemon, the protocol client (bench/loadgen.h), the protocol tests,
/// and the frame-header fuzzer — there is no second parser to drift.
#ifndef SIMRANKPP_SERVE_PROTOCOL_H_
#define SIMRANKPP_SERVE_PROTOCOL_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace simrankpp {

/// \brief Frame magic, the bytes "SRP1" in stream order.
inline constexpr uint32_t kFrameMagic = 0x31505253u;

/// \brief Fixed byte size of every frame header.
inline constexpr size_t kFrameHeaderBytes = 16;

/// \brief Hard ceiling on `payload_bytes`; a header announcing more is
/// rejected before any payload is buffered (kBadFrame, connection drops).
inline constexpr uint32_t kMaxFramePayloadBytes = 1u << 20;

/// \brief Largest k a TopK request may ask for (keeps the response frame
/// far below the payload ceiling).
inline constexpr uint16_t kMaxTopKPerRequest = 1000;

/// \brief Frame types. Requests have the high bit clear; responses set
/// it. kError answers any request type that failed. 0x02/0x82 belonged
/// to the retired STATS pair and must not be reused: the daemon answers
/// 0x02 as an unknown type (kBadRequest).
enum class FrameType : uint8_t {
  kTopKRequest = 0x01,
  kPingRequest = 0x03,
  kReloadRequest = 0x04,
  /// Pulls the same Prometheus text exposition as GET /metrics.
  kMetricsRequest = 0x05,
  kError = 0x7f,
  kTopKResponse = 0x81,
  kPingResponse = 0x83,
  kReloadResponse = 0x84,
  kMetricsResponse = 0x85,
};

/// \brief Response status codes carried in the header's `code` field
/// (always 0 in requests and in successful responses).
enum class WireCode : uint16_t {
  kOk = 0,
  /// Unparsable frame header (bad magic/flags, oversized payload). The
  /// daemon answers with this code and then drops the connection — a
  /// byte stream with a corrupt header cannot be resynchronized.
  kBadFrame = 1,
  /// Valid header, malformed payload (or unknown frame type). The
  /// connection survives: framing is intact, only this request is lost.
  kBadRequest = 2,
  kUnknownTenant = 3,
  kRateLimited = 4,
  /// The tenant's pending queue is full; the request was shed.
  kOverloaded = 5,
  /// The daemon is draining after SIGTERM; already-admitted requests
  /// still complete, new ones are refused.
  kDraining = 6,
  kInternal = 7,
};

const char* WireCodeName(WireCode code);

/// \brief Decoded frame header (the magic is validated, not stored).
struct FrameHeader {
  uint8_t type = 0;
  /// Reserved; must be 0 on the wire.
  uint8_t flags = 0;
  /// WireCode in responses; must be 0 in requests.
  uint16_t code = 0;
  uint32_t payload_bytes = 0;
  /// Client-chosen id echoed verbatim in the response.
  uint32_t request_id = 0;

  bool operator==(const FrameHeader&) const = default;
};

/// \brief Outcome of DecodeFrameHeader.
enum class FrameDecode {
  kOk,
  /// Fewer than kFrameHeaderBytes available yet — read more.
  kNeedMoreData,
  kBadMagic,
  kBadFlags,
  /// payload_bytes exceeds the supplied ceiling.
  kOversized,
};

/// \brief Validates and decodes the first kFrameHeaderBytes of `bytes`.
/// Never reads past the header; total-garbage input classifies as one of
/// the error outcomes, it cannot crash.
FrameDecode DecodeFrameHeader(std::string_view bytes, uint32_t max_payload,
                              FrameHeader* out);

/// \brief One TopK request as carried on the wire.
struct TopKRequest {
  std::string tenant;
  std::string query;
  uint16_t k = 0;

  bool operator==(const TopKRequest&) const = default;
};

/// \brief One scored rewrite in a TopK response.
struct TopKItem {
  std::string text;
  double score = 0.0;

  bool operator==(const TopKItem&) const = default;
};

/// \brief Appends a complete TopK request frame (header + payload).
void AppendTopKRequestFrame(const TopKRequest& request, uint32_t request_id,
                            std::string* out);

/// \brief Parses a TopK request payload. False on any truncation,
/// overrun, or trailing garbage; never crashes on arbitrary bytes.
bool ParseTopKRequestPayload(std::string_view payload, TopKRequest* out);

/// \brief Appends a complete TopK response frame.
void AppendTopKResponseFrame(uint32_t request_id,
                             std::span<const TopKItem> items,
                             std::string* out);

/// \brief Parses a TopK response payload.
bool ParseTopKResponsePayload(std::string_view payload,
                              std::vector<TopKItem>* out);

/// \brief Appends a payload-less frame (ping request/response, metrics
/// or reload request).
void AppendEmptyFrame(FrameType type, WireCode code, uint32_t request_id,
                      std::string* out);

/// \brief Appends a text-payload frame (metrics/reload responses and
/// every error response: u32 length + UTF-8 bytes).
void AppendTextFrame(FrameType type, WireCode code, uint32_t request_id,
                     std::string_view text, std::string* out);

/// \brief Parses a text payload (the AppendTextFrame shape).
bool ParseTextPayload(std::string_view payload, std::string* out);

}  // namespace simrankpp

#endif  // SIMRANKPP_SERVE_PROTOCOL_H_
