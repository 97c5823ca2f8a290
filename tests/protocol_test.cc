// Wire-format unit tests (serve/protocol.h): frame headers and TopK
// payloads round-trip bit for bit, and malformed headers and truncated
// payloads are classified without a daemon in the loop.
#include "serve/protocol.h"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

namespace simrankpp {
namespace {

TEST(DaemonProtocolTest, FrameHeaderRoundTrips) {
  std::string frame;
  AppendEmptyFrame(FrameType::kPingRequest, WireCode::kOk, 0xdeadbeef,
                   &frame);
  ASSERT_EQ(frame.size(), kFrameHeaderBytes);
  FrameHeader header;
  ASSERT_EQ(DecodeFrameHeader(frame, kMaxFramePayloadBytes, &header),
            FrameDecode::kOk);
  EXPECT_EQ(header.type, static_cast<uint8_t>(FrameType::kPingRequest));
  EXPECT_EQ(header.code, 0u);
  EXPECT_EQ(header.payload_bytes, 0u);
  EXPECT_EQ(header.request_id, 0xdeadbeefu);
}

TEST(DaemonProtocolTest, TopKRequestRoundTrips) {
  TopKRequest request{"tenant-x", "a query with spaces", 17};
  std::string frame;
  AppendTopKRequestFrame(request, 7, &frame);
  FrameHeader header;
  ASSERT_EQ(DecodeFrameHeader(frame, kMaxFramePayloadBytes, &header),
            FrameDecode::kOk);
  ASSERT_EQ(frame.size(), kFrameHeaderBytes + header.payload_bytes);
  TopKRequest decoded;
  ASSERT_TRUE(ParseTopKRequestPayload(
      std::string_view(frame).substr(kFrameHeaderBytes), &decoded));
  EXPECT_EQ(decoded, request);
}

TEST(DaemonProtocolTest, TopKResponseScoresAreBitExact) {
  // Scores chosen to have awkward bit patterns; the wire carries the
  // IEEE-754 bits verbatim, so equality must be exact, not approximate.
  std::vector<TopKItem> items = {
      {"first", 0.1 + 0.2},
      {"second", 1.0 / 3.0},
      {"third", 5e-324},  // smallest subnormal
  };
  std::string frame;
  AppendTopKResponseFrame(99, items, &frame);
  FrameHeader header;
  ASSERT_EQ(DecodeFrameHeader(frame, kMaxFramePayloadBytes, &header),
            FrameDecode::kOk);
  std::vector<TopKItem> decoded;
  ASSERT_TRUE(ParseTopKResponsePayload(
      std::string_view(frame).substr(kFrameHeaderBytes), &decoded));
  EXPECT_EQ(decoded, items);
}

TEST(DaemonProtocolTest, HeaderRejectionsClassify) {
  FrameHeader header;
  EXPECT_EQ(DecodeFrameHeader("short", kMaxFramePayloadBytes, &header),
            FrameDecode::kNeedMoreData);

  std::string frame;
  AppendEmptyFrame(FrameType::kPingRequest, WireCode::kOk, 1, &frame);
  std::string bad_magic = frame;
  bad_magic[0] = 'X';
  EXPECT_EQ(DecodeFrameHeader(bad_magic, kMaxFramePayloadBytes, &header),
            FrameDecode::kBadMagic);

  std::string bad_flags = frame;
  bad_flags[5] = 0x01;
  EXPECT_EQ(DecodeFrameHeader(bad_flags, kMaxFramePayloadBytes, &header),
            FrameDecode::kBadFlags);

  std::string oversized = frame;
  oversized[8] = static_cast<char>(0xff);  // payload_bytes low byte
  oversized[11] = static_cast<char>(0x7f);  // ... and a huge high byte
  EXPECT_EQ(DecodeFrameHeader(oversized, kMaxFramePayloadBytes, &header),
            FrameDecode::kOversized);
}

TEST(DaemonProtocolTest, TruncatedPayloadsParseFalse) {
  TopKRequest request{"tenant", "query", 5};
  std::string frame;
  AppendTopKRequestFrame(request, 1, &frame);
  std::string_view payload = std::string_view(frame).substr(kFrameHeaderBytes);
  TopKRequest decoded;
  for (size_t len = 0; len < payload.size(); ++len) {
    EXPECT_FALSE(ParseTopKRequestPayload(payload.substr(0, len), &decoded))
        << "truncation at " << len << " bytes parsed";
  }
  // Trailing garbage must be rejected too.
  EXPECT_FALSE(
      ParseTopKRequestPayload(std::string(payload) + "x", &decoded));
}

}  // namespace
}  // namespace simrankpp
