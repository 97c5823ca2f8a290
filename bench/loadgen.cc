#include "loadgen.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/string_util.h"

namespace simrankpp::loadgen {

Client::~Client() { Close(); }

Client::Client(Client&& other) noexcept
    : fd_(other.fd_), buffer_(std::move(other.buffer_)) {
  other.fd_ = -1;
}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    buffer_ = std::move(other.buffer_);
    other.fd_ = -1;
  }
  return *this;
}

Status Client::Connect(const std::string& host, uint16_t port) {
  Close();
  int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Status::IOError(StringPrintf("socket: %s", std::strerror(errno)));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    close(fd);
    return Status::InvalidArgument("cannot parse host address: " + host);
  }
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    int err = errno;
    close(fd);
    return Status::IOError(StringPrintf("connect %s:%u: %s", host.c_str(),
                                        port, std::strerror(err)));
  }
  int enable = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof(enable));
  fd_ = fd;
  buffer_.clear();
  return Status::OK();
}

void Client::Close() {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
  buffer_.clear();
}

Status Client::SendBytes(std::string_view bytes) {
  if (fd_ < 0) return Status::FailedPrecondition("client is not connected");
  size_t off = 0;
  while (off < bytes.size()) {
    ssize_t w = send(fd_, bytes.data() + off, bytes.size() - off,
                     MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(StringPrintf("send: %s", std::strerror(errno)));
    }
    off += static_cast<size_t>(w);
  }
  return Status::OK();
}

Status Client::SendTopK(const std::string& tenant, const std::string& query,
                        uint16_t k, uint32_t request_id) {
  std::string frame;
  AppendTopKRequestFrame(TopKRequest{tenant, query, k}, request_id, &frame);
  return SendBytes(frame);
}

Status Client::SendPing(uint32_t request_id) {
  std::string frame;
  AppendEmptyFrame(FrameType::kPingRequest, WireCode::kOk, request_id,
                   &frame);
  return SendBytes(frame);
}

Status Client::SendReload(uint32_t request_id) {
  std::string frame;
  AppendEmptyFrame(FrameType::kReloadRequest, WireCode::kOk, request_id,
                   &frame);
  return SendBytes(frame);
}

Status Client::SendMetrics(uint32_t request_id) {
  std::string frame;
  AppendEmptyFrame(FrameType::kMetricsRequest, WireCode::kOk, request_id,
                   &frame);
  return SendBytes(frame);
}

Result<Reply> Client::ReadReply() {
  if (fd_ < 0) return Status::FailedPrecondition("client is not connected");
  for (;;) {
    FrameHeader header;
    FrameDecode decode =
        DecodeFrameHeader(buffer_, kMaxFramePayloadBytes, &header);
    if (decode == FrameDecode::kOk &&
        buffer_.size() >= kFrameHeaderBytes + header.payload_bytes) {
      std::string_view payload(buffer_.data() + kFrameHeaderBytes,
                               header.payload_bytes);
      Reply reply;
      reply.type = static_cast<FrameType>(header.type);
      reply.code = static_cast<WireCode>(header.code);
      reply.request_id = header.request_id;
      bool parsed = false;
      switch (reply.type) {
        case FrameType::kTopKResponse:
          parsed = ParseTopKResponsePayload(payload, &reply.items);
          break;
        case FrameType::kPingResponse:
          parsed = payload.empty();
          break;
        case FrameType::kReloadResponse:
        case FrameType::kMetricsResponse:
        case FrameType::kError:
          parsed = ParseTextPayload(payload, &reply.text);
          break;
        default:
          parsed = false;
          break;
      }
      buffer_.erase(0, kFrameHeaderBytes + header.payload_bytes);
      if (!parsed) {
        return Status::InvalidArgument(StringPrintf(
            "undecodable response frame (type 0x%02x)", header.type));
      }
      return reply;
    }
    if (decode != FrameDecode::kOk && decode != FrameDecode::kNeedMoreData) {
      return Status::InvalidArgument("corrupt response frame header");
    }
    char chunk[65536];
    ssize_t r = read(fd_, chunk, sizeof(chunk));
    if (r == 0) {
      return Status::IOError("connection closed by daemon");
    }
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(StringPrintf("read: %s", std::strerror(errno)));
    }
    buffer_.append(chunk, static_cast<size_t>(r));
  }
}

Result<Reply> Client::TopK(const std::string& tenant,
                           const std::string& query, uint16_t k,
                           uint32_t request_id) {
  SRPP_RETURN_NOT_OK(SendTopK(tenant, query, k, request_id));
  return ReadReply();
}

}  // namespace simrankpp::loadgen
