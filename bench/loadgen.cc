#include "loadgen.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <unordered_map>

#include "util/random.h"
#include "util/string_util.h"
#include "util/summary_stats.h"
#include "util/thread_annotations.h"

namespace simrankpp::loadgen {

namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

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

std::string LoadReport::ToString() const {
  std::string text = StringPrintf(
      "loadgen: sent=%llu ok=%llu qps=%.0f mean=%.0fus p50=%.0fus "
      "p90=%.0fus p99=%.0fus in %.2fs",
      static_cast<unsigned long long>(sent),
      static_cast<unsigned long long>(ok), qps, mean_us, p50_us, p90_us,
      p99_us, seconds);
  for (const auto& [code, count] : by_code) {
    text += StringPrintf(" %s=%llu",
                         WireCodeName(static_cast<WireCode>(code)),
                         static_cast<unsigned long long>(count));
  }
  return text;
}

Result<LoadReport> RunLoad(const LoadOptions& options) {
  if (options.targets.empty()) {
    return Status::InvalidArgument("RunLoad needs at least one target");
  }
  for (const LoadTarget& target : options.targets) {
    if (target.queries.empty()) {
      return Status::InvalidArgument("target \"" + target.tenant +
                                     "\" has no queries");
    }
  }
  size_t window = std::max<size_t>(1, options.pipeline);

  // Workers fold their per-thread tallies into this after their run; a
  // named struct (not locals) so the guarded_by relation is annotatable.
  struct MergedTotals {
    Mutex mu;
    std::map<uint16_t, uint64_t> by_code SRPP_GUARDED_BY(mu);
    uint64_t sent SRPP_GUARDED_BY(mu) = 0;
    uint64_t ok SRPP_GUARDED_BY(mu) = 0;
    Status first_error SRPP_GUARDED_BY(mu) = Status::OK();
  };
  MergedTotals merged;
  SummaryStats latencies(/*keep_samples=*/true);

  // Workers record latencies into per-thread vectors; the merge feeds
  // one shared accumulator after the join.
  std::vector<std::vector<double>> samples(options.connections);
  auto worker = [&](size_t index) {
    Client client;
    Status status = client.Connect(options.host, options.port);
    std::map<uint16_t, uint64_t> local_by_code;
    uint64_t local_sent = 0;
    uint64_t local_ok = 0;
    std::vector<double>& local_samples = samples[index];
    if (status.ok()) {
      Rng rng(options.seed + index * 7919);
      std::unordered_map<uint32_t, double> in_flight;
      uint32_t next_id = 1;
      size_t remaining = options.requests_per_connection;
      while (status.ok() && (remaining > 0 || !in_flight.empty())) {
        while (status.ok() && remaining > 0 && in_flight.size() < window) {
          const LoadTarget& target =
              options.targets[rng.NextBounded(options.targets.size())];
          const std::string& query =
              target.queries[rng.NextBounded(target.queries.size())];
          uint32_t id = next_id++;
          in_flight.emplace(id, NowSeconds());
          status = client.SendTopK(target.tenant, query, options.k, id);
          --remaining;
          ++local_sent;
        }
        if (!status.ok() || in_flight.empty()) break;
        Result<Reply> reply = client.ReadReply();
        if (!reply.ok()) {
          status = reply.status();
          break;
        }
        auto it = in_flight.find(reply->request_id);
        if (it != in_flight.end()) {
          local_samples.push_back((NowSeconds() - it->second) * 1e6);
          in_flight.erase(it);
        }
        if (reply->ok()) {
          ++local_ok;
        } else {
          ++local_by_code[static_cast<uint16_t>(reply->code)];
        }
      }
    }
    MutexLock lock(&merged.mu);
    merged.sent += local_sent;
    merged.ok += local_ok;
    for (const auto& [code, count] : local_by_code) {
      merged.by_code[code] += count;
    }
    if (!status.ok() && merged.first_error.ok()) merged.first_error = status;
  };

  double start = NowSeconds();
  std::vector<std::thread> threads;
  threads.reserve(options.connections);
  for (size_t i = 0; i < options.connections; ++i) {
    threads.emplace_back(worker, i);
  }
  for (std::thread& thread : threads) thread.join();
  double elapsed = NowSeconds() - start;

  // All workers joined: merged is quiescent from here on.
  MutexLock lock(&merged.mu);
  SRPP_RETURN_NOT_OK(merged.first_error);

  for (const std::vector<double>& thread_samples : samples) {
    for (double value : thread_samples) latencies.Add(value);
  }
  LoadReport report;
  report.sent = merged.sent;
  report.ok = merged.ok;
  report.by_code = std::move(merged.by_code);
  report.seconds = elapsed;
  report.qps =
      elapsed > 0.0 ? static_cast<double>(merged.sent) / elapsed : 0.0;
  report.mean_us = latencies.mean();
  report.p50_us = latencies.Quantile(0.5);
  report.p90_us = latencies.Quantile(0.9);
  report.p99_us = latencies.Quantile(0.99);
  return report;
}

namespace {

// Value of `label` inside a {k="v",...} label block, or empty when the
// sample does not carry it. The daemon never emits escaped quotes in
// stage labels, so a plain quote scan is enough here.
std::string_view LabelValueIn(std::string_view labels, std::string_view label) {
  std::string needle = std::string(label) + "=\"";
  size_t at = labels.find(needle);
  if (at == std::string_view::npos) return {};
  size_t begin = at + needle.size();
  size_t end = labels.find('"', begin);
  if (end == std::string_view::npos) return {};
  return labels.substr(begin, end - begin);
}

}  // namespace

double StageBreakdown::total_seconds() const {
  double total = 0.0;
  for (const auto& [stage, sample] : stages) total += sample.sum_seconds;
  return total;
}

std::string StageBreakdown::ToString() const {
  // Fixed serving order, not map order: readers expect the pipeline.
  static constexpr const char* kOrder[] = {"admission", "queue", "batch",
                                           "score", "flush"};
  double total = total_seconds();
  std::string text;
  for (const char* stage : kOrder) {
    auto it = stages.find(stage);
    if (it == stages.end()) continue;
    const StageSample& sample = it->second;
    double mean_us =
        sample.count > 0 ? sample.sum_seconds / sample.count * 1e6 : 0.0;
    double share = total > 0.0 ? sample.sum_seconds / total * 100.0 : 0.0;
    text += StringPrintf("stage %-9s count=%llu mean=%.1fus share=%.1f%%\n",
                         stage, static_cast<unsigned long long>(sample.count),
                         mean_us, share);
  }
  // Stages beyond the known pipeline (future additions) still show up.
  for (const auto& [stage, sample] : stages) {
    bool known = false;
    for (const char* name : kOrder) known = known || stage == name;
    if (known) continue;
    text += StringPrintf("stage %-9s count=%llu sum=%.3fs\n", stage.c_str(),
                         static_cast<unsigned long long>(sample.count),
                         sample.sum_seconds);
  }
  return text;
}

std::map<std::string, StageSample> ParseStageSamples(
    std::string_view metrics_text) {
  constexpr std::string_view kSumPrefix = "srpp_stage_duration_seconds_sum{";
  constexpr std::string_view kCountPrefix =
      "srpp_stage_duration_seconds_count{";
  std::map<std::string, StageSample> stages;
  while (!metrics_text.empty()) {
    size_t eol = metrics_text.find('\n');
    std::string_view line = metrics_text.substr(0, eol);
    metrics_text.remove_prefix(eol == std::string_view::npos
                                   ? metrics_text.size()
                                   : eol + 1);
    bool is_sum = line.substr(0, kSumPrefix.size()) == kSumPrefix;
    bool is_count = line.substr(0, kCountPrefix.size()) == kCountPrefix;
    if (!is_sum && !is_count) continue;
    size_t open = line.find('{');
    size_t close = line.find('}', open);
    if (close == std::string_view::npos) continue;
    std::string_view stage =
        LabelValueIn(line.substr(open, close - open), "stage");
    if (stage.empty()) continue;
    std::string value_text(line.substr(close + 1));
    StageSample& sample = stages[std::string(stage)];
    if (is_sum) {
      sample.sum_seconds = std::strtod(value_text.c_str(), nullptr);
    } else {
      sample.count = std::strtoull(value_text.c_str(), nullptr, 10);
    }
  }
  return stages;
}

StageBreakdown DiffStageSamples(
    const std::map<std::string, StageSample>& before,
    const std::map<std::string, StageSample>& after) {
  StageBreakdown delta;
  for (const auto& [stage, sample] : after) {
    StageSample base;
    auto it = before.find(stage);
    if (it != before.end()) base = it->second;
    StageSample diff;
    diff.sum_seconds = std::max(0.0, sample.sum_seconds - base.sum_seconds);
    diff.count = sample.count >= base.count ? sample.count - base.count : 0;
    delta.stages.emplace(stage, diff);
  }
  return delta;
}

Result<std::string> FetchMetricsText(const std::string& host, uint16_t port) {
  Client client;
  SRPP_RETURN_NOT_OK(client.Connect(host, port));
  SRPP_RETURN_NOT_OK(client.SendMetrics(/*request_id=*/1));
  Result<Reply> reply = client.ReadReply();
  if (!reply.ok()) return reply.status();
  if (reply->type != FrameType::kMetricsResponse || !reply->ok()) {
    return Status::IOError("metrics request rejected by daemon");
  }
  return std::move(reply->text);
}

}  // namespace simrankpp::loadgen
