#include "serve/metrics_http.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/metrics.h"
#include "util/string_util.h"

namespace simrankpp {

namespace {

constexpr size_t kMaxRequestBytes = 8192;
constexpr int kPollIntervalMs = 100;
constexpr int kClientTimeoutMs = 2000;

void SendAll(int fd, std::string_view bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    ssize_t n = send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return;  // client went away; a scrape retry costs nothing
    }
    off += static_cast<size_t>(n);
  }
}

std::string HttpResponse(int status, std::string_view reason,
                         std::string_view content_type,
                         std::string_view body) {
  std::string out = StringPrintf(
      "HTTP/1.1 %d %.*s\r\n"
      "Content-Type: %.*s\r\n"
      "Content-Length: %zu\r\n"
      "Connection: close\r\n"
      "\r\n",
      status, static_cast<int>(reason.size()), reason.data(),
      static_cast<int>(content_type.size()), content_type.data(),
      body.size());
  out += body;
  return out;
}

/// First request-line token pair ("GET /metrics HTTP/1.1" -> method,
/// target). False when the line is not a plausible HTTP request line.
bool ParseRequestLine(std::string_view request, std::string* method,
                      std::string* target) {
  size_t eol = request.find("\r\n");
  if (eol == std::string_view::npos) return false;
  std::string_view line = request.substr(0, eol);
  size_t sp1 = line.find(' ');
  if (sp1 == std::string_view::npos) return false;
  size_t sp2 = line.find(' ', sp1 + 1);
  if (sp2 == std::string_view::npos) return false;
  *method = std::string(line.substr(0, sp1));
  *target = std::string(line.substr(sp1 + 1, sp2 - sp1 - 1));
  // Ignore any query string: /metrics?foo=bar scrapes the same text.
  size_t q = target->find('?');
  if (q != std::string::npos) target->resize(q);
  return !method->empty() && !target->empty();
}

}  // namespace

MetricsHttpServer::MetricsHttpServer(MetricsHttpOptions options,
                                     const MetricsRegistry* registry)
    : options_(std::move(options)), registry_(registry) {}

Result<std::unique_ptr<MetricsHttpServer>> MetricsHttpServer::Start(
    MetricsHttpOptions options, const MetricsRegistry* registry) {
  SRPP_CHECK(registry != nullptr);
  // srpp:allow(naked-new): private ctor keeps make_unique out
  auto* raw = new MetricsHttpServer(std::move(options), registry);
  std::unique_ptr<MetricsHttpServer> server(raw);
  server->listen_fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (server->listen_fd_ < 0) {
    return Status::IOError(
        StringPrintf("metrics-http socket: %s", std::strerror(errno)));
  }
  int enable = 1;
  setsockopt(server->listen_fd_, SOL_SOCKET, SO_REUSEADDR, &enable,
             sizeof(enable));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server->options_.port);
  if (inet_pton(AF_INET, server->options_.host.c_str(), &addr.sin_addr) !=
      1) {
    return Status::InvalidArgument(
        StringPrintf("metrics-http bad host: %s",
                     server->options_.host.c_str()));
  }
  if (bind(server->listen_fd_, reinterpret_cast<sockaddr*>(&addr),
           sizeof(addr)) != 0) {
    return Status::IOError(StringPrintf(
        "metrics-http bind %s:%u: %s", server->options_.host.c_str(),
        static_cast<unsigned>(server->options_.port), std::strerror(errno)));
  }
  if (listen(server->listen_fd_, 16) != 0) {
    return Status::IOError(
        StringPrintf("metrics-http listen: %s", std::strerror(errno)));
  }
  socklen_t addr_len = sizeof(addr);
  if (getsockname(server->listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                  &addr_len) != 0) {
    return Status::IOError(
        StringPrintf("metrics-http getsockname: %s", std::strerror(errno)));
  }
  server->port_ = ntohs(addr.sin_port);
  server->thread_ = std::thread([raw = server.get()] { raw->ServeLoop(); });
  return server;
}

MetricsHttpServer::~MetricsHttpServer() { Stop(); }

void MetricsHttpServer::Stop() {
  if (!stop_.exchange(true) && thread_.joinable()) {
    thread_.join();
  }
  if (listen_fd_ >= 0) {
    close(listen_fd_);
    listen_fd_ = -1;
  }
}

void MetricsHttpServer::ServeLoop() {
  // poll() with a short timeout instead of a blocking accept so Stop()
  // needs no self-pipe: the flag is observed within one interval.
  while (!stop_.load(std::memory_order_relaxed)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    int ready = poll(&pfd, 1, kPollIntervalMs);
    if (ready <= 0) continue;
    int fd = accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) {
      // Out of descriptors or kernel memory: the scrape stays queued and
      // the listener stays readable, so retrying at once would spin.
      // Wait one interval first; stop_ is checked again after it.
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
          errno == ENOMEM) {
        poll(nullptr, 0, kPollIntervalMs);
      }
      continue;
    }
    HandleConnection(fd);
    close(fd);
  }
}

void MetricsHttpServer::HandleConnection(int fd) {
  timeval tv{kClientTimeoutMs / 1000, (kClientTimeoutMs % 1000) * 1000};
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  std::string request;
  char buf[1024];
  while (request.size() < kMaxRequestBytes &&
         request.find("\r\n\r\n") == std::string::npos) {
    ssize_t n = recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      break;
    }
    request.append(buf, static_cast<size_t>(n));
  }
  std::string method, target;
  if (!ParseRequestLine(request, &method, &target)) {
    SendAll(fd, HttpResponse(400, "Bad Request", "text/plain",
                             "bad request\n"));
    requests_served_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (method != "GET") {
    SendAll(fd, HttpResponse(405, "Method Not Allowed", "text/plain",
                             "only GET is supported\n"));
  } else if (target == "/metrics") {
    SendAll(fd, HttpResponse(200, "OK",
                             "text/plain; version=0.0.4; charset=utf-8",
                             registry_->PrometheusText()));
  } else if (target == "/healthz") {
    SendAll(fd, HttpResponse(200, "OK", "text/plain", "ok\n"));
  } else {
    SendAll(fd, HttpResponse(404, "Not Found", "text/plain",
                             "try /metrics or /healthz\n"));
  }
  requests_served_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace simrankpp
