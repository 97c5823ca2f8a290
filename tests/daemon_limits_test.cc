// serve-daemon under descriptor exhaustion: when accept4 runs out of
// file descriptors the listener is paused instead of spun on, the failure
// is counted in srpp_accept_errors_total{reason="fd_limit"}, and the
// clients queued in the kernel backlog are served once descriptors free.
// The metrics HTTP listener waits out the limit the same way.
//
// Each case lowers this process's own RLIMIT_NOFILE, so the suite is
// registered per case (gtest_discover_tests): every case runs in a
// process of its own and a lowered limit cannot leak into another.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "graph/graph_io.h"
#include "serve/daemon.h"
#include "serve/protocol.h"
#include "synth/click_graph_generator.h"
#include "util/logging.h"

namespace simrankpp {
namespace {

// Client sockets per case, and how many of them the lowered limit lets
// the daemon accept; the rest wait in the listen backlog.
constexpr int kClients = 8;
constexpr int kAccepted = 2;

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// One TopK over a raw connected socket: true when an ok TopK reply to
// `request_id` comes back.
bool TopKAnswered(int fd, const std::string& query, uint32_t request_id) {
  std::string frame;
  AppendTopKRequestFrame(TopKRequest{"t", query, 5}, request_id, &frame);
  if (send(fd, frame.data(), frame.size(), MSG_NOSIGNAL) !=
      static_cast<ssize_t>(frame.size())) {
    return false;
  }
  std::string in;
  FrameHeader header;
  for (;;) {
    FrameDecode decode = DecodeFrameHeader(in, kMaxFramePayloadBytes, &header);
    if (decode == FrameDecode::kOk &&
        in.size() >= kFrameHeaderBytes + header.payload_bytes) {
      break;
    }
    if (decode != FrameDecode::kOk && decode != FrameDecode::kNeedMoreData) {
      return false;
    }
    char buffer[4096];
    ssize_t n = recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) return false;  // closed, or SO_RCVTIMEO expired
    in.append(buffer, static_cast<size_t>(n));
  }
  return header.type == static_cast<uint8_t>(FrameType::kTopKResponse) &&
         header.code == static_cast<uint16_t>(WireCode::kOk) &&
         header.request_id == request_id;
}

class ServeDaemonLimitsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetLogLevel(LogLevel::kError);
    // Per-process names: ctest runs the cases in parallel processes.
    std::string stem = ::testing::TempDir() + "/daemon_limits_" +
                       std::to_string(getpid());
    graph_path_ = stem + "_graph.tsv";
    manifest_path_ = stem + "_manifest.txt";
    GeneratorOptions generator;
    generator.num_queries = 60;
    generator.num_ads = 20;
    generator.seed = 42;
    auto world = GenerateClickGraph(generator);
    ASSERT_TRUE(world.ok());
    graph_ = std::move(world)->graph;
    ASSERT_TRUE(SaveGraph(graph_, graph_path_).ok());
    std::ofstream(manifest_path_) << "manifest-version 1\ntenant t\n  graph "
                                  << graph_path_
                                  << "\n  scoring on-demand\n";
    DaemonOptions options;
    options.manifest_path = manifest_path_;
    options.enable_watcher = false;
    options.metrics_port = 0;  // idle unless a case scrapes it
    Result<std::unique_ptr<ServeDaemon>> daemon = ServeDaemon::Start(options);
    ASSERT_TRUE(daemon.ok()) << daemon.status().ToString();
    daemon_ = std::move(daemon).value();
    ASSERT_EQ(getrlimit(RLIMIT_NOFILE, &saved_limit_), 0);
  }

  void TearDown() override {
    RestoreLimit();
    for (int fd : clients_) {
      if (fd >= 0) close(fd);
    }
    daemon_.reset();
    std::remove(graph_path_.c_str());
    std::remove(manifest_path_.c_str());
  }

  // A TCP socket whose reads give up after 10 s: a reply that never
  // comes fails the case instead of hanging it.
  static int ClientSocket() {
    int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    timeval timeout{10, 0};
    if (fd >= 0) {
      setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    }
    return fd;
  }

  static int ConnectLocal(int fd, uint16_t port) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    return connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  }

  // Opens kClients sockets, lowers the soft descriptor limit so the
  // daemon can accept only kAccepted more, then connects every socket.
  void ConnectPastTheFdLimit() {
    for (int i = 0; i < kClients; ++i) {
      int fd = ClientSocket();
      ASSERT_GE(fd, 0);
      clients_.push_back(fd);
    }
    // socket() takes the lowest free number, so every descriptor below
    // the last client's is in use: the daemon gets only those above it.
    rlimit lowered = saved_limit_;
    lowered.rlim_cur = static_cast<rlim_t>(clients_.back() + 1 + kAccepted);
    ASSERT_EQ(setrlimit(RLIMIT_NOFILE, &lowered), 0);
    for (int fd : clients_) {
      ASSERT_EQ(ConnectLocal(fd, daemon_->port()), 0);
    }
  }

  // Waits until the daemon's listener has failed an accept at the limit.
  void AwaitFdLimit() {
    auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (FdLimitErrors() < 1.0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_GE(FdLimitErrors(), 1.0);
  }

  // Process CPU seconds over one second of wall time, as a fraction.
  static double CpuShareOverOneSecond() {
    auto wall_start = std::chrono::steady_clock::now();
    double cpu_start = ProcessCpuSeconds();
    std::this_thread::sleep_for(std::chrono::seconds(1));
    double cpu_seconds = ProcessCpuSeconds() - cpu_start;
    double wall_seconds = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - wall_start)
                              .count();
    return cpu_seconds / wall_seconds;
  }

  double FdLimitErrors() const {
    return daemon_->metrics_registry().Snapshot().Value(
        "srpp_accept_errors_total", {{"reason", "fd_limit"}});
  }

  void RestoreLimit() { setrlimit(RLIMIT_NOFILE, &saved_limit_); }

  BipartiteGraph graph_;
  std::string graph_path_;
  std::string manifest_path_;
  std::unique_ptr<ServeDaemon> daemon_;
  rlimit saved_limit_{};
  std::vector<int> clients_;
};

TEST_F(ServeDaemonLimitsTest, FdExhaustionPausesAcceptInsteadOfSpinning) {
  ASSERT_NO_FATAL_FAILURE(ConnectPastTheFdLimit());
  // Let the daemon reach the limit, then watch one second: the queued
  // clients must not keep the IO thread busy.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_LT(CpuShareOverOneSecond(), 0.1);
  EXPECT_GE(FdLimitErrors(), 1.0);
}

TEST_F(ServeDaemonLimitsTest, QueuedClientsAreServedOnceFdsFree) {
  ASSERT_NO_FATAL_FAILURE(ConnectPastTheFdLimit());
  ASSERT_NO_FATAL_FAILURE(AwaitFdLimit());
  // A closed connection frees descriptors while the limit is still low:
  // the first queued client (the backlog is FIFO) is accepted and served.
  close(clients_[0]);
  clients_[0] = -1;
  EXPECT_TRUE(TopKAnswered(clients_[kAccepted], graph_.query_label(0), 1));
  // With the limit back up, every other client is served too.
  RestoreLimit();
  for (int i = 1; i < kClients; ++i) {
    if (i == kAccepted) continue;
    EXPECT_TRUE(TopKAnswered(clients_[i],
                             graph_.query_label(static_cast<QueryId>(i)),
                             static_cast<uint32_t>(i + 1)))
        << "client " << i;
  }
}

TEST_F(ServeDaemonLimitsTest, MetricsScrapeAtTheFdLimitWaitsWithoutSpinning) {
  // Opened before the limit drops: at the limit this process could not
  // create it.
  int scrape = ClientSocket();
  ASSERT_GE(scrape, 0);
  ASSERT_NO_FATAL_FAILURE(ConnectPastTheFdLimit());
  clients_.push_back(scrape);
  ASSERT_NO_FATAL_FAILURE(AwaitFdLimit());
  // The scrape queues in the metrics listener's backlog, which keeps the
  // listener readable while every accept fails.
  ASSERT_EQ(ConnectLocal(scrape, daemon_->metrics_port()), 0);
  const std::string request = "GET /metrics HTTP/1.1\r\nHost: test\r\n\r\n";
  ASSERT_EQ(send(scrape, request.data(), request.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(request.size()));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_LT(CpuShareOverOneSecond(), 0.1);
  // Once descriptors free, the scrape is answered (and the server closes).
  RestoreLimit();
  std::string response;
  char buffer[4096];
  for (;;) {
    ssize_t n = recv(scrape, buffer, sizeof(buffer), 0);
    if (n <= 0) break;
    response.append(buffer, static_cast<size_t>(n));
  }
  EXPECT_EQ(response.rfind("HTTP/1.1 200 OK\r\n", 0), 0u) << response;
  EXPECT_NE(response.find("srpp_accept_errors_total"), std::string::npos);
}

}  // namespace
}  // namespace simrankpp
