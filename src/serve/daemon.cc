#include "serve/daemon.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/inotify.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <set>
#include <thread>
#include <utility>

#include "rewrite/rewrite_service.h"
#include "serve/manifest.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/simd/simd.h"
#include "util/string_util.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace simrankpp {

namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Reads an eventfd counter down to zero (nonblocking fd).
void DrainEventFd(int fd) {
  uint64_t value = 0;
  while (read(fd, &value, sizeof(value)) > 0) {
  }
}

void CloseIfOpen(int* fd) {
  if (*fd >= 0) {
    close(*fd);
    *fd = -1;
  }
}

// Latency histogram buckets shared by the per-tenant latency family and
// the trace recorder's stage spans: 1us .. ~4.2s in 12 exponential
// steps, spanning cache hits through cold linearized rows.
std::vector<double> LatencySecondsBuckets() {
  return ExponentialBuckets(1e-6, 4.0, 12);
}

constexpr const char* kRequestsHelp =
    "Requests by tenant and admission outcome code.";

}  // namespace

// ---------------------------------------------------------------------------
// Impl
// ---------------------------------------------------------------------------

class ServeDaemon::Impl {
 public:
  explicit Impl(DaemonOptions options) : options_(std::move(options)) {}

  ~Impl() {
    // Stop serving scrapes before anything they read can go away.
    metrics_http_.reset();
    RequestShutdown();
    Wait();
    // Wait() leaves no thread and no pool task alive, so the fds can go.
    CloseIfOpen(&listen_fd_);
    CloseIfOpen(&epoll_fd_);
    CloseIfOpen(&wake_fd_);
    CloseIfOpen(&shutdown_fd_);
    CloseIfOpen(&watcher_stop_fd_);
  }

  Status Boot();

  uint16_t port() const { return port_; }
  const TenantRegistry& registry() const { return *registry_; }

  void RequestShutdown() {
    uint64_t one = 1;
    // Async-signal-safe: one write syscall, result deliberately ignored
    // (the only failure mode is "already shutting down").
    [[maybe_unused]] ssize_t rc =
        write(shutdown_fd_, &one, sizeof(one));
  }

  int Wait() {
    MutexLock lock(&join_mu_);
    if (io_thread_.joinable()) io_thread_.join();
    if (watcher_thread_.joinable()) {
      uint64_t one = 1;
      [[maybe_unused]] ssize_t rc =
          write(watcher_stop_fd_, &one, sizeof(one));
      watcher_thread_.join();
    }
    // Straggling pool tasks signal through work_cv_ as their very last
    // action; after this wait none of them will touch the Impl again.
    MutexLock work_lock(&work_mu_);
    while (work_count_ != 0) work_cv_.Wait(work_mu_);
    return exit_code_.load();
  }

  Result<std::vector<std::string>> PollNow() {
    Result<std::vector<std::string>> reloaded = store_->PollForChanges();
    if (reloaded.ok()) {
      reloads_applied_->Increment(reloaded->size());
    } else {
      reloads_failed_->Increment();
    }
    return reloaded;
  }

  const MetricsRegistry& metrics_registry() const { return metrics_; }
  uint16_t metrics_port() const {
    return metrics_http_ == nullptr ? 0 : metrics_http_->port();
  }
  std::vector<RequestTrace> RecentTraces() const {
    return tracer_->RecentTraces();
  }

 private:
  // One live client socket. Owned (and only ever touched) by the I/O
  // thread; worker results reach it via the outbox, keyed by
  // (fd, serial) so a recycled fd never receives a dead request's reply.
  struct Connection {
    int fd = -1;
    uint64_t serial = 0;
    std::string in;
    std::string out;
    size_t out_offset = 0;
    bool close_after_flush = false;
    bool epollout_armed = false;
  };

  // A TopK request admitted into a tenant's pending queue.
  struct PendingRequest {
    int fd = -1;
    uint64_t serial = 0;
    uint32_t request_id = 0;
    std::string query;
    uint16_t k = 0;
    // Trace timestamps, all on the steady clock: recv_seconds is when
    // frame handling began (admission-stage start), enqueue_seconds when
    // the request entered the pending queue.
    double recv_seconds = 0.0;
    double enqueue_seconds = 0.0;
    // Queue-cost units this request was billed at admission (1 for warm
    // rows, options.cold_row_cost for cold on-demand rows).
    size_t cost = 1;
    // Whether admission billed this query as a cold on-demand row.
    bool cold = false;
  };

  // Per-tenant admission + batching state. The bucket is event-loop-
  // private; the pending queue is shared with batch workers under mu;
  // the stats handles are registry children (lock-free increments) —
  // the registry is the one source of truth.
  struct TenantState {
    TenantState(const DaemonOptions& options, const std::string& tenant,
                MetricsRegistry* metrics)
        : bucket(options.tenant_qps, options.tenant_burst) {
      auto code = [&tenant](const char* value) {
        return MetricLabels{{"tenant", tenant}, {"code", value}};
      };
      MetricLabels only_tenant{{"tenant", tenant}};
      admitted = metrics->GetCounter("srpp_requests_total", kRequestsHelp,
                                     code("ok"));
      shed = metrics->GetCounter("srpp_requests_total", kRequestsHelp,
                                 code("shed"));
      rate_limited = metrics->GetCounter("srpp_requests_total",
                                         kRequestsHelp, code("rate_limited"));
      draining = metrics->GetCounter("srpp_requests_total", kRequestsHelp,
                                     code("draining"));
      cold_admitted = metrics->GetCounter(
          "srpp_cold_requests_total",
          "Admitted requests billed at the cold on-demand row cost.",
          only_tenant);
      served = metrics->GetCounter("srpp_served_requests_total",
                                   "Requests answered by batch execution.",
                                   only_tenant);
      batches = metrics->GetCounter("srpp_batches_total",
                                    "Micro-batches executed.", only_tenant);
      queue_fill = metrics->GetHistogram(
          "srpp_queue_fill_ratio",
          "Pending-queue depth at admission over max_queue_per_tenant.",
          LinearBuckets(0.0, 0.05, 20), only_tenant);
      latency_seconds = metrics->GetHistogram(
          "srpp_tenant_latency_seconds",
          "Per-request latency from enqueue to batch completion.",
          LatencySecondsBuckets(), only_tenant);
    }

    TokenBucket bucket;  // I/O thread only (see TokenBucket's contract)

    // Registry children (stable pointers, relaxed-atomic increments).
    Counter* admitted = nullptr;
    Counter* cold_admitted = nullptr;
    Counter* shed = nullptr;
    Counter* rate_limited = nullptr;
    Counter* draining = nullptr;
    Counter* served = nullptr;
    Counter* batches = nullptr;
    HistogramMetric* queue_fill = nullptr;
    HistogramMetric* latency_seconds = nullptr;

    Mutex mu;
    std::vector<PendingRequest> pending SRPP_GUARDED_BY(mu);
    // Sum of pending[i].cost; the overload bound compares this, not the
    // queue length, so cold on-demand work fills the queue faster.
    size_t pending_cost SRPP_GUARDED_BY(mu) = 0;
    bool batch_in_flight SRPP_GUARDED_BY(mu) = false;
  };

  // A finished response frame headed back to (fd, serial). TopK
  // completions carry their trace; the I/O thread closes the flush span
  // and records the trace just before the bytes are handed to send().
  struct Completion {
    int fd = -1;
    uint64_t serial = 0;
    std::string bytes;
    std::optional<RequestTrace> trace;
  };

  // ----- event loop ----------------------------------------------------

  void IoLoop();
  void AcceptAll();
  void OnReadable(Connection* conn);
  void ParseFrames(Connection* conn);
  void HandleFrame(Connection* conn, const FrameHeader& header,
                   std::string_view payload);
  void AdmitTopK(Connection* conn, uint32_t request_id, TopKRequest request,
                 double recv_seconds);
  void AppendOutput(Connection* conn, std::string bytes);
  void TryFlush(Connection* conn);
  void SendError(Connection* conn, uint32_t request_id, WireCode code,
                 const std::string& message);
  void CloseConnection(int fd);
  void BeginDrain();
  bool DrainComplete();
  void DrainOutbox();

  // ----- worker side ---------------------------------------------------

  void RunBatch(std::string tenant_name, TenantState* state);
  void RunReload(int fd, uint64_t serial, uint32_t request_id);
  void PushCompletions(std::vector<Completion> completions);
  void Wake() {
    uint64_t one = 1;
    [[maybe_unused]] ssize_t rc = write(wake_fd_, &one, sizeof(one));
  }
  // Marks one unit of submitted pool work as finished. The very last
  // touch of the Impl by a worker task: Wait() holds work_mu_ until the
  // count hits zero, so teardown cannot race a straggler.
  void FinishWork() {
    MutexLock lock(&work_mu_);
    --work_count_;
    work_cv_.NotifyAll();
  }

  // ----- reload watcher ------------------------------------------------

  void WatchLoop();
  std::set<std::string> WatchDirectories() const;

  // Lookup without creating: callers that must not mint registry
  // children for unvalidated tenant names.
  TenantState* FindState(const std::string& tenant) {
    MutexLock lock(&states_mu_);
    auto it = states_.find(tenant);
    return it == states_.end() ? nullptr : it->second.get();
  }

  TenantState* GetOrCreateState(const std::string& tenant) {
    MutexLock lock(&states_mu_);
    auto it = states_.find(tenant);
    if (it == states_.end()) {
      it = states_
               .emplace(tenant, std::make_unique<TenantState>(
                                    options_, tenant, &metrics_))
               .first;
    }
    return it->second.get();
  }

  void RegisterTenantCollector();

  DaemonOptions options_;
  // Declared before everything that registers into it: the registry
  // must outlive every cached Counter*/HistogramMetric* handle.
  MetricsRegistry metrics_;
  std::unique_ptr<TraceRecorder> tracer_;
  std::unique_ptr<TenantRegistry> registry_;
  std::unique_ptr<SnapshotStore> store_;
  std::unique_ptr<MetricsHttpServer> metrics_http_;
  uint16_t port_ = 0;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  int shutdown_fd_ = -1;
  int watcher_stop_fd_ = -1;

  std::thread io_thread_;
  std::thread watcher_thread_;
  Mutex join_mu_;

  std::atomic<bool> draining_{false};
  std::atomic<int> exit_code_{0};

  // I/O-thread-private (no capability to annotate — single-owner by
  // construction; the outbox + eventfd handoff is how other threads
  // reach connection state).
  std::unordered_map<int, std::unique_ptr<Connection>> connections_;
  uint64_t next_serial_ = 1;

  Mutex states_mu_;
  // Values are stable pointers: a TenantState is never destroyed while
  // the daemon runs, so holding states_mu_ is only required for the map
  // itself, not for using a looked-up TenantState (which has its own mu).
  std::unordered_map<std::string, std::unique_ptr<TenantState>> states_
      SRPP_GUARDED_BY(states_mu_);

  Mutex outbox_mu_;
  std::vector<Completion> outbox_ SRPP_GUARDED_BY(outbox_mu_);

  // Count of submitted-but-unfinished pool tasks (batches + reloads).
  Mutex work_mu_;
  CondVar work_cv_;
  size_t work_count_ SRPP_GUARDED_BY(work_mu_) = 0;

  // Process-level registry handles (registered in Boot, before any
  // thread starts; incrementing is one relaxed atomic add).
  Counter* connections_accepted_ = nullptr;
  Counter* connections_refused_ = nullptr;
  Counter* frames_received_ = nullptr;
  Counter* bad_frames_ = nullptr;
  Counter* bad_requests_ = nullptr;
  Counter* responses_sent_ = nullptr;
  Counter* reloads_applied_ = nullptr;
  Counter* reloads_failed_ = nullptr;
  // Drain refusals with no tenant attached (RELOAD during drain).
  Counter* draining_daemon_ = nullptr;
  // Unknown-tenant refusals, collapsed to one child so hostile tenant
  // names cannot grow label cardinality.
  Counter* unknown_tenant_ = nullptr;

  friend class ServeDaemon;
};

// ---------------------------------------------------------------------------
// Startup
// ---------------------------------------------------------------------------

Status ServeDaemon::Impl::Boot() {
  if (options_.manifest_path.empty()) {
    return Status::InvalidArgument("serve daemon needs a manifest path");
  }
  // Registry handles first — every counter below must exist before any
  // thread (I/O, watcher, pool worker, scraper) can run.
  connections_accepted_ = metrics_.GetCounter(
      "srpp_connections_total", "Connections by accept outcome.",
      {{"result", "accepted"}});
  connections_refused_ = metrics_.GetCounter(
      "srpp_connections_total", "Connections by accept outcome.",
      {{"result", "refused"}});
  frames_received_ = metrics_.GetCounter("srpp_frames_total",
                                         "Complete frames parsed.");
  bad_frames_ = metrics_.GetCounter(
      "srpp_bad_frames_total",
      "Unrecoverable frame headers (connection dropped).");
  bad_requests_ = metrics_.GetCounter(
      "srpp_bad_requests_total",
      "Well-framed but malformed or unknown requests.");
  responses_sent_ = metrics_.GetCounter("srpp_responses_total",
                                        "Response frames sent.");
  reloads_applied_ = metrics_.GetCounter(
      "srpp_reloads_total", "Tenant reloads by outcome.",
      {{"outcome", "applied"}});
  reloads_failed_ = metrics_.GetCounter(
      "srpp_reloads_total", "Tenant reloads by outcome.",
      {{"outcome", "failed"}});
  draining_daemon_ = metrics_.GetCounter(
      "srpp_requests_total", kRequestsHelp,
      {{"tenant", "_daemon"}, {"code", "draining"}});
  unknown_tenant_ = metrics_.GetCounter(
      "srpp_requests_total", kRequestsHelp,
      {{"tenant", "_other"}, {"code", "unknown_tenant"}});
  metrics_.SetInfo(
      "srpp_simd_info", "Active SIMD dispatch level for this process.",
      {{"level", simd::SimdLevelName(simd::ActiveSimdLevel())}});
  TraceRecorderOptions trace_options;
  trace_options.ring_capacity = options_.trace_ring_capacity;
  trace_options.slow_request_seconds = options_.slow_request_seconds;
  tracer_ = std::make_unique<TraceRecorder>(&metrics_, trace_options);

  registry_ = std::make_unique<TenantRegistry>();
  store_ = std::make_unique<SnapshotStore>(options_.manifest_path,
                                           registry_.get());
  Status loaded = store_->LoadAll();
  if (!loaded.ok()) {
    // An unreadable/unparsable manifest loads nothing — fatal either
    // way. Per-tenant failures are fatal only under require_all_tenants;
    // otherwise the loaded tenants serve and srpp_tenant_info carries
    // the failures (each one was also logged at WARN).
    if (options_.require_all_tenants || registry_->size() == 0) {
      return loaded;
    }
    SRPP_LOG(Warning) << "serve daemon starting degraded: "
                      << loaded.ToString();
  }
  for (const std::string& name : registry_->TenantNames()) {
    GetOrCreateState(name);
  }
  RegisterTenantCollector();

  listen_fd_ = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    return Status::IOError(StringPrintf("socket: %s", std::strerror(errno)));
  }
  int enable = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof(enable));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("cannot parse host address: " +
                                   options_.host);
  }
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return Status::IOError(StringPrintf("bind %s:%u: %s",
                                        options_.host.c_str(), options_.port,
                                        std::strerror(errno)));
  }
  if (listen(listen_fd_, 128) != 0) {
    return Status::IOError(StringPrintf("listen: %s", std::strerror(errno)));
  }
  socklen_t addr_len = sizeof(addr);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                  &addr_len) != 0) {
    return Status::IOError(
        StringPrintf("getsockname: %s", std::strerror(errno)));
  }
  port_ = ntohs(addr.sin_port);

  wake_fd_ = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  shutdown_fd_ = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  watcher_stop_fd_ = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  if (wake_fd_ < 0 || shutdown_fd_ < 0 || watcher_stop_fd_ < 0 ||
      epoll_fd_ < 0) {
    return Status::IOError("cannot create eventfd/epoll descriptors");
  }
  for (int fd : {listen_fd_, wake_fd_, shutdown_fd_}) {
    epoll_event event{};
    event.events = EPOLLIN;
    event.data.fd = fd;
    if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &event) != 0) {
      return Status::IOError(
          StringPrintf("epoll_ctl add: %s", std::strerror(errno)));
    }
  }

  if (options_.metrics_port >= 0) {
    MetricsHttpOptions http_options;
    http_options.host = options_.host;
    http_options.port = static_cast<uint16_t>(options_.metrics_port);
    Result<std::unique_ptr<MetricsHttpServer>> http =
        MetricsHttpServer::Start(std::move(http_options), &metrics_);
    if (!http.ok()) return http.status();
    metrics_http_ = std::move(http).value();
  }

  io_thread_ = std::thread([this] { IoLoop(); });
  if (options_.enable_watcher) {
    watcher_thread_ = std::thread([this] { WatchLoop(); });
  }
  return Status::OK();
}

// Bridges counters owned by the serving layer itself — per-tenant
// queries served, on-demand row-cache state, engine diagnostics — into
// the scrape at snapshot time. The registry's RCU Stats() walk is the
// reader, so nothing is double-counted and a generation swap cannot
// lose or repeat samples.
void ServeDaemon::Impl::RegisterTenantCollector() {
  TenantRegistry* registry = registry_.get();
  metrics_.AddCollector([registry](
                            std::vector<MetricFamilySnapshot>* families) {
    auto counter_family = [&](std::string name, std::string help) {
      MetricFamilySnapshot family;
      family.name = std::move(name);
      family.help = std::move(help);
      family.kind = MetricKind::kCounter;
      return family;
    };
    MetricFamilySnapshot info;
    info.name = "srpp_tenant_info";
    info.help =
        "Per-tenant identity: method, scoring mode, generation, and "
        "last-reload outcome.";
    info.kind = MetricKind::kGauge;
    MetricFamilySnapshot queries = counter_family(
        "srpp_tenant_queries_total",
        "Queries answered via TopK/TopKBatch, cumulative across "
        "generations.");
    MetricFamilySnapshot rows = counter_family(
        "srpp_rows_computed_total",
        "Cold on-demand rows computed (current generation).");
    MetricFamilySnapshot hits = counter_family(
        "srpp_row_cache_hits_total", "Row-cache hits (current generation).");
    MetricFamilySnapshot misses = counter_family(
        "srpp_row_cache_misses_total",
        "Row-cache misses (current generation).");
    MetricFamilySnapshot evictions = counter_family(
        "srpp_row_cache_evictions_total",
        "Row-cache evictions (current generation).");
    MetricFamilySnapshot iterations = counter_family(
        "srpp_engine_iterations_total",
        "Engine iterations behind the serving scores.");
    MetricFamilySnapshot rescored = counter_family(
        "srpp_engine_rescored_pairs_total",
        "Pairs rescored by the incremental engine path.");
    MetricFamilySnapshot reused = counter_family(
        "srpp_engine_reused_pairs_total",
        "Pairs carried over unchanged by the incremental engine path.");
    for (const TenantServeStats& stats : registry->Stats()) {
      MetricLabels tenant{{"tenant", stats.tenant}};
      auto add = [&tenant](MetricFamilySnapshot* family, double value) {
        MetricPoint point;
        point.labels = tenant;
        point.value = value;
        family->points.push_back(std::move(point));
      };
      MetricPoint identity;
      identity.labels = {
          {"tenant", stats.tenant},
          {"method", stats.service.method_name},
          {"scoring", !stats.serving ? "none"
                      : stats.service.on_demand ? "on-demand"
                                                : "precomputed"},
          {"generation", StringPrintf("%llu", static_cast<unsigned long long>(
                                                  stats.generation))},
          {"reload", stats.last_reload_ok ? "ok" : "failed"},
      };
      identity.value = 1.0;
      info.points.push_back(std::move(identity));
      if (!stats.serving) continue;
      add(&queries, static_cast<double>(stats.queries_served));
      const RewriteServiceStats& service = stats.service;
      if (service.on_demand) {
        add(&rows, static_cast<double>(service.rows_computed));
        add(&hits, static_cast<double>(service.row_cache_hits));
        add(&misses, static_cast<double>(service.row_cache_misses));
        add(&evictions, static_cast<double>(service.row_cache_evictions));
      }
      const SimRankStats& engine = service.engine_stats;
      if (engine.iterations_run > 0) {
        add(&iterations, static_cast<double>(engine.iterations_run));
        add(&rescored, static_cast<double>(engine.rescored_pairs));
        add(&reused, static_cast<double>(engine.reused_pairs));
      }
    }
    for (MetricFamilySnapshot* family :
         {&info, &queries, &rows, &hits, &misses, &evictions, &iterations,
          &rescored, &reused}) {
      if (!family->points.empty()) families->push_back(std::move(*family));
    }
  });
}

// ---------------------------------------------------------------------------
// Event loop
// ---------------------------------------------------------------------------

void ServeDaemon::Impl::IoLoop() {
  std::vector<epoll_event> events(64);
  for (;;) {
    // Blocking normally; short timeout during drain so the final
    // work-count decrement (which deliberately happens without a wake)
    // is observed promptly.
    int timeout_ms = draining_.load() ? 5 : -1;
    int n = epoll_wait(epoll_fd_, events.data(),
                       static_cast<int>(events.size()), timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      exit_code_.store(1);
      break;
    }
    for (int i = 0; i < n; ++i) {
      int fd = events[i].data.fd;
      if (fd == shutdown_fd_) {
        DrainEventFd(shutdown_fd_);
        BeginDrain();
        continue;
      }
      if (fd == wake_fd_) {
        DrainEventFd(wake_fd_);
        continue;  // the outbox drain below picks the work up
      }
      if (fd == listen_fd_) {
        AcceptAll();
        continue;
      }
      auto it = connections_.find(fd);
      if (it == connections_.end()) continue;  // closed earlier this round
      Connection* conn = it->second.get();
      if (events[i].events & (EPOLLHUP | EPOLLERR)) {
        CloseConnection(fd);
        continue;
      }
      if (events[i].events & EPOLLOUT) TryFlush(conn);
      if (connections_.find(fd) == connections_.end()) continue;
      if (events[i].events & EPOLLIN) OnReadable(conn);
    }
    DrainOutbox();
    if (draining_.load() && DrainComplete()) break;
  }
  // Drain finished (or the loop failed): nothing in flight, everything
  // flushed — drop the remaining idle connections.
  for (auto& [fd, conn] : connections_) {
    epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
    close(fd);
  }
  connections_.clear();
}

void ServeDaemon::Impl::AcceptAll() {
  for (;;) {
    int fd = accept4(listen_fd_, nullptr, nullptr,
                     SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // EAGAIN or a transient accept failure
    }
    if (draining_.load() || connections_.size() >= options_.max_connections) {
      close(fd);
      connections_refused_->Increment();
      continue;
    }
    int enable = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof(enable));
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conn->serial = next_serial_++;
    epoll_event event{};
    event.events = EPOLLIN;
    event.data.fd = fd;
    if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &event) != 0) {
      close(fd);
      connections_refused_->Increment();
      continue;
    }
    connections_.emplace(fd, std::move(conn));
    connections_accepted_->Increment();
  }
}

void ServeDaemon::Impl::OnReadable(Connection* conn) {
  char buffer[65536];
  // One read per wakeup: level-triggered epoll re-fires while more bytes
  // wait, which keeps one fast sender from starving the other clients.
  ssize_t r = read(conn->fd, buffer, sizeof(buffer));
  if (r == 0) {
    CloseConnection(conn->fd);
    return;
  }
  if (r < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
    CloseConnection(conn->fd);
    return;
  }
  if (!conn->close_after_flush) {
    conn->in.append(buffer, static_cast<size_t>(r));
    ParseFrames(conn);
  }
}

void ServeDaemon::Impl::ParseFrames(Connection* conn) {
  // SendError/HandleFrame can flush inline and close the connection on a
  // hard socket error, destroying *conn — re-check liveness by fd before
  // every further touch.
  const int fd = conn->fd;
  size_t consumed = 0;
  while (connections_.count(fd) != 0 && !conn->close_after_flush) {
    std::string_view rest(conn->in.data() + consumed,
                          conn->in.size() - consumed);
    FrameHeader header;
    FrameDecode decode =
        DecodeFrameHeader(rest, options_.max_frame_payload, &header);
    if (decode == FrameDecode::kNeedMoreData) break;
    if (decode != FrameDecode::kOk) {
      // The stream cannot be resynchronized after a corrupt header: tell
      // the client why, then drop this connection (others are
      // unaffected — each socket parses independently). Mark the close
      // before sending so the flush path hangs up once the error frame
      // is on the wire.
      bad_frames_->Increment();
      const char* reason = decode == FrameDecode::kBadMagic ? "bad magic"
                           : decode == FrameDecode::kBadFlags
                               ? "nonzero flags"
                               : "payload exceeds limit";
      conn->in.clear();
      conn->close_after_flush = true;
      SendError(conn, 0, WireCode::kBadFrame,
                StringPrintf("unrecoverable frame header (%s); closing",
                             reason));
      return;
    }
    size_t frame_bytes = kFrameHeaderBytes + header.payload_bytes;
    if (rest.size() < frame_bytes) break;
    frames_received_->Increment();
    HandleFrame(conn, header,
                rest.substr(kFrameHeaderBytes, header.payload_bytes));
    consumed += frame_bytes;
  }
  if (connections_.count(fd) != 0) conn->in.erase(0, consumed);
}

void ServeDaemon::Impl::HandleFrame(Connection* conn,
                                    const FrameHeader& header,
                                    std::string_view payload) {
  switch (static_cast<FrameType>(header.type)) {
    case FrameType::kTopKRequest: {
      // Admission-stage start: everything from here to enqueue (parse,
      // existence check, billing, bucket) is the "admission" span.
      double recv_seconds = NowSeconds();
      TopKRequest request;
      if (!ParseTopKRequestPayload(payload, &request)) {
        bad_requests_->Increment();
        SendError(conn, header.request_id, WireCode::kBadRequest,
                  "malformed TopK request payload");
        return;
      }
      AdmitTopK(conn, header.request_id, std::move(request), recv_seconds);
      return;
    }
    case FrameType::kPingRequest: {
      std::string out;
      AppendEmptyFrame(FrameType::kPingResponse, WireCode::kOk,
                       header.request_id, &out);
      responses_sent_->Increment();
      AppendOutput(conn, std::move(out));
      return;
    }
    case FrameType::kMetricsRequest: {
      std::string text = metrics_.PrometheusText();
      // A frame cannot announce more than the payload ceiling; a
      // pathological tenant count truncates rather than breaking framing
      // (the HTTP endpoint has no such limit).
      size_t limit = options_.max_frame_payload - sizeof(uint32_t);
      if (text.size() > limit) text.resize(limit);
      std::string out;
      AppendTextFrame(FrameType::kMetricsResponse, WireCode::kOk,
                      header.request_id, text, &out);
      responses_sent_->Increment();
      AppendOutput(conn, std::move(out));
      return;
    }
    case FrameType::kReloadRequest: {
      if (draining_.load()) {
        draining_daemon_->Increment();
        SendError(conn, header.request_id, WireCode::kDraining,
                  "daemon is draining");
        return;
      }
      int fd = conn->fd;
      uint64_t serial = conn->serial;
      uint32_t request_id = header.request_id;
      {
        MutexLock lock(&work_mu_);
        ++work_count_;
      }
      SharedThreadPool().Submit(
          [this, fd, serial, request_id] { RunReload(fd, serial, request_id); });
      return;
    }
    default:
      bad_requests_->Increment();
      SendError(conn, header.request_id, WireCode::kBadRequest,
                StringPrintf("unknown frame type 0x%02x", header.type));
      return;
  }
}

void ServeDaemon::Impl::AdmitTopK(Connection* conn, uint32_t request_id,
                                  TopKRequest request,
                                  double recv_seconds) {
  if (draining_.load()) {
    // Bill the refusal to the tenant when its state already exists;
    // unvalidated names go to the _daemon child so hostile traffic
    // during drain cannot grow label cardinality.
    TenantState* state = FindState(request.tenant);
    (state != nullptr ? state->draining : draining_daemon_)->Increment();
    SendError(conn, request_id, WireCode::kDraining, "daemon is draining");
    return;
  }
  if (request.k == 0 || request.k > kMaxTopKPerRequest) {
    bad_requests_->Increment();
    SendError(conn, request_id, WireCode::kBadRequest,
              StringPrintf("k must be in [1, %u], got %u",
                           kMaxTopKPerRequest, request.k));
    return;
  }
  // Existence check against the registry's lock-free read path; the
  // batch worker re-pins its own generation when it runs.
  std::shared_ptr<const Tenant> tenant = registry_->Lookup(request.tenant);
  if (tenant == nullptr) {
    unknown_tenant_->Increment();
    SendError(conn, request_id, WireCode::kUnknownTenant,
              "unknown tenant \"" + request.tenant + "\"");
    return;
  }
  // Admission cost: a query whose on-demand row must be computed is much
  // heavier than a precomputed/cached lookup, so it is billed more queue
  // units. The peek is advisory — the cache can change before the batch
  // runs — which only mis-prices a request, never mis-routes it.
  size_t cost = 1;
  bool cold = false;
  if (tenant->service->on_demand() &&
      tenant->service->RowIsCold(std::string_view(request.query))) {
    cold = true;
    cost = std::max<size_t>(1, options_.cold_row_cost);
  }
  TenantState* state = GetOrCreateState(request.tenant);
  if (!state->bucket.TryAcquire(NowSeconds())) {
    state->rate_limited->Increment();
    SendError(conn, request_id, WireCode::kRateLimited,
              "tenant rate limit exceeded");
    return;
  }
  bool submit = false;
  {
    MutexLock lock(&state->mu);
    // Shed on either bound: queue length, or queue cost (cold on-demand
    // rows are billed heavier). A nonempty-queue guard keeps a single
    // expensive request admissible into an idle tenant even when its
    // cost alone exceeds the bound.
    if (state->pending.size() >= options_.max_queue_per_tenant ||
        (!state->pending.empty() &&
         state->pending_cost + cost > options_.max_queue_per_tenant)) {
      state->shed->Increment();
      SendError(conn, request_id, WireCode::kOverloaded,
                "tenant queue is full; request shed");
      return;
    }
    PendingRequest pending;
    pending.fd = conn->fd;
    pending.serial = conn->serial;
    pending.request_id = request_id;
    pending.query = std::move(request.query);
    pending.k = request.k;
    pending.recv_seconds = recv_seconds;
    pending.enqueue_seconds = NowSeconds();
    pending.cost = cost;
    pending.cold = cold;
    state->pending.push_back(std::move(pending));
    state->pending_cost += cost;
    state->queue_fill->Observe(
        static_cast<double>(state->pending.size()) /
        static_cast<double>(std::max<size_t>(1, options_.max_queue_per_tenant)));
    if (!state->batch_in_flight) {
      state->batch_in_flight = true;
      submit = true;
    }
  }
  state->admitted->Increment();
  if (cold) state->cold_admitted->Increment();
  if (submit) {
    {
      MutexLock lock(&work_mu_);
      ++work_count_;
    }
    std::string tenant = std::move(request.tenant);
    SharedThreadPool().Submit([this, tenant, state]() mutable {
      RunBatch(std::move(tenant), state);
    });
  }
}

void ServeDaemon::Impl::SendError(Connection* conn, uint32_t request_id,
                                  WireCode code, const std::string& message) {
  std::string out;
  AppendTextFrame(FrameType::kError, code, request_id, message, &out);
  responses_sent_->Increment();
  AppendOutput(conn, std::move(out));
}

void ServeDaemon::Impl::AppendOutput(Connection* conn, std::string bytes) {
  if (conn->out.empty()) {
    conn->out = std::move(bytes);
    conn->out_offset = 0;
  } else {
    conn->out += bytes;
  }
  TryFlush(conn);
}

void ServeDaemon::Impl::TryFlush(Connection* conn) {
  while (conn->out_offset < conn->out.size()) {
    ssize_t w = send(conn->fd, conn->out.data() + conn->out_offset,
                     conn->out.size() - conn->out_offset, MSG_NOSIGNAL);
    if (w > 0) {
      conn->out_offset += static_cast<size_t>(w);
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!conn->epollout_armed) {
        epoll_event event{};
        event.events = EPOLLIN | EPOLLOUT;
        event.data.fd = conn->fd;
        epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &event);
        conn->epollout_armed = true;
      }
      return;
    }
    CloseConnection(conn->fd);
    return;
  }
  conn->out.clear();
  conn->out_offset = 0;
  if (conn->epollout_armed) {
    epoll_event event{};
    event.events = EPOLLIN;
    event.data.fd = conn->fd;
    epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &event);
    conn->epollout_armed = false;
  }
  if (conn->close_after_flush) CloseConnection(conn->fd);
}

void ServeDaemon::Impl::CloseConnection(int fd) {
  auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  close(fd);
  connections_.erase(it);
}

void ServeDaemon::Impl::BeginDrain() {
  if (draining_.exchange(true)) return;
  // Stop accepting: close the listener. Pending queues keep draining,
  // connected clients' late requests get kDraining, and the loop exits
  // once every admitted request has been answered and flushed.
  if (listen_fd_ >= 0) {
    epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
    close(listen_fd_);
    listen_fd_ = -1;
  }
}

bool ServeDaemon::Impl::DrainComplete() {
  {
    MutexLock lock(&work_mu_);
    if (work_count_ != 0) return false;
  }
  {
    MutexLock lock(&outbox_mu_);
    if (!outbox_.empty()) return false;
  }
  for (const auto& [fd, conn] : connections_) {
    if (conn->out_offset < conn->out.size()) return false;
  }
  return true;
}

void ServeDaemon::Impl::DrainOutbox() {
  std::vector<Completion> items;
  {
    MutexLock lock(&outbox_mu_);
    items.swap(outbox_);
  }
  for (Completion& item : items) {
    // Close the flush span and record BEFORE the bytes reach send():
    // once a client can read its reply, RecentTraces(), the ring and
    // srpp_slow_requests_total already include that request. Recorded
    // whether or not the connection is still live — the request was
    // scored either way.
    if (item.trace.has_value()) {
      RequestTrace& trace = *item.trace;
      double scored_end = trace.start_seconds + trace.total_seconds();
      trace.SetStage(TraceStage::kFlush, NowSeconds() - scored_end);
      tracer_->Record(trace);
    }
    auto it = connections_.find(item.fd);
    if (it != connections_.end() && it->second->serial == item.serial) {
      AppendOutput(it->second.get(), std::move(item.bytes));
    }
  }
}

// ---------------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------------

void ServeDaemon::Impl::PushCompletions(std::vector<Completion> completions) {
  if (completions.empty()) return;
  {
    MutexLock lock(&outbox_mu_);
    for (Completion& completion : completions) {
      outbox_.push_back(std::move(completion));
    }
  }
  Wake();
}

void ServeDaemon::Impl::RunBatch(std::string tenant_name,
                                 TenantState* state) {
  std::vector<PendingRequest> batch;
  {
    MutexLock lock(&state->mu);
    batch.swap(state->pending);
    state->pending_cost = 0;
    if (batch.empty()) {
      state->batch_in_flight = false;
    }
  }
  if (batch.empty()) {
    FinishWork();
    return;
  }
  // Queue-stage end / batch-stage start. The debug delay lands in the
  // batch span (it models batch-formation time).
  const double swap_seconds = NowSeconds();
  if (options_.debug_batch_delay_ms > 0) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(options_.debug_batch_delay_ms));
  }

  // Pin one generation for the whole micro-batch: every response in it
  // reflects exactly this tenant snapshot, even if a reload publishes a
  // successor mid-call.
  std::shared_ptr<const Tenant> tenant = registry_->Lookup(tenant_name);
  std::vector<Completion> completions;
  completions.reserve(batch.size());
  if (tenant == nullptr) {
    for (const PendingRequest& request : batch) {
      Completion completion;
      completion.fd = request.fd;
      completion.serial = request.serial;
      AppendTextFrame(FrameType::kError, WireCode::kUnknownTenant,
                      request.request_id, "tenant was removed",
                      &completion.bytes);
      completions.push_back(std::move(completion));
    }
  } else {
    const RewriteService& service = *tenant->service;
    // Coalesce per distinct k (usually one): TopKBatch takes a single
    // depth, and mixing depths must not change any request's answer.
    std::vector<size_t> order(batch.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return batch[a].k < batch[b].k;
    });
    completions.resize(batch.size());
    for (size_t start = 0; start < order.size();) {
      size_t end = start;
      uint16_t k = batch[order[start]].k;
      while (end < order.size() && batch[order[end]].k == k) ++end;
      // Score-stage start for this k-group. Later groups' wait behind
      // earlier groups is batch-formation time, so their batch span
      // stretches until their own group begins.
      const double group_start = NowSeconds();
      std::vector<QueryId> ids;
      std::vector<size_t> slots;
      ids.reserve(end - start);
      for (size_t i = start; i < end; ++i) {
        const PendingRequest& request = batch[order[i]];
        Result<uint32_t> id = service.rewriter().ResolveNode(request.query);
        if (id.ok()) {
          ids.push_back(*id);
          slots.push_back(order[i]);
        } else {
          // Text outside this generation's graph: empty result, ok code
          // (mirrors serve-multi's rank-0 convention).
          AppendTopKResponseFrame(request.request_id, {},
                                  &completions[order[i]].bytes);
        }
      }
      std::vector<std::vector<RewriteCandidate>> results =
          service.TopKBatch(ids, k);
      for (size_t i = 0; i < slots.size(); ++i) {
        std::vector<TopKItem> items;
        items.reserve(results[i].size());
        for (const RewriteCandidate& candidate : results[i]) {
          items.push_back(TopKItem{candidate.text, candidate.score});
        }
        AppendTopKResponseFrame(batch[slots[i]].request_id, items,
                                &completions[slots[i]].bytes);
      }
      const double group_end = NowSeconds();
      for (size_t i = start; i < end; ++i) {
        const PendingRequest& request = batch[order[i]];
        RequestTrace trace;
        trace.tenant = tenant_name;
        trace.query = request.query;
        trace.request_id = request.request_id;
        trace.k = request.k;
        trace.cold = request.cold;
        trace.start_seconds = request.recv_seconds;
        trace.SetStage(TraceStage::kAdmission,
                       request.enqueue_seconds - request.recv_seconds);
        trace.SetStage(TraceStage::kQueue,
                       swap_seconds - request.enqueue_seconds);
        trace.SetStage(TraceStage::kBatch, group_start - swap_seconds);
        trace.SetStage(TraceStage::kScore, group_end - group_start);
        // kFlush is closed on the I/O thread when the bytes head out.
        completions[order[i]].trace = std::move(trace);
      }
      start = end;
    }
    for (size_t i = 0; i < batch.size(); ++i) {
      completions[i].fd = batch[i].fd;
      completions[i].serial = batch[i].serial;
    }
  }

  double now = NowSeconds();
  for (const PendingRequest& request : batch) {
    state->latency_seconds->Observe(now - request.enqueue_seconds);
  }
  state->served->Increment(batch.size());
  state->batches->Increment();
  responses_sent_->Increment(batch.size());
  PushCompletions(std::move(completions));

  // Yield between micro-batches instead of looping: requests that piled
  // up during this batch become the next coalesced TopKBatch, and other
  // tenants' batches get pool time in between.
  bool more = false;
  {
    MutexLock lock(&state->mu);
    more = !state->pending.empty();
    if (!more) state->batch_in_flight = false;
  }
  if (more) {
    SharedThreadPool().Submit([this, tenant_name, state]() mutable {
      RunBatch(std::move(tenant_name), state);
    });
    return;  // work_count_ stays held by the resubmitted batch
  }
  FinishWork();
}

void ServeDaemon::Impl::RunReload(int fd, uint64_t serial,
                                  uint32_t request_id) {
  Result<std::vector<std::string>> reloaded = store_->PollForChanges();
  Completion completion;
  completion.fd = fd;
  completion.serial = serial;
  if (reloaded.ok()) {
    reloads_applied_->Increment(reloaded->size());
    std::string text;
    for (const std::string& name : *reloaded) {
      if (!text.empty()) text += '\n';
      text += name;
    }
    AppendTextFrame(FrameType::kReloadResponse, WireCode::kOk, request_id,
                    text, &completion.bytes);
  } else {
    reloads_failed_->Increment();
    AppendTextFrame(FrameType::kError, WireCode::kInternal, request_id,
                    reloaded.status().ToString(), &completion.bytes);
  }
  responses_sent_->Increment();
  std::vector<Completion> completions;
  completions.push_back(std::move(completion));
  PushCompletions(std::move(completions));
  FinishWork();
}

// ---------------------------------------------------------------------------
// Reload watcher
// ---------------------------------------------------------------------------

std::set<std::string> ServeDaemon::Impl::WatchDirectories() const {
  std::set<std::string> dirs;
  auto add = [&dirs](const std::string& path) {
    if (path.empty()) return;
    std::string dir = std::filesystem::path(path).parent_path().string();
    dirs.insert(dir.empty() ? std::string(".") : dir);
  };
  add(options_.manifest_path);
  Result<ServingManifest> manifest = LoadManifest(options_.manifest_path);
  if (manifest.ok()) {
    for (const ManifestEntry& entry : manifest->entries) {
      add(entry.graph_path);
      add(entry.snapshot_path);
      add(entry.bid_path);
    }
  }
  return dirs;
}

void ServeDaemon::Impl::WatchLoop() {
  int inotify_fd = -1;
  if (options_.use_inotify) {
    inotify_fd = inotify_init1(IN_NONBLOCK | IN_CLOEXEC);
  }
  std::vector<int> watches;
  auto refresh_watches = [&] {
    if (inotify_fd < 0) return;
    for (int wd : watches) inotify_rm_watch(inotify_fd, wd);
    watches.clear();
    for (const std::string& dir : WatchDirectories()) {
      int wd = inotify_add_watch(inotify_fd, dir.c_str(),
                                 IN_CLOSE_WRITE | IN_MOVED_TO | IN_CREATE |
                                     IN_DELETE | IN_MODIFY | IN_MOVED_FROM |
                                     IN_ATTRIB);
      if (wd >= 0) watches.push_back(wd);
    }
  };
  refresh_watches();

  // With inotify the timed PollForChanges is a rare backstop (watch
  // descriptors can go stale across renames on some filesystems);
  // without it, it is the primary trigger at the configured cadence.
  int poll_ms = std::max(1, static_cast<int>(
                                options_.watch_poll_seconds * 1000.0));
  int timeout_ms = inotify_fd >= 0 ? poll_ms * 20 : poll_ms;

  for (;;) {
    pollfd pfds[2];
    pfds[0] = {watcher_stop_fd_, POLLIN, 0};
    pfds[1] = {inotify_fd, POLLIN, 0};
    nfds_t nfds = inotify_fd >= 0 ? 2 : 1;
    int rc = poll(pfds, nfds, timeout_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (pfds[0].revents & POLLIN) break;  // stop requested
    if (inotify_fd >= 0 && (pfds[1].revents & POLLIN)) {
      // Drain, then debounce: snapshot drops are multi-write events and
      // one PollForChanges per quiet period is enough.
      char buffer[4096] __attribute__((aligned(alignof(inotify_event))));
      while (read(inotify_fd, buffer, sizeof(buffer)) > 0) {
      }
      for (;;) {
        pollfd debounce = {inotify_fd, POLLIN, 0};
        if (poll(&debounce, 1, 30) <= 0) break;
        while (read(inotify_fd, buffer, sizeof(buffer)) > 0) {
        }
      }
    }
    Result<std::vector<std::string>> reloaded = store_->PollForChanges();
    if (reloaded.ok()) {
      reloads_applied_->Increment(reloaded->size());
      if (!reloaded->empty()) refresh_watches();
    } else {
      reloads_failed_->Increment();
    }
  }
  if (inotify_fd >= 0) close(inotify_fd);
}

// ---------------------------------------------------------------------------
// Public wrapper
// ---------------------------------------------------------------------------

ServeDaemon::ServeDaemon(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}

ServeDaemon::~ServeDaemon() = default;

Result<std::unique_ptr<ServeDaemon>> ServeDaemon::Start(
    DaemonOptions options) {
  auto impl = std::make_unique<Impl>(std::move(options));
  SRPP_RETURN_NOT_OK(impl->Boot());
  // srpp:allow(naked-new): private constructor (Start() is the only
  // entry point), so make_unique cannot reach it; wrapped immediately.
  return std::unique_ptr<ServeDaemon>(new ServeDaemon(std::move(impl)));
}

uint16_t ServeDaemon::port() const { return impl_->port(); }

void ServeDaemon::RequestShutdown() { impl_->RequestShutdown(); }

int ServeDaemon::Wait() { return impl_->Wait(); }

Result<std::vector<std::string>> ServeDaemon::PollNow() {
  return impl_->PollNow();
}

const MetricsRegistry& ServeDaemon::metrics_registry() const {
  return impl_->metrics_registry();
}

uint16_t ServeDaemon::metrics_port() const { return impl_->metrics_port(); }

std::vector<RequestTrace> ServeDaemon::RecentTraces() const {
  return impl_->RecentTraces();
}

const TenantRegistry& ServeDaemon::registry() const {
  return impl_->registry();
}

}  // namespace simrankpp
