/// @file daemon.h
/// @brief The serve-daemon: a persistent TCP front door over the
/// multi-tenant serving layer.
///
/// One daemon owns a listening socket, an epoll event loop on a dedicated
/// I/O thread, and the reload loop for its SnapshotStore. Clients speak
/// the length-prefixed binary protocol in serve/protocol.h
/// (docs/DAEMON_PROTOCOL.md). Requests are admitted per tenant — a token
/// bucket rate limit plus a bounded pending queue that sheds on overflow
/// — and concurrent TopK requests for the same tenant are coalesced into
/// TopKBatch micro-batches executed on the process-wide SharedThreadPool.
/// Every counter and histogram the daemon keeps lives in its one
/// MetricsRegistry (metrics_registry()): scraped over the metrics frame
/// or GET /metrics, read in process through Snapshot().
///
/// Hot reload: a watcher thread drives SnapshotStore::PollForChanges —
/// woken by inotify on the manifest/snapshot directories when available,
/// by mtime polling otherwise — so snapshot swaps happen while
/// connections are live; the registry's RCU contract keeps every
/// in-flight batch on exactly one tenant generation. SIGTERM-style
/// shutdown (RequestShutdown, async-signal-safe) drains gracefully: the
/// listener closes immediately, admitted requests complete and flush,
/// late requests are refused with kDraining, then Wait() returns 0.
#ifndef SIMRANKPP_SERVE_DAEMON_H_
#define SIMRANKPP_SERVE_DAEMON_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "serve/metrics_http.h"
#include "serve/protocol.h"
#include "serve/snapshot_store.h"
#include "serve/tenant_registry.h"
#include "serve/token_bucket.h"
#include "util/metrics.h"
#include "util/status.h"
#include "util/trace.h"

namespace simrankpp {

/// \brief Configuration of one daemon instance.
struct DaemonOptions {
  /// Serving manifest (docs/MANIFEST_FORMAT.md); required.
  std::string manifest_path;
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port; read the bound one back via port().
  uint16_t port = 0;
  /// Pending-queue bound per tenant; requests beyond it are shed with
  /// kOverloaded. The bound applies to queue *cost*, not just length:
  /// cold on-demand rows are billed at cold_row_cost units each, so a
  /// burst of cold queries fills the queue cold_row_cost times faster
  /// than warm traffic. (A single request is always admitted into an
  /// empty queue, whatever its cost.)
  size_t max_queue_per_tenant = 512;
  /// Queue-cost units billed for a query whose on-demand row must be
  /// computed (no precomputed partners, not in the row cache). Warm
  /// requests cost 1. Only meaningful for on-demand tenants.
  size_t cold_row_cost = 8;
  /// Token-bucket refill per tenant in requests/second; 0 = unlimited.
  double tenant_qps = 0.0;
  /// Token-bucket capacity (burst size).
  double tenant_burst = 64.0;
  /// Run the hot-reload watcher thread.
  bool enable_watcher = true;
  /// Prefer inotify wakeups; mtime polling is used when false or when
  /// inotify is unavailable. Either way PollForChanges does the diffing.
  bool use_inotify = true;
  /// Fallback poll cadence (and inotify debounce backstop), seconds.
  double watch_poll_seconds = 0.5;
  /// Test hook: sleep this long inside each micro-batch execution, so
  /// coalescing/shedding/drain windows are deterministic in tests.
  int debug_batch_delay_ms = 0;
  /// Metrics exposition HTTP listener (GET /metrics + /healthz on
  /// options.host): -1 disables it, 0 binds an ephemeral port (read it
  /// back via metrics_port()), anything else binds that port.
  int metrics_port = -1;
  /// Requests slower than this end-to-end log a WARN with the full
  /// stage breakdown and count into srpp_slow_requests_total; <= 0
  /// disables the slow-request log.
  double slow_request_seconds = 0.0;
};

/// \brief A running serve daemon. Construction via Start() binds the
/// socket and spawns the threads; destruction (or Wait() after
/// RequestShutdown) tears everything down. Fixed limits: at most 256
/// connections (more are accepted and closed at once), and frames up to
/// kMaxFramePayloadBytes (larger ones are rejected as kBadFrame).
class ServeDaemon {
 public:
  /// \brief Loads the manifest, binds host:port, and starts the event
  /// loop + watcher threads. Tenants that fail to load are logged at WARN
  /// and show as reload="failed" in srpp_tenant_info while the rest
  /// serve; Start fails when no tenant loads. On error nothing is left
  /// running.
  static Result<std::unique_ptr<ServeDaemon>> Start(DaemonOptions options);

  /// \brief Stops (graceful drain) if still running, then joins.
  ~ServeDaemon();

  ServeDaemon(const ServeDaemon&) = delete;
  ServeDaemon& operator=(const ServeDaemon&) = delete;

  /// \brief The bound TCP port (useful with options.port == 0).
  uint16_t port() const;

  /// \brief Begins graceful drain. Async-signal-safe (one write to an
  /// eventfd): call it straight from a SIGTERM handler. Idempotent.
  void RequestShutdown();

  /// \brief Blocks until the drain completes and every thread has
  /// joined. Returns 0 on a clean drain (all admitted requests answered
  /// and flushed), nonzero only on internal I/O-loop failure.
  int Wait();

  /// \brief Forces one PollForChanges pass on the calling thread
  /// (deterministic reload trigger for tests; the wire-level equivalent
  /// is a RELOAD frame). Returns the tenants reloaded.
  Result<std::vector<std::string>> PollNow();

  /// \brief This daemon's metric families (one registry per daemon so
  /// tests running several daemons in one process see isolated counts).
  /// Snapshot()/PrometheusText() are safe from any thread; the latter is
  /// the document GET /metrics and the kMetricsRequest frame serve.
  const MetricsRegistry& metrics_registry() const;

  /// \brief Bound port of the metrics HTTP listener, 0 when disabled.
  uint16_t metrics_port() const;

  /// \brief Recent completed-request traces, oldest first (at most the
  /// TraceRecorderOptions default ring capacity, 64).
  std::vector<RequestTrace> RecentTraces() const;

  /// \brief The registry backing this daemon (read-only lookups are safe
  /// from any thread).
  const TenantRegistry& registry() const;

 private:
  class Impl;

  explicit ServeDaemon(std::unique_ptr<Impl> impl);

  std::unique_ptr<Impl> impl_;
};

}  // namespace simrankpp

#endif  // SIMRANKPP_SERVE_DAEMON_H_
