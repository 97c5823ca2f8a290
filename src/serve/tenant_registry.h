/// @file tenant_registry.h
/// @brief Registry mapping tenant names to immutable serving state.
///
/// The serving layer's concurrency contract is RCU-shaped: a reader copies
/// the tenant's current shared_ptr under a short lock and then holds a
/// fully-built, immutable Tenant for as long as it likes — an in-flight
/// TopKBatch keeps its generation alive through the shared_ptr while a
/// writer swaps in the next one. Writers (the SnapshotStore) build the
/// replacement completely off to the side and publish it with a single
/// pointer swap under the same lock; they never mutate anything a reader
/// can see. Readers therefore observe either the old or the new
/// generation in full, never a mix. Reads take the lock only to copy a
/// pointer, so they never wait for a reload's build, and a replaced
/// generation is released after the lock is dropped, so its teardown
/// never runs under it either.
#ifndef SIMRANKPP_SERVE_TENANT_REGISTRY_H_
#define SIMRANKPP_SERVE_TENANT_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/bipartite_graph.h"
#include "rewrite/bid_database.h"
#include "rewrite/rewrite_service.h"
#include "util/thread_annotations.h"

namespace simrankpp {

/// \brief The heavyweight per-tenant inputs (parsed click graph + bid
/// list). Shared across generations: a snapshot-only reload builds a new
/// Tenant around the same assets instead of re-parsing the graph TSV.
struct TenantAssets {
  BipartiteGraph graph;
  std::optional<BidDatabase> bids;
};

/// \brief One fully-loaded, immutable generation of a tenant. Never
/// mutated after construction; always handled through
/// shared_ptr<const Tenant>.
struct Tenant {
  std::string name;
  /// 1 for the first successful load, +1 per successful reload.
  uint64_t generation = 1;
  /// The files this generation was built from (used by the store to
  /// decide what a manifest change invalidates).
  std::string graph_path;
  std::string snapshot_path;
  std::string bid_path;
  std::shared_ptr<const TenantAssets> assets;
  /// Borrows graph/bids from `assets`; destroyed before it.
  std::unique_ptr<const RewriteService> service;
};

/// \brief Point-in-time serving stats for one tenant: the tenant-level
/// facts (generation, cumulative served count, last-reload status) plus
/// the serving generation's own RewriteServiceStats.
struct TenantServeStats {
  std::string tenant;
  /// False when the tenant never loaded successfully (it then still
  /// appears here so its failure is observable).
  bool serving = false;
  uint64_t generation = 0;
  /// Cumulative across generations. A retired generation's count is
  /// folded in once its last in-flight reader releases it, so nothing a
  /// reader served mid-swap is ever lost (a generation still pinned by a
  /// long batch is counted when that batch's reference drops).
  uint64_t queries_served = 0;
  /// The serving generation's stats (method, side, checksum, on-demand
  /// row and row-cache counters, engine diagnostics); default when not
  /// serving. Per-generation: service.queries_served and the row-cache
  /// counters restart with each reload, unlike queries_served above.
  RewriteServiceStats service;
  bool last_reload_ok = true;
  /// Failure Status text of the last (re)load attempt; empty when ok.
  std::string last_reload_message;

  std::string ToString() const;
};

/// \brief Name → tenant map; every method is thread-safe.
class TenantRegistry {
 public:
  /// \brief Current generation of `name`, or nullptr when absent or not
  /// yet loaded. The returned shared_ptr pins the whole generation
  /// (graph, bids, service) for the caller's lifetime — safe to serve
  /// from while any number of reloads happen.
  std::shared_ptr<const Tenant> Lookup(const std::string& name) const;

  /// \brief Registered tenant names (including load-failed ones), sorted.
  std::vector<std::string> TenantNames() const;

  /// \brief Stats for every registered tenant, sorted by name.
  std::vector<TenantServeStats> Stats() const;

  size_t size() const;

  /// \brief Publishes a new generation (insert or replace) with one
  /// pointer swap. The retired generation's served-query count is folded
  /// into the tenant's cumulative counter, and the slot's last-reload
  /// status is set to success.
  void Upsert(std::shared_ptr<const Tenant> tenant);

  /// \brief Removes a tenant entirely (its slot and stats disappear).
  /// Readers holding the final shared_ptr keep serving until they drop
  /// it. Returns false when the name was not registered.
  bool Remove(const std::string& name);

  /// \brief Records a failed (re)load: the serving generation (if any)
  /// stays published, and Stats() surfaces the failure. Creates the slot
  /// when the tenant never loaded, so first-load failures are visible.
  void RecordReloadFailure(const std::string& name, const Status& status);

 private:
  // Outcome of the most recent load/reload attempt for a slot.
  struct ReloadEvent {
    bool ok = true;
    std::string message;
  };

  // One tenant's cell. `retired_served` is shared with the fold deleters
  // of the tenant's published generations, so the cumulative count
  // survives reloads and needs no pointer back to the slot.
  struct Slot {
    std::shared_ptr<const Tenant> current;
    ReloadEvent last_reload;
    std::shared_ptr<std::atomic<uint64_t>> retired_served =
        std::make_shared<std::atomic<uint64_t>>(0);
  };

  using Table = std::unordered_map<std::string, Slot>;

  /// Guards `slots_`. Held only to copy or swap pointers: no build, fold
  /// or teardown runs under it. A mutex rather than
  /// std::atomic<std::shared_ptr>: libstdc++ 12 unlocks that type's load
  /// with relaxed order, which ThreadSanitizer reports as a race against
  /// a concurrent swap.
  mutable Mutex mu_;
  Table slots_ SRPP_GUARDED_BY(mu_);
};

}  // namespace simrankpp

#endif  // SIMRANKPP_SERVE_TENANT_REGISTRY_H_
