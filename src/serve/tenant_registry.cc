#include "serve/tenant_registry.h"

#include <algorithm>

#include "util/string_util.h"

namespace simrankpp {

std::string TenantServeStats::ToString() const {
  if (!serving) {
    return StringPrintf("tenant=%s serving=no last_error=\"%s\"",
                        tenant.c_str(), last_reload_message.c_str());
  }
  std::string out = StringPrintf(
      "tenant=%s side=%s gen=%llu method=\"%s\" pairs=%zu served=%llu "
      "checksum=%016llx reload=%s",
      tenant.c_str(), SnapshotSideName(service.side),
      static_cast<unsigned long long>(generation),
      service.method_name.c_str(), service.similarity_pairs,
      static_cast<unsigned long long>(queries_served),
      static_cast<unsigned long long>(service.snapshot_checksum),
      last_reload_ok ? "ok" : "FAILED");
  if (service.on_demand) {
    out += StringPrintf(
        " on_demand=1 rows_computed=%llu cache_hits=%llu cache_misses=%llu"
        " cache_evictions=%llu cache_entries=%zu",
        static_cast<unsigned long long>(service.rows_computed),
        static_cast<unsigned long long>(service.row_cache_hits),
        static_cast<unsigned long long>(service.row_cache_misses),
        static_cast<unsigned long long>(service.row_cache_evictions),
        service.row_cache_entries);
  }
  if (!last_reload_ok) {
    out += " last_error=\"" + last_reload_message + "\"";
  }
  return out;
}

TenantRegistry::TenantRegistry() {
  table_.store(std::make_shared<const Table>(), std::memory_order_release);
}

TenantRegistry::~TenantRegistry() {
  // Break every slot ↔ published-generation cycle (the fold deleters
  // capture their slots); without this an embedder tearing down the
  // registry would leak each tenant's graph + scores + service.
  std::shared_ptr<const Table> table = LoadTable();
  for (const auto& [name, slot] : *table) {
    slot->current.store(nullptr, std::memory_order_release);
  }
}

std::shared_ptr<const Tenant> TenantRegistry::Lookup(
    const std::string& name) const {
  std::shared_ptr<const Table> table = LoadTable();
  auto it = table->find(name);
  if (it == table->end()) return nullptr;
  return it->second->current.load(std::memory_order_acquire);
}

std::vector<std::string> TenantRegistry::TenantNames() const {
  std::shared_ptr<const Table> table = LoadTable();
  std::vector<std::string> names;
  names.reserve(table->size());
  for (const auto& [name, slot] : *table) names.push_back(name);
  std::sort(names.begin(), names.end());
  return names;
}

std::vector<TenantServeStats> TenantRegistry::Stats() const {
  std::shared_ptr<const Table> table = LoadTable();
  std::vector<TenantServeStats> all;
  all.reserve(table->size());
  for (const auto& [name, slot] : *table) {
    TenantServeStats stats;
    stats.tenant = name;
    std::shared_ptr<const Tenant> tenant =
        slot->current.load(std::memory_order_acquire);
    if (tenant != nullptr) {
      stats.serving = true;
      stats.generation = tenant->generation;
      stats.service = tenant->service->Stats();
      stats.queries_served =
          slot->retired_served.load(std::memory_order_relaxed) +
          stats.service.queries_served;
    }
    std::shared_ptr<const ReloadEvent> event =
        slot->last_reload.load(std::memory_order_acquire);
    if (event != nullptr) {
      stats.last_reload_ok = event->ok;
      stats.last_reload_message = event->message;
    }
    all.push_back(std::move(stats));
  }
  std::sort(all.begin(), all.end(),
            [](const TenantServeStats& a, const TenantServeStats& b) {
              return a.tenant < b.tenant;
            });
  return all;
}

size_t TenantRegistry::size() const { return LoadTable()->size(); }

std::shared_ptr<TenantRegistry::Slot> TenantRegistry::GetOrCreateSlotLocked(
    const std::string& name) {
  std::shared_ptr<const Table> table = LoadTable();
  auto it = table->find(name);
  if (it != table->end()) return it->second;
  // Copy-on-write: existing slots are carried over by pointer so their
  // counters and any reader mid-lookup stay valid.
  auto next = std::make_shared<Table>(*table);
  auto slot = std::make_shared<Slot>();
  next->emplace(name, slot);
  table_.store(std::shared_ptr<const Table>(std::move(next)),
               std::memory_order_release);
  return slot;
}

void TenantRegistry::Upsert(std::shared_ptr<const Tenant> tenant) {
  MutexLock lock(&write_mu_);
  std::shared_ptr<Slot> slot = GetOrCreateSlotLocked(tenant->name);
  slot->last_reload.store(std::make_shared<const ReloadEvent>(),
                          std::memory_order_release);
  // The published pointer is an aliasing wrapper whose "deleter" folds
  // the generation's final served count into the slot when the LAST
  // reference drops — i.e. after every reader that pinned this
  // generation has finished. Folding at swap time instead would lose the
  // increments of readers still mid-batch on the retired generation.
  // (`owned` keeps the Tenant alive; `slot` outlives the wrapper by
  // construction of the capture.)
  std::shared_ptr<const Tenant> owned = std::move(tenant);
  std::shared_ptr<const Tenant> published(
      owned.get(), [owned, slot](const Tenant*) {
        slot->retired_served.fetch_add(
            owned->service->Stats().queries_served,
            std::memory_order_relaxed);
      });
  // Single publication point: after this store every new Lookup sees the
  // new generation; in-flight readers finish on the old one.
  slot->current.exchange(std::move(published), std::memory_order_acq_rel);
}

bool TenantRegistry::Remove(const std::string& name) {
  MutexLock lock(&write_mu_);
  std::shared_ptr<const Table> table = LoadTable();
  auto it = table->find(name);
  if (it == table->end()) return false;
  std::shared_ptr<Slot> slot = it->second;
  auto next = std::make_shared<Table>(*table);
  next->erase(name);
  table_.store(std::shared_ptr<const Table>(std::move(next)),
               std::memory_order_release);
  // Break the slot ↔ published-generation cycle: the fold deleter of the
  // published pointer captures the slot, so leaving it in slot->current
  // would keep the whole generation (graph, scores, service) alive
  // forever. Clearing it lets the generation die as soon as the last
  // reader drops its pin.
  slot->current.store(nullptr, std::memory_order_release);
  return true;
}

void TenantRegistry::RecordReloadFailure(const std::string& name,
                                         const Status& status) {
  MutexLock lock(&write_mu_);
  std::shared_ptr<Slot> slot = GetOrCreateSlotLocked(name);
  auto event = std::make_shared<ReloadEvent>();
  event->ok = false;
  event->message = status.ToString();
  slot->last_reload.store(std::move(event), std::memory_order_release);
}

}  // namespace simrankpp
