#include "serve/tenant_registry.h"

#include <algorithm>
#include <utility>

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

std::shared_ptr<const Tenant> TenantRegistry::Lookup(
    const std::string& name) const {
  MutexLock lock(&mu_);
  auto it = slots_.find(name);
  if (it == slots_.end()) return nullptr;
  return it->second.current;
}

std::vector<std::string> TenantRegistry::TenantNames() const {
  std::vector<std::string> names;
  {
    MutexLock lock(&mu_);
    names.reserve(slots_.size());
    for (const auto& [name, slot] : slots_) names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

std::vector<TenantServeStats> TenantRegistry::Stats() const {
  // Copied under the lock, read after it: the copies pin the serving
  // generations, and a pin dropped last releases outside the lock.
  std::vector<std::pair<std::string, Slot>> slots;
  {
    MutexLock lock(&mu_);
    slots.assign(slots_.begin(), slots_.end());
  }
  std::vector<TenantServeStats> all;
  all.reserve(slots.size());
  for (const auto& [name, slot] : slots) {
    TenantServeStats stats;
    stats.tenant = name;
    if (slot.current != nullptr) {
      stats.serving = true;
      stats.generation = slot.current->generation;
      stats.service = slot.current->service->Stats();
      stats.queries_served =
          slot.retired_served->load(std::memory_order_relaxed) +
          stats.service.queries_served;
    }
    stats.last_reload_ok = slot.last_reload.ok;
    stats.last_reload_message = slot.last_reload.message;
    all.push_back(std::move(stats));
  }
  std::sort(all.begin(), all.end(),
            [](const TenantServeStats& a, const TenantServeStats& b) {
              return a.tenant < b.tenant;
            });
  return all;
}

size_t TenantRegistry::size() const {
  MutexLock lock(&mu_);
  return slots_.size();
}

void TenantRegistry::Upsert(std::shared_ptr<const Tenant> tenant) {
  // Declared before the lock, so the replaced generation is released
  // after unlocking.
  std::shared_ptr<const Tenant> replaced;
  MutexLock lock(&mu_);
  Slot& slot = slots_[tenant->name];
  slot.last_reload = ReloadEvent();
  // The published pointer is an aliasing wrapper whose "deleter" folds
  // the generation's final served count into the slot's counter when the
  // LAST reference drops — i.e. after every reader that pinned this
  // generation has finished. Folding at swap time instead would lose the
  // increments of readers still mid-batch on the retired generation.
  // (`owned` keeps the Tenant alive.)
  std::shared_ptr<const Tenant> owned = std::move(tenant);
  std::shared_ptr<const Tenant> published(
      owned.get(),
      [owned, retired_served = slot.retired_served](const Tenant*) {
        retired_served->fetch_add(owned->service->Stats().queries_served,
                                  std::memory_order_relaxed);
      });
  // Single publication point: after this swap every new Lookup sees the
  // new generation; in-flight readers finish on the old one.
  replaced = std::exchange(slot.current, std::move(published));
}

bool TenantRegistry::Remove(const std::string& name) {
  // Declared before the lock, so the removed generation is released
  // after unlocking (or once the last reader that pinned it lets go).
  Table::node_type removed;
  MutexLock lock(&mu_);
  auto it = slots_.find(name);
  if (it == slots_.end()) return false;
  removed = slots_.extract(it);
  return true;
}

void TenantRegistry::RecordReloadFailure(const std::string& name,
                                         const Status& status) {
  ReloadEvent event{false, status.ToString()};
  MutexLock lock(&mu_);
  slots_[name].last_reload = std::move(event);
}

}  // namespace simrankpp
