#include "serve/snapshot_store.h"

#include <chrono>
#include <filesystem>
#include <fstream>
#include <utility>

#include "graph/graph_io.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace simrankpp {

namespace {

Result<BidDatabase> LoadBidFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::IOError("cannot open bid file: " + path);
  }
  BidDatabase bids;
  std::string line;
  while (std::getline(in, line)) {
    std::string_view term = TrimWhitespace(line);
    if (term.empty() || term.front() == '#') continue;
    bids.AddBid(term);
  }
  if (in.bad()) {
    return Status::IOError("read failure on bid file: " + path);
  }
  return bids;
}

}  // namespace

SnapshotStore::SnapshotStore(std::string manifest_path,
                             TenantRegistry* registry)
    : manifest_path_(std::move(manifest_path)), registry_(registry) {}

SnapshotStore::Fingerprint SnapshotStore::StatFile(const std::string& path) {
  std::error_code ec;
  std::filesystem::file_time_type mtime =
      std::filesystem::last_write_time(path, ec);
  if (ec) return {};
  uint64_t size = std::filesystem::file_size(path, ec);
  if (ec) return {};
  Fingerprint print;
  print.mtime_ns = static_cast<int64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          mtime.time_since_epoch())
          .count());
  print.size = size;
  return print;
}

Result<std::shared_ptr<const Tenant>> SnapshotStore::BuildTenant(
    const ManifestEntry& entry,
    const std::shared_ptr<const Tenant>& previous, bool reuse_assets) {
  // Reuse the parsed graph + bids when this is a snapshot-only swap: the
  // common hot-reload path then costs one snapshot read, not a graph
  // re-parse. (TenantAssets is immutable, so sharing is safe; the caller
  // only allows it when the graph/bid paths AND file fingerprints are
  // unchanged, so an in-place graph rewrite is always re-read.)
  std::shared_ptr<const TenantAssets> assets;
  if (reuse_assets && previous != nullptr &&
      previous->graph_path == entry.graph_path &&
      previous->bid_path == entry.bid_path) {
    assets = previous->assets;
  } else {
    auto fresh = std::make_shared<TenantAssets>();
    SRPP_ASSIGN_OR_RETURN(fresh->graph, LoadGraph(entry.graph_path));
    if (!entry.bid_path.empty()) {
      SRPP_ASSIGN_OR_RETURN(BidDatabase bids, LoadBidFile(entry.bid_path));
      fresh->bids = std::move(bids);
    }
    assets = std::move(fresh);
  }

  RewriteServiceBuilder builder;
  builder.WithGraph(&assets->graph)
      .WithBidDatabase(assets->bids.has_value() ? &*assets->bids : nullptr)
      .WithPipelineOptions(entry.pipeline);
  // On-demand tenants may omit the snapshot entirely (pure lazy scoring)
  // or pair one with the engine (precomputed rows serve directly, missing
  // rows are computed at query time).
  if (!entry.snapshot_path.empty()) builder.WithSnapshot(entry.snapshot_path);
  if (entry.on_demand) {
    builder.WithOnDemandEngine(entry.engine, SimRankOptions{});
  }
  if (entry.expected_side.has_value()) builder.WithSide(*entry.expected_side);
  SRPP_ASSIGN_OR_RETURN(std::unique_ptr<RewriteService> service,
                        builder.Build());

  if (entry.expected_checksum.has_value() &&
      service->Stats().snapshot_checksum != *entry.expected_checksum) {
    return Status::InvalidArgument(StringPrintf(
        "tenant %s: snapshot %s has checksum %016llx but the manifest "
        "pins %016llx",
        entry.tenant.c_str(), entry.snapshot_path.c_str(),
        static_cast<unsigned long long>(service->Stats().snapshot_checksum),
        static_cast<unsigned long long>(*entry.expected_checksum)));
  }

  auto tenant = std::make_shared<Tenant>();
  tenant->name = entry.tenant;
  tenant->generation = previous != nullptr ? previous->generation + 1 : 1;
  tenant->graph_path = entry.graph_path;
  tenant->snapshot_path = entry.snapshot_path;
  tenant->bid_path = entry.bid_path;
  tenant->assets = std::move(assets);
  tenant->service = std::move(service);
  return std::shared_ptr<const Tenant>(std::move(tenant));
}

Status SnapshotStore::ApplyEntryLocked(const ManifestEntry& entry) {
  // Fingerprint before the read: if a file is replaced mid-build, the
  // stale print makes the next poll reload it again rather than miss it.
  Watch watch;
  watch.entry = entry;
  watch.snapshot_print = StatFile(entry.snapshot_path);
  watch.graph_print = StatFile(entry.graph_path);
  if (!entry.bid_path.empty()) watch.bid_print = StatFile(entry.bid_path);

  auto previous_watch = watches_.find(entry.tenant);
  bool reuse_assets = previous_watch != watches_.end() &&
                      previous_watch->second.graph_print ==
                          watch.graph_print &&
                      previous_watch->second.bid_print == watch.bid_print;
  Result<std::shared_ptr<const Tenant>> tenant = BuildTenant(
      entry, registry_->Lookup(entry.tenant), reuse_assets);
  if (!tenant.ok()) {
    // Loud as well as recorded: the log line is where an operator sees
    // why, srpp_tenant_info{reload="failed"} only says that it failed.
    SRPP_LOG(Warning) << "tenant " << entry.tenant
                      << " failed to load (a previously published "
                         "generation keeps serving): "
                      << tenant.status().ToString();
    registry_->RecordReloadFailure(entry.tenant, tenant.status());
    // Remember the attempted snapshot so an unchanged broken file is not
    // retried by every poll — but keep the asset fingerprints of the
    // generation that is STILL SERVING: recording the attempted
    // graph/bid prints here would make a later successful reload think
    // "graph unchanged" and reuse stale parsed assets for a graph that
    // moved on disk while this attempt was failing.
    if (previous_watch != watches_.end()) {
      watch.graph_print = previous_watch->second.graph_print;
      watch.bid_print = previous_watch->second.bid_print;
    }
    watches_[entry.tenant] = std::move(watch);
    return tenant.status();
  }
  registry_->Upsert(*tenant);
  watches_[entry.tenant] = std::move(watch);
  return Status::OK();
}

Status SnapshotStore::RefreshManifestLocked() {
  // Fingerprint BEFORE the read: a manifest replaced mid-read then keeps
  // a stale print and is re-read by the next poll, rather than the new
  // content being silently treated as already applied.
  Fingerprint print = StatFile(manifest_path_);
  SRPP_ASSIGN_OR_RETURN(ServingManifest manifest,
                        LoadManifest(manifest_path_));
  manifest_ = std::move(manifest);
  manifest_print_ = print;
  return Status::OK();
}

Status SnapshotStore::LoadAll() {
  MutexLock lock(&mu_);
  SRPP_RETURN_NOT_OK(RefreshManifestLocked());

  // Drop tenants the manifest no longer names (LoadAll is authoritative).
  for (const std::string& name : registry_->TenantNames()) {
    if (manifest_.Find(name) == nullptr) {
      registry_->Remove(name);
      watches_.erase(name);
    }
  }

  Status first_failure = Status::OK();
  size_t failures = 0;
  for (const ManifestEntry& entry : manifest_.entries) {
    Status status = ApplyEntryLocked(entry);
    if (!status.ok()) {
      ++failures;
      if (first_failure.ok()) first_failure = status;
    }
  }
  if (failures > 0) {
    return Status::Internal(StringPrintf(
        "%zu of %zu tenants failed to load; first failure: %s", failures,
        manifest_.entries.size(), first_failure.ToString().c_str()));
  }
  return Status::OK();
}

Status SnapshotStore::Reload(const std::string& tenant) {
  MutexLock lock(&mu_);
  // Pick up manifest edits when the file moved; a vanished manifest is an
  // error for an explicit reload.
  if (StatFile(manifest_path_) != manifest_print_) {
    SRPP_RETURN_NOT_OK(RefreshManifestLocked());
  }
  const ManifestEntry* entry = manifest_.Find(tenant);
  if (entry == nullptr) {
    return Status::NotFound("tenant not in manifest: " + tenant);
  }
  return ApplyEntryLocked(*entry);
}

Result<std::vector<std::string>> SnapshotStore::PollForChanges() {
  MutexLock lock(&mu_);
  std::vector<std::string> reloaded;

  bool manifest_moved = StatFile(manifest_path_) != manifest_print_;
  if (manifest_moved) {
    SRPP_RETURN_NOT_OK(RefreshManifestLocked());
    // Tenants dropped from the manifest stop serving now.
    for (const std::string& name : registry_->TenantNames()) {
      if (manifest_.Find(name) == nullptr) {
        registry_->Remove(name);
        watches_.erase(name);
      }
    }
  }

  for (const ManifestEntry& entry : manifest_.entries) {
    auto watch = watches_.find(entry.tenant);
    bool changed =
        watch == watches_.end() || !(watch->second.entry == entry) ||
        watch->second.snapshot_print != StatFile(entry.snapshot_path) ||
        watch->second.graph_print != StatFile(entry.graph_path) ||
        (!entry.bid_path.empty() &&
         watch->second.bid_print != StatFile(entry.bid_path));
    if (!changed) continue;
    if (ApplyEntryLocked(entry).ok()) {
      reloaded.push_back(entry.tenant);
    }
  }
  return reloaded;
}

}  // namespace simrankpp
