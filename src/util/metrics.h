/// @file metrics.h
/// @brief Process-wide metrics registry: labeled counter / gauge /
/// histogram families with a consistent snapshot and a Prometheus
/// text-exposition writer (docs/OBSERVABILITY.md).
///
/// Design goals, in order:
///   1. Hot-path cost of an instrumented event is one relaxed atomic
///      RMW on a cached handle — registration returns a stable pointer,
///      so serving code resolves its (family, labels) child once and
///      increments forever after without a lock or a map lookup.
///   2. One source of truth. Everything a scraper, a test, the CLI, or
///      a bench report wants comes out of Snapshot(); surfaces render
///      from the snapshot instead of keeping parallel counters.
///   3. Objects that already own their counters (e.g. an immutable
///      RewriteService generation) are bridged with a Collector
///      callback that contributes samples at snapshot time, instead of
///      double-counting into registry-owned cells.
///
/// Naming policy (enforced here with SRPP_CHECK and by the
/// `metric-naming` rule in tools/lint_invariants.py): every family name
/// matches `srpp_[a-z0-9_]+` and ends in a unit suffix — `_total` for
/// counters, one of `_total|_seconds|_bytes|_ratio` for gauges and
/// histograms, `_info` for info gauges.
#ifndef SIMRANKPP_UTIL_METRICS_H_
#define SIMRANKPP_UTIL_METRICS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/thread_annotations.h"

namespace simrankpp {

/// \brief One label set: ordered (key, value) pairs. Order is part of a
/// child's identity; register with a consistent order.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

enum class MetricKind { kCounter, kGauge, kHistogram };

/// \brief "counter" / "gauge" / "histogram" (the TYPE line tokens).
const char* MetricKindName(MetricKind kind);

/// \brief True when `name` satisfies the naming policy for `kind`.
bool IsValidMetricName(std::string_view name, MetricKind kind);

/// \brief Monotonic counter. Increment is one relaxed fetch_add; the
/// relaxed order is deliberate — counters publish no data, so there is
/// nothing for acquire/release to order.
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  Counter() = default;
  std::atomic<uint64_t> value_{0};
};

/// \brief Instantaneous value (queue fill, cache occupancy, ...).
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  double Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  Gauge() = default;
  std::atomic<double> value_{0.0};
};

/// \brief Point-in-time histogram contents (also the exposition shape:
/// cumulative `le` buckets are derived from the per-bucket counts).
struct HistogramSnapshot {
  /// Ascending upper bounds; the +Inf bucket is implicit at the end.
  std::vector<double> bounds;
  /// Per-bucket (not cumulative) counts; size == bounds.size() + 1.
  std::vector<uint64_t> counts;
  uint64_t count = 0;
  double sum = 0.0;

  double mean() const { return count == 0 ? 0.0 : sum / count; }

  /// \brief Approximate quantile by linear interpolation inside the
  /// bucket holding the q-th observation (resolution: one bucket).
  double ApproxQuantile(double q) const;
};

/// \brief Fixed-bucket histogram; Observe is wait-free (per-bucket
/// relaxed adds). The count/sum/bucket cells are updated independently,
/// so a concurrent snapshot can see a torn view that is off by the few
/// observations in flight — fine for monitoring, documented here so no
/// one builds an invariant on top of it.
class HistogramMetric {
 public:
  void Observe(double value);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  const std::vector<double>& bounds() const { return bounds_; }

  HistogramSnapshot Snapshot() const;

 private:
  friend class MetricsRegistry;
  explicit HistogramMetric(std::vector<double> bounds);

  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<uint64_t>[]> counts_;  // bounds_.size() + 1
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// \brief `count` upper bounds: start, start*factor, start*factor^2, ...
std::vector<double> ExponentialBuckets(double start, double factor,
                                       size_t count);

/// \brief `count` upper bounds: start, start+width, start+2*width, ...
std::vector<double> LinearBuckets(double start, double width, size_t count);

/// \brief One child's sample inside a family snapshot.
struct MetricPoint {
  MetricLabels labels;
  /// Counter / gauge value (counters as exact integers in double).
  double value = 0.0;
  /// Histogram families only.
  std::optional<HistogramSnapshot> histogram;
};

struct MetricFamilySnapshot {
  std::string name;
  std::string help;
  MetricKind kind = MetricKind::kCounter;
  std::vector<MetricPoint> points;
};

/// \brief Consistent point-in-time view of a registry: families sorted
/// by name, each child's labels in registration order.
struct MetricsSnapshot {
  std::vector<MetricFamilySnapshot> families;

  /// \brief Prometheus text exposition format 0.0.4.
  std::string ToPrometheusText() const;

  /// \brief The point for (name, labels), or nullptr. For histograms
  /// use the returned point's `histogram`.
  const MetricPoint* Find(std::string_view name,
                          const MetricLabels& labels = {}) const;

  /// \brief Find().value with a fallback for missing series.
  double Value(std::string_view name, const MetricLabels& labels = {},
               double fallback = 0.0) const;

  /// \brief Sum of the values of every point in family `name` whose
  /// labels include each (key, value) pair of `match` (an empty match
  /// sums the whole family); 0 when nothing matches. Counter and gauge
  /// families only: histogram points carry no value.
  double Total(std::string_view name, const MetricLabels& match = {}) const;
};

/// \brief Registry of metric families. Registration (Get*) takes a
/// mutex and is idempotent — the same (name, labels) returns the same
/// stable pointer, so handles may be cached forever. A kind or label-set
/// mismatch against an existing family is a programming error
/// (SRPP_CHECK), as is a name violating the naming policy.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(std::string_view name, std::string_view help,
                      const MetricLabels& labels = {});
  Gauge* GetGauge(std::string_view name, std::string_view help,
                  const MetricLabels& labels = {});
  HistogramMetric* GetHistogram(std::string_view name, std::string_view help,
                                std::vector<double> bounds,
                                const MetricLabels& labels = {});

  /// \brief Info-style gauge (`..._info`, value pinned to 1, identity in
  /// the labels). Replaces the family's previous child, so a changed
  /// identity swaps rather than accumulates.
  void SetInfo(std::string_view name, std::string_view help,
               MetricLabels labels);

  /// \brief Snapshot-time contributor for counters owned elsewhere
  /// (e.g. per-tenant serving stats inside immutable generations).
  /// Collectors run on the scraping thread under the registry mutex and
  /// must only read thread-safe state. Family names contributed here
  /// are subject to the same naming policy (checked at snapshot time).
  using Collector = std::function<void(std::vector<MetricFamilySnapshot>*)>;
  void AddCollector(Collector collector);

  MetricsSnapshot Snapshot() const;

  /// \brief Snapshot().ToPrometheusText() convenience.
  std::string PrometheusText() const;

  /// \brief The process-wide default registry (library-level metrics;
  /// servers that need isolation own their own instance).
  static MetricsRegistry& Default();

 private:
  struct Family {
    MetricKind kind = MetricKind::kCounter;
    std::string help;
    std::vector<std::string> label_names;
    /// Child identity: label values in label_names order.
    /// std::map keeps exposition order deterministic.
    std::map<std::vector<std::string>, std::unique_ptr<Counter>> counters;
    std::map<std::vector<std::string>, std::unique_ptr<Gauge>> gauges;
    std::map<std::vector<std::string>, std::unique_ptr<HistogramMetric>>
        histograms;
    /// Histogram families: bounds shared by every child.
    std::vector<double> bounds;
  };

  Family* GetFamilyLocked(std::string_view name, std::string_view help,
                          MetricKind kind, const MetricLabels& labels)
      SRPP_REQUIRES(mu_);

  mutable Mutex mu_;
  std::map<std::string, Family> families_ SRPP_GUARDED_BY(mu_);
  std::vector<Collector> collectors_ SRPP_GUARDED_BY(mu_);
};

}  // namespace simrankpp

#endif  // SIMRANKPP_UTIL_METRICS_H_
