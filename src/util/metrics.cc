#include "util/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "util/logging.h"
#include "util/string_util.h"

namespace simrankpp {

namespace {

bool IsNameChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_';
}

// Prometheus sample value: counters print as exact integers, everything
// else as shortest-round-trip-ish %.9g (monitoring precision).
std::string FormatValue(double value) {
  double integral = 0.0;
  if (std::modf(value, &integral) == 0.0 && std::abs(value) < 1e15) {
    return StringPrintf("%lld", static_cast<long long>(value));
  }
  return StringPrintf("%.9g", value);
}

std::string FormatBound(double bound) {
  if (std::isinf(bound)) return "+Inf";
  return FormatValue(bound);
}

// Label values escape backslash, double-quote, and newline (the three
// escapes the exposition format defines).
void AppendEscaped(std::string_view value, std::string* out) {
  for (char c : value) {
    switch (c) {
      case '\\':
        *out += "\\\\";
        break;
      case '"':
        *out += "\\\"";
        break;
      case '\n':
        *out += "\\n";
        break;
      default:
        *out += c;
    }
  }
}

// Renders {a="x",b="y"}; `extra` appends one more pair (the `le` label).
void AppendLabels(const MetricLabels& labels,
                  const std::pair<std::string, std::string>* extra,
                  std::string* out) {
  if (labels.empty() && extra == nullptr) return;
  *out += '{';
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) *out += ',';
    first = false;
    *out += key;
    *out += "=\"";
    AppendEscaped(value, out);
    *out += '"';
  }
  if (extra != nullptr) {
    if (!first) *out += ',';
    *out += extra->first;
    *out += "=\"";
    AppendEscaped(extra->second, out);
    *out += '"';
  }
  *out += '}';
}

std::vector<std::string> LabelNames(const MetricLabels& labels) {
  std::vector<std::string> names;
  names.reserve(labels.size());
  for (const auto& [key, value] : labels) names.push_back(key);
  return names;
}

std::vector<std::string> LabelValues(const MetricLabels& labels) {
  std::vector<std::string> values;
  values.reserve(labels.size());
  for (const auto& [key, value] : labels) values.push_back(value);
  return values;
}

MetricLabels ZipLabels(const std::vector<std::string>& names,
                       const std::vector<std::string>& values) {
  MetricLabels labels;
  labels.reserve(names.size());
  for (size_t i = 0; i < names.size(); ++i) {
    labels.emplace_back(names[i], values[i]);
  }
  return labels;
}

}  // namespace

const char* MetricKindName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "unknown";
}

bool IsValidMetricName(std::string_view name, MetricKind kind) {
  if (!name.starts_with("srpp_")) return false;
  if (!std::all_of(name.begin(), name.end(), IsNameChar)) return false;
  if (kind == MetricKind::kCounter) return EndsWith(name, "_total");
  // Gauges and histograms: a unit suffix, or the info-gauge convention.
  return EndsWith(name, "_total") || EndsWith(name, "_seconds") ||
         EndsWith(name, "_bytes") || EndsWith(name, "_ratio") ||
         (kind == MetricKind::kGauge && EndsWith(name, "_info"));
}

// ---------------------------------------------------------------------------
// HistogramMetric
// ---------------------------------------------------------------------------

HistogramMetric::HistogramMetric(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      counts_(std::make_unique<std::atomic<uint64_t>[]>(bounds_.size() + 1)) {
  SRPP_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()))
      << "histogram bounds must be ascending";
}

void HistogramMetric::Observe(double value) {
  size_t bucket = std::upper_bound(bounds_.begin(), bounds_.end(), value) -
                  bounds_.begin();
  // upper_bound gives the first bound strictly greater; Prometheus `le`
  // buckets are inclusive, so a value equal to a bound belongs in it.
  if (bucket > 0 && bounds_[bucket - 1] == value) --bucket;
  counts_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

HistogramSnapshot HistogramMetric::Snapshot() const {
  HistogramSnapshot snapshot;
  snapshot.bounds = bounds_;
  snapshot.counts.resize(bounds_.size() + 1);
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    snapshot.counts[i] = counts_[i].load(std::memory_order_relaxed);
  }
  snapshot.count = count_.load(std::memory_order_relaxed);
  snapshot.sum = sum_.load(std::memory_order_relaxed);
  return snapshot;
}

double HistogramSnapshot::ApproxQuantile(double q) const {
  uint64_t total = 0;
  for (uint64_t c : counts) total += c;
  if (total == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the q-th observation (1-based, ceil like the exact-quantile
  // convention in SummaryStats).
  uint64_t rank = static_cast<uint64_t>(std::ceil(q * total));
  if (rank == 0) rank = 1;
  uint64_t seen = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    if (seen + counts[i] >= rank) {
      double lo = i == 0 ? 0.0 : bounds[i - 1];
      double hi = i < bounds.size() ? bounds[i] : lo;  // +Inf: clamp to lo
      double within = counts[i] == 0
                          ? 0.0
                          : static_cast<double>(rank - seen) / counts[i];
      return lo + (hi - lo) * within;
    }
    seen += counts[i];
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

std::vector<double> ExponentialBuckets(double start, double factor,
                                       size_t count) {
  SRPP_CHECK(start > 0.0 && factor > 1.0);
  std::vector<double> bounds;
  bounds.reserve(count);
  double bound = start;
  for (size_t i = 0; i < count; ++i) {
    bounds.push_back(bound);
    bound *= factor;
  }
  return bounds;
}

std::vector<double> LinearBuckets(double start, double width, size_t count) {
  SRPP_CHECK(width > 0.0);
  std::vector<double> bounds;
  bounds.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    bounds.push_back(start + width * static_cast<double>(i));
  }
  return bounds;
}

// ---------------------------------------------------------------------------
// MetricsSnapshot
// ---------------------------------------------------------------------------

std::string MetricsSnapshot::ToPrometheusText() const {
  std::string out;
  for (const MetricFamilySnapshot& family : families) {
    out += "# HELP " + family.name + " " + family.help + "\n";
    out += "# TYPE " + family.name + " ";
    out += MetricKindName(family.kind);
    out += '\n';
    for (const MetricPoint& point : family.points) {
      if (family.kind == MetricKind::kHistogram) {
        SRPP_CHECK(point.histogram.has_value())
            << "histogram family " << family.name << " missing data";
        const HistogramSnapshot& h = *point.histogram;
        uint64_t cumulative = 0;
        for (size_t i = 0; i < h.counts.size(); ++i) {
          cumulative += h.counts[i];
          double bound = i < h.bounds.size()
                             ? h.bounds[i]
                             : std::numeric_limits<double>::infinity();
          std::pair<std::string, std::string> le{"le", FormatBound(bound)};
          out += family.name + "_bucket";
          AppendLabels(point.labels, &le, &out);
          out += ' ';
          out += FormatValue(static_cast<double>(cumulative));
          out += '\n';
        }
        out += family.name + "_sum";
        AppendLabels(point.labels, nullptr, &out);
        out += ' ';
        out += StringPrintf("%.9g", h.sum);
        out += '\n';
        out += family.name + "_count";
        AppendLabels(point.labels, nullptr, &out);
        out += ' ';
        out += FormatValue(static_cast<double>(h.count));
        out += '\n';
      } else {
        out += family.name;
        AppendLabels(point.labels, nullptr, &out);
        out += ' ';
        out += FormatValue(point.value);
        out += '\n';
      }
    }
  }
  return out;
}

const MetricPoint* MetricsSnapshot::Find(std::string_view name,
                                         const MetricLabels& labels) const {
  for (const MetricFamilySnapshot& family : families) {
    if (family.name != name) continue;
    for (const MetricPoint& point : family.points) {
      if (point.labels == labels) return &point;
    }
  }
  return nullptr;
}

double MetricsSnapshot::Value(std::string_view name,
                              const MetricLabels& labels,
                              double fallback) const {
  const MetricPoint* point = Find(name, labels);
  return point == nullptr ? fallback : point->value;
}

double MetricsSnapshot::Total(std::string_view name,
                              const MetricLabels& match) const {
  double total = 0.0;
  for (const MetricFamilySnapshot& family : families) {
    if (family.name != name) continue;
    for (const MetricPoint& point : family.points) {
      bool matches = std::all_of(
          match.begin(), match.end(), [&point](const auto& label) {
            return std::find(point.labels.begin(), point.labels.end(),
                             label) != point.labels.end();
          });
      if (matches) total += point.value;
    }
  }
  return total;
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

MetricsRegistry::Family* MetricsRegistry::GetFamilyLocked(
    std::string_view name, std::string_view help, MetricKind kind,
    const MetricLabels& labels) {
  SRPP_CHECK(IsValidMetricName(name, kind))
      << "metric name \"" << std::string(name)
      << "\" violates the naming policy (srpp_ prefix + unit suffix; "
         "docs/OBSERVABILITY.md)";
  auto [it, inserted] = families_.try_emplace(std::string(name));
  Family* family = &it->second;
  if (inserted) {
    family->kind = kind;
    family->help = std::string(help);
    family->label_names = LabelNames(labels);
  } else {
    SRPP_CHECK(family->kind == kind)
        << "metric " << std::string(name) << " re-registered as a different "
        << "kind (" << MetricKindName(family->kind) << " vs "
        << MetricKindName(kind) << ")";
    SRPP_CHECK(family->label_names == LabelNames(labels))
        << "metric " << std::string(name)
        << " re-registered with different label names";
  }
  return family;
}

Counter* MetricsRegistry::GetCounter(std::string_view name,
                                     std::string_view help,
                                     const MetricLabels& labels) {
  MutexLock lock(&mu_);
  Family* family = GetFamilyLocked(name, help, MetricKind::kCounter, labels);
  auto [it, inserted] =
      family->counters.try_emplace(LabelValues(labels), nullptr);
  if (inserted) {
    // srpp:allow(naked-new): Counter's constructor is private to keep
    // unregistered instances out; make_unique cannot reach it.
    it->second.reset(new Counter());
  }
  return it->second.get();
}

Gauge* MetricsRegistry::GetGauge(std::string_view name, std::string_view help,
                                 const MetricLabels& labels) {
  MutexLock lock(&mu_);
  Family* family = GetFamilyLocked(name, help, MetricKind::kGauge, labels);
  auto [it, inserted] =
      family->gauges.try_emplace(LabelValues(labels), nullptr);
  if (inserted) {
    // srpp:allow(naked-new): private constructor, same as Counter.
    it->second.reset(new Gauge());
  }
  return it->second.get();
}

HistogramMetric* MetricsRegistry::GetHistogram(std::string_view name,
                                               std::string_view help,
                                               std::vector<double> bounds,
                                               const MetricLabels& labels) {
  MutexLock lock(&mu_);
  Family* family =
      GetFamilyLocked(name, help, MetricKind::kHistogram, labels);
  if (family->histograms.empty()) {
    family->bounds = bounds;
  } else {
    SRPP_CHECK(family->bounds == bounds)
        << "histogram " << std::string(name)
        << " re-registered with different bucket bounds";
  }
  auto [it, inserted] =
      family->histograms.try_emplace(LabelValues(labels), nullptr);
  if (inserted) {
    // srpp:allow(naked-new): private constructor, same as Counter.
    it->second.reset(new HistogramMetric(std::move(bounds)));
  }
  return it->second.get();
}

void MetricsRegistry::SetInfo(std::string_view name, std::string_view help,
                              MetricLabels labels) {
  MutexLock lock(&mu_);
  SRPP_CHECK(IsValidMetricName(name, MetricKind::kGauge) &&
             name.ends_with("_info"))
      << "info metric \"" << std::string(name) << "\" must end in _info";
  auto [it, inserted] = families_.try_emplace(std::string(name));
  Family* family = &it->second;
  family->kind = MetricKind::kGauge;
  family->help = std::string(help);
  family->label_names = LabelNames(labels);
  family->gauges.clear();
  // srpp:allow(naked-new): private constructor, same as Counter.
  std::unique_ptr<Gauge> gauge(new Gauge());
  gauge->Set(1.0);
  family->gauges.emplace(LabelValues(labels), std::move(gauge));
}

void MetricsRegistry::AddCollector(Collector collector) {
  MutexLock lock(&mu_);
  collectors_.push_back(std::move(collector));
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snapshot;
  MutexLock lock(&mu_);
  snapshot.families.reserve(families_.size());
  for (const auto& [name, family] : families_) {
    MetricFamilySnapshot out;
    out.name = name;
    out.help = family.help;
    out.kind = family.kind;
    for (const auto& [values, counter] : family.counters) {
      MetricPoint point;
      point.labels = ZipLabels(family.label_names, values);
      point.value = static_cast<double>(counter->Value());
      out.points.push_back(std::move(point));
    }
    for (const auto& [values, gauge] : family.gauges) {
      MetricPoint point;
      point.labels = ZipLabels(family.label_names, values);
      point.value = gauge->Value();
      out.points.push_back(std::move(point));
    }
    for (const auto& [values, histogram] : family.histograms) {
      MetricPoint point;
      point.labels = ZipLabels(family.label_names, values);
      point.histogram = histogram->Snapshot();
      point.value = point.histogram->sum;
      out.points.push_back(std::move(point));
    }
    snapshot.families.push_back(std::move(out));
  }
  // Collector families append after the directly-instrumented ones, then
  // one stable sort keeps the whole exposition ordered by name.
  std::vector<MetricFamilySnapshot> collected;
  for (const Collector& collector : collectors_) {
    collector(&collected);
  }
  for (MetricFamilySnapshot& family : collected) {
    SRPP_CHECK(IsValidMetricName(
        family.name,
        family.name.ends_with("_info") ? MetricKind::kGauge : family.kind))
        << "collector metric \"" << family.name
        << "\" violates the naming policy";
    snapshot.families.push_back(std::move(family));
  }
  std::stable_sort(snapshot.families.begin(), snapshot.families.end(),
                   [](const MetricFamilySnapshot& a,
                      const MetricFamilySnapshot& b) {
                     return a.name < b.name;
                   });
  return snapshot;
}

std::string MetricsRegistry::PrometheusText() const {
  return Snapshot().ToPrometheusText();
}

MetricsRegistry& MetricsRegistry::Default() {
  // Intentionally leaked: handles cached by library code must stay valid
  // through static destruction.
  // srpp:allow(naked-new): leaked-on-purpose process singleton
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

}  // namespace simrankpp
