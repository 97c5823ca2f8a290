#include "util/summary_stats.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace simrankpp {

SummaryStats::SummaryStats(bool keep_samples) : keep_samples_(keep_samples) {}

void SummaryStats::Add(double value) {
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
  sum_sq_ += value * value;
  if (keep_samples_) {
    samples_.push_back(value);
    sorted_ = false;
  }
}

double SummaryStats::mean() const {
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

double SummaryStats::variance() const {
  if (count_ == 0) return 0.0;
  double m = mean();
  double v = sum_sq_ / static_cast<double>(count_) - m * m;
  return v < 0.0 ? 0.0 : v;  // guard FP cancellation
}

double SummaryStats::stddev() const { return std::sqrt(variance()); }

double SummaryStats::Quantile(double q) const {
  SRPP_CHECK(keep_samples_)
      << "Quantile() needs SummaryStats(/*keep_samples=*/true)";
  if (samples_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
  q = std::clamp(q, 0.0, 1.0);
  double pos = q * static_cast<double>(samples_.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, samples_.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

}  // namespace simrankpp
