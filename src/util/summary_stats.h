// Streaming summary statistics with optional exact quantiles; loadgen
// reports its client-side latency percentiles from it.
#ifndef SIMRANKPP_UTIL_SUMMARY_STATS_H_
#define SIMRANKPP_UTIL_SUMMARY_STATS_H_

#include <cstddef>
#include <vector>

namespace simrankpp {

/// \brief Accumulates values; exposes count/mean/variance/min/max and
/// quantiles (quantiles require the kept-sample mode).
class SummaryStats {
 public:
  /// \param keep_samples when true, all values are retained so exact
  /// quantiles can be computed; otherwise only streaming moments are kept.
  explicit SummaryStats(bool keep_samples = false);

  void Add(double value);

  size_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const;
  /// \brief Population variance (biased); 0 for fewer than 1 sample.
  double variance() const;
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }

  /// \brief Exact quantile in [0,1]; requires keep_samples. Empty => 0.
  double Quantile(double q) const;

 private:
  bool keep_samples_;
  size_t count_ = 0;
  double sum_ = 0.0;
  double sum_sq_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
};

}  // namespace simrankpp

#endif  // SIMRANKPP_UTIL_SUMMARY_STATS_H_
