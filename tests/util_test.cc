// Unit tests for the util substrate: Status/Result, RNG, Zipf sampling,
// string helpers, table/CSV rendering, thread pool, statistics.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>
#include <thread>

#include "util/csv_writer.h"
#include "util/random.h"
#include "util/status.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/summary_stats.h"
#include "util/table_printer.h"
#include "util/thread_pool.h"
#include "util/zipf.h"

namespace simrankpp {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status status = Status::InvalidArgument("bad k");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "bad k");
  EXPECT_EQ(status.ToString(), "InvalidArgument: bad k");
}

TEST(StatusTest, AllFactoryCodesDistinct) {
  std::set<StatusCode> codes = {
      Status::InvalidArgument("").code(), Status::NotFound("").code(),
      Status::AlreadyExists("").code(),   Status::OutOfRange("").code(),
      Status::FailedPrecondition("").code(), Status::IOError("").code(),
      Status::Internal("").code(),        Status::NotImplemented("").code(),
  };
  EXPECT_EQ(codes.size(), 8u);
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
  EXPECT_FALSE(Status::NotFound("x") == Status::Internal("x"));
}

TEST(ResultTest, HoldsValue) {
  Result<int> result(41);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 41);
  EXPECT_EQ(result.value_or(0), 41);
}

TEST(ResultTest, HoldsError) {
  Result<int> result = Status::NotFound("nothing");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(result.value_or(-7), -7);
}

Result<int> HalveEven(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> QuarterEven(int x) {
  SRPP_ASSIGN_OR_RETURN(int half, HalveEven(x));
  SRPP_ASSIGN_OR_RETURN(int quarter, HalveEven(half));
  return quarter;
}

TEST(ResultTest, AssignOrReturnMacroPropagates) {
  Result<int> ok = QuarterEven(8);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 2);
  Result<int> bad = QuarterEven(6);  // 6/2 = 3 is odd
  EXPECT_FALSE(bad.ok());
}

// ------------------------------------------------------------------- Rng

TEST(RngTest, DeterministicForSeed) {
  Rng a(12345), b(12345);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, NextBoundedWithinBound) {
  Rng rng(8);
  for (uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.NextBounded(bound), bound);
    }
  }
}

TEST(RngTest, NextBoundedCoversAllResidues) {
  Rng rng(9);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.NextBounded(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(10);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.NextBernoulli(0.0));
    EXPECT_TRUE(rng.NextBernoulli(1.0));
  }
}

TEST(RngTest, BernoulliRateApproximatesP) {
  Rng rng(11);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.NextBernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, GaussianMomentsApproximatelyStandard) {
  Rng rng(12);
  double sum = 0, sum_sq = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    double x = rng.NextGaussian();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(RngTest, ExponentialMeanIsInverseRate) {
  Rng rng(13);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.NextExponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, WeightedSamplingRespectsWeights) {
  Rng rng(14);
  std::vector<double> weights = {1.0, 3.0, 0.0, 6.0};
  std::vector<int> counts(4, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.NextWeighted(weights)];
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.01);
  EXPECT_NEAR(counts[3] / static_cast<double>(n), 0.6, 0.01);
}

TEST(RngTest, SampleWithoutReplacementDistinctAndSorted) {
  Rng rng(15);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<size_t> sample = rng.SampleWithoutReplacement(100, 17);
    EXPECT_EQ(sample.size(), 17u);
    for (size_t i = 1; i < sample.size(); ++i) {
      EXPECT_LT(sample[i - 1], sample[i]);
      EXPECT_LT(sample[i], 100u);
    }
  }
}

TEST(RngTest, SampleWithoutReplacementFullSet) {
  Rng rng(16);
  std::vector<size_t> sample = rng.SampleWithoutReplacement(5, 9);
  EXPECT_EQ(sample, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

TEST(RngTest, SplitStreamsDiffer) {
  Rng parent(17);
  Rng child = parent.Split();
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent.Next() == child.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(18);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  std::vector<int> shuffled = v;
  rng.Shuffle(&shuffled);
  std::multiset<int> a(v.begin(), v.end());
  std::multiset<int> b(shuffled.begin(), shuffled.end());
  EXPECT_EQ(a, b);
}

// ------------------------------------------------------------------ Zipf

TEST(ZipfTest, SamplesWithinRange) {
  ZipfSampler zipf(100, 1.1);
  Rng rng(20);
  for (int i = 0; i < 10000; ++i) {
    size_t k = zipf.Sample(&rng);
    EXPECT_GE(k, 1u);
    EXPECT_LE(k, 100u);
  }
}

TEST(ZipfTest, RankOneMostFrequent) {
  ZipfSampler zipf(50, 1.0);
  Rng rng(21);
  std::vector<int> counts(51, 0);
  for (int i = 0; i < 200000; ++i) ++counts[zipf.Sample(&rng)];
  EXPECT_GT(counts[1], counts[2]);
  EXPECT_GT(counts[2], counts[10]);
  EXPECT_GT(counts[10], counts[50]);
}

TEST(ZipfTest, FrequencyRatioMatchesExponent) {
  // P(1)/P(2) should be 2^s.
  ZipfSampler zipf(1000, 1.5);
  Rng rng(22);
  int c1 = 0, c2 = 0;
  for (int i = 0; i < 400000; ++i) {
    size_t k = zipf.Sample(&rng);
    if (k == 1) ++c1;
    if (k == 2) ++c2;
  }
  double ratio = static_cast<double>(c1) / static_cast<double>(c2);
  EXPECT_NEAR(ratio, std::pow(2.0, 1.5), 0.25);
}

TEST(ZipfTest, SingleRankDegenerates) {
  ZipfSampler zipf(1, 1.0);
  Rng rng(23);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(zipf.Sample(&rng), 1u);
}

TEST(ZipfTest, ExponentEstimationRecoversTruth) {
  // Build an exact rank-frequency sequence for exponent 1.2 and check the
  // estimator lands near it.
  std::vector<size_t> values;
  for (size_t rank = 1; rank <= 500; ++rank) {
    double freq = 1e6 * std::pow(static_cast<double>(rank), -1.2);
    values.push_back(static_cast<size_t>(freq));
  }
  double estimate = EstimatePowerLawExponent(values);
  EXPECT_NEAR(estimate, 1.2, 0.1);
}

TEST(ZipfTest, ExponentEstimationDegenerateInputs) {
  EXPECT_EQ(EstimatePowerLawExponent({}), 0.0);
  EXPECT_EQ(EstimatePowerLawExponent({5}), 0.0);
  EXPECT_EQ(EstimatePowerLawExponent({3, 3, 3, 3}), 0.0);  // flat: no law
}

// ---------------------------------------------------------------- String

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  EXPECT_EQ(SplitString("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(SplitString("", ','), (std::vector<std::string>{""}));
}

TEST(StringUtilTest, JoinInvertsSplit) {
  std::vector<std::string> parts = {"x", "y", "z"};
  EXPECT_EQ(JoinStrings(parts, "-"), "x-y-z");
  EXPECT_EQ(SplitString("x-y-z", '-'), parts);
}

TEST(StringUtilTest, ToLowerAsciiOnlyTouchesAscii) {
  EXPECT_EQ(ToLowerAscii("CaMeRa 3X"), "camera 3x");
}

TEST(StringUtilTest, TrimWhitespace) {
  EXPECT_EQ(TrimWhitespace("  camera \t\n"), "camera");
  EXPECT_EQ(TrimWhitespace("\t \n"), "");
  EXPECT_EQ(TrimWhitespace("x"), "x");
}

TEST(StringUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("digital camera", "digital"));
  EXPECT_FALSE(StartsWith("digital", "digital camera"));
  EXPECT_TRUE(EndsWith("digital camera", "camera"));
  EXPECT_FALSE(EndsWith("camera", "digital camera"));
}

TEST(StringUtilTest, StringPrintfFormats) {
  EXPECT_EQ(StringPrintf("%d-%s-%.2f", 3, "x", 1.5), "3-x-1.50");
  EXPECT_EQ(StringPrintf("%s", ""), "");
}

TEST(StringUtilTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(0.619, 3), "0.619");
  EXPECT_EQ(FormatDouble(0.5, 1), "0.5");
}

TEST(StringUtilTest, FormatWithCommas) {
  EXPECT_EQ(FormatWithCommas(0), "0");
  EXPECT_EQ(FormatWithCommas(999), "999");
  EXPECT_EQ(FormatWithCommas(1000), "1,000");
  EXPECT_EQ(FormatWithCommas(1280920), "1,280,920");
  EXPECT_EQ(FormatWithCommas(4045062), "4,045,062");
}

// ----------------------------------------------------------- TablePrinter

TEST(TablePrinterTest, RendersAlignedTable) {
  TablePrinter table("Title");
  table.SetHeader({"a", "long-header"});
  table.AddRow({"xx", "y"});
  std::string out = table.ToString();
  EXPECT_NE(out.find("Title"), std::string::npos);
  EXPECT_NE(out.find("| a  | long-header |"), std::string::npos);
  EXPECT_NE(out.find("| xx | y           |"), std::string::npos);
}

TEST(TablePrinterTest, RaggedRowsPadded) {
  TablePrinter table;
  table.SetHeader({"a", "b", "c"});
  table.AddRow({"1"});
  std::string out = table.ToString();
  EXPECT_NE(out.find("| 1 |   |   |"), std::string::npos);
}

// -------------------------------------------------------------- CsvWriter

TEST(CsvWriterTest, PlainRows) {
  CsvWriter csv;
  csv.SetHeader({"x", "y"});
  csv.AddRow({"1", "2"});
  EXPECT_EQ(csv.ToString(), "x,y\n1,2\n");
}

TEST(CsvWriterTest, EscapesSeparatorsQuotesNewlines) {
  CsvWriter csv;
  csv.AddRow({"a,b", "he said \"hi\"", "line\nbreak"});
  EXPECT_EQ(csv.ToString(), "\"a,b\",\"he said \"\"hi\"\"\",\"line\nbreak\"\n");
}

TEST(CsvWriterTest, TsvSeparator) {
  CsvWriter tsv('\t');
  tsv.AddRow({"a", "b,c"});
  EXPECT_EQ(tsv.ToString(), "a\tb,c\n");  // comma needs no quoting in TSV
}

TEST(CsvWriterTest, WriteToFileRoundTrips) {
  CsvWriter csv;
  csv.SetHeader({"k", "v"});
  csv.AddRow({"a", "1"});
  std::string path = ::testing::TempDir() + "/srpp_csv_test.csv";
  ASSERT_TRUE(csv.WriteToFile(path).ok());
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[64] = {0};
  size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  EXPECT_EQ(std::string(buf, n), "k,v\na,1\n");
}

// -------------------------------------------------------------- ThreadPool

TEST(ThreadPoolTest, ExecutesAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.WaitIdle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(1000, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForEmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool ran = false;
  pool.ParallelFor(0, [&](size_t, size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPoolTest, WaitIdleOnFreshPoolReturns) {
  ThreadPool pool(2);
  pool.WaitIdle();  // must not deadlock
  SUCCEED();
}

TEST(ThreadPoolTest, ResolveThreadCount) {
  EXPECT_EQ(ResolveThreadCount(3), 3u);
  EXPECT_GE(ResolveThreadCount(0), 1u);
  EXPECT_EQ(ThreadPool(0).num_threads(), ResolveThreadCount(0));
}

TEST(ThreadPoolTest, ParallelForChunkedCoversRangeAndChunksOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(500);
  std::vector<std::atomic<int>> chunk_hits(7);
  pool.ParallelForChunked(500, 7,
                          [&](size_t chunk, size_t begin, size_t end) {
                            ASSERT_LT(chunk, 7u);
                            ASSERT_LT(begin, end);
                            chunk_hits[chunk].fetch_add(1);
                            for (size_t i = begin; i < end; ++i) {
                              hits[i].fetch_add(1);
                            }
                          });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  for (const auto& c : chunk_hits) EXPECT_EQ(c.load(), 1);
}

TEST(ThreadPoolTest, ParallelForChunkedPartitionIgnoresThreadCount) {
  // The chunk boundaries must depend only on (count, num_chunks) — this
  // is what lets the sparse engine produce bit-identical score maps for
  // any thread count.
  auto boundaries = [](size_t threads) {
    ThreadPool pool(threads);
    std::mutex mu;
    std::vector<std::pair<size_t, size_t>> chunks(5);
    pool.ParallelForChunked(103, 5,
                            [&](size_t chunk, size_t begin, size_t end) {
                              std::lock_guard<std::mutex> lock(mu);
                              chunks[chunk] = {begin, end};
                            });
    return chunks;
  };
  EXPECT_EQ(boundaries(1), boundaries(4));
}

// Regression: ParallelFor used to block on global pool quiescence, so a
// nested call from inside a pool task deadlocked (the worker could not
// drain the queue it was blocked in).
TEST(ThreadPoolTest, NestedParallelForFromPoolTask) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.ParallelFor(4, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      pool.ParallelFor(32, [&](size_t inner_begin, size_t inner_end) {
        for (size_t j = inner_begin; j < inner_end; ++j) {
          counter.fetch_add(1);
        }
      });
    }
  });
  EXPECT_EQ(counter.load(), 4 * 32);
}

TEST(ThreadPoolTest, ParallelForFromSubmittedTask) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.Submit([&] {
    pool.ParallelFor(64, [&](size_t begin, size_t end) {
      counter.fetch_add(static_cast<int>(end - begin));
    });
  });
  pool.WaitIdle();
  EXPECT_EQ(counter.load(), 64);
}

// Regression: WaitIdle waited on *global* quiescence, so two concurrent
// ParallelFor calls could return before their own chunks finished (or
// long after). Each call must track exactly its own batch.
TEST(ThreadPoolTest, ConcurrentParallelForFromTwoThreads) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> first(777);
  std::vector<std::atomic<int>> second(777);
  auto mark = [&pool](std::vector<std::atomic<int>>* cells) {
    pool.ParallelFor(cells->size(), [cells](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) (*cells)[i].fetch_add(1);
    });
    // The batch latch guarantees every chunk of *this* call is done here.
    for (const auto& cell : *cells) EXPECT_EQ(cell.load(), 1);
  };
  std::thread t1(mark, &first);
  std::thread t2(mark, &second);
  t1.join();
  t2.join();
}

TEST(ThreadPoolTest, StressManyConcurrentAndNestedBatches) {
  ThreadPool pool(4);
  std::atomic<int64_t> total{0};
  auto hammer = [&](size_t rounds) {
    for (size_t r = 0; r < rounds; ++r) {
      size_t count = 1 + (r * 37) % 253;  // varying, odd-sized ranges
      pool.ParallelFor(count, [&](size_t begin, size_t end) {
        if ((begin + end) % 3 == 0) {
          pool.ParallelFor(5, [&](size_t b, size_t e) {
            total.fetch_add(static_cast<int64_t>(e - b) * 0);  // just churn
          });
        }
        total.fetch_add(static_cast<int64_t>(end - begin));
      });
    }
  };
  std::vector<std::thread> callers;
  int64_t expected = 0;
  for (size_t r = 0; r < 40; ++r) expected += 1 + (r * 37) % 253;
  for (int i = 0; i < 3; ++i) callers.emplace_back(hammer, 40);
  for (auto& t : callers) t.join();
  EXPECT_EQ(total.load(), 3 * expected);
}

// ----------------------------------------------------------------- Stats

TEST(SummaryStatsTest, MomentsOfKnownSequence) {
  SummaryStats stats;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.Add(x);
  EXPECT_EQ(stats.count(), 8u);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 4.0);  // classic example set
  EXPECT_DOUBLE_EQ(stats.stddev(), 2.0);
  EXPECT_EQ(stats.min(), 2.0);
  EXPECT_EQ(stats.max(), 9.0);
}

TEST(SummaryStatsTest, QuantilesWithKeptSamples) {
  SummaryStats stats(/*keep_samples=*/true);
  for (int i = 1; i <= 100; ++i) stats.Add(static_cast<double>(i));
  EXPECT_NEAR(stats.Quantile(0.0), 1.0, 1e-9);
  EXPECT_NEAR(stats.Quantile(1.0), 100.0, 1e-9);
  EXPECT_NEAR(stats.Quantile(0.5), 50.5, 1e-9);
}

TEST(SummaryStatsTest, EmptyReadsZeroNotNaN) {
  SummaryStats stats(/*keep_samples=*/true);
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_EQ(stats.sum(), 0.0);
  EXPECT_EQ(stats.mean(), 0.0);
  EXPECT_EQ(stats.variance(), 0.0);
  EXPECT_EQ(stats.stddev(), 0.0);
  EXPECT_EQ(stats.Quantile(0.5), 0.0);
}

TEST(SummaryStatsTest, QuantileInterpolatesBetweenOrderStatisticsAndClampsQ) {
  SummaryStats stats(/*keep_samples=*/true);
  for (double x : {40.0, 10.0, 30.0, 20.0}) stats.Add(x);  // unsorted
  // Position q*(n-1) over the sorted samples {10, 20, 30, 40}.
  EXPECT_DOUBLE_EQ(stats.Quantile(1.0 / 3.0), 20.0);
  EXPECT_DOUBLE_EQ(stats.Quantile(0.5), 25.0);
  EXPECT_DOUBLE_EQ(stats.Quantile(0.75), 32.5);
  // q outside [0, 1] clamps to the extremes.
  EXPECT_DOUBLE_EQ(stats.Quantile(-1.0), 10.0);
  EXPECT_DOUBLE_EQ(stats.Quantile(2.0), 40.0);
  EXPECT_EQ(stats.min(), 10.0);
  EXPECT_EQ(stats.max(), 40.0);
}

TEST(SummaryStatsTest, SamplesAddedAfterAQuantileAreSeen) {
  SummaryStats stats(/*keep_samples=*/true);
  for (double x : {5.0, 6.0, 7.0}) stats.Add(x);
  EXPECT_DOUBLE_EQ(stats.Quantile(0.0), 5.0);
  // The sorted cache from the first read must not hide new samples.
  stats.Add(1.0);
  stats.Add(9.0);
  EXPECT_DOUBLE_EQ(stats.Quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(stats.Quantile(0.5), 6.0);
  EXPECT_DOUBLE_EQ(stats.Quantile(1.0), 9.0);
  EXPECT_EQ(stats.count(), 5u);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.6);
}

// --------------------------------------------------------------- Stopwatch

TEST(StopwatchTest, MonotoneNonNegative) {
  Stopwatch watch;
  double t1 = watch.ElapsedSeconds();
  double t2 = watch.ElapsedSeconds();
  EXPECT_GE(t1, 0.0);
  EXPECT_GE(t2, t1);
  watch.Reset();
  EXPECT_GE(watch.ElapsedMicros(), 0);
}

}  // namespace
}  // namespace simrankpp
