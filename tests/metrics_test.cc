// Tests for the observability layer: metrics registry semantics, the
// Prometheus text exposition (golden file), concurrency of the hot
// paths (the TSAN job runs this suite), the request-trace recorder, and
// the embedded metrics HTTP endpoint.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "serve/metrics_http.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace simrankpp {
namespace {

// ---------------------------------------------------------------------------
// Naming policy
// ---------------------------------------------------------------------------

TEST(MetricNamingTest, CounterRequiresTotalSuffix) {
  EXPECT_TRUE(IsValidMetricName("srpp_requests_total", MetricKind::kCounter));
  EXPECT_FALSE(IsValidMetricName("srpp_requests", MetricKind::kCounter));
  EXPECT_FALSE(
      IsValidMetricName("srpp_latency_seconds", MetricKind::kCounter));
}

TEST(MetricNamingTest, PrefixAndCharset) {
  EXPECT_FALSE(IsValidMetricName("requests_total", MetricKind::kCounter));
  EXPECT_FALSE(IsValidMetricName("srpp_Requests_total", MetricKind::kCounter));
  EXPECT_FALSE(IsValidMetricName("srpp_requests-total", MetricKind::kCounter));
}

TEST(MetricNamingTest, GaugeAndHistogramUnitSuffixes) {
  EXPECT_TRUE(IsValidMetricName("srpp_queue_fill_ratio", MetricKind::kGauge));
  EXPECT_TRUE(IsValidMetricName("srpp_heap_bytes", MetricKind::kGauge));
  EXPECT_TRUE(
      IsValidMetricName("srpp_latency_seconds", MetricKind::kHistogram));
  EXPECT_FALSE(IsValidMetricName("srpp_queue_depth", MetricKind::kGauge));
  // _info is an info-gauge convention, never a histogram.
  EXPECT_TRUE(IsValidMetricName("srpp_simd_info", MetricKind::kGauge));
  EXPECT_FALSE(IsValidMetricName("srpp_simd_info", MetricKind::kHistogram));
  EXPECT_FALSE(IsValidMetricName("srpp_simd_info", MetricKind::kCounter));
}

// ---------------------------------------------------------------------------
// Registry semantics
// ---------------------------------------------------------------------------

TEST(MetricsRegistryTest, RegistrationIsIdempotent) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("srpp_frames_total", "Frames.");
  Counter* b = registry.GetCounter("srpp_frames_total", "Frames.");
  EXPECT_EQ(a, b);
  a->Increment(3);
  EXPECT_EQ(b->Value(), 3u);
}

TEST(MetricsRegistryTest, LabeledChildrenAreDistinct) {
  MetricsRegistry registry;
  Counter* ok = registry.GetCounter("srpp_requests_total", "Requests.",
                                    {{"tenant", "a"}, {"code", "ok"}});
  Counter* shed = registry.GetCounter("srpp_requests_total", "Requests.",
                                      {{"tenant", "a"}, {"code", "shed"}});
  EXPECT_NE(ok, shed);
  ok->Increment(2);
  shed->Increment();
  MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.Value("srpp_requests_total",
                           {{"tenant", "a"}, {"code", "ok"}}),
            2.0);
  EXPECT_EQ(snapshot.Value("srpp_requests_total",
                           {{"tenant", "a"}, {"code", "shed"}}),
            1.0);
  EXPECT_EQ(snapshot.Value("srpp_requests_total",
                           {{"tenant", "b"}, {"code", "ok"}},
                           /*fallback=*/-1.0),
            -1.0);
}

TEST(MetricsRegistryTest, TotalSumsPointsWhoseLabelsIncludeMatch) {
  MetricsRegistry registry;
  auto requests = [&registry](const char* tenant, const char* code) {
    return registry.GetCounter("srpp_requests_total", "Requests.",
                               {{"tenant", tenant}, {"code", code}});
  };
  requests("a", "ok")->Increment(2);
  requests("a", "shed")->Increment(5);
  requests("b", "ok")->Increment(3);
  registry.GetCounter("srpp_frames_total", "Frames.")->Increment(100);
  MetricsSnapshot snapshot = registry.Snapshot();
  // An empty match sums the whole family, and only that family.
  EXPECT_EQ(snapshot.Total("srpp_requests_total"), 10.0);
  // A partial match sums across the labels it leaves open...
  EXPECT_EQ(snapshot.Total("srpp_requests_total", {{"code", "ok"}}), 5.0);
  EXPECT_EQ(snapshot.Total("srpp_requests_total", {{"tenant", "a"}}), 7.0);
  // ...and a full match, in either label order, is that one point.
  EXPECT_EQ(snapshot.Total("srpp_requests_total",
                           {{"code", "shed"}, {"tenant", "a"}}),
            5.0);
  // Nothing matching, or no such family, totals 0.
  EXPECT_EQ(snapshot.Total("srpp_requests_total", {{"code", "draining"}}),
            0.0);
  EXPECT_EQ(snapshot.Total("srpp_requests_total", {{"region", "eu"}}), 0.0);
  EXPECT_EQ(snapshot.Total("srpp_missing_total"), 0.0);
}

TEST(MetricsRegistryTest, GaugeHoldsLatestValue) {
  MetricsRegistry registry;
  Gauge* fill = registry.GetGauge("srpp_queue_fill_ratio", "Fill.");
  fill->Set(0.75);
  fill->Set(0.25);
  EXPECT_EQ(registry.Snapshot().Value("srpp_queue_fill_ratio"), 0.25);
}

TEST(MetricsRegistryTest, SetInfoReplacesPriorIdentity) {
  MetricsRegistry registry;
  registry.SetInfo("srpp_simd_info", "SIMD level.", {{"level", "scalar"}});
  registry.SetInfo("srpp_simd_info", "SIMD level.", {{"level", "avx2"}});
  MetricsSnapshot snapshot = registry.Snapshot();
  const MetricPoint* stale =
      snapshot.Find("srpp_simd_info", {{"level", "scalar"}});
  const MetricPoint* live =
      snapshot.Find("srpp_simd_info", {{"level", "avx2"}});
  EXPECT_EQ(stale, nullptr);
  ASSERT_NE(live, nullptr);
  EXPECT_EQ(live->value, 1.0);
}

TEST(MetricsRegistryTest, CollectorContributesAtSnapshotTime) {
  MetricsRegistry registry;
  registry.GetCounter("srpp_frames_total", "Frames.")->Increment(7);
  uint64_t queries = 11;
  registry.AddCollector([&queries](std::vector<MetricFamilySnapshot>* out) {
    MetricFamilySnapshot family;
    family.name = "srpp_tenant_queries_total";
    family.help = "Queries served.";
    family.kind = MetricKind::kCounter;
    MetricPoint point;
    point.labels = {{"tenant", "a"}};
    point.value = static_cast<double>(queries);
    family.points.push_back(std::move(point));
    out->push_back(std::move(family));
  });
  EXPECT_EQ(registry.Snapshot().Value("srpp_tenant_queries_total",
                                      {{"tenant", "a"}}),
            11.0);
  queries = 12;  // collectors sample live state, not a cached copy
  EXPECT_EQ(registry.Snapshot().Value("srpp_tenant_queries_total",
                                      {{"tenant", "a"}}),
            12.0);
  // Direct families and collected ones merge into one sorted list.
  MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.families.size(), 2u);
  EXPECT_EQ(snapshot.families[0].name, "srpp_frames_total");
  EXPECT_EQ(snapshot.families[1].name, "srpp_tenant_queries_total");
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

TEST(HistogramTest, BucketBoundsAreInclusive) {
  MetricsRegistry registry;
  HistogramMetric* h = registry.GetHistogram(
      "srpp_wait_seconds", "Wait.", {0.001, 0.01, 0.1});
  h->Observe(0.001);  // exactly a bound: belongs to that bucket (le)
  h->Observe(0.0011);
  h->Observe(1.0);  // +Inf bucket
  HistogramSnapshot snapshot = h->Snapshot();
  ASSERT_EQ(snapshot.counts.size(), 4u);
  EXPECT_EQ(snapshot.counts[0], 1u);
  EXPECT_EQ(snapshot.counts[1], 1u);
  EXPECT_EQ(snapshot.counts[2], 0u);
  EXPECT_EQ(snapshot.counts[3], 1u);
  EXPECT_EQ(snapshot.count, 3u);
  EXPECT_NEAR(snapshot.sum, 1.0021, 1e-12);
  EXPECT_NEAR(snapshot.mean(), 1.0021 / 3, 1e-12);
}

TEST(HistogramTest, ApproxQuantileInterpolatesWithinBucket) {
  MetricsRegistry registry;
  HistogramMetric* h =
      registry.GetHistogram("srpp_wait_seconds", "Wait.", {1.0, 2.0, 4.0});
  for (int i = 0; i < 100; ++i) h->Observe(1.5);  // all in (1, 2]
  HistogramSnapshot snapshot = h->Snapshot();
  double p50 = snapshot.ApproxQuantile(0.5);
  EXPECT_GE(p50, 1.0);
  EXPECT_LE(p50, 2.0);
  // Quantiles are monotone in q even with one-bucket resolution.
  EXPECT_LE(snapshot.ApproxQuantile(0.1), snapshot.ApproxQuantile(0.9));
  // Empty histogram: every quantile is 0.
  EXPECT_EQ(HistogramSnapshot{}.ApproxQuantile(0.5), 0.0);
}

TEST(HistogramTest, BucketFactories) {
  std::vector<double> exp = ExponentialBuckets(1e-6, 4.0, 3);
  ASSERT_EQ(exp.size(), 3u);
  EXPECT_NEAR(exp[0], 1e-6, 1e-18);
  EXPECT_NEAR(exp[1], 4e-6, 1e-18);
  EXPECT_NEAR(exp[2], 16e-6, 1e-18);
  std::vector<double> lin = LinearBuckets(0.0, 0.25, 3);
  ASSERT_EQ(lin.size(), 3u);
  EXPECT_EQ(lin[0], 0.0);
  EXPECT_EQ(lin[1], 0.25);
  EXPECT_EQ(lin[2], 0.5);
}

// ---------------------------------------------------------------------------
// Exposition (golden)
// ---------------------------------------------------------------------------

TEST(ExpositionTest, GoldenDocument) {
  MetricsRegistry registry;
  registry
      .GetCounter("srpp_requests_total", "Requests by tenant and outcome.",
                  {{"tenant", "alpha"}, {"code", "ok"}})
      ->Increment(3);
  registry
      .GetCounter("srpp_requests_total", "Requests by tenant and outcome.",
                  {{"tenant", "beta"}, {"code", "shed"}})
      ->Increment();
  registry.GetGauge("srpp_queue_fill_ratio", "Queue fill fraction.")
      ->Set(0.25);
  HistogramMetric* h = registry.GetHistogram("srpp_batch_wait_seconds",
                                             "Batch wait.", {0.001, 0.01});
  h->Observe(0.0005);
  h->Observe(0.005);
  h->Observe(0.5);
  registry.SetInfo("srpp_simd_info", "Active SIMD level.",
                   {{"level", "avx2"}});

  const char* expected =
      "# HELP srpp_batch_wait_seconds Batch wait.\n"
      "# TYPE srpp_batch_wait_seconds histogram\n"
      "srpp_batch_wait_seconds_bucket{le=\"0.001\"} 1\n"
      "srpp_batch_wait_seconds_bucket{le=\"0.01\"} 2\n"
      "srpp_batch_wait_seconds_bucket{le=\"+Inf\"} 3\n"
      "srpp_batch_wait_seconds_sum 0.5055\n"
      "srpp_batch_wait_seconds_count 3\n"
      "# HELP srpp_queue_fill_ratio Queue fill fraction.\n"
      "# TYPE srpp_queue_fill_ratio gauge\n"
      "srpp_queue_fill_ratio 0.25\n"
      "# HELP srpp_requests_total Requests by tenant and outcome.\n"
      "# TYPE srpp_requests_total counter\n"
      "srpp_requests_total{tenant=\"alpha\",code=\"ok\"} 3\n"
      "srpp_requests_total{tenant=\"beta\",code=\"shed\"} 1\n"
      "# HELP srpp_simd_info Active SIMD level.\n"
      "# TYPE srpp_simd_info gauge\n"
      "srpp_simd_info{level=\"avx2\"} 1\n";
  EXPECT_EQ(registry.PrometheusText(), expected);
}

TEST(ExpositionTest, LabelValuesAreEscaped) {
  MetricsRegistry registry;
  registry
      .GetCounter("srpp_requests_total", "Requests.",
                  {{"tenant", "a\"b\\c\nd"}})
      ->Increment();
  std::string text = registry.PrometheusText();
  EXPECT_NE(text.find("srpp_requests_total{tenant=\"a\\\"b\\\\c\\nd\"} 1\n"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Concurrency (the TSAN job runs this suite)
// ---------------------------------------------------------------------------

TEST(MetricsConcurrencyTest, HammerWithConcurrentScrapes) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 20000;
  Counter* shared = registry.GetCounter("srpp_frames_total", "Frames.");
  HistogramMetric* h = registry.GetHistogram(
      "srpp_latency_seconds", "Latency.", ExponentialBuckets(1e-6, 4.0, 8));
  std::atomic<bool> stop{false};
  // Scrapers run for the whole hammer: snapshots must stay internally
  // consistent (never crash, never tear a family) while writers run.
  std::thread scraper([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      MetricsSnapshot snapshot = registry.Snapshot();
      ASSERT_FALSE(snapshot.ToPrometheusText().empty());
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&registry, shared, h, t] {
      // Each thread also registers its own child mid-hammer: the
      // registration path shares the mutex with scrapes.
      Counter* own = registry.GetCounter(
          "srpp_requests_total", "Requests.",
          {{"tenant", "t" + std::to_string(t)}, {"code", "ok"}});
      for (int i = 0; i < kOpsPerThread; ++i) {
        shared->Increment();
        own->Increment();
        h->Observe(1e-6 * (i % 1000));
      }
    });
  }
  for (std::thread& w : writers) w.join();
  stop.store(true);
  scraper.join();
  EXPECT_EQ(shared->Value(),
            static_cast<uint64_t>(kThreads) * kOpsPerThread);
  EXPECT_EQ(h->count(), static_cast<uint64_t>(kThreads) * kOpsPerThread);
  MetricsSnapshot snapshot = registry.Snapshot();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(snapshot.Value("srpp_requests_total",
                             {{"tenant", "t" + std::to_string(t)},
                              {"code", "ok"}}),
              static_cast<double>(kOpsPerThread));
  }
}

// ---------------------------------------------------------------------------
// Trace recorder
// ---------------------------------------------------------------------------

RequestTrace MakeTrace(uint64_t id, double score_seconds) {
  RequestTrace trace;
  trace.tenant = "alpha";
  trace.query = "q";
  trace.request_id = id;
  trace.k = 10;
  trace.start_seconds = static_cast<double>(id);
  trace.SetStage(TraceStage::kAdmission, 1e-6);
  trace.SetStage(TraceStage::kQueue, 2e-6);
  trace.SetStage(TraceStage::kBatch, 1e-6);
  trace.SetStage(TraceStage::kScore, score_seconds);
  trace.SetStage(TraceStage::kFlush, 1e-6);
  return trace;
}

TEST(TraceRecorderTest, FeedsStageHistogramsAndCounters) {
  MetricsRegistry registry;
  TraceRecorder recorder(&registry, TraceRecorderOptions{});
  recorder.Record(MakeTrace(1, 5e-5));
  recorder.Record(MakeTrace(2, 7e-5));
  MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.Value("srpp_traces_total"), 2.0);
  for (const char* stage :
       {"admission", "queue", "batch", "score", "flush"}) {
    const MetricPoint* point =
        snapshot.Find("srpp_stage_duration_seconds", {{"stage", stage}});
    ASSERT_NE(point, nullptr) << stage;
    ASSERT_TRUE(point->histogram.has_value());
    EXPECT_EQ(point->histogram->count, 2u) << stage;
  }
  const MetricPoint* total = snapshot.Find("srpp_request_duration_seconds");
  ASSERT_NE(total, nullptr);
  ASSERT_TRUE(total->histogram.has_value());
  EXPECT_EQ(total->histogram->count, 2u);
  EXPECT_NEAR(total->histogram->sum,
              MakeTrace(1, 5e-5).total_seconds() +
                  MakeTrace(2, 7e-5).total_seconds(),
              1e-12);
}

TEST(TraceRecorderTest, RingKeepsMostRecentOldestFirst) {
  MetricsRegistry registry;
  TraceRecorderOptions options;
  options.ring_capacity = 3;
  TraceRecorder recorder(&registry, options);
  for (uint64_t id = 1; id <= 5; ++id) {
    recorder.Record(MakeTrace(id, 1e-5));
  }
  std::vector<RequestTrace> recent = recorder.RecentTraces();
  ASSERT_EQ(recent.size(), 3u);
  EXPECT_EQ(recent[0].request_id, 3u);
  EXPECT_EQ(recent[1].request_id, 4u);
  EXPECT_EQ(recent[2].request_id, 5u);
}

TEST(TraceRecorderTest, ZeroCapacityDisablesRing) {
  MetricsRegistry registry;
  TraceRecorderOptions options;
  options.ring_capacity = 0;
  TraceRecorder recorder(&registry, options);
  recorder.Record(MakeTrace(1, 1e-5));
  EXPECT_TRUE(recorder.RecentTraces().empty());
}

TEST(TraceRecorderTest, SlowRequestsCountedAgainstThreshold) {
  MetricsRegistry registry;
  TraceRecorderOptions options;
  options.slow_request_seconds = 1e-4;
  TraceRecorder recorder(&registry, options);
  recorder.Record(MakeTrace(1, 1e-6));  // total ~6us: fast
  EXPECT_EQ(recorder.slow_count(), 0u);
  recorder.Record(MakeTrace(2, 1e-3));  // total ~1ms: slow, logs a WARN
  EXPECT_EQ(recorder.slow_count(), 1u);
  EXPECT_EQ(registry.Snapshot().Value("srpp_slow_requests_total"), 1.0);
}

TEST(TraceRecorderTest, SummaryNamesEveryStage) {
  RequestTrace trace = MakeTrace(7, 1e-4);
  std::string summary = trace.Summary();
  for (const char* needle : {"tenant=alpha", "id=7", "k=10", "admission=",
                             "queue=", "batch=", "score=", "flush="}) {
    EXPECT_NE(summary.find(needle), std::string::npos) << needle;
  }
}

// ---------------------------------------------------------------------------
// Metrics HTTP endpoint
// ---------------------------------------------------------------------------

// Minimal blocking HTTP GET: full response (headers + body) as one
// string. The server closes after each response, so read-until-EOF.
std::string HttpGet(uint16_t port, const std::string& request_text) {
  int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  EXPECT_EQ(send(fd, request_text.data(), request_text.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(request_text.size()));
  std::string response;
  char buf[4096];
  for (;;) {
    ssize_t n = recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<size_t>(n));
  }
  close(fd);
  return response;
}

TEST(MetricsHttpTest, ServesMetricsAndHealth) {
  MetricsRegistry registry;
  registry.GetCounter("srpp_frames_total", "Frames.")->Increment(5);
  Result<std::unique_ptr<MetricsHttpServer>> server =
      MetricsHttpServer::Start(MetricsHttpOptions{}, &registry);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  uint16_t port = (*server)->port();
  ASSERT_NE(port, 0);

  std::string metrics =
      HttpGet(port, "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_NE(metrics.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(metrics.find("srpp_frames_total 5\n"), std::string::npos);

  // A query string scrapes the same document.
  std::string with_query =
      HttpGet(port, "GET /metrics?debug=1 HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_NE(with_query.find("srpp_frames_total 5\n"), std::string::npos);

  std::string health =
      HttpGet(port, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_NE(health.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(health.find("ok\n"), std::string::npos);

  std::string missing =
      HttpGet(port, "GET /nope HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_NE(missing.find("HTTP/1.1 404"), std::string::npos);

  std::string post =
      HttpGet(port, "POST /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_NE(post.find("HTTP/1.1 405"), std::string::npos);

  std::string garbage = HttpGet(port, "garbage\r\n\r\n");
  EXPECT_NE(garbage.find("HTTP/1.1 400"), std::string::npos);

  EXPECT_GE((*server)->requests_served(), 6u);
  (*server)->Stop();
  (*server)->Stop();  // idempotent
}

TEST(MetricsHttpTest, ScrapeSeesLiveUpdates) {
  MetricsRegistry registry;
  Counter* frames = registry.GetCounter("srpp_frames_total", "Frames.");
  Result<std::unique_ptr<MetricsHttpServer>> server =
      MetricsHttpServer::Start(MetricsHttpOptions{}, &registry);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  uint16_t port = (*server)->port();
  frames->Increment(1);
  std::string first = HttpGet(port, "GET /metrics HTTP/1.1\r\n\r\n");
  EXPECT_NE(first.find("srpp_frames_total 1\n"), std::string::npos);
  frames->Increment(41);
  std::string second = HttpGet(port, "GET /metrics HTTP/1.1\r\n\r\n");
  EXPECT_NE(second.find("srpp_frames_total 42\n"), std::string::npos);
}

}  // namespace
}  // namespace simrankpp
