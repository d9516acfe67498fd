#include "obs/metrics.h"

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/rwr.h"
#include "graph/graph_builder.h"
#include "obs/obs.h"
#include "json_check.h"

namespace commsig::obs {
namespace {

using commsig::obs_test::IsValidJson;

TEST(CounterTest, SingleThreadedAdds) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.Value(), 42u);
  c.Reset();
  EXPECT_EQ(c.Value(), 0u);
}

TEST(CounterTest, ConcurrentIncrementsFromManyThreadsAreExact) {
  Counter& c = MetricsRegistry::Global().GetCounter("test/concurrent");
  c.Reset();
  constexpr int kThreads = 8;
  constexpr int kIncrements = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kIncrements; ++i) c.Add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.Value(),
            static_cast<uint64_t>(kThreads) * kIncrements);
}

TEST(GaugeTest, LastWriteWins) {
  Gauge g;
  EXPECT_DOUBLE_EQ(g.Value(), 0.0);
  g.Set(3.25);
  EXPECT_DOUBLE_EQ(g.Value(), 3.25);
  g.Set(-1.0);
  EXPECT_DOUBLE_EQ(g.Value(), -1.0);
}

TEST(HistogramTest, LogScaleBucketing) {
  Histogram h;
  h.Observe(1.0);   // [1, 2)
  h.Observe(1.5);   // [1, 2)
  h.Observe(3.0);   // [2, 4)
  h.Observe(100.0); // [64, 128)
  HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 4u);
  EXPECT_DOUBLE_EQ(snap.min, 1.0);
  EXPECT_DOUBLE_EQ(snap.max, 100.0);
  EXPECT_NEAR(snap.mean, (1.0 + 1.5 + 3.0 + 100.0) / 4.0, 1e-12);
  ASSERT_EQ(snap.buckets.size(), 3u);
  EXPECT_DOUBLE_EQ(snap.buckets[0].upper_bound, 2.0);
  EXPECT_EQ(snap.buckets[0].count, 2u);
  EXPECT_DOUBLE_EQ(snap.buckets[1].upper_bound, 4.0);
  EXPECT_EQ(snap.buckets[1].count, 1u);
  EXPECT_DOUBLE_EQ(snap.buckets[2].upper_bound, 128.0);
  EXPECT_EQ(snap.buckets[2].count, 1u);
}

TEST(HistogramTest, NonPositiveAndExtremeValuesLandInEdgeBuckets) {
  Histogram h;
  h.Observe(0.0);
  h.Observe(-5.0);
  h.Observe(1e300);  // far above the top bucket
  HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 3u);
  ASSERT_EQ(snap.buckets.size(), 2u);
  EXPECT_EQ(snap.buckets.front().count, 2u);  // underflow bucket
  EXPECT_EQ(snap.buckets.back().count, 1u);   // overflow bucket
}

TEST(HistogramTest, ConcurrentObservesKeepExactCount) {
  Histogram& h = MetricsRegistry::Global().GetHistogram("test/hist");
  h.Reset();
  constexpr int kThreads = 4;
  constexpr int kObservations = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kObservations; ++i) {
        h.Observe(static_cast<double>(t + 1));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.Snapshot().count,
            static_cast<uint64_t>(kThreads) * kObservations);
}

TEST(HistogramTest, QuantileOfEmptySnapshotIsZero) {
  Histogram h;
  HistogramSnapshot snap = h.Snapshot();
  EXPECT_DOUBLE_EQ(snap.Quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(snap.Quantile(0.99), 0.0);
}

TEST(HistogramTest, QuantilesOfAConstantClampToTheObservedValue) {
  Histogram h;
  for (int i = 0; i < 1000; ++i) h.Observe(4.0);
  HistogramSnapshot snap = h.Snapshot();
  // All mass in one bucket; the clamp to [min, max] pins every quantile
  // to the exact observed value rather than the bucket midpoint.
  EXPECT_DOUBLE_EQ(snap.Quantile(0.50), 4.0);
  EXPECT_DOUBLE_EQ(snap.Quantile(0.95), 4.0);
  EXPECT_DOUBLE_EQ(snap.Quantile(0.99), 4.0);
}

TEST(HistogramTest, QuantilesAreMonotoneAndBucketAccurate) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.Observe(static_cast<double>(i));
  HistogramSnapshot snap = h.Snapshot();
  const double p50 = snap.Quantile(0.50);
  const double p95 = snap.Quantile(0.95);
  const double p99 = snap.Quantile(0.99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  // Log-scale buckets bound the relative error by the 2x bucket width:
  // the true p50 is 500 (bucket [256, 512)), the true p99 is 990.
  EXPECT_GE(p50, 256.0);
  EXPECT_LT(p50, 1024.0);
  EXPECT_GE(p99, 512.0);
  EXPECT_LE(p99, 1000.0);
  EXPECT_DOUBLE_EQ(snap.Quantile(0.0), 1.0);    // clamps to min
  EXPECT_DOUBLE_EQ(snap.Quantile(1.0), 1000.0);  // clamps to max
}

TEST(MetricsRegistryTest, JsonSnapshotCarriesQuantileFields) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Histogram& h = reg.GetHistogram("test/quantile_json_hist");
  h.Reset();
  for (int i = 0; i < 100; ++i) h.Observe(8.0);
  std::string json = reg.ToJson();
  EXPECT_TRUE(IsValidJson(json)) << json;
  EXPECT_NE(json.find("\"p50\": 8"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p95\": 8"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p99\": 8"), std::string::npos) << json;
}

TEST(MetricsRegistryTest, PrometheusExportDerivesQuantileGauges) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Histogram& h = reg.GetHistogram("test/quantile_prom_hist");
  h.Reset();
  for (int i = 0; i < 100; ++i) h.Observe(16.0);
  std::string text = reg.ToPrometheus();
  EXPECT_NE(text.find("# TYPE commsig_test_quantile_prom_hist_p50 gauge"),
            std::string::npos);
  EXPECT_NE(text.find("commsig_test_quantile_prom_hist_p50 16"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE commsig_test_quantile_prom_hist_p95 gauge"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE commsig_test_quantile_prom_hist_p99 gauge"),
            std::string::npos);
}

TEST(MetricsRegistryTest, SameNameReturnsSameMetric) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter& a = reg.GetCounter("test/same");
  Counter& b = reg.GetCounter("test/same");
  EXPECT_EQ(&a, &b);
}

TEST(MetricsRegistryTest, ResetZeroesButKeepsReferencesValid) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter& c = reg.GetCounter("test/reset");
  c.Add(7);
  reg.Reset();
  EXPECT_EQ(c.Value(), 0u);
  c.Add(2);  // reference still usable after Reset
  EXPECT_EQ(c.Value(), 2u);
}

TEST(MetricsRegistryTest, JsonSnapshotIsValidAndComplete) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.GetCounter("test/json_counter").Add(3);
  reg.GetGauge("test/json_gauge").Set(1.5);
  reg.GetHistogram("test/json_hist").Observe(10.0);
  std::string json = reg.ToJson();
  EXPECT_TRUE(IsValidJson(json)) << json;
  EXPECT_NE(json.find("\"test/json_counter\": 3"), std::string::npos);
  EXPECT_NE(json.find("test/json_gauge"), std::string::npos);
  EXPECT_NE(json.find("test/json_hist"), std::string::npos);
}

TEST(MetricsRegistryTest, PrometheusExportSanitizesNames) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.GetCounter("test/prom-metric").Add(1);
  std::string text = reg.ToPrometheus();
  EXPECT_NE(text.find("commsig_test_prom_metric"), std::string::npos);
  EXPECT_NE(text.find("# TYPE commsig_test_prom_metric counter"),
            std::string::npos);
}

TEST(MetricsRegistryTest, PreRegisterCoreMetricsGuaranteesStableKeys) {
  PreRegisterCoreMetrics();
  std::string json = MetricsRegistry::Global().ToJson();
  EXPECT_NE(json.find("rwr/iterations"), std::string::npos);
  EXPECT_NE(json.find("distance/evaluations"), std::string::npos);
  EXPECT_NE(json.find("timeline/nodes_dirty"), std::string::npos);
  EXPECT_NE(json.find("timeline/nodes_reused"), std::string::npos);
  EXPECT_NE(json.find("timeline/rwr_warm_start_fallbacks"),
            std::string::npos);
  EXPECT_NE(json.find("sketch/signature_cache_hits"), std::string::npos);
}

TEST(MetricsRegistryTest, PrometheusExportCarriesTimelineCounters) {
  // Scrape-side contract: the incremental-engine health counters must be
  // present (and typed) from process start, before any timeline runs.
  PreRegisterCoreMetrics();
  std::string text = MetricsRegistry::Global().ToPrometheus();
  for (const char* name :
       {"commsig_timeline_nodes_dirty", "commsig_timeline_nodes_reused",
        "commsig_timeline_rwr_warm_start_fallbacks",
        "commsig_sketch_signature_cache_hits"}) {
    EXPECT_NE(text.find(name), std::string::npos) << name;
    EXPECT_NE(text.find(std::string("# TYPE ") + name + " counter"),
              std::string::npos)
        << name;
  }
}

#ifndef COMMSIG_OBS_DISABLED
TEST(InstrumentationTest, MacrosFeedTheGlobalRegistry) {
  Counter& c = MetricsRegistry::Global().GetCounter("test/macro_counter");
  c.Reset();
  COMMSIG_COUNTER_ADD("test/macro_counter", 5);
  COMMSIG_COUNTER_ADD("test/macro_counter", 2);
  EXPECT_EQ(c.Value(), 7u);

  COMMSIG_GAUGE_SET("test/macro_gauge", 0.5);
  EXPECT_DOUBLE_EQ(MetricsRegistry::Global().GetGauge("test/macro_gauge")
                       .Value(), 0.5);
}

TEST(InstrumentationTest, RwrComputeRecordsIterations) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter& iters = reg.GetCounter("rwr/iterations");
  Counter& calls = reg.GetCounter("rwr/calls");
  const uint64_t iters_before = iters.Value();
  const uint64_t calls_before = calls.Value();

  GraphBuilder builder(4);
  builder.AddEdge(0, 1, 2.0);
  builder.AddEdge(1, 2, 1.0);
  builder.AddEdge(2, 0, 1.0);
  builder.AddEdge(0, 3, 1.0);
  CommGraph g = std::move(builder).Build();
  RwrScheme rwr({.k = 3}, {.reset = 0.1, .max_hops = 3});
  rwr.Compute(g, 0);

  EXPECT_EQ(calls.Value(), calls_before + 1);
  EXPECT_EQ(iters.Value(), iters_before + 3);  // h = 3 power iterations
}
#endif  // COMMSIG_OBS_DISABLED

}  // namespace
}  // namespace commsig::obs
