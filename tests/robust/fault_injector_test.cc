#include "robust/fault_injector.h"

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace commsig {
namespace {

std::vector<TraceEvent> MakeEvents(size_t n) {
  std::vector<TraceEvent> events;
  events.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    events.push_back({static_cast<NodeId>(i % 10),
                      static_cast<NodeId>(10 + i % 20), i * 10, 1.5});
  }
  return events;
}

TEST(FaultInjectorTest, ZeroProbabilitiesAreIdentity) {
  FaultInjector injector(FaultInjector::Options{});
  auto events = MakeEvents(500);
  auto out = injector.PerturbEvents(events);
  EXPECT_EQ(out, events);
  EXPECT_EQ(injector.report().Total(), 0u);
}

TEST(FaultInjectorTest, SameSeedSameFaults) {
  FaultInjector::Options opts;
  opts.seed = 99;
  opts.p_drop = 0.05;
  opts.p_duplicate = 0.05;
  opts.p_corrupt_weight = 0.05;
  opts.p_corrupt_time = 0.05;
  opts.p_swap = 0.05;
  auto events = MakeEvents(2000);
  FaultInjector a(opts), b(opts);
  auto out_a = a.PerturbEvents(events);
  auto out_b = b.PerturbEvents(events);
  ASSERT_EQ(out_a.size(), out_b.size());
  for (size_t i = 0; i < out_a.size(); ++i) {
    EXPECT_EQ(out_a[i].src, out_b[i].src);
    EXPECT_EQ(out_a[i].dst, out_b[i].dst);
    EXPECT_EQ(out_a[i].time, out_b[i].time);
    // NaN != NaN, so compare corrupted weights bitwise.
    EXPECT_EQ(std::memcmp(&out_a[i].weight, &out_b[i].weight,
                          sizeof(double)),
              0);
  }
  EXPECT_EQ(a.report().Total(), b.report().Total());
}

TEST(FaultInjectorTest, DifferentSeedsDiffer) {
  FaultInjector::Options opts;
  opts.p_drop = 0.1;
  opts.seed = 1;
  FaultInjector a(opts);
  opts.seed = 2;
  FaultInjector b(opts);
  auto events = MakeEvents(2000);
  auto out_a = a.PerturbEvents(events);
  auto out_b = b.PerturbEvents(events);
  EXPECT_NE(out_a, out_b);
}

TEST(FaultInjectorTest, ReportCountsMatchOutput) {
  FaultInjector::Options opts;
  opts.seed = 7;
  opts.p_drop = 0.1;
  auto events = MakeEvents(5000);
  FaultInjector injector(opts);
  auto out = injector.PerturbEvents(events);
  EXPECT_EQ(out.size(), events.size() - injector.report().dropped);
  // ~500 expected; a 5x band catches logic inversions without flaking.
  EXPECT_GT(injector.report().dropped, 100u);
  EXPECT_LT(injector.report().dropped, 2500u);
}

TEST(FaultInjectorTest, DuplicatesGrowTheStream) {
  FaultInjector::Options opts;
  opts.seed = 7;
  opts.p_duplicate = 0.1;
  auto events = MakeEvents(5000);
  FaultInjector injector(opts);
  auto out = injector.PerturbEvents(events);
  EXPECT_EQ(out.size(), events.size() + injector.report().duplicated);
}

TEST(FaultInjectorTest, CorruptedWeightsAreActuallyBad) {
  FaultInjector::Options opts;
  opts.seed = 3;
  opts.p_corrupt_weight = 1.0;  // corrupt every event
  auto events = MakeEvents(200);
  FaultInjector injector(opts);
  auto out = injector.PerturbEvents(events);
  ASSERT_EQ(out.size(), events.size());
  size_t bad = 0;
  for (const TraceEvent& e : out) {
    if (!std::isfinite(e.weight) || e.weight <= 0.0 || e.weight > 1e6) ++bad;
  }
  EXPECT_EQ(bad, out.size());
  EXPECT_EQ(injector.report().weights_corrupted, events.size());
}

TEST(FaultInjectorTest, ReportToStringNamesEveryCounter) {
  FaultInjector injector(FaultInjector::Options{});
  std::string s = injector.report().ToString();
  EXPECT_NE(s.find("dropped="), std::string::npos);
  EXPECT_NE(s.find("swapped="), std::string::npos);
}

}  // namespace
}  // namespace commsig
