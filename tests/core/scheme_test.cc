#include "core/scheme.h"

#include <gtest/gtest.h>

#include <initializer_list>
#include <string>

#include "core/rwr.h"
#include "graph/graph_builder.h"

namespace commsig {
namespace {

TEST(SchemeTablesTest, TableIHasThreeApplications) {
  auto table = ApplicationRequirements();
  ASSERT_EQ(table.size(), 3u);
  EXPECT_EQ(table[0].application, "multiusage-detection");
  EXPECT_EQ(table[0].persistence, Requirement::kLow);
  EXPECT_EQ(table[0].uniqueness, Requirement::kHigh);
  EXPECT_EQ(table[0].robustness, Requirement::kHigh);
}

TEST(SchemeTablesTest, TableIMasqueradingRow) {
  auto table = ApplicationRequirements();
  EXPECT_EQ(table[1].application, "label-masquerading");
  EXPECT_EQ(table[1].persistence, Requirement::kHigh);
  EXPECT_EQ(table[1].robustness, Requirement::kMedium);
}

TEST(SchemeTablesTest, TableIAnomalyRow) {
  auto table = ApplicationRequirements();
  EXPECT_EQ(table[2].application, "anomaly-detection");
  EXPECT_EQ(table[2].uniqueness, Requirement::kLow);
}

TEST(SchemeTablesTest, TableIICoversAllCharacteristics) {
  const auto& links = CharacteristicLinks();
  ASSERT_EQ(links.size(), 4u);
  // Engagement -> persistence, robustness.
  EXPECT_EQ(links[0].characteristic, GraphCharacteristic::kEngagement);
  EXPECT_EQ(links[0].properties.size(), 2u);
  // Novelty -> uniqueness only.
  EXPECT_EQ(links[1].characteristic, GraphCharacteristic::kNovelty);
  ASSERT_EQ(links[1].properties.size(), 1u);
  EXPECT_EQ(links[1].properties[0], SignatureProperty::kUniqueness);
}

TEST(CreateSchemeTest, CreatesTopTalkers) {
  auto scheme = CreateScheme("tt", {.k = 5});
  ASSERT_TRUE(scheme.ok());
  EXPECT_EQ((*scheme)->name(), "tt");
  EXPECT_EQ((*scheme)->options().k, 5u);
}

TEST(CreateSchemeTest, CreatesUnexpectedTalkers) {
  auto scheme = CreateScheme("ut", {.k = 5});
  ASSERT_TRUE(scheme.ok());
  EXPECT_EQ((*scheme)->name(), "ut");
}

TEST(CreateSchemeTest, CreatesTfIdfVariant) {
  auto scheme = CreateScheme("ut-tfidf", {.k = 5});
  ASSERT_TRUE(scheme.ok());
  EXPECT_EQ((*scheme)->name(), "ut-tfidf");
}

TEST(CreateSchemeTest, CreatesDefaultRwr) {
  auto scheme = CreateScheme("rwr", {.k = 5});
  ASSERT_TRUE(scheme.ok());
  auto* rwr = dynamic_cast<RwrScheme*>(scheme->get());
  ASSERT_NE(rwr, nullptr);
  EXPECT_DOUBLE_EQ(rwr->rwr_options().reset, 0.1);
  EXPECT_EQ(rwr->rwr_options().max_hops, 0u);
}

TEST(CreateSchemeTest, ParsesRwrParameters) {
  auto scheme = CreateScheme("rwr(c=0.25,h=3)", {.k = 5});
  ASSERT_TRUE(scheme.ok()) << scheme.status().ToString();
  auto* rwr = dynamic_cast<RwrScheme*>(scheme->get());
  ASSERT_NE(rwr, nullptr);
  EXPECT_DOUBLE_EQ(rwr->rwr_options().reset, 0.25);
  EXPECT_EQ(rwr->rwr_options().max_hops, 3u);
}

TEST(CreateSchemeTest, ParsesTraversalMode) {
  auto scheme = CreateScheme("rwr(c=0.1,h=1,mode=directed)", {.k = 5});
  ASSERT_TRUE(scheme.ok()) << scheme.status().ToString();
  auto* rwr = dynamic_cast<RwrScheme*>(scheme->get());
  ASSERT_NE(rwr, nullptr);
  EXPECT_EQ(rwr->rwr_options().traversal, TraversalMode::kDirected);
}

TEST(CreateSchemeTest, ParsesRwrPush) {
  auto scheme = CreateScheme("rwr-push(c=0.2,eps=1e-5)", {.k = 5});
  ASSERT_TRUE(scheme.ok()) << scheme.status().ToString();
  EXPECT_EQ((*scheme)->name(), "rwr-push(c=0.2,eps=1e-05)");
}

TEST(CreateSchemeTest, RejectsMalformedRwrPush) {
  EXPECT_FALSE(CreateScheme("rwr-push(c=0)", {}).ok());
  EXPECT_FALSE(CreateScheme("rwr-push(eps=-1)", {}).ok());
  EXPECT_FALSE(CreateScheme("rwr-push(zz=1)", {}).ok());
}

TEST(CreateSchemeTest, RejectsUnknownScheme) {
  EXPECT_FALSE(CreateScheme("pagerank", {}).ok());
}

TEST(CreateSchemeTest, RejectsMalformedRwrSpecs) {
  EXPECT_FALSE(CreateScheme("rwr(c=0.1", {}).ok());
  EXPECT_FALSE(CreateScheme("rwr(c=abc)", {}).ok());
  EXPECT_FALSE(CreateScheme("rwr(x=1)", {}).ok());
  EXPECT_FALSE(CreateScheme("rwr(c=1.5)", {}).ok());  // reset out of range
  EXPECT_FALSE(CreateScheme("rwr(mode=sideways)", {}).ok());
}

TEST(CreateSchemeTest, ParamListEdgeCases) {
  // rwr and rwr-push share one key=value splitter; each keeps its own
  // keys and ranges. An empty name means the spec is rejected.
  struct Case {
    const char* spec;
    const char* name;
  };
  for (const Case& c : std::initializer_list<Case>{
           {"rwr()", "rwr(c=0.1)"},
           {"rwr-push()", "rwr-push(c=0.1,eps=1e-06)"},
           {"rwr(c=0.2,)", "rwr(c=0.2)"},
           {"rwr-push(eps=1e-05,)", "rwr-push(c=0.1,eps=1e-05)"},
           {"rwr(,h=2)", ""},
           {"rwr(c=0.2,,h=2)", ""},
           {"rwr-push(c=0.2,,eps=1e-05)", ""},
           {"rwr(c)", ""},
           {"rwr(eps=1e-05)", ""},
           {"rwr-push(h=3)", ""},
           {"rwr(zz=1)", ""},
           {"rwr(c=0)", "rwr(c=0)"},
           {"rwr(c=1,h=2)", "rwr(c=1,h=2)"},
           {"rwr(c=-0.1)", ""},
           {"rwr(c=1.5)", ""},
           {"rwr-push(c=0)", ""},
           {"rwr-push(c=1)", "rwr-push(c=1,eps=1e-06)"},
           {"rwr-push(c=1.5)", ""},
           {"rwr-push(eps=0)", ""},
           {"rwr(h=2.5)", ""},
           {"rwr(h=-1)", ""},
           {"rwr(h=500)", "rwr(c=0.1,h=500)"},
           {"rwr(h=501)", ""},
           {"rwr(c=nan)", ""},
           {"rwr(c=inf)", ""},
           {"rwr(c=)", ""},
           {"rwr(c=0.1,h=)", ""},
           {"rwr-push(c=nan)", ""},
           {"rwr-push(eps=nan)", ""},
           {"rwr-push(eps=inf)", ""},
           {"rwr-push(eps=)", ""},
           {"rwr(c=0.25,h=3,mode=directed)", "rwr(c=0.25,h=3)"},
           {"rwr-push(mode=symmetric,c=0.5)", "rwr-push(c=0.5,eps=1e-06)"},
           {"rwr(", ""},
           {"rwr-push(", ""},
           {"rwrx", ""},
       }) {
    auto scheme = CreateScheme(c.spec, {.k = 3});
    EXPECT_EQ(scheme.ok() ? (*scheme)->name() : "", c.name) << c.spec;
  }
}

TEST(CreateSchemeTest, RoundTripsNames) {
  for (const char* spec : {"tt", "ut", "ut-tfidf"}) {
    auto scheme = CreateScheme(spec, {.k = 3});
    ASSERT_TRUE(scheme.ok());
    EXPECT_EQ((*scheme)->name(), spec);
  }
}

TEST(SchemeOptionsTest, OptionsArePropagated) {
  auto scheme = CreateScheme("tt", {.k = 7, .restrict_to_opposite_partition = true});
  ASSERT_TRUE(scheme.ok());
  EXPECT_EQ((*scheme)->options().k, 7u);
  EXPECT_TRUE((*scheme)->options().restrict_to_opposite_partition);
}

}  // namespace
}  // namespace commsig
