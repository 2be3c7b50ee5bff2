// Tests for the report renderers.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "core/dataset.hpp"
#include "core/device_metrics.hpp"
#include "core/vendor_metrics.hpp"
#include "devicesim/fleet.hpp"
#include "report/chart.hpp"
#include "report/dot.hpp"
#include "report/table.hpp"

#ifndef IOTLS_TEST_DATA_DIR
#define IOTLS_TEST_DATA_DIR "tests/data"
#endif

namespace iotls::report {
namespace {

TEST(Table, RendersAlignedColumns) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"beta-long", "22"});
  std::string out = t.render();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("beta-long  22"), std::string::npos);
  // Header separator present.
  EXPECT_NE(out.find("-----"), std::string::npos);
}

TEST(Table, ShortRowsPadded) {
  Table t({"a", "b", "c"});
  t.add_row({"only-one"});
  EXPECT_EQ(t.rows(), 1u);
  EXPECT_NO_THROW(t.render());
}

TEST(Table, CsvEscapesQuotesAndCommas) {
  Table t({"k", "v"});
  t.add_row({"a,b", "say \"hi\""});
  std::string csv = t.csv();
  EXPECT_NE(csv.find("\"a,b\""), std::string::npos);
  EXPECT_NE(csv.find("\"say \"\"hi\"\"\""), std::string::npos);
}

TEST(Chart, CdfMonotone) {
  std::string out = render_cdf("test", {0.1, 0.5, 0.9}, {0.0, 0.5, 1.0});
  // 0.0 -> 0%, 0.5 -> ~66.67%, 1.0 -> 100%.
  EXPECT_NE(out.find("0.00%"), std::string::npos);
  EXPECT_NE(out.find("66.67%"), std::string::npos);
  EXPECT_NE(out.find("100.00%"), std::string::npos);
}

TEST(Chart, SummaryQuantiles) {
  Summary s = summarize({1, 2, 3, 4, 5});
  EXPECT_DOUBLE_EQ(s.min, 1);
  EXPECT_DOUBLE_EQ(s.median, 3);
  EXPECT_DOUBLE_EQ(s.max, 5);
  EXPECT_DOUBLE_EQ(s.mean, 3);
  EXPECT_EQ(s.n, 5u);
}

TEST(Chart, SummaryEmptyIsZero) {
  Summary s = summarize({});
  EXPECT_EQ(s.n, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0);
}

TEST(Chart, BarsScaleToMax) {
  std::string out = render_bars("title", {{"a", 10.0}, {"b", 5.0}}, 10);
  EXPECT_NE(out.find("##########"), std::string::npos);  // full-width bar
  EXPECT_NE(out.find("#####"), std::string::npos);
}

TEST(Dot, VendorGraphWellFormed) {
  core::VendorFpGraph graph;
  graph.vendor_index["Amazon"] = 6;
  graph.fp_level["771,1,2"] = tls::SecurityLevel::kVulnerable;
  graph.edges.emplace_back("Amazon", "771,1,2");
  std::string dot = vendor_fp_dot(graph);
  EXPECT_NE(dot.find("graph vendor_fingerprints"), std::string::npos);
  EXPECT_NE(dot.find("\"v6\""), std::string::npos);
  EXPECT_NE(dot.find("#d62728"), std::string::npos);  // vulnerable = red
  EXPECT_NE(dot.find("\"v6\" -- \"fp0\""), std::string::npos);
}

TEST(Dot, TypeClusterGraphWellFormed) {
  core::TypeClusterStats stats;
  stats.vendor = "Amazon";
  stats.type_fps["Echo"] = {"771,1,2", "771,3,4"};
  std::string dot = type_cluster_dot(stats);
  EXPECT_NE(dot.find("Echo"), std::string::npos);
  EXPECT_NE(dot.find("--"), std::string::npos);
}

std::string golden(const std::string& name) {
  std::ifstream in(std::string(IOTLS_TEST_DATA_DIR) + "/" + name, std::ios::binary);
  EXPECT_TRUE(in) << name;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// The standard paper fleet's client dataset, as the Fig. 1/3 benches
/// build it.
const core::ClientDataset& standard_client() {
  static const core::ClientDataset ds = [] {
    auto corpus = corpus::LibraryCorpus::standard();
    auto universe = devicesim::ServerUniverse::standard();
    return core::ClientDataset::from_fleet(
        devicesim::generate_fleet({}, corpus, universe));
  }();
  return ds;
}

// The Fig. 1 and Fig. 3 renderings of the standard fleet, byte for byte.
TEST(Dot, VendorGraphMatchesGolden) {
  EXPECT_EQ(vendor_fp_dot(core::vendor_fp_graph(standard_client())),
            golden("fig01_vendor_graph.dot"));
}

TEST(Dot, AmazonTypeClustersMatchGolden) {
  EXPECT_EQ(type_cluster_dot(core::type_clusters(standard_client(), "Amazon")),
            golden("fig03_amazon_types.dot"));
}

}  // namespace
}  // namespace iotls::report
