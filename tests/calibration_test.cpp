// Calibration guards: the synthetic fleet must stay inside the paper's
// regime (DESIGN.md §6). These bands intentionally have slack — they exist
// to catch generator regressions, not to pin exact values.
#include <gtest/gtest.h>

#include "core/dataset.hpp"
#include "core/device_metrics.hpp"
#include "core/library_match.hpp"
#include "core/sharing.hpp"
#include "core/tls_params.hpp"
#include "core/vendor_metrics.hpp"
#include "devicesim/fleet.hpp"
#include "util/dates.hpp"

#include "seed_maps.hpp"

namespace iotls::core {
namespace {

struct Calibration {
  corpus::LibraryCorpus corpus = corpus::LibraryCorpus::standard();
  devicesim::ServerUniverse universe = devicesim::ServerUniverse::standard();
  devicesim::FleetDataset fleet = devicesim::generate_fleet({}, corpus, universe);
  ClientDataset ds = ClientDataset::from_fleet(fleet);
  SeedMaps seed{ds};
};

const Calibration& cal() {
  static const Calibration c;
  return c;
}

TEST(Calibration, FleetScale) {
  EXPECT_EQ(cal().fleet.devices.size(), 2014u);
  EXPECT_EQ(cal().seed.vendors.size(), 65u);
  EXPECT_EQ(cal().seed.users.size(), 721u);
  // Paper: 11,439 ClientHellos; band ±30%.
  EXPECT_GT(cal().ds.events().size(), 8000u);
  EXPECT_LT(cal().ds.events().size(), 15000u);
  EXPECT_EQ(cal().ds.dropped_events(), 0u);
}

TEST(Calibration, FingerprintUniverse) {
  // Paper: 903 fingerprints.
  EXPECT_GT(cal().seed.fingerprints.size(), 780u);
  EXPECT_LT(cal().seed.fingerprints.size(), 1020u);
}

TEST(Calibration, DegreeDistribution) {
  auto dist = fingerprint_degree_distribution(cal().ds);
  EXPECT_GT(dist.ratio1(), 0.68);  // paper 77.47%
  EXPECT_LT(dist.ratio1(), 0.85);
  EXPECT_GT(dist.degree2, 60u);    // paper 11.43% of 903 ~ 103
  EXPECT_GT(dist.degree_gt5, 8u);  // paper 2.78% ~ 25
}

TEST(Calibration, LibraryMatchRate) {
  auto report = match_against_corpus(cal().ds, cal().corpus, days(2020, 8, 1));
  // Paper: 2.55% — "the overwhelming majority matches no known library".
  EXPECT_GT(report.match_ratio(), 0.005);
  EXPECT_LT(report.match_ratio(), 0.06);
  // Most matched libraries are no longer supported (paper 14/16).
  EXPECT_GT(report.unsupported_libraries * 2, report.matched_libraries);
}

TEST(Calibration, Customization) {
  auto doc = doc_vendor(cal().ds);
  EXPECT_GT(fraction_with_unique(doc), 0.70);      // paper: >70%
  EXPECT_GT(fraction_above(doc, 0.5), 0.30);       // paper: ~40%
  EXPECT_LT(fraction_above(doc, 0.5), 0.60);
  auto docd = doc_device_per_vendor(cal().ds);
  std::size_t at_one = 0;
  for (const auto& [vendor, v] : docd) at_one += v >= 0.999;
  double ratio = static_cast<double>(at_one) / docd.size();
  EXPECT_GT(ratio, 0.12);  // paper: ~20%
  EXPECT_LT(ratio, 0.28);
}

TEST(Calibration, Vulnerabilities) {
  auto stats = vulnerability_stats(cal().ds);
  double vulnerable = static_cast<double>(stats.vulnerable_fps) / stats.total_fps;
  EXPECT_GT(vulnerable, 0.35);  // paper 44.63%
  EXPECT_LT(vulnerable, 0.62);
  double tdes = static_cast<double>(stats.by_tag.at("3DES")) / stats.total_fps;
  EXPECT_GT(tdes, 0.30);        // paper 41.64%
  EXPECT_LT(tdes, 0.52);
  // 3DES is the most common vulnerable component.
  for (const auto& [tag, count] : stats.by_tag) {
    EXPECT_LE(count, stats.by_tag.at("3DES")) << tag;
  }
  // Severe classes stay rare and vendor-confined (paper: 31 fps, 14 vendors).
  EXPECT_LT(stats.severe_fps, 80u);
  EXPECT_LE(stats.severe_vendors, 16u);
}

TEST(Calibration, ServerTies) {
  auto report = server_tied_fingerprints(cal().ds, cal().corpus);
  EXPECT_GT(report.tied_ratio(), 0.10);  // paper 17.42%
  EXPECT_LT(report.tied_ratio(), 0.25);
  // The flagship Table 5 relationships must be among the rows.
  bool sonos = false, roku = false;
  for (const auto& row : report.cross_vendor_rows) {
    if (row.sld == "sonos.com" && row.vendors.count("IKEA")) sonos = true;
    if (row.sld == "roku.com" && row.vendors.count("TCL")) roku = true;
  }
  EXPECT_TRUE(sonos);
  EXPECT_TRUE(roku);
}

TEST(Calibration, JaccardPairs) {
  auto pairs = vendor_similarities(cal().ds, 0.2);
  ASSERT_FALSE(pairs.empty());
  // The same-company pair tops the list at exactly 1.0.
  EXPECT_EQ(pairs.front().jaccard, 1.0);
  std::set<std::string> top = {pairs.front().vendor_a, pairs.front().vendor_b};
  EXPECT_EQ(top, (std::set<std::string>{"HDHomeRun", "SiliconDust"}));
}

TEST(Calibration, Versions) {
  auto report = version_report(cal().ds);
  // TLS 1.2 dominates, TLS 1.3 absent, SSL 3.0 exactly the paper's devices.
  EXPECT_GT(report.proposals.at(0x0303), report.proposals.at(0x0301) * 4);
  EXPECT_EQ(report.proposals.count(0x0304), 0u);
  EXPECT_EQ(report.ssl30_devices.size(), 26u);
  EXPECT_EQ(report.ssl30_by_vendor.size(), 6u);
  EXPECT_EQ(report.ssl30_by_vendor.at("Amazon"), 13u);
}

}  // namespace
}  // namespace iotls::core
