// Tests for the interned-id perf core (label: perf).
//
// Units: Interner round-trip/determinism, Bitset popcount intersection,
// posting-list intersect_count (linear and galloping paths).
//
// Property: the DatasetIndex-backed analyses reproduce the seed string-map
// algorithms byte for byte. The seed implementations are re-stated here over
// the seed's eager maps, rebuilt from the parsed events (seed_maps.hpp), so
// the reference never reads the index under test; both sides are serialized
// to canonical JSON and compared as strings, at jobs=1 and jobs=8.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/dataset.hpp"
#include "core/device_metrics.hpp"
#include "core/interner.hpp"
#include "core/semantic.hpp"
#include "core/sharing.hpp"
#include "core/vendor_metrics.hpp"
#include "corpus/corpus.hpp"
#include "obs/json.hpp"
#include "tls/ciphersuite.hpp"
#include "tls/record.hpp"
#include "util/dates.hpp"
#include "util/strings.hpp"

#include "seed_maps.hpp"

namespace iotls::core {
namespace {

// ------------------------------------------------------------------ units

TEST(Interner, RoundTripDenseIds) {
  Interner in;
  EXPECT_TRUE(in.empty());
  EXPECT_EQ(in.intern("vendor-b"), 0u);
  EXPECT_EQ(in.intern("vendor-a"), 1u);
  EXPECT_EQ(in.intern("vendor-c"), 2u);
  EXPECT_EQ(in.intern("vendor-b"), 0u);  // duplicate -> same id
  EXPECT_EQ(in.size(), 3u);
  EXPECT_EQ(in.str(0), "vendor-b");
  EXPECT_EQ(in.str(1), "vendor-a");
  EXPECT_EQ(in.str(2), "vendor-c");
  EXPECT_EQ(in.find("vendor-a"), 1u);
  EXPECT_EQ(in.find("never-seen"), Interner::kNone);
}

TEST(Interner, DeterministicAcrossInstances) {
  std::vector<std::string> seq;
  for (int i = 0; i < 500; ++i) seq.push_back("key-" + std::to_string(i % 137));
  Interner a, b;
  for (const std::string& s : seq) EXPECT_EQ(a.intern(s), b.intern(s));
  ASSERT_EQ(a.size(), b.size());
  for (std::uint32_t id = 0; id < a.size(); ++id) EXPECT_EQ(a.str(id), b.str(id));
  EXPECT_EQ(a.ids_by_string(), b.ids_by_string());
}

TEST(Interner, IdsByStringIsLexicographic) {
  Interner in;
  in.intern("zebra");
  in.intern("apple");
  in.intern("mango");
  std::vector<std::uint32_t> order = in.ids_by_string();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(in.str(order[0]), "apple");
  EXPECT_EQ(in.str(order[1]), "mango");
  EXPECT_EQ(in.str(order[2]), "zebra");
}

TEST(Interner, StableReferencesAcrossGrowth) {
  Interner in;
  const std::string& first = in.str(in.intern("first"));
  for (int i = 0; i < 10000; ++i) in.intern("filler-" + std::to_string(i));
  EXPECT_EQ(first, "first");  // deque storage: no dangling on growth
  EXPECT_EQ(in.find("first"), 0u);
}

TEST(Bitset, CountAndAndCount) {
  Bitset a(200), b(200);
  for (std::size_t i = 0; i < 200; i += 3) a.set(i);
  for (std::size_t i = 0; i < 200; i += 5) b.set(i);
  EXPECT_EQ(a.count(), 67u);
  EXPECT_EQ(b.count(), 40u);
  // Multiples of 15 in [0, 200): 0, 15, ..., 195.
  EXPECT_EQ(Bitset::and_count(a, b), 14u);
  EXPECT_TRUE(a.test(63));
  EXPECT_FALSE(a.test(64));
}

TEST(PostingList, IntersectCountLinearAndGalloping) {
  PostingList evens, threes, sparse;
  for (std::uint32_t i = 0; i < 3000; i += 2) evens.push_back(i);
  for (std::uint32_t i = 0; i < 3000; i += 3) threes.push_back(i);
  sparse = {6, 600, 2400, 2994};
  // Similar sizes -> linear merge path.
  EXPECT_EQ(intersect_count(evens, threes), 500u);  // multiples of 6
  // Lopsided sizes -> galloping path; both orders must agree.
  EXPECT_EQ(intersect_count(sparse, evens), 4u);
  EXPECT_EQ(intersect_count(evens, sparse), 4u);
  EXPECT_EQ(intersect_count({}, evens), 0u);
}

// -------------------------------------------------------- example fleet

devicesim::ClientHelloEvent make_event(const std::string& device,
                                       const std::string& sni,
                                       std::vector<std::uint16_t> suites) {
  tls::ClientHello ch;
  ch.legacy_version = 0x0303;
  ch.cipher_suites = std::move(suites);
  ch.extensions.push_back({10, {}});
  ch.extensions.push_back({11, {}});
  ch.set_sni(sni);
  Bytes msg = ch.encode();
  devicesim::ClientHelloEvent event;
  event.device_id = device;
  event.day = days(2019, 7, 1);
  event.sni = sni;
  event.wire = tls::encode_records(tls::ContentType::kHandshake, 0x0303,
                                   BytesView(msg.data(), msg.size()));
  return event;
}

/// 8 vendors x 3 devices over a 12-fingerprint space with overlapping
/// windows (adjacent vendors share fingerprints), plus one server-specific
/// vulnerable fingerprint shared across three vendors toward a single SNI
/// so the Table 5 analysis has a cross-vendor row.
devicesim::FleetDataset example_fleet() {
  devicesim::FleetDataset fleet;
  for (int u = 0; u < 4; ++u) fleet.users.push_back("user-" + std::to_string(u));
  for (int v = 0; v < 8; ++v) {
    for (int d = 0; d < 3; ++d) {
      fleet.devices.push_back(
          {"dev-" + std::to_string(v) + "-" + std::to_string(d),
           "Vendor" + std::to_string(v), d == 0 ? "Camera" : "Plug",
           "user-" + std::to_string((v + d) % 4)});
    }
  }
  for (int v = 0; v < 8; ++v) {
    for (int d = 0; d < 3; ++d) {
      std::string dev = "dev-" + std::to_string(v) + "-" + std::to_string(d);
      for (int k = 0; k < 4; ++k) {
        int f = (v * 2 + d + k) % 12;
        std::vector<std::uint16_t> suites = {
            static_cast<std::uint16_t>(0xc000 + f), 0xc02f,
            static_cast<std::uint16_t>(0x0100 + (f % 3))};
        fleet.events.push_back(make_event(
            dev, "srv-" + std::to_string(f % 5) + ".example.com", suites));
      }
    }
  }
  // Server-tied: one SNI, one fingerprint (with 3DES + RC4), three vendors.
  for (int v = 0; v < 3; ++v) {
    fleet.events.push_back(make_event("dev-" + std::to_string(v) + "-0",
                                      "tied.analytics-cloud.com",
                                      {0x000a, 0x0005}));
  }
  return fleet;
}

// ------------------------------------------- seed reference algorithms
// Verbatim re-statements of the pre-index implementations, running on the
// seed's eager string maps rebuilt from the parsed events (SeedMaps).

std::vector<VendorSimilarity> ref_vendor_similarities(const SeedMaps& ds,
                                                      double threshold) {
  std::vector<std::pair<std::string, const std::set<std::string>*>> vendors;
  for (const auto& [vendor, fps] : ds.vendor_fps) vendors.emplace_back(vendor, &fps);

  std::vector<VendorSimilarity> out;
  for (std::size_t i = 0; i < vendors.size(); ++i) {
    for (std::size_t j = i + 1; j < vendors.size(); ++j) {
      const auto& a = *vendors[i].second;
      const auto& b = *vendors[j].second;
      std::size_t inter = 0;
      for (const std::string& key : a) inter += b.count(key);
      if (inter == 0) continue;
      std::size_t uni = a.size() + b.size() - inter;
      VendorSimilarity sim;
      sim.vendor_a = vendors[i].first;
      sim.vendor_b = vendors[j].first;
      sim.jaccard = static_cast<double>(inter) / static_cast<double>(uni);
      sim.overlap_coefficient =
          static_cast<double>(inter) / static_cast<double>(std::min(a.size(), b.size()));
      if (sim.jaccard >= threshold) out.push_back(std::move(sim));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const VendorSimilarity& x, const VendorSimilarity& y) {
              return x.jaccard > y.jaccard;
            });
  return out;
}

std::map<std::string, double> ref_doc_per_device(const SeedMaps& ds) {
  std::map<std::string, std::map<std::string, std::size_t>> vendor_fp_devcount;
  for (const auto& [device, fps] : ds.device_fps) {
    const std::string& vendor = ds.device_vendor.at(device);
    for (const std::string& key : fps) ++vendor_fp_devcount[vendor][key];
  }
  std::map<std::string, double> out;
  for (const auto& [device, fps] : ds.device_fps) {
    if (fps.empty()) continue;
    const std::string& vendor = ds.device_vendor.at(device);
    std::size_t solo = 0;
    for (const std::string& key : fps) {
      if (vendor_fp_devcount[vendor][key] == 1) ++solo;
    }
    out[device] = static_cast<double>(solo) / static_cast<double>(fps.size());
  }
  return out;
}

std::map<std::string, double> ref_doc_device_per_vendor(const SeedMaps& ds) {
  std::map<std::string, double> sums;
  std::map<std::string, std::size_t> counts;
  for (const auto& [device, doc] : ref_doc_per_device(ds)) {
    const std::string& vendor = ds.device_vendor.at(device);
    sums[vendor] += doc;
    ++counts[vendor];
  }
  std::map<std::string, double> out;
  for (const auto& [vendor, sum] : sums) {
    out[vendor] = sum / static_cast<double>(counts[vendor]);
  }
  return out;
}

std::map<std::string, double> ref_doc_vendor(const SeedMaps& ds) {
  std::map<std::string, double> out;
  for (const auto& [vendor, fps] : ds.vendor_fps) {
    if (fps.empty()) continue;
    std::size_t solo = 0;
    for (const std::string& key : fps) {
      if (ds.fp_vendors.at(key).size() == 1) ++solo;
    }
    out[vendor] = static_cast<double>(solo) / static_cast<double>(fps.size());
  }
  return out;
}

DegreeDistribution ref_degree_distribution(const SeedMaps& ds) {
  DegreeDistribution dist;
  for (const auto& [key, vendors] : ds.fp_vendors) {
    ++dist.total;
    std::size_t degree = vendors.size();
    if (degree == 1) ++dist.degree1;
    else if (degree == 2) ++dist.degree2;
    else if (degree <= 5) ++dist.degree3to5;
    else ++dist.degree_gt5;
  }
  return dist;
}

ServerTieReport ref_server_tied(const SeedMaps& ds,
                                const corpus::LibraryCorpus& corpus) {
  ServerTieReport report;
  report.total_snis = ds.sni_fps.size();
  std::map<std::string, ServerTiedFingerprint> rows;
  for (const auto& [sni, fps] : ds.sni_fps) {
    if (fps.size() != 1) continue;
    const std::string& fp_key = *fps.begin();
    const tls::Fingerprint& fp = ds.fingerprints.at(fp_key);
    if (corpus.best_match(fp) != nullptr) continue;
    if (ds.fp_snis.at(fp_key).size() > 8) continue;
    const auto& devices = ds.sni_devices.at(sni);
    if (devices.size() < 2) continue;
    ++report.tied_snis;
    std::string sld = second_level_domain(sni);
    ServerTiedFingerprint& row = rows[sld + "|" + fp_key];
    row.sld = sld;
    row.fp_key = fp_key;
    row.fqdns.insert(sni);
    row.vulnerable_tags = tls::list_vulnerable_components(fp.cipher_suites);
    for (const std::string& d : devices) row.devices.insert(d);
    for (const std::string& v : ds.sni_vendors.at(sni)) row.vendors.insert(v);
  }
  for (auto& [key, row] : rows) {
    if (row.vendors.size() < 2) continue;
    report.cross_vendor_rows.push_back(row);
  }
  std::sort(report.cross_vendor_rows.begin(), report.cross_vendor_rows.end(),
            [](const ServerTiedFingerprint& a, const ServerTiedFingerprint& b) {
              return a.devices.size() > b.devices.size();
            });
  return report;
}

// ----------------------------------------------------- JSON serializers

obs::Json sims_json(const std::vector<VendorSimilarity>& sims) {
  obs::Json::Array rows;
  for (const auto& s : sims) {
    rows.push_back(obs::Json(obs::Json::Object{{"a", s.vendor_a},
                                               {"b", s.vendor_b},
                                               {"jaccard", s.jaccard},
                                               {"overlap", s.overlap_coefficient}}));
  }
  return obs::Json(std::move(rows));
}

obs::Json doc_json(const std::map<std::string, double>& doc) {
  obs::Json::Object o;
  for (const auto& [key, value] : doc) o.emplace_back(key, obs::Json(value));
  return obs::Json(std::move(o));
}

obs::Json degree_json(const DegreeDistribution& d) {
  return obs::Json(obs::Json::Object{{"total", obs::Json(d.total)},
                                     {"d1", obs::Json(d.degree1)},
                                     {"d2", obs::Json(d.degree2)},
                                     {"d3to5", obs::Json(d.degree3to5)},
                                     {"dgt5", obs::Json(d.degree_gt5)}});
}

obs::Json strings_json(const std::set<std::string>& values) {
  obs::Json::Array a;
  for (const std::string& v : values) a.push_back(obs::Json(v));
  return obs::Json(std::move(a));
}

obs::Json tied_json(const ServerTieReport& r) {
  obs::Json::Array rows;
  for (const auto& row : r.cross_vendor_rows) {
    obs::Json::Array tags;
    for (const std::string& t : row.vulnerable_tags) tags.push_back(obs::Json(t));
    rows.push_back(obs::Json(obs::Json::Object{
        {"sld", row.sld},
        {"fp", row.fp_key},
        {"fqdns", strings_json(row.fqdns)},
        {"tags", obs::Json(std::move(tags))},
        {"devices", strings_json(row.devices)},
        {"vendors", strings_json(row.vendors)}}));
  }
  return obs::Json(obs::Json::Object{{"total_snis", obs::Json(r.total_snis)},
                                     {"tied_snis", obs::Json(r.tied_snis)},
                                     {"rows", obs::Json(std::move(rows))}});
}

obs::Json semantic_json(const SemanticReport& r) {
  obs::Json::Array tuples;
  for (const auto& m : r.tuples) {
    tuples.push_back(obs::Json(obs::Json::Object{
        {"device", m.device_id},
        {"vendor", m.vendor},
        {"category", semantic_category_name(m.category)},
        {"library", m.library},
        {"outdated", obs::Json(m.library_outdated)},
        {"suite_jaccard", obs::Json(m.suite_jaccard)}}));
  }
  obs::Json::Object counts;
  for (const auto& [cat, n] : r.counts)
    counts.emplace_back(semantic_category_name(cat), obs::Json(n));
  return obs::Json(obs::Json::Object{{"tuples", obs::Json(std::move(tuples))},
                                     {"counts", obs::Json(std::move(counts))}});
}

/// Everything the rewritten analyses produce, in one canonical document.
std::string analysis_bundle(const ClientDataset& ds,
                            const corpus::LibraryCorpus& corpus) {
  obs::Json::Object root;
  root.emplace_back("similarities", sims_json(vendor_similarities(ds, 0.0)));
  root.emplace_back("server_tied", tied_json(server_tied_fingerprints(ds, corpus)));
  root.emplace_back("doc_per_device", doc_json(doc_per_device(ds)));
  root.emplace_back("doc_device_per_vendor", doc_json(doc_device_per_vendor(ds)));
  root.emplace_back("doc_vendor", doc_json(doc_vendor(ds)));
  root.emplace_back("degree", degree_json(fingerprint_degree_distribution(ds)));
  root.emplace_back("semantic",
                    semantic_json(semantic_match(ds, corpus, days(2020, 8, 1))));
  obs::Json::Array graph_edges;
  for (const auto& [vendor, fp] : vendor_fp_graph(ds).edges) {
    graph_edges.push_back(obs::Json(obs::Json::Object{{"v", vendor}, {"f", fp}}));
  }
  root.emplace_back("graph_edges", obs::Json(std::move(graph_edges)));
  return obs::Json(std::move(root)).dump();
}

// ------------------------------------------------------------ properties

TEST(PerfProperty, IndexedAnalysesMatchSeedStringMapAlgorithms) {
  devicesim::FleetDataset fleet = example_fleet();
  ClientDataset ds = ClientDataset::from_fleet(fleet);
  const SeedMaps seed(ds);
  corpus::LibraryCorpus corpus = corpus::LibraryCorpus::standard();

  EXPECT_EQ(sims_json(vendor_similarities(ds, 0.0)).dump(),
            sims_json(ref_vendor_similarities(seed, 0.0)).dump());
  EXPECT_EQ(sims_json(vendor_similarities(ds, 0.2)).dump(),
            sims_json(ref_vendor_similarities(seed, 0.2)).dump());
  EXPECT_EQ(doc_json(doc_per_device(ds)).dump(),
            doc_json(ref_doc_per_device(seed)).dump());
  EXPECT_EQ(doc_json(doc_device_per_vendor(ds)).dump(),
            doc_json(ref_doc_device_per_vendor(seed)).dump());
  EXPECT_EQ(doc_json(doc_vendor(ds)).dump(), doc_json(ref_doc_vendor(seed)).dump());
  EXPECT_EQ(degree_json(fingerprint_degree_distribution(ds)).dump(),
            degree_json(ref_degree_distribution(seed)).dump());

  ServerTieReport tied = server_tied_fingerprints(ds, corpus);
  EXPECT_EQ(tied_json(tied).dump(), tied_json(ref_server_tied(seed, corpus)).dump());
  // The constructed tied fingerprint must actually survive the filters,
  // otherwise this property would be vacuous for Table 5.
  ASSERT_FALSE(tied.cross_vendor_rows.empty());
  EXPECT_EQ(tied.cross_vendor_rows[0].sld, "analytics-cloud.com");
  EXPECT_EQ(tied.cross_vendor_rows[0].vendors.size(), 3u);
  EXPECT_FALSE(tied.cross_vendor_rows[0].vulnerable_tags.empty());
}

TEST(PerfProperty, ParallelBuildByteIdenticalAnalyses) {
  devicesim::FleetDataset fleet = example_fleet();
  corpus::LibraryCorpus corpus = corpus::LibraryCorpus::standard();
  ClientDataset ds1 = ClientDataset::from_fleet(fleet, {}, 1);
  ClientDataset ds8 = ClientDataset::from_fleet(fleet, {}, 8);
  ASSERT_EQ(ds1.events().size(), ds8.events().size());
  // Interned ids must line up too, not just the analyses' strings.
  ASSERT_EQ(ds1.index().fps().size(), ds8.index().fps().size());
  for (std::uint32_t f = 0; f < ds1.index().fps().size(); ++f) {
    ASSERT_EQ(ds1.index().fps().str(f), ds8.index().fps().str(f));
  }
  EXPECT_EQ(analysis_bundle(ds1, corpus), analysis_bundle(ds8, corpus));
}

}  // namespace
}  // namespace iotls::core
