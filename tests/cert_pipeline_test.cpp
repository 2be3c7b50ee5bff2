// §5 pipeline equivalence tests: the interned/parallel/cached certificate
// pipeline must be byte-identical to the pre-index sequential path.
//
// Each analysis is restated as the seed implemented it (tests/seed_certs.hpp
// and ref_collect below) — string-keyed maps with membership from the
// parsed events, fingerprints re-hashed per use, uncached signature
// verification — and both sides are serialized to canonical JSON
// (obs::Json preserves member order) and compared as dump() strings at
// --jobs 1 and --jobs 8, with and without a ValidationCache. Also covers
// the ValidationCache contract (hit/miss counters, correctness vs
// uncached, determinism across jobs levels) and CertIndex internal
// consistency.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/cert_dataset.hpp"
#include "core/chains.hpp"
#include "core/ct_validity.hpp"
#include "core/dataset.hpp"
#include "core/issuers.hpp"
#include "devicesim/fleet.hpp"
#include "devicesim/scenario.hpp"
#include "net/fault.hpp"
#include "net/prober.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "tls/clienthello.hpp"
#include "tls/record.hpp"
#include "util/dates.hpp"
#include "x509/authority.hpp"
#include "x509/validation.hpp"

#include "seed_certs.hpp"
#include "seed_maps.hpp"

namespace iotls::core {
namespace {

struct Fixture {
  corpus::LibraryCorpus corpus = corpus::LibraryCorpus::standard();
  devicesim::ServerUniverse universe = devicesim::ServerUniverse::standard();
  devicesim::FleetDataset fleet = devicesim::generate_fleet({}, corpus, universe);
  ClientDataset client = ClientDataset::from_fleet(fleet);
  SeedMaps seed{client};
  devicesim::SimWorld world = devicesim::build_world(universe);
  CertDataset certs = CertDataset::collect(client, world);
  std::int64_t probe_day = days(2022, 4, 15);
};

const Fixture& fixture() {
  static const Fixture f;
  return f;
}

// ------------------------------------------------------------ serializers

obs::Json set_json(const std::set<std::string>& s) {
  obs::Json::Array a;
  for (const std::string& v : s) a.push_back(obs::Json(v));
  return obs::Json(std::move(a));
}

obs::Json vec_json(const std::vector<std::string>& s) {
  obs::Json::Array a;
  for (const std::string& v : s) a.push_back(obs::Json(v));
  return obs::Json(std::move(a));
}

/// One entry of the seed's fingerprint-keyed leaf map: issuer and serial
/// of the first record serving the leaf, the servers presenting it and
/// their IPs.
struct LeafView {
  std::string issuer;
  std::uint64_t serial = 0;
  std::set<std::string> servers, ips;
};

/// A collected dataset in the seed's shape: each record with the devices
/// and vendors that contacted its SNI, plus the leaf map.
struct DatasetView {
  std::vector<SniRecord> records;
  std::vector<std::set<std::string>> devices, vendors;  // per record
  std::map<std::string, LeafView> leaves;
  std::size_t extracted = 0;
  std::size_t reachable = 0;

  /// Adds `record`'s leaf, known by `fp`, to the leaf map.
  void add_leaf(const std::string& fp, const std::string& issuer,
                const SniRecord& record) {
    LeafView& leaf = leaves[fp];
    if (leaf.servers.empty()) {
      leaf.issuer = issuer;
      leaf.serial = record.chain.front().serial;
    }
    leaf.servers.insert(record.sni);
    leaf.ips.insert(record.server_ips.begin(), record.server_ips.end());
  }
};

/// The view of a collected dataset, read through its index: membership
/// from the posting lists, leaves from the fingerprint domain.
DatasetView view_of(const CertDataset& ds) {
  const CertIndex& ix = ds.index();
  DatasetView view;
  view.records = ds.records();
  view.extracted = ds.extracted_snis();
  view.reachable = ds.reachable_snis();
  for (std::uint32_t i = 0; i < view.records.size(); ++i) {
    view.devices.push_back(ix.device_names(i));
    view.vendors.push_back(ix.vendor_names(i));
    const std::uint32_t fp = ix.record_fp()[i];
    if (fp == CertIndex::kNone) continue;
    view.add_leaf(ix.fps().str(fp), ix.issuers().str(ix.fp_issuer(fp)),
                  view.records[i]);
  }
  return view;
}

obs::Json record_json(const SniRecord& r, const std::set<std::string>& devices,
                      const std::set<std::string>& vendors) {
  obs::Json::Array chain;
  for (const x509::Certificate& cert : r.chain) {
    chain.push_back(obs::Json(cert.fingerprint()));
  }
  obs::Json::Array by_vantage;
  for (const auto& [vantage, fp] : r.leaf_by_vantage) {
    obs::Json::Array entry;
    entry.push_back(obs::Json(static_cast<int>(vantage)));
    entry.push_back(fp.has_value() ? obs::Json(*fp) : obs::Json(nullptr));
    by_vantage.push_back(obs::Json(std::move(entry)));
  }
  return obs::Json(obs::Json::Object{
      {"sni", obs::Json(r.sni)},
      {"reachable", obs::Json(r.reachable)},
      {"chain", obs::Json(std::move(chain))},
      {"misordered", obs::Json(r.served_misordered)},
      {"by_vantage", obs::Json(std::move(by_vantage))},
      {"devices", set_json(devices)},
      {"vendors", set_json(vendors)},
      {"ips", vec_json(r.server_ips)},
      {"stapled", obs::Json(r.stapled)},
      {"staple_valid", obs::Json(r.staple_valid)},
  });
}

obs::Json dataset_json(const DatasetView& ds) {
  obs::Json::Array recs;
  for (std::size_t i = 0; i < ds.records.size(); ++i) {
    recs.push_back(record_json(ds.records[i], ds.devices[i], ds.vendors[i]));
  }
  obs::Json::Array leaf_rows;
  for (const auto& [fp, leaf] : ds.leaves) {
    leaf_rows.push_back(obs::Json(obs::Json::Object{
        {"fp", obs::Json(fp)},
        {"issuer", obs::Json(leaf.issuer)},
        {"serial", obs::Json(static_cast<std::int64_t>(leaf.serial))},
        {"servers", set_json(leaf.servers)},
        {"ips", set_json(leaf.ips)},
    }));
  }
  return obs::Json(obs::Json::Object{
      {"extracted", obs::Json(static_cast<std::int64_t>(ds.extracted))},
      {"reachable", obs::Json(static_cast<std::int64_t>(ds.reachable))},
      {"records", obs::Json(std::move(recs))},
      {"leaves", obs::Json(std::move(leaf_rows))},
  });
}

obs::Json dataset_json(const CertDataset& ds) { return dataset_json(view_of(ds)); }

obs::Json validation_json(const SniValidation& v) {
  return obs::Json(obs::Json::Object{
      {"sni", obs::Json(v.sni)},
      {"status", obs::Json(x509::chain_status_name(v.result.status))},
      {"expired", obs::Json(v.result.expired)},
      {"not_yet_valid", obs::Json(v.result.not_yet_valid)},
      {"hostname_ok", obs::Json(v.result.hostname_ok)},
      {"detail", obs::Json(v.result.detail)},
      {"chain_length", obs::Json(static_cast<std::int64_t>(v.chain_length))},
      {"leaf_issuer", obs::Json(v.leaf_issuer)},
      {"leaf_issuer_public", obs::Json(v.leaf_issuer_public)},
      {"devices", set_json(v.devices)},
      {"vendors", set_json(v.vendors)},
  });
}

obs::Json row_json(const DomainChainRow& row) {
  obs::Json::Array lengths;
  for (std::size_t n : row.chain_lengths) {
    lengths.push_back(obs::Json(static_cast<std::int64_t>(n)));
  }
  return obs::Json(obs::Json::Object{
      {"sld", obs::Json(row.sld)},
      {"issuer", obs::Json(row.leaf_issuer)},
      {"status", obs::Json(x509::chain_status_name(row.status))},
      {"chain_lengths", obs::Json(std::move(lengths))},
      {"fqdns", obs::Json(static_cast<std::int64_t>(row.fqdns))},
      {"devices", set_json(row.devices)},
      {"vendors", set_json(row.vendors)},
  });
}

obs::Json chain_report_json(const ChainReport& report) {
  obs::Json::Array validations, failures, private_roots, self_signed, expired,
      mismatches;
  for (const SniValidation& v : report.validations) {
    validations.push_back(validation_json(v));
  }
  for (const DomainChainRow& row : report.failure_rows) failures.push_back(row_json(row));
  for (const DomainChainRow& row : report.private_root_rows) {
    private_roots.push_back(row_json(row));
  }
  for (const DomainChainRow& row : report.self_signed_rows) {
    self_signed.push_back(row_json(row));
  }
  for (const ExpiredRow& row : report.expired) {
    expired.push_back(obs::Json(obs::Json::Object{
        {"sni", obs::Json(row.sni)},
        {"sld", obs::Json(row.sld)},
        {"not_after", obs::Json(row.not_after)},
        {"issuer", obs::Json(row.issuer)},
        {"devices", set_json(row.devices)},
        {"vendors", set_json(row.vendors)},
    }));
  }
  for (const SniValidation& v : report.cn_mismatches) {
    mismatches.push_back(validation_json(v));
  }
  return obs::Json(obs::Json::Object{
      {"validations", obs::Json(std::move(validations))},
      {"failure_rows", obs::Json(std::move(failures))},
      {"private_root_rows", obs::Json(std::move(private_roots))},
      {"self_signed_rows", obs::Json(std::move(self_signed))},
      {"expired", obs::Json(std::move(expired))},
      {"cn_mismatches", obs::Json(std::move(mismatches))},
      {"validated", obs::Json(static_cast<std::int64_t>(report.validated))},
      {"trusted", obs::Json(static_cast<std::int64_t>(report.trusted))},
      {"private_leaf_failure_ratio", obs::Json(report.private_leaf_failure_ratio)},
  });
}

obs::Json matrix_json(const IssuerMatrix& matrix) {
  obs::Json::Array ratio;
  for (const auto& [vendor, column] : matrix.ratio) {
    obs::Json::Array cells;
    for (const auto& [issuer, r] : column) {
      cells.push_back(obs::Json(obs::Json::Object{
          {"issuer", obs::Json(issuer)}, {"ratio", obs::Json(r)}}));
    }
    ratio.push_back(obs::Json(obs::Json::Object{
        {"vendor", obs::Json(vendor)}, {"cells", obs::Json(std::move(cells))}}));
  }
  obs::Json::Array is_public;
  for (const auto& [issuer, pub] : matrix.issuer_public) {
    is_public.push_back(obs::Json(obs::Json::Object{
        {"issuer", obs::Json(issuer)}, {"public", obs::Json(pub)}}));
  }
  return obs::Json(obs::Json::Object{
      {"ratio", obs::Json(std::move(ratio))},
      {"issuer_public", obs::Json(std::move(is_public))},
      {"issuer_order", vec_json(matrix.issuer_order)},
      {"vendor_order", vec_json(matrix.vendor_order)},
  });
}

obs::Json issuer_report_json(const IssuerReport& report) {
  obs::Json::Array share;
  for (const auto& [org, s] : report.issuer_share) {
    share.push_back(obs::Json(obs::Json::Object{
        {"org", obs::Json(org)}, {"share", obs::Json(s)}}));
  }
  return obs::Json(obs::Json::Object{
      {"issuer_organizations",
       obs::Json(static_cast<std::int64_t>(report.issuer_organizations))},
      {"leaves", obs::Json(static_cast<std::int64_t>(report.leaves))},
      {"private_leaves", obs::Json(static_cast<std::int64_t>(report.private_leaves))},
      {"private_ratio", obs::Json(report.private_ratio)},
      {"issuer_share", obs::Json(std::move(share))},
      {"public_only_vendors", set_json(report.public_only_vendors)},
      {"self_signing_vendors", set_json(report.self_signing_vendors)},
      {"vendor_only_vendors", set_json(report.vendor_only_vendors)},
  });
}

obs::Json ct_point_json(const CtPoint& p) {
  return obs::Json(obs::Json::Object{
      {"sni", obs::Json(p.sni)},
      {"vendor", obs::Json(p.vendor)},
      {"fp", obs::Json(p.leaf_fingerprint)},
      {"issuer", obs::Json(p.leaf_issuer)},
      {"validity_days", obs::Json(p.validity_days)},
      {"class", obs::Json(chain_class_name(p.chain_class))},
      {"in_ct", obs::Json(p.in_ct)},
  });
}

obs::Json ct_report_json(const CtReport& report) {
  obs::Json::Array points, anomalies;
  for (const CtPoint& p : report.points) points.push_back(ct_point_json(p));
  for (const CtPoint& p : report.public_not_logged) {
    anomalies.push_back(ct_point_json(p));
  }
  return obs::Json(obs::Json::Object{
      {"points", obs::Json(std::move(points))},
      {"tuples", obs::Json(static_cast<std::int64_t>(report.tuples))},
      {"public_leaves", obs::Json(static_cast<std::int64_t>(report.public_leaves))},
      {"public_leaves_in_ct",
       obs::Json(static_cast<std::int64_t>(report.public_leaves_in_ct))},
      {"public_not_logged", obs::Json(std::move(anomalies))},
      {"private_leaves", obs::Json(static_cast<std::int64_t>(report.private_leaves))},
      {"private_leaves_in_ct",
       obs::Json(static_cast<std::int64_t>(report.private_leaves_in_ct))},
      {"private_long_validity_ratio", obs::Json(report.private_long_validity_ratio)},
      {"max_public_validity", obs::Json(report.max_public_validity)},
      {"max_private_validity", obs::Json(report.max_private_validity)},
  });
}

// ------------------------------------------------------ seed collect
//
// The pre-index collect, verbatim (modulo obs span bookkeeping, which never
// affects results): a sequential walk over the seed's client maps rebuilt
// from the parsed events (SeedMaps), never the DatasetIndex collect walks.
// The analyses' restatements live in seed_certs.hpp.

DatasetView ref_collect(const SeedMaps& client,
                        const devicesim::SimWorld& world,
                        const net::Internet& internet, std::size_t min_users) {
  DatasetView ds;
  net::TlsProber prober(internet);
  for (const auto& [sni, users] : client.sni_users) {
    if (users.size() < min_users) continue;
    ++ds.extracted;

    SniRecord record;
    record.sni = sni;
    ds.devices.push_back(client.sni_devices.at(sni));
    ds.vendors.push_back(client.sni_vendors.at(sni));

    net::MultiVantageResult multi = prober.probe_all_vantages(sni);
    for (const auto& [vantage, result] : multi.by_vantage) {
      if (result.reachable && !result.chain.empty()) {
        auto normalized = x509::normalize_chain_order(result.chain, sni);
        record.leaf_by_vantage[vantage] = normalized.front().fingerprint();
      } else {
        record.leaf_by_vantage[vantage] = std::nullopt;
      }
    }

    const net::ProbeResult& ny = multi.by_vantage.at(net::VantagePoint::kNewYork);
    record.reachable = ny.reachable;
    if (ny.stapled.has_value()) {
      record.stapled = true;
      record.staple_valid = x509::verify_ocsp(*ny.stapled, world.keys);
    }
    if (ny.reachable) {
      ++ds.reachable;
      record.chain = x509::normalize_chain_order(ny.chain, sni);
      record.served_misordered = !(record.chain == ny.chain);
      if (const net::SimServer* server = world.internet.find(sni)) {
        record.server_ips = server->ips;
      }
      if (!record.chain.empty()) {
        const x509::Certificate& leaf = record.chain.front();
        ds.add_leaf(leaf.fingerprint(), leaf.issuer.organization, record);
      }
    }
    ds.records.push_back(std::move(record));
  }
  return ds;
}

// --------------------------------------------------------- byte identity

TEST(CertPipelineIdentity, CollectMatchesSeedAtEveryJobsLevel) {
  const auto& f = fixture();
  const net::FaultSpec spec = net::FaultSpec::parse("seed=7,timeout=0.2");
  for (std::size_t min_users : {1, 2, 3}) {
    SCOPED_TRACE("min_users=" + std::to_string(min_users));
    DatasetView ref = ref_collect(f.seed, f.world, f.world.internet, min_users);
    std::string want = dataset_json(ref).dump();

    if (min_users == 1) {
      // The fixture collects at jobs=1 with no cache.
      EXPECT_EQ(dataset_json(f.certs).dump(), want);
    } else {
      auto j1 = CertDataset::collect(f.client, f.world, min_users, 1);
      EXPECT_EQ(dataset_json(j1).dump(), want);
    }
    if (min_users == 2) {
      // The threshold both drops and keeps SNIs, so the filter is exercised.
      EXPECT_GT(ref.extracted, 0u);
      EXPECT_LT(ref.extracted, f.seed.sni_users.size());
    }

    auto j8 = CertDataset::collect(f.client, f.world, min_users, 8);
    EXPECT_EQ(dataset_json(j8).dump(), want);

    x509::ValidationCache cache;
    auto j8c = CertDataset::collect(f.client, f.world, min_users, 8, &cache);
    EXPECT_EQ(dataset_json(j8c).dump(), want);

    // Under faults, each side walks its own fresh injector: the reference's
    // fault-attempt order is the one collect must reproduce at every jobs
    // level.
    net::FaultInjector ref_injector(f.world.internet, spec);
    DatasetView faulted = ref_collect(f.seed, f.world, ref_injector, min_users);
    ASSERT_LT(faulted.reachable, ref.reachable);  // the faults bite
    std::string want_faulted = dataset_json(faulted).dump();
    for (int jobs : {1, 8}) {
      net::FaultInjector injector(f.world.internet, spec);
      auto got = CertDataset::collect(f.client, f.world, min_users, jobs,
                                      nullptr, &injector);
      EXPECT_EQ(dataset_json(got).dump(), want_faulted) << "jobs=" << jobs;
    }
  }
}

TEST(CertPipelineIdentity, ValidateMatchesSeedAtEveryJobsLevel) {
  const auto& f = fixture();
  std::string want =
      chain_report_json(
          ref_validate_dataset(f.certs, f.seed, f.world, f.probe_day))
          .dump();

  EXPECT_EQ(chain_report_json(
                validate_dataset(f.certs, f.world, f.probe_day, 1, nullptr))
                .dump(),
            want);

  x509::ValidationCache cache;
  EXPECT_EQ(chain_report_json(
                validate_dataset(f.certs, f.world, f.probe_day, 8, &cache))
                .dump(),
            want);
  // A warm cache must not change anything either.
  EXPECT_EQ(chain_report_json(
                validate_dataset(f.certs, f.world, f.probe_day, 8, &cache))
                .dump(),
            want);
}

TEST(CertPipelineIdentity, IssuerAnalysesMatchSeed) {
  const auto& f = fixture();
  EXPECT_EQ(
      matrix_json(issuer_matrix(f.certs, f.world.issuer_is_public)).dump(),
      matrix_json(ref_issuer_matrix(f.certs, f.seed, f.world.issuer_is_public))
          .dump());
  EXPECT_EQ(
      issuer_report_json(issuer_report(f.certs, f.world.issuer_is_public)).dump(),
      issuer_report_json(
          ref_issuer_report(f.certs, f.seed, f.world.issuer_is_public))
          .dump());
}

TEST(CertPipelineIdentity, CtReportMatchesSeedAtEveryJobsLevel) {
  const auto& f = fixture();
  std::string want = ct_report_json(ref_ct_report(f.certs, f.seed, f.world)).dump();
  EXPECT_EQ(ct_report_json(ct_report(f.certs, f.world, 1)).dump(), want);
  EXPECT_EQ(ct_report_json(ct_report(f.certs, f.world, 8)).dump(), want);
}

/// One ClientHello from `device` naming `sni`.
devicesim::ClientHelloEvent hello(const std::string& device,
                                  const std::string& sni) {
  tls::ClientHello ch;
  ch.legacy_version = 0x0303;
  ch.cipher_suites = {0x1301, 0xc02f, 0x009c};
  ch.extensions.push_back({10, {}});
  ch.set_sni(sni);
  Bytes msg = ch.encode();
  devicesim::ClientHelloEvent e;
  e.device_id = device;
  e.day = days(2019, 7, 1);
  e.sni = sni;
  e.wire = tls::encode_records(tls::ContentType::kHandshake, 0x0303,
                               BytesView(msg.data(), msg.size()));
  return e;
}

TEST(CertPipelineIdentity, LeavesSharingKeyAndSerialKeepTheirIssuers) {
  // Two private CAs each issue a leaf for CN "device". The subject key
  // derives from the CN and the serial from the CN and the CA's issuance
  // count, so both leaves carry the same key and serial — the shared
  // firmware key with a default serial — but differ in issuer and
  // fingerprint. One vendor's device contacts both servers.
  devicesim::SimWorld world;
  devicesim::FleetDataset fleet;
  fleet.users = {"u1"};
  fleet.devices.push_back({"dev-1", "V", "Widget", "u1"});
  std::vector<x509::Certificate> leaves;
  for (const std::string org : {"OrgA", "OrgB"}) {
    auto root = x509::CertificateAuthority::make_root(
        org + " Root", org, x509::CaKind::kPrivate, 0, 40000);
    root.publish_key(world.keys);
    world.issuer_is_public[org] = false;
    x509::IssueRequest req;
    req.subject.common_name = "device";
    req.not_before = 18000;
    req.not_after = 19000;
    leaves.push_back(root.issue(req));

    net::SimServer server;
    server.sni = (org == "OrgA" ? "a" : "b") + std::string(".example.com");
    server.ips = {org == "OrgA" ? "198.51.100.1" : "198.51.100.2"};
    server.default_chain = {leaves.back(), root.certificate()};
    fleet.events.push_back(hello("dev-1", server.sni));
    world.internet.add_server(std::move(server));
  }
  ASSERT_EQ(leaves[0].subject_key_id, leaves[1].subject_key_id);
  ASSERT_EQ(leaves[0].serial, leaves[1].serial);
  ASSERT_NE(leaves[0].fingerprint(), leaves[1].fingerprint());

  ClientDataset client = ClientDataset::from_fleet(fleet);
  SeedMaps seed{client};
  CertDataset certs = CertDataset::collect(client, world);
  ASSERT_EQ(certs.reachable_snis(), 2u);
  EXPECT_EQ(certs.leaves().size(), 2u);

  IssuerMatrix matrix = issuer_matrix(certs, world.issuer_is_public);
  EXPECT_EQ(matrix.ratio["V"],
            (std::map<std::string, double>{{"OrgA", 0.5}, {"OrgB", 0.5}}));
  EXPECT_EQ(
      matrix_json(matrix).dump(),
      matrix_json(ref_issuer_matrix(certs, seed, world.issuer_is_public)).dump());
  EXPECT_EQ(
      issuer_report_json(issuer_report(certs, world.issuer_is_public)).dump(),
      issuer_report_json(ref_issuer_report(certs, seed, world.issuer_is_public))
          .dump());
}

// ------------------------------------------------------- ValidationCache

TEST(ValidationCacheTest, MatchesUncachedAndCountsHitsAndMisses) {
  const auto& f = fixture();
  obs::Counter& hits = obs::metrics().counter("x509.cache.hit");
  obs::Counter& misses = obs::metrics().counter("x509.cache.miss");

  std::uint64_t h0 = hits.value(), m0 = misses.value();
  x509::ValidationCache cache;
  auto cached = validate_dataset(f.certs, f.world, f.probe_day, 1, &cache);
  std::uint64_t h1 = hits.value(), m1 = misses.value();

  // Every miss creates exactly one entry: distinct certificates are
  // verified once, everything else is a hit. Chains share intermediates,
  // and many SNIs share leaves, so hits dominate.
  EXPECT_EQ(m1 - m0, cache.entries());
  EXPECT_GT(h1 - h0, cache.entries());
  EXPECT_LT(cache.entries(), f.certs.reachable_snis());

  auto uncached = validate_dataset(f.certs, f.world, f.probe_day, 1, nullptr);
  EXPECT_EQ(chain_report_json(cached).dump(), chain_report_json(uncached).dump());

  // Re-validating with the warm cache produces zero new misses.
  std::uint64_t m2_before = misses.value();
  auto warm = validate_dataset(f.certs, f.world, f.probe_day, 1, &cache);
  EXPECT_EQ(misses.value(), m2_before);
  EXPECT_EQ(chain_report_json(warm).dump(), chain_report_json(uncached).dump());
}

TEST(ValidationCacheTest, MissCountIndependentOfJobs) {
  const auto& f = fixture();
  obs::Counter& misses = obs::metrics().counter("x509.cache.miss");

  std::uint64_t m0 = misses.value();
  x509::ValidationCache sequential;
  auto r1 = validate_dataset(f.certs, f.world, f.probe_day, 1, &sequential);
  std::uint64_t seq_misses = misses.value() - m0;

  m0 = misses.value();
  x509::ValidationCache parallel;
  auto r8 = validate_dataset(f.certs, f.world, f.probe_day, 8, &parallel);
  std::uint64_t par_misses = misses.value() - m0;

  // Compute-under-shard-lock: each distinct certificate is verified exactly
  // once no matter how many workers race for it.
  EXPECT_EQ(sequential.entries(), parallel.entries());
  EXPECT_EQ(seq_misses, par_misses);
  EXPECT_EQ(chain_report_json(r1).dump(), chain_report_json(r8).dump());
}

TEST(ValidationCacheTest, OcspVerdictsMatchUncached) {
  const auto& f = fixture();
  x509::ValidationCache cache;
  for (const SniRecord& record : f.certs.records()) {
    if (!record.stapled) continue;
    const net::SimServer* server = f.world.internet.find(record.sni);
    ASSERT_NE(server, nullptr) << record.sni;
    ASSERT_TRUE(server->stapled_response.has_value()) << record.sni;
    bool plain = x509::verify_ocsp(*server->stapled_response, f.world.keys);
    EXPECT_EQ(cache.ocsp_ok(*server->stapled_response, f.world.keys), plain)
        << record.sni;
    // Second lookup is served from the cache with the same verdict.
    EXPECT_EQ(cache.ocsp_ok(*server->stapled_response, f.world.keys), plain)
        << record.sni;
  }
  EXPECT_GT(cache.entries(), 0u);
}

// -------------------------------------------------------------- CertIndex

bool sorted_unique(const PostingList& list) {
  return std::adjacent_find(list.begin(), list.end(),
                            [](std::uint32_t a, std::uint32_t b) { return a >= b; }) ==
         list.end();
}

/// The seed collect over the fixture, probed once.
const DatasetView& ref_view() {
  static const DatasetView view = [] {
    const auto& f = fixture();
    return ref_collect(f.seed, f.world, f.world.internet, 1);
  }();
  return view;
}

TEST(CertIndexTest, FingerprintDomainMatchesLeafView) {
  const auto& f = fixture();
  const CertIndex& ix = f.certs.index();
  const DatasetView& ref = ref_view();

  // Every distinct fingerprint of the seed's leaf map is interned, and
  // nothing else is; leaves() is that domain.
  EXPECT_EQ(ix.fps().size(), ref.leaves.size());
  EXPECT_EQ(&f.certs.leaves(), &ix.fps());
  for (const auto& [fp, leaf] : ref.leaves) {
    std::uint32_t id = ix.fps().find(fp);
    ASSERT_NE(id, CertIndex::kNone) << fp;
    EXPECT_EQ(ix.issuers().str(ix.fp_issuer(id)), leaf.issuer);
  }
  for (std::size_t i = 0; i < f.certs.records().size(); ++i) {
    const std::uint32_t fp = ix.record_fp()[i];
    if (fp == CertIndex::kNone) continue;
    EXPECT_EQ(ix.fp_validity_days(fp),
              f.certs.records()[i].chain.front().validity_days());
  }
}

TEST(CertIndexTest, RecordColumnsTrackRecords) {
  const auto& f = fixture();
  const CertIndex& ix = f.certs.index();
  const auto& records = f.certs.records();

  ASSERT_EQ(ix.snis().size(), records.size());
  ASSERT_EQ(ix.record_fp().size(), records.size());
  for (std::uint32_t i = 0; i < records.size(); ++i) {
    const SniRecord& record = records[i];
    EXPECT_EQ(ix.snis().str(i), record.sni);  // SNI id == record position
    if (!record.reachable || record.chain.empty()) {
      EXPECT_EQ(ix.record_fp()[i], CertIndex::kNone) << record.sni;
      continue;
    }
    ASSERT_NE(ix.record_fp()[i], CertIndex::kNone) << record.sni;
    // The memoized fingerprint is the leaf's actual SHA-256.
    EXPECT_EQ(ix.fps().str(ix.record_fp()[i]), record.chain.front().fingerprint())
        << record.sni;
  }
}

TEST(CertIndexTest, PostingListsSortedUniqueAndComplete) {
  const auto& f = fixture();
  const CertIndex& ix = f.certs.index();

  for (const auto* table : {&ix.sni_devices(), &ix.sni_vendors(), &ix.vendor_fps()}) {
    for (const PostingList& list : *table) {
      EXPECT_TRUE(sorted_unique(list));
    }
  }

  // sni_devices/sni_vendors must agree with the parsed events.
  std::map<std::string, std::set<std::string>> vendor_fps;
  for (std::uint32_t i = 0; i < f.certs.records().size(); ++i) {
    const SniRecord& record = f.certs.records()[i];
    EXPECT_EQ(ix.device_names(i), f.seed.sni_devices.at(record.sni)) << record.sni;
    EXPECT_EQ(ix.vendor_names(i), f.seed.sni_vendors.at(record.sni)) << record.sni;
    if (!record.reachable || record.chain.empty()) continue;
    for (const std::string& vendor : f.seed.sni_vendors.at(record.sni)) {
      vendor_fps[vendor].insert(record.chain.front().fingerprint());
    }
  }

  // vendor_fps: each vendor's distinct leaves, vendors with none left empty.
  std::map<std::string, std::set<std::string>> got;
  for (std::uint32_t v = 0; v < ix.vendors().size(); ++v) {
    for (std::uint32_t fp : ix.vendor_fps()[v]) {
      got[ix.vendors().str(v)].insert(ix.fps().str(fp));
    }
  }
  EXPECT_EQ(got, vendor_fps);
}

}  // namespace
}  // namespace iotls::core
