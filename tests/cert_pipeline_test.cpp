// §5 pipeline equivalence tests: the interned/parallel/cached certificate
// pipeline must be byte-identical to the pre-index sequential path.
//
// Each analysis is restated here exactly as the seed implemented it —
// string-keyed maps over the `records()`/`leaves()` compatibility views,
// re-hashing fingerprints per use, uncached signature verification — and
// both sides are serialized to canonical JSON (obs::Json preserves member
// order) and compared as dump() strings at --jobs 1 and --jobs 8, with and
// without a ValidationCache. Also covers the ValidationCache contract
// (hit/miss counters, correctness vs uncached, determinism across jobs
// levels) and CertIndex internal consistency.
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
#include "util/dates.hpp"
#include "util/strings.hpp"
#include "x509/validation.hpp"

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

obs::Json record_json(const SniRecord& r) {
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
      {"devices", set_json(r.devices)},
      {"vendors", set_json(r.vendors)},
      {"ips", vec_json(r.server_ips)},
      {"stapled", obs::Json(r.stapled)},
      {"staple_valid", obs::Json(r.staple_valid)},
  });
}

obs::Json dataset_json(const std::vector<SniRecord>& records,
                       const std::map<std::string, LeafRecord>& leaves,
                       std::size_t extracted, std::size_t reachable) {
  obs::Json::Array recs;
  for (const SniRecord& r : records) recs.push_back(record_json(r));
  obs::Json::Array leaf_rows;
  for (const auto& [fp, leaf] : leaves) {
    leaf_rows.push_back(obs::Json(obs::Json::Object{
        {"fp", obs::Json(fp)},
        {"issuer", obs::Json(leaf.cert.issuer.organization)},
        {"serial", obs::Json(static_cast<std::int64_t>(leaf.cert.serial))},
        {"servers", set_json(leaf.servers)},
        {"ips", set_json(leaf.ips)},
    }));
  }
  return obs::Json(obs::Json::Object{
      {"extracted", obs::Json(static_cast<std::int64_t>(extracted))},
      {"reachable", obs::Json(static_cast<std::int64_t>(reachable))},
      {"records", obs::Json(std::move(recs))},
      {"leaves", obs::Json(std::move(leaf_rows))},
  });
}

obs::Json dataset_json(const CertDataset& ds) {
  return dataset_json(ds.records(), ds.leaves(), ds.extracted_snis(),
                      ds.reachable_snis());
}

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

// ------------------------------------------------- seed-path restatements
//
// These reproduce the pre-index implementations verbatim (modulo obs span
// bookkeeping, which never affects results): sequential walks over the
// string-keyed maps, fingerprints re-hashed per use, verification uncached.
// ref_collect reads the seed's client maps rebuilt from the parsed events
// (SeedMaps), never the DatasetIndex collect walks.

struct RefDataset {
  std::vector<SniRecord> records;
  std::map<std::string, LeafRecord> leaves;
  std::size_t extracted = 0;
  std::size_t reachable = 0;
};

RefDataset ref_collect(const SeedMaps& client,
                       const devicesim::SimWorld& world,
                       const net::Internet& internet, std::size_t min_users) {
  RefDataset ds;
  net::TlsProber prober(internet);
  for (const auto& [sni, users] : client.sni_users) {
    if (users.size() < min_users) continue;
    ++ds.extracted;

    SniRecord record;
    record.sni = sni;
    record.devices = client.sni_devices.at(sni);
    record.vendors = client.sni_vendors.at(sni);

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
        const std::string fp = record.chain.front().fingerprint();
        LeafRecord& leaf = ds.leaves[fp];
        if (leaf.servers.empty()) leaf.cert = record.chain.front();
        leaf.servers.insert(sni);
        for (const std::string& ip : record.server_ips) leaf.ips.insert(ip);
      }
    }
    ds.records.push_back(std::move(record));
  }
  return ds;
}

ChainReport ref_validate_dataset(const CertDataset& certs,
                                 const devicesim::SimWorld& world,
                                 std::int64_t now) {
  ChainReport report;
  std::map<std::string, DomainChainRow> failures;
  std::map<std::string, DomainChainRow> private_roots;
  std::map<std::string, DomainChainRow> self_signed;
  std::size_t private_leaves = 0;
  std::size_t private_leaf_failures = 0;

  for (const SniRecord& record : certs.records()) {
    if (!record.reachable) continue;
    SniValidation v;
    v.sni = record.sni;
    std::vector<x509::Certificate> chain =
        x509::normalize_chain_order(record.chain, record.sni);
    v.result = x509::validate_chain(chain, record.sni, world.trust,
                                    world.keys, now);
    v.chain_length = record.chain.size();
    v.devices = record.devices;
    v.vendors = record.vendors;
    if (!record.chain.empty()) {
      v.leaf_issuer = record.chain.front().issuer.organization;
      auto it = world.issuer_is_public.find(v.leaf_issuer);
      v.leaf_issuer_public = it == world.issuer_is_public.end() ? true : it->second;
    }
    ++report.validated;
    if (x509::chain_trusted(v.result.status)) ++report.trusted;

    if (!v.leaf_issuer_public) {
      ++private_leaves;
      if (!x509::chain_trusted(v.result.status)) ++private_leaf_failures;
    }

    auto aggregate = [&](std::map<std::string, DomainChainRow>& into) {
      std::string sld = second_level_domain(v.sni);
      std::string key = sld + "|" + v.leaf_issuer + "|" +
                        x509::chain_status_name(v.result.status);
      DomainChainRow& row = into[key];
      row.sld = sld;
      row.leaf_issuer = v.leaf_issuer;
      row.status = v.result.status;
      row.chain_lengths.insert(v.chain_length);
      ++row.fqdns;
      for (const std::string& d : v.devices) row.devices.insert(d);
      for (const std::string& vendor : v.vendors) row.vendors.insert(vendor);
    };

    switch (v.result.status) {
      case x509::ChainStatus::kIncompleteChain:
      case x509::ChainStatus::kUntrustedRoot:
      case x509::ChainStatus::kSelfSigned:
      case x509::ChainStatus::kBadSignature:
      case x509::ChainStatus::kEmptyChain:
        aggregate(failures);
        break;
      default:
        break;
    }
    if (v.result.status == x509::ChainStatus::kUntrustedRoot) aggregate(private_roots);
    if (v.result.status == x509::ChainStatus::kSelfSigned) aggregate(self_signed);

    if (v.result.expired && !record.chain.empty()) {
      ExpiredRow row;
      row.sni = v.sni;
      row.sld = second_level_domain(v.sni);
      row.not_after = record.chain.front().not_after;
      row.issuer = v.leaf_issuer;
      row.devices = v.devices;
      row.vendors = v.vendors;
      report.expired.push_back(std::move(row));
    }
    if (!v.result.hostname_ok && !record.chain.empty()) {
      report.cn_mismatches.push_back(v);
    }
    report.validations.push_back(std::move(v));
  }

  auto flatten = [](std::map<std::string, DomainChainRow>& from,
                    std::vector<DomainChainRow>& into) {
    for (auto& [key, row] : from) into.push_back(std::move(row));
    std::sort(into.begin(), into.end(),
              [](const DomainChainRow& a, const DomainChainRow& b) {
                return a.devices.size() > b.devices.size();
              });
  };
  flatten(failures, report.failure_rows);
  flatten(private_roots, report.private_root_rows);
  flatten(self_signed, report.self_signed_rows);

  report.private_leaf_failure_ratio =
      private_leaves ? static_cast<double>(private_leaf_failures) / private_leaves : 0;
  return report;
}

std::map<std::string, std::map<std::string, std::size_t>>
ref_vendor_issuer_counts(const CertDataset& certs) {
  std::map<std::string, std::map<std::string, std::set<std::string>>>
      vendor_issuer_leaves;
  for (const SniRecord& record : certs.records()) {
    if (!record.reachable || record.chain.empty()) continue;
    const x509::Certificate& leaf = record.chain.front();
    for (const std::string& vendor : record.vendors) {
      vendor_issuer_leaves[vendor][leaf.issuer.organization].insert(
          leaf.fingerprint());
    }
  }
  std::map<std::string, std::map<std::string, std::size_t>> out;
  for (const auto& [vendor, issuers] : vendor_issuer_leaves) {
    for (const auto& [issuer, leaves] : issuers) out[vendor][issuer] = leaves.size();
  }
  return out;
}

bool ref_is_public(const std::map<std::string, bool>& issuer_is_public,
                   const std::string& org) {
  auto it = issuer_is_public.find(org);
  return it == issuer_is_public.end() ? true : it->second;
}

IssuerMatrix ref_issuer_matrix(const CertDataset& certs,
                               const std::map<std::string, bool>& issuer_is_public) {
  IssuerMatrix matrix;
  auto counts = ref_vendor_issuer_counts(certs);

  std::map<std::string, std::size_t> issuer_totals;
  for (const auto& [fp, leaf] : certs.leaves()) {
    ++issuer_totals[leaf.cert.issuer.organization];
  }

  std::map<std::string, double> vendor_public_share;
  for (const auto& [vendor, issuers] : counts) {
    std::size_t total = 0;
    for (const auto& [issuer, n] : issuers) total += n;
    if (total == 0) continue;
    double public_share = 0;
    for (const auto& [issuer, n] : issuers) {
      double r = static_cast<double>(n) / static_cast<double>(total);
      matrix.ratio[vendor][issuer] = r;
      matrix.issuer_public[issuer] = ref_is_public(issuer_is_public, issuer);
      if (matrix.issuer_public[issuer]) public_share += r;
    }
    vendor_public_share[vendor] = public_share;
  }

  for (const auto& [issuer, total] : issuer_totals) {
    matrix.issuer_order.push_back(issuer);
    matrix.issuer_public.emplace(issuer, ref_is_public(issuer_is_public, issuer));
  }
  std::sort(matrix.issuer_order.begin(), matrix.issuer_order.end(),
            [&](const std::string& a, const std::string& b) {
              return issuer_totals[a] > issuer_totals[b];
            });

  for (const auto& [vendor, share] : vendor_public_share) {
    matrix.vendor_order.push_back(vendor);
  }
  std::sort(matrix.vendor_order.begin(), matrix.vendor_order.end(),
            [&](const std::string& a, const std::string& b) {
              return vendor_public_share[a] > vendor_public_share[b];
            });
  return matrix;
}

IssuerReport ref_issuer_report(const CertDataset& certs,
                               const std::map<std::string, bool>& issuer_is_public) {
  IssuerReport report;
  report.leaves = certs.leaves().size();

  std::map<std::string, std::size_t> per_issuer;
  for (const auto& [fp, leaf] : certs.leaves()) {
    const std::string& org = leaf.cert.issuer.organization;
    ++per_issuer[org];
    if (!ref_is_public(issuer_is_public, org)) ++report.private_leaves;
  }
  report.issuer_organizations = per_issuer.size();
  report.private_ratio = report.leaves
                             ? static_cast<double>(report.private_leaves) / report.leaves
                             : 0;
  for (const auto& [org, n] : per_issuer) {
    report.issuer_share[org] =
        static_cast<double>(n) / static_cast<double>(report.leaves);
  }

  auto counts = ref_vendor_issuer_counts(certs);
  for (const auto& [vendor, issuers] : counts) {
    bool any_private = false;
    bool all_self = true;
    std::string self_org = issuer_org_for_vendor(vendor);
    for (const auto& [issuer, n] : issuers) {
      if (!ref_is_public(issuer_is_public, issuer)) any_private = true;
      if (issuer != self_org) all_self = false;
      if (issuer == self_org && !self_org.empty())
        report.self_signing_vendors.insert(vendor);
    }
    if (!any_private) report.public_only_vendors.insert(vendor);
    if (all_self && !self_org.empty()) report.vendor_only_vendors.insert(vendor);
  }
  return report;
}

bool ref_issuer_public(const devicesim::SimWorld& world, const std::string& org) {
  auto it = world.issuer_is_public.find(org);
  return it == world.issuer_is_public.end() ? true : it->second;
}

ChainClass ref_classify_chain(const devicesim::SimWorld& world,
                              const std::vector<x509::Certificate>& chain) {
  const x509::Certificate& leaf = chain.front();
  bool leaf_public = ref_issuer_public(world, leaf.issuer.organization);
  if (leaf_public) return ChainClass::kPublicLeafPublicRoot;
  const x509::Certificate& top = chain.back();
  bool anchored_public = top.self_signed()
                             ? world.trust.contains_key(top.subject_key_id)
                             : world.trust.contains_key(top.authority_key_id);
  return anchored_public ? ChainClass::kPrivateLeafPublicRoot
                         : ChainClass::kPrivateLeafPrivateRoot;
}

CtReport ref_ct_report(const CertDataset& certs, const devicesim::SimWorld& world) {
  CtReport report;
  std::set<std::string> long_private, all_private;

  for (const SniRecord& record : certs.records()) {
    if (!record.reachable || record.chain.empty()) continue;
    const x509::Certificate& leaf = record.chain.front();
    ChainClass cls = ref_classify_chain(world, record.chain);
    bool logged = world.ct_index.logged(leaf.fingerprint());

    for (const std::string& vendor : record.vendors) {
      CtPoint point;
      point.sni = record.sni;
      point.vendor = vendor;
      point.leaf_fingerprint = leaf.fingerprint();
      point.leaf_issuer = leaf.issuer.organization;
      point.validity_days = leaf.validity_days();
      point.chain_class = cls;
      point.in_ct = logged;
      report.points.push_back(std::move(point));
    }

    bool leaf_public = ref_issuer_public(world, leaf.issuer.organization);
    if (leaf_public) {
      ++report.public_leaves;
      if (logged) {
        ++report.public_leaves_in_ct;
      } else {
        CtPoint anomaly;
        anomaly.sni = record.sni;
        anomaly.leaf_issuer = leaf.issuer.organization;
        anomaly.leaf_fingerprint = leaf.fingerprint();
        anomaly.validity_days = leaf.validity_days();
        anomaly.chain_class = cls;
        report.public_not_logged.push_back(std::move(anomaly));
      }
      report.max_public_validity =
          std::max(report.max_public_validity, leaf.validity_days());
    } else {
      ++report.private_leaves;
      if (logged) ++report.private_leaves_in_ct;
      all_private.insert(leaf.fingerprint());
      if (leaf.validity_days() > 5 * 365) long_private.insert(leaf.fingerprint());
      report.max_private_validity =
          std::max(report.max_private_validity, leaf.validity_days());
    }
  }
  report.tuples = report.points.size();
  report.private_long_validity_ratio =
      all_private.empty()
          ? 0
          : static_cast<double>(long_private.size()) / all_private.size();

  std::sort(report.public_not_logged.begin(), report.public_not_logged.end(),
            [](const CtPoint& a, const CtPoint& b) {
              return a.leaf_fingerprint < b.leaf_fingerprint;
            });
  report.public_not_logged.erase(
      std::unique(report.public_not_logged.begin(), report.public_not_logged.end(),
                  [](const CtPoint& a, const CtPoint& b) {
                    return a.leaf_fingerprint == b.leaf_fingerprint;
                  }),
      report.public_not_logged.end());
  return report;
}

// --------------------------------------------------------- byte identity

TEST(CertPipelineIdentity, CollectMatchesSeedAtEveryJobsLevel) {
  const auto& f = fixture();
  const net::FaultSpec spec = net::FaultSpec::parse("seed=7,timeout=0.2");
  for (std::size_t min_users : {1, 2, 3}) {
    SCOPED_TRACE("min_users=" + std::to_string(min_users));
    RefDataset ref = ref_collect(f.seed, f.world, f.world.internet, min_users);
    std::string want =
        dataset_json(ref.records, ref.leaves, ref.extracted, ref.reachable).dump();

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
    RefDataset faulted = ref_collect(f.seed, f.world, ref_injector, min_users);
    ASSERT_LT(faulted.reachable, ref.reachable);  // the faults bite
    std::string want_faulted = dataset_json(faulted.records, faulted.leaves,
                                            faulted.extracted, faulted.reachable)
                                   .dump();
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
      chain_report_json(ref_validate_dataset(f.certs, f.world, f.probe_day)).dump();

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
  EXPECT_EQ(matrix_json(issuer_matrix(f.certs, f.world.issuer_is_public)).dump(),
            matrix_json(ref_issuer_matrix(f.certs, f.world.issuer_is_public)).dump());
  EXPECT_EQ(
      issuer_report_json(issuer_report(f.certs, f.world.issuer_is_public)).dump(),
      issuer_report_json(ref_issuer_report(f.certs, f.world.issuer_is_public))
          .dump());
}

TEST(CertPipelineIdentity, CtReportMatchesSeedAtEveryJobsLevel) {
  const auto& f = fixture();
  std::string want = ct_report_json(ref_ct_report(f.certs, f.world)).dump();
  EXPECT_EQ(ct_report_json(ct_report(f.certs, f.world, 1)).dump(), want);
  EXPECT_EQ(ct_report_json(ct_report(f.certs, f.world, 8)).dump(), want);
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

TEST(CertIndexTest, FingerprintDomainMatchesLeafView) {
  const auto& f = fixture();
  const CertIndex& ix = f.certs.index();

  // Every distinct fingerprint in the string-keyed compat view is interned,
  // and nothing else is.
  EXPECT_EQ(ix.fps().size(), f.certs.leaves().size());
  for (const auto& [fp, leaf] : f.certs.leaves()) {
    std::uint32_t id = ix.fps().find(fp);
    ASSERT_NE(id, CertIndex::kNone) << fp;
    EXPECT_EQ(ix.issuers().str(ix.fp_issuer(id)), leaf.cert.issuer.organization);
    EXPECT_EQ(ix.fp_validity_days(id), leaf.cert.validity_days());
  }
  // Leaves dedup by SPKI+serial, which identical bytes always share.
  EXPECT_LE(ix.leaf_count(), ix.fps().size());
  EXPECT_GT(ix.leaf_count(), 0u);
}

TEST(CertIndexTest, RecordColumnsTrackRecords) {
  const auto& f = fixture();
  const CertIndex& ix = f.certs.index();
  const auto& records = f.certs.records();

  ASSERT_EQ(ix.record_leaf().size(), records.size());
  ASSERT_EQ(ix.record_fp().size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    const SniRecord& record = records[i];
    if (!record.reachable || record.chain.empty()) {
      EXPECT_EQ(ix.record_leaf()[i], CertIndex::kNone) << record.sni;
      EXPECT_EQ(ix.record_fp()[i], CertIndex::kNone) << record.sni;
      continue;
    }
    ASSERT_NE(ix.record_fp()[i], CertIndex::kNone) << record.sni;
    ASSERT_NE(ix.record_leaf()[i], CertIndex::kNone) << record.sni;
    // The memoized fingerprint is the leaf's actual SHA-256.
    EXPECT_EQ(ix.fps().str(ix.record_fp()[i]), record.chain.front().fingerprint())
        << record.sni;
    EXPECT_EQ(ix.leaf_fp(ix.record_leaf()[i]), ix.record_fp()[i]) << record.sni;
  }
}

TEST(CertIndexTest, PostingListsSortedUniqueAndComplete) {
  const auto& f = fixture();
  const CertIndex& ix = f.certs.index();

  for (const auto* table : {&ix.sni_devices(), &ix.sni_vendors(), &ix.leaf_servers(),
                            &ix.leaf_ips(), &ix.vendor_leaves(), &ix.issuer_leaves()}) {
    for (const PostingList& list : *table) {
      EXPECT_TRUE(sorted_unique(list));
    }
  }

  // leaf_servers must agree with the string-keyed leaf view.
  for (const auto& [fp, leaf] : f.certs.leaves()) {
    std::uint32_t leaf_id = CertIndex::kNone;
    for (std::uint32_t l = 0; l < ix.leaf_count(); ++l) {
      if (ix.leaf_fingerprint(l) == fp) { leaf_id = l; break; }
    }
    ASSERT_NE(leaf_id, CertIndex::kNone) << fp;
    std::set<std::string> servers;
    for (std::uint32_t sni : ix.leaf_servers()[leaf_id]) {
      servers.insert(ix.snis().str(sni));
    }
    // SPKI+serial dedup can fold several byte-identical-modulo-metadata
    // certificates into one leaf id, so the index's server set covers at
    // least the compat view's.
    for (const std::string& s : leaf.servers) {
      EXPECT_TRUE(servers.count(s)) << fp << " missing " << s;
    }
  }

  // sni_devices/sni_vendors must agree with each record.
  for (std::size_t i = 0; i < f.certs.records().size(); ++i) {
    const SniRecord& record = f.certs.records()[i];
    std::uint32_t sni = ix.snis().find(record.sni);
    ASSERT_NE(sni, CertIndex::kNone) << record.sni;
    std::set<std::string> devices, vendors;
    for (std::uint32_t d : ix.sni_devices()[sni]) devices.insert(ix.devices().str(d));
    for (std::uint32_t v : ix.sni_vendors()[sni]) vendors.insert(ix.vendors().str(v));
    EXPECT_EQ(devices, record.devices) << record.sni;
    EXPECT_EQ(vendors, record.vendors) << record.sni;
  }
}

}  // namespace
}  // namespace iotls::core
