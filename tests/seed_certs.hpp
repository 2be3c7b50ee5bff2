// Seed restatements of the §5 analyses: chain validation, the issuer
// matrix/report (Fig. 5, Table 6) and the CT/validity report (Fig. 6/13).
//
// The seed kept each SNI's devices and vendors as string sets on its
// record and the distinct leaves in a fingerprint-keyed map, re-hashed leaf
// fingerprints per use and verified every signature uncached. These
// functions reproduce those algorithms verbatim (modulo obs span
// bookkeeping, which never affects results) over the probe outcomes in
// `records()`, with membership taken from SeedMaps (the parsed events).
// So a reference never reads the CertIndex the analyses under test run on.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/cert_dataset.hpp"
#include "core/chains.hpp"
#include "core/ct_validity.hpp"
#include "core/issuers.hpp"
#include "util/strings.hpp"
#include "x509/validation.hpp"

#include "seed_maps.hpp"

namespace iotls::core {

/// The seed's leaf map: distinct served leaves by fingerprint, the first
/// record serving one wins.
inline std::map<std::string, x509::Certificate> ref_leaves(
    const CertDataset& certs) {
  std::map<std::string, x509::Certificate> out;
  for (const SniRecord& record : certs.records()) {
    if (!record.reachable || record.chain.empty()) continue;
    out.emplace(record.chain.front().fingerprint(), record.chain.front());
  }
  return out;
}

inline ChainReport ref_validate_dataset(const CertDataset& certs,
                                        const SeedMaps& client,
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
    v.devices = client.sni_devices.at(record.sni);
    v.vendors = client.sni_vendors.at(record.sni);
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

inline std::map<std::string, std::map<std::string, std::size_t>>
ref_vendor_issuer_counts(const CertDataset& certs, const SeedMaps& client) {
  std::map<std::string, std::map<std::string, std::set<std::string>>>
      vendor_issuer_leaves;
  for (const SniRecord& record : certs.records()) {
    if (!record.reachable || record.chain.empty()) continue;
    const x509::Certificate& leaf = record.chain.front();
    for (const std::string& vendor : client.sni_vendors.at(record.sni)) {
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

inline bool ref_is_public(const std::map<std::string, bool>& issuer_is_public,
                          const std::string& org) {
  auto it = issuer_is_public.find(org);
  return it == issuer_is_public.end() ? true : it->second;
}

inline IssuerMatrix ref_issuer_matrix(
    const CertDataset& certs, const SeedMaps& client,
    const std::map<std::string, bool>& issuer_is_public) {
  IssuerMatrix matrix;
  auto counts = ref_vendor_issuer_counts(certs, client);

  std::map<std::string, std::size_t> issuer_totals;
  for (const auto& [fp, leaf] : ref_leaves(certs)) {
    ++issuer_totals[leaf.issuer.organization];
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

inline IssuerReport ref_issuer_report(
    const CertDataset& certs, const SeedMaps& client,
    const std::map<std::string, bool>& issuer_is_public) {
  IssuerReport report;
  const auto leaves = ref_leaves(certs);
  report.leaves = leaves.size();

  std::map<std::string, std::size_t> per_issuer;
  for (const auto& [fp, leaf] : leaves) {
    const std::string& org = leaf.issuer.organization;
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

  auto counts = ref_vendor_issuer_counts(certs, client);
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

inline bool ref_issuer_public(const devicesim::SimWorld& world,
                              const std::string& org) {
  auto it = world.issuer_is_public.find(org);
  return it == world.issuer_is_public.end() ? true : it->second;
}

inline ChainClass ref_classify_chain(const devicesim::SimWorld& world,
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

inline CtReport ref_ct_report(const CertDataset& certs, const SeedMaps& client,
                              const devicesim::SimWorld& world) {
  CtReport report;
  std::set<std::string> long_private, all_private;

  for (const SniRecord& record : certs.records()) {
    if (!record.reachable || record.chain.empty()) continue;
    const x509::Certificate& leaf = record.chain.front();
    ChainClass cls = ref_classify_chain(world, record.chain);
    bool logged = world.ct_index.logged(leaf.fingerprint());

    for (const std::string& vendor : client.sni_vendors.at(record.sni)) {
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

}  // namespace iotls::core
