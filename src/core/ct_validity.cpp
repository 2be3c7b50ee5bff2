#include "core/ct_validity.hpp"

#include <algorithm>

#include "exec/pool.hpp"

namespace iotls::core {

std::string chain_class_name(ChainClass c) {
  switch (c) {
    case ChainClass::kPublicLeafPublicRoot: return "public leaf, public root";
    case ChainClass::kPrivateLeafPublicRoot: return "private leaf, public root";
    case ChainClass::kPrivateLeafPrivateRoot: return "private leaf, private root";
  }
  return "?";
}

namespace {

bool issuer_public(const devicesim::SimWorld& world, const std::string& org) {
  auto it = world.issuer_is_public.find(org);
  return it == world.issuer_is_public.end() ? true : it->second;
}

ChainClass classify_chain(const devicesim::SimWorld& world,
                          const std::vector<x509::Certificate>& chain) {
  const x509::Certificate& leaf = chain.front();
  bool leaf_public = issuer_public(world, leaf.issuer.organization);
  if (leaf_public) return ChainClass::kPublicLeafPublicRoot;
  // Private leaf: does the chain anchor (directly or via the stores) at a
  // public root? A served intermediate whose own issuer key is in a trust
  // store marks the Netflix-style cross-signed case.
  const x509::Certificate& top = chain.back();
  bool anchored_public = top.self_signed()
                             ? world.trust.contains_key(top.subject_key_id)
                             : world.trust.contains_key(top.authority_key_id);
  return anchored_public ? ChainClass::kPrivateLeafPublicRoot
                         : ChainClass::kPrivateLeafPrivateRoot;
}

}  // namespace

CtReport ct_report(const CertDataset& certs, const devicesim::SimWorld& world,
                   int jobs) {
  const CertIndex& ix = certs.index();
  const std::vector<SniRecord>& records = certs.records();

  // Parallel stage: per-record chain classification and CT lookup into
  // pre-sized slots (all pure reads of the world + index).
  struct RecordClass {
    ChainClass cls = ChainClass::kPublicLeafPublicRoot;
    bool logged = false;
    bool leaf_public = false;
  };
  std::vector<RecordClass> classes(records.size());
  exec::parallel_for(jobs, records.size(), [&](std::size_t i) {
    const SniRecord& record = records[i];
    if (!record.reachable || record.chain.empty()) return;
    RecordClass& rc = classes[i];
    rc.cls = classify_chain(world, record.chain);
    rc.logged = world.ct_index.logged(ix.fps().str(ix.record_fp()[i]));
    rc.leaf_public =
        issuer_public(world, record.chain.front().issuer.organization);
  });

  // Sequential fold, record order: the seed aggregation, with the leaf
  // fingerprint taken from the index memo instead of re-hashed per use.
  CtReport report;
  std::set<std::uint32_t> long_private, all_private;  // distinct private fps

  for (std::size_t i = 0; i < records.size(); ++i) {
    const SniRecord& record = records[i];
    if (!record.reachable || record.chain.empty()) continue;
    const x509::Certificate& leaf = record.chain.front();
    const std::uint32_t fp = ix.record_fp()[i];
    const std::string& leaf_fp = ix.fps().str(fp);
    const RecordClass& rc = classes[i];

    for (const std::string& vendor : ix.vendor_names(i)) {
      CtPoint point;
      point.sni = record.sni;
      point.vendor = vendor;
      point.leaf_fingerprint = leaf_fp;
      point.leaf_issuer = leaf.issuer.organization;
      point.validity_days = leaf.validity_days();
      point.chain_class = rc.cls;
      point.in_ct = rc.logged;
      report.points.push_back(std::move(point));
    }

    if (rc.leaf_public) {
      ++report.public_leaves;
      if (rc.logged) {
        ++report.public_leaves_in_ct;
      } else {
        CtPoint anomaly;
        anomaly.sni = record.sni;
        anomaly.leaf_issuer = leaf.issuer.organization;
        anomaly.leaf_fingerprint = leaf_fp;
        anomaly.validity_days = leaf.validity_days();
        anomaly.chain_class = rc.cls;
        report.public_not_logged.push_back(std::move(anomaly));
      }
      report.max_public_validity =
          std::max(report.max_public_validity, leaf.validity_days());
    } else {
      ++report.private_leaves;
      if (rc.logged) ++report.private_leaves_in_ct;
      all_private.insert(fp);
      if (leaf.validity_days() > 5 * 365) long_private.insert(fp);
      report.max_private_validity =
          std::max(report.max_private_validity, leaf.validity_days());
    }
  }
  report.tuples = report.points.size();
  report.private_long_validity_ratio =
      all_private.empty()
          ? 0
          : static_cast<double>(long_private.size()) / all_private.size();

  // Deduplicate the public-not-logged anomalies by leaf.
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

std::vector<IssuerValidityRow> issuer_validity_variance(
    const CertDataset& certs, const devicesim::SimWorld& world,
    const std::string& issuer_org) {
  // Group this issuer's distinct leaves by topmost-chain issuer. Leaf
  // fingerprints come from the index memo rather than being re-hashed.
  const CertIndex& ix = certs.index();
  std::map<std::string, IssuerValidityRow> rows;
  std::map<std::string, std::set<std::string>> counted;  // row key -> leaf fps
  const std::vector<SniRecord>& records = certs.records();
  for (std::size_t i = 0; i < records.size(); ++i) {
    const SniRecord& record = records[i];
    if (!record.reachable || record.chain.empty()) continue;
    const x509::Certificate& leaf = record.chain.front();
    if (leaf.issuer.organization != issuer_org) continue;
    const std::string& leaf_fp = ix.fps().str(ix.record_fp()[i]);
    const x509::Certificate& top = record.chain.back();
    std::string topmost = top.self_signed()
                              ? top.subject.common_name
                              : top.issuer.common_name;
    IssuerValidityRow& row = rows[topmost];
    row.leaf_issuer_cn = leaf.issuer.common_name.empty()
                             ? issuer_org
                             : leaf.issuer.common_name;
    row.topmost_issuer = topmost;
    row.validity_days.insert(leaf.validity_days());
    if (counted[topmost].insert(leaf_fp).second) ++row.certs;
    if (world.ct_index.logged(leaf_fp)) row.any_in_ct = true;
  }
  std::vector<IssuerValidityRow> out;
  for (auto& [key, row] : rows) out.push_back(std::move(row));
  std::sort(out.begin(), out.end(),
            [](const IssuerValidityRow& a, const IssuerValidityRow& b) {
              return *a.validity_days.rbegin() > *b.validity_days.rbegin();
            });
  return out;
}

}  // namespace iotls::core
