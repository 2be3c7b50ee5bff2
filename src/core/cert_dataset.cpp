#include "core/cert_dataset.hpp"

#include <algorithm>
#include <string_view>

#include "net/survey.hpp"
#include "util/strings.hpp"
#include "x509/validation.hpp"

namespace iotls::core {

namespace {

/// The record half of one harvested SNI, built in the survey worker: chain
/// normalisation, leaf hashing and the OCSP check stay parallel.
ProbedSni probed_sni(const net::MultiVantageResult& multi,
                     const devicesim::SimWorld& world,
                     x509::ValidationCache* cache) {
  ProbedSni out;
  SniRecord& record = out.record;
  record.sni = multi.sni;
  for (const auto& [vantage, result] : multi.by_vantage) {
    if (result.reachable && !result.chain.empty()) {
      auto normalized = x509::normalize_chain_order(result.chain, multi.sni);
      record.leaf_by_vantage[vantage] = normalized.front().fingerprint();
    } else {
      record.leaf_by_vantage[vantage] = std::nullopt;
    }
  }

  const net::ProbeResult& ny = multi.by_vantage.at(net::VantagePoint::kNewYork);
  record.reachable = ny.reachable;
  out.fail_reason = multi.failure_tag();
  if (ny.stapled.has_value()) {
    record.stapled = true;
    record.staple_valid = cache != nullptr
                              ? cache->ocsp_ok(*ny.stapled, world.keys)
                              : x509::verify_ocsp(*ny.stapled, world.keys);
  }
  if (ny.reachable) {
    record.chain = x509::normalize_chain_order(ny.chain, multi.sni);
    record.served_misordered = !(record.chain == ny.chain);
    if (const net::SimServer* server = world.internet.find(multi.sni)) {
      record.server_ips = server->ips;
    }
    if (!record.chain.empty()) {
      out.leaf_fp = record.chain.front().fingerprint();
    }
  }
  return out;
}

}  // namespace

CertDataset CertDataset::collect(const ClientDataset& client,
                                 const devicesim::SimWorld& world,
                                 std::size_t min_users, int jobs,
                                 x509::ValidationCache* cache,
                                 const net::Internet* internet,
                                 ProbeMemo* memo) {
  CertDataset ds;
  net::TlsProber prober(internet != nullptr ? *internet : world.internet);

  // Eligible SNIs in lexicographic order — the walk order the sequential
  // fold below preserves at every jobs level. Memo hits are copied in the
  // fold; the rest go to the survey engine.
  const DatasetIndex& ix = client.index();
  std::vector<std::uint32_t> eligible;
  std::vector<std::string> fresh;
  for (std::uint32_t sni : ix.snis_by_name()) {
    if (ix.sni_users()[sni].size() < min_users) continue;
    eligible.push_back(sni);
    const std::string& name = ix.snis().str(sni);
    if (memo == nullptr || memo->by_sni.count(name) == 0) fresh.push_back(name);
  }

  // The prober's defaults: one attempt per vantage, and a breaker that
  // never denies (it opens after 3 failures; each SNI gets exactly 3).
  auto probed = net::run_survey<net::DegradationSummary>(
      fresh, "certs.probe", jobs, prober.retry_policy(),
      prober.breaker_config(),
      [&](const std::string& sni,
          net::SurveyShard<net::DegradationSummary>& shard) {
        return probed_sni(prober.survey_one(sni, shard), world, cache);
      },
      [](const ProbedSni& p) { return p.fail_reason; });

  // Sequential fold, input order: counters and the interned index, which
  // takes each SNI's membership from the client index.
  ds.index_.reserve(eligible.size());
  ds.records_.reserve(eligible.size());
  std::size_t next_fresh = 0;
  for (std::uint32_t sni_id : eligible) {
    const std::string& sni = ix.snis().str(sni_id);
    ProbedSni p;
    if (next_fresh < fresh.size() && fresh[next_fresh] == sni) {
      p = std::move(probed.results[next_fresh++]);
      if (memo != nullptr) memo->by_sni.emplace(sni, p);
    } else {
      p = memo->by_sni.at(sni);
    }

    ++ds.extracted_;
    if (p.record.reachable) ++ds.reachable_;
    ds.index_.record(p.record, p.leaf_fp, ix, sni_id);
    ds.records_.push_back(std::move(p.record));
  }
  ds.index_.finalize();
  return ds;
}

std::set<std::string> CertDataset::issuer_organizations() const {
  std::set<std::string> out;
  for (std::uint32_t fp = 0; fp < index_.fps().size(); ++fp) {
    out.insert(index_.issuers().str(index_.fp_issuer(fp)));
  }
  return out;
}

std::vector<SldPopularity> CertDataset::popular_slds(std::size_t n) const {
  std::map<std::string, SldPopularity> by_sld;
  std::map<std::string, std::set<std::uint32_t>> sld_devices;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const SniRecord& record = records_[i];
    if (!record.reachable) continue;
    std::string sld = second_level_domain(record.sni);
    SldPopularity& row = by_sld[sld];
    row.sld = sld;
    ++row.servers;
    const PostingList& devices = index_.sni_devices()[i];
    sld_devices[sld].insert(devices.begin(), devices.end());
  }
  std::vector<SldPopularity> rows;
  for (auto& [sld, row] : by_sld) {
    row.devices = sld_devices[sld].size();
    rows.push_back(row);
  }
  std::sort(rows.begin(), rows.end(), [](const SldPopularity& a, const SldPopularity& b) {
    return a.devices > b.devices;
  });
  if (rows.size() > n) rows.resize(n);
  return rows;
}

std::size_t CertDataset::distinct_slds() const {
  std::set<std::string> slds;
  for (const SniRecord& record : records_) {
    if (record.reachable) slds.insert(second_level_domain(record.sni));
  }
  return slds.size();
}

CertDataset::SharingStats CertDataset::sharing_stats() const {
  SharingStats stats;
  const std::size_t leaves = index_.fps().size();
  if (leaves == 0) return stats;
  // A leaf's servers are the records serving its fingerprint (one record
  // per SNI); its IPs are the union of theirs.
  std::vector<std::size_t> servers(leaves, 0);
  std::vector<std::set<std::string_view>> ips(leaves);
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const std::uint32_t fp = index_.record_fp()[i];
    if (fp == CertIndex::kNone) continue;
    ++servers[fp];
    ips[fp].insert(records_[i].server_ips.begin(), records_[i].server_ips.end());
  }
  std::size_t total_servers = 0;
  std::size_t multi_ip_total = 0;
  for (std::size_t fp = 0; fp < leaves; ++fp) {
    total_servers += servers[fp];
    stats.max_servers_per_cert = std::max(stats.max_servers_per_cert, servers[fp]);
    if (ips[fp].size() > 1) {
      ++stats.certs_on_multiple_ips;
      multi_ip_total += ips[fp].size();
      stats.max_ips_per_cert = std::max(stats.max_ips_per_cert, ips[fp].size());
    }
  }
  stats.mean_servers_per_cert =
      static_cast<double>(total_servers) / static_cast<double>(leaves);
  if (stats.certs_on_multiple_ips > 0) {
    stats.mean_ips_per_cert = static_cast<double>(multi_ip_total) /
                              static_cast<double>(stats.certs_on_multiple_ips);
  }
  stats.multi_ip_ratio = static_cast<double>(stats.certs_on_multiple_ips) /
                         static_cast<double>(leaves);
  return stats;
}

GeoComparison CertDataset::geo_comparison() const {
  GeoComparison geo;
  for (const SniRecord& record : records_) {
    std::set<std::string> distinct;
    std::size_t with_cert = 0;
    for (const auto& [vantage, leaf] : record.leaf_by_vantage) {
      if (!leaf.has_value()) continue;
      ++geo.extracted[vantage];
      ++with_cert;
      distinct.insert(*leaf);
    }
    if (with_cert == record.leaf_by_vantage.size() && distinct.size() == 1) {
      ++geo.shared_all;
    }
    // "Exclusive": the certificate at this vantage differs from every other
    // vantage's certificate for the same SNI.
    for (const auto& [vantage, leaf] : record.leaf_by_vantage) {
      if (!leaf.has_value()) continue;
      bool unique = true;
      for (const auto& [other, other_leaf] : record.leaf_by_vantage) {
        if (other == vantage || !other_leaf.has_value()) continue;
        if (*other_leaf == *leaf) unique = false;
      }
      if (unique && record.leaf_by_vantage.size() > 1 && distinct.size() > 1) {
        ++geo.exclusive[vantage];
      }
    }
  }
  return geo;
}

}  // namespace iotls::core
