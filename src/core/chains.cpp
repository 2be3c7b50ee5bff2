#include "core/chains.hpp"

#include <algorithm>

#include "exec/pool.hpp"
#include "util/strings.hpp"

namespace iotls::core {

ChainReport validate_dataset(const CertDataset& certs,
                             const devicesim::SimWorld& world, std::int64_t now,
                             int jobs, x509::ValidationCache* cache) {
  ChainReport report;

  // Parallel stage: validate each reachable record into a pre-sized slot.
  // Per-record validation is pure (the cache memoizes deterministic verify
  // outcomes, and obs verdict counters are additive), so only the schedule
  // depends on jobs — never the results.
  const std::vector<SniRecord>& records = certs.records();
  std::vector<std::uint32_t> reachable;  // record positions (= SNI ids)
  reachable.reserve(records.size());
  for (std::uint32_t i = 0; i < records.size(); ++i) {
    if (records[i].reachable) reachable.push_back(i);
  }
  std::vector<SniValidation> validations(reachable.size());
  exec::parallel_for(jobs, reachable.size(), [&](std::size_t i) {
    const SniRecord& record = records[reachable[i]];
    SniValidation& v = validations[i];
    v.sni = record.sni;
    // Chains in a CertDataset are already normalized to leaf-first order by
    // collect() (the Zeek-style misorder repair), and normalization is
    // idempotent — so validate as served instead of copying every
    // certificate through a second normalize pass. test_cert_pipeline pins
    // byte-identity against the seed path, which re-normalized here.
    v.result = x509::validate_chain(record.chain, record.sni, world.trust,
                                    world.keys, now, cache);
    v.chain_length = record.chain.size();
    v.devices = certs.index().device_names(reachable[i]);
    v.vendors = certs.index().vendor_names(reachable[i]);
    if (!record.chain.empty()) {
      v.leaf_issuer = record.chain.front().issuer.organization;
      auto it = world.issuer_is_public.find(v.leaf_issuer);
      v.leaf_issuer_public = it == world.issuer_is_public.end() ? true : it->second;
    }
  });

  // Sequential fold, record order: the seed aggregation, unchanged.
  std::map<std::string, DomainChainRow> failures;      // sld|issuer|status
  std::map<std::string, DomainChainRow> private_roots;
  std::map<std::string, DomainChainRow> self_signed;

  std::size_t private_leaves = 0;
  std::size_t private_leaf_failures = 0;

  for (std::size_t i = 0; i < reachable.size(); ++i) {
    const SniRecord& record = records[reachable[i]];
    SniValidation& v = validations[i];
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

}  // namespace iotls::core
