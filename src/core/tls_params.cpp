#include "core/tls_params.hpp"

#include <algorithm>

#include "tls/fingerprint.hpp"
#include "tls/grease.hpp"

namespace iotls::core {

namespace {

/// Unique {device, ciphersuite list} tuples with a representative event.
std::map<std::string, const ParsedEvent*> device_list_tuples(const ClientDataset& ds) {
  std::map<std::string, const ParsedEvent*> tuples;
  for (const ParsedEvent& e : ds.events()) {
    std::string key = e.device_id + "|";
    for (std::uint16_t s : e.fp.cipher_suites) key += std::to_string(s) + ",";
    tuples.emplace(key, &e);
  }
  return tuples;
}

/// First non-signalling suite of a proposal (B.8 excludes lists fronted by
/// TLS_EMPTY_RENEGOTIATION_INFO_SCSV).
std::optional<tls::CipherSuiteInfo> first_effective_suite(
    const std::vector<std::uint16_t>& suites) {
  if (suites.empty()) return std::nullopt;
  tls::CipherSuiteInfo info = tls::suite_info(suites.front());
  if (info.is_scsv) return std::nullopt;
  return info;
}

}  // namespace

VersionReport version_report(const ClientDataset& ds) {
  VersionReport report;
  std::map<std::string, std::set<std::uint16_t>> device_versions;
  std::set<std::string> counted;  // {device, fp} pairs
  for (const ParsedEvent& e : ds.events()) {
    std::uint16_t version = e.fp.version;
    device_versions[e.device_id].insert(version);
    if (version == 0x0300) {
      if (report.ssl30_devices.insert(e.device_id).second) {
        ++report.ssl30_by_vendor[e.vendor];
      }
      ++report.ssl30_proposals;
    }
    std::string key = e.device_id + "|" + e.fp_key;
    if (counted.insert(key).second) ++report.proposals[version];
  }
  for (const auto& [device, versions] : device_versions) {
    if (versions.size() > 1) ++report.multi_version_devices;
  }
  return report;
}

FallbackScsvReport fallback_scsv_report(const ClientDataset& ds) {
  FallbackScsvReport report;
  for (const ParsedEvent& e : ds.events()) {
    for (std::uint16_t s : e.fp.cipher_suites) {
      if (s == tls::kFallbackScsv) {
        report.devices.insert(e.device_id);
        report.vendors.insert(e.vendor);
      }
    }
  }
  return report;
}

std::vector<VulnIndexStats> vulnerable_index_stats(const ClientDataset& ds) {
  std::map<std::string, VulnIndexStats> by_vendor;
  for (const auto& [key, event] : device_list_tuples(ds)) {
    VulnIndexStats& stats = by_vendor[event->vendor];
    stats.vendor = event->vendor;
    ++stats.tuples;
    int lowest = -1;
    for (std::size_t i = 0; i < event->fp.cipher_suites.size(); ++i) {
      if (tls::classify_suite(event->fp.cipher_suites[i]) ==
          tls::SecurityLevel::kVulnerable) {
        lowest = static_cast<int>(i);
        break;
      }
    }
    if (lowest < 0) continue;
    ++stats.with_vulnerable;
    if (lowest == 0) ++stats.vulnerable_first;
    stats.mean_lowest_index += lowest;  // finalized below
    if (stats.min_lowest_index < 0 || lowest < stats.min_lowest_index)
      stats.min_lowest_index = lowest;
  }
  std::vector<VulnIndexStats> out;
  for (auto& [vendor, stats] : by_vendor) {
    if (stats.with_vulnerable > 0)
      stats.mean_lowest_index /= static_cast<double>(stats.with_vulnerable);
    out.push_back(std::move(stats));
  }
  std::sort(out.begin(), out.end(), [](const VulnIndexStats& a, const VulnIndexStats& b) {
    // Paper's Fig. 11 sorts by mean index ascending (worst practice first),
    // vendors with no vulnerable proposals last.
    bool a_has = a.with_vulnerable > 0, b_has = b.with_vulnerable > 0;
    if (a_has != b_has) return a_has;
    if (!a_has) return a.vendor < b.vendor;
    return a.mean_lowest_index < b.mean_lowest_index;
  });
  return out;
}

std::vector<PreferredComponents> preferred_components(const ClientDataset& ds) {
  std::map<std::string, PreferredComponents> by_vendor;
  std::map<std::string, std::map<std::string, std::size_t>> kex_counts, cipher_counts,
      mac_counts;
  for (const auto& [key, event] : device_list_tuples(ds)) {
    auto first = first_effective_suite(event->fp.cipher_suites);
    if (!first.has_value()) continue;
    PreferredComponents& pc = by_vendor[event->vendor];
    pc.vendor = event->vendor;
    ++pc.tuples;
    ++kex_counts[event->vendor][tls::kex_auth_name(first->kex_auth)];
    ++cipher_counts[event->vendor][tls::cipher_name(first->cipher)];
    ++mac_counts[event->vendor][tls::mac_name(first->mac)];
  }
  std::vector<PreferredComponents> out;
  for (auto& [vendor, pc] : by_vendor) {
    auto ratio = [&](std::map<std::string, std::size_t>& counts,
                     std::map<std::string, double>& into) {
      for (const auto& [name, count] : counts) {
        into[name] = static_cast<double>(count) / static_cast<double>(pc.tuples);
      }
    };
    ratio(kex_counts[vendor], pc.kex_ratio);
    ratio(cipher_counts[vendor], pc.cipher_ratio);
    ratio(mac_counts[vendor], pc.mac_ratio);
    out.push_back(std::move(pc));
  }
  return out;
}

std::vector<VulnFlowRow> vulnerability_flows(const ClientDataset& ds) {
  std::map<std::string, VulnFlowRow> by_vendor;
  for (const auto& [key, event] : device_list_tuples(ds)) {
    VulnFlowRow& row = by_vendor[event->vendor];
    row.vendor = event->vendor;
    ++row.total_tuples;
    for (const std::string& tag :
         tls::list_vulnerable_components(event->fp.cipher_suites)) {
      ++row.tag_tuples[tag];
    }
  }
  std::vector<VulnFlowRow> out;
  out.reserve(by_vendor.size());
  for (auto& [vendor, row] : by_vendor) out.push_back(std::move(row));
  return out;
}

OcspReport ocsp_report(const ClientDataset& ds) {
  OcspReport report;
  for (const ParsedEvent& e : ds.events()) {
    for (std::uint16_t type : e.fp.extensions) {
      if (type == 5) {
        report.devices.insert(e.device_id);
        report.vendors.insert(e.vendor);
      }
    }
  }
  return report;
}

GreaseReport grease_report(const ClientDataset& ds) {
  GreaseReport report;
  for (const ParsedEvent& e : ds.events()) {
    if (tls::has_grease_ciphersuite(e.hello)) {
      report.suite_devices.insert(e.device_id);
      report.suite_vendors.insert(e.vendor);
    }
    if (tls::has_grease_extension(e.hello)) {
      report.extension_devices.insert(e.device_id);
      report.extension_vendors.insert(e.vendor);
    }
  }
  for (const std::string& device : report.extension_devices) {
    if (report.suite_devices.count(device) == 0)
      report.extension_only_devices.insert(device);
  }
  return report;
}

}  // namespace iotls::core
