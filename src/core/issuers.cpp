#include "core/issuers.hpp"

#include <algorithm>

namespace iotls::core {

std::string issuer_org_for_vendor(const std::string& vendor) {
  static const std::map<std::string, std::string> kAliases = {
      {"Roku", "Roku"},
      {"Samsung", "Samsung Electronics"},
      {"Nintendo", "Nintendo"},
      {"Sony", "Sony Computer Entertainment"},
      {"Tesla", "Tesla Motor Services"},
      {"Google", "Nest Labs"},           // Nest servers under the Google fleet
      {"Sense", "Sense Labs"},
      {"DirecTV", "ATT Mobility and Entertainment"},
      {"LG", "LG Electronics"},
      {"Canary", "Canary Connect"},
      {"Philips", "Philips"},
      {"Obihai", "Obihai Technology"},
      {"Dish Network", "EchoStar"},
      {"Tuya", "Tuya"},
      {"ecobee", "ecobee"},
  };
  auto it = kAliases.find(vendor);
  return it == kAliases.end() ? std::string() : it->second;
}

namespace {

/// Per vendor, the leaf certificates on servers its devices visit:
/// vendor -> issuer org -> #distinct leaves (by fingerprint).
///
/// Index-backed: walks the vendor→fingerprint posting lists instead of
/// rescanning every record and re-hashing every leaf.
std::map<std::string, std::map<std::string, std::size_t>> vendor_issuer_counts(
    const CertDataset& certs) {
  const CertIndex& ix = certs.index();
  std::map<std::string, std::map<std::string, std::size_t>> out;
  for (std::uint32_t v = 0; v < ix.vendors().size(); ++v) {
    const PostingList& fps = ix.vendor_fps()[v];
    if (fps.empty()) continue;  // vendor met no served certificate
    std::map<std::string, std::size_t>& row = out[ix.vendors().str(v)];
    for (std::uint32_t fp : fps) ++row[ix.issuers().str(ix.fp_issuer(fp))];
  }
  return out;
}

bool is_public(const std::map<std::string, bool>& issuer_is_public,
               const std::string& org) {
  auto it = issuer_is_public.find(org);
  // Unknown organizations (not CAs we created) default to public.
  return it == issuer_is_public.end() ? true : it->second;
}

}  // namespace

IssuerMatrix issuer_matrix(const CertDataset& certs,
                           const std::map<std::string, bool>& issuer_is_public) {
  IssuerMatrix matrix;
  auto counts = vendor_issuer_counts(certs);

  // Distinct leaves per issuer, over the index's fingerprint domain.
  const CertIndex& ix = certs.index();
  std::map<std::string, std::size_t> issuer_totals;
  for (std::uint32_t f = 0; f < ix.fps().size(); ++f) {
    ++issuer_totals[ix.issuers().str(ix.fp_issuer(f))];
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
      matrix.issuer_public[issuer] = is_public(issuer_is_public, issuer);
      if (matrix.issuer_public[issuer]) public_share += r;
    }
    vendor_public_share[vendor] = public_share;
  }

  for (const auto& [issuer, total] : issuer_totals) {
    matrix.issuer_order.push_back(issuer);
    matrix.issuer_public.emplace(issuer, is_public(issuer_is_public, issuer));
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

IssuerReport issuer_report(const CertDataset& certs,
                           const std::map<std::string, bool>& issuer_is_public) {
  IssuerReport report;
  const CertIndex& ix = certs.index();
  report.leaves = ix.fps().size();

  std::map<std::string, std::size_t> per_issuer;
  for (std::uint32_t f = 0; f < ix.fps().size(); ++f) {
    const std::string& org = ix.issuers().str(ix.fp_issuer(f));
    ++per_issuer[org];
    if (!is_public(issuer_is_public, org)) ++report.private_leaves;
  }
  report.issuer_organizations = per_issuer.size();
  report.private_ratio = report.leaves
                             ? static_cast<double>(report.private_leaves) / report.leaves
                             : 0;
  for (const auto& [org, n] : per_issuer) {
    report.issuer_share[org] = static_cast<double>(n) / static_cast<double>(report.leaves);
  }

  // Vendor-level views.
  auto counts = vendor_issuer_counts(certs);
  for (const auto& [vendor, issuers] : counts) {
    bool any_private = false;
    bool all_self = true;
    std::string self_org = issuer_org_for_vendor(vendor);
    for (const auto& [issuer, n] : issuers) {
      if (!is_public(issuer_is_public, issuer)) any_private = true;
      if (issuer != self_org) all_self = false;
      if (issuer == self_org && !self_org.empty())
        report.self_signing_vendors.insert(vendor);
    }
    if (!any_private) report.public_only_vendors.insert(vendor);
    if (all_self && !self_org.empty()) report.vendor_only_vendors.insert(vendor);
  }
  return report;
}

}  // namespace iotls::core
