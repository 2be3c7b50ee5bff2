#include "core/cert_index.hpp"

#include <algorithm>

#include "core/cert_dataset.hpp"
#include "core/index.hpp"

namespace iotls::core {

namespace {

/// Append `id` to the posting list at `row`, growing the table as new row
/// ids appear (rows are interned densely, so growth is amortized).
void append(std::vector<PostingList>& lists, std::uint32_t row,
            std::uint32_t id) {
  if (row >= lists.size()) lists.resize(row + 1);
  lists[row].push_back(id);
}

void sort_unique_all(std::vector<PostingList>& lists) {
  for (PostingList& list : lists) {
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
  }
}

std::set<std::string> names(const Interner& domain, const PostingList& ids) {
  std::set<std::string> out;
  for (std::uint32_t id : ids) out.insert(domain.str(id));
  return out;
}

}  // namespace

std::set<std::string> CertIndex::device_names(std::uint32_t sni) const {
  return names(devices_, sni_devices_[sni]);
}

std::set<std::string> CertIndex::vendor_names(std::uint32_t sni) const {
  return names(vendors_, sni_vendors_[sni]);
}

void CertIndex::reserve(std::size_t expected_records) {
  snis_.reserve(expected_records);
  record_fp_.reserve(expected_records);
  sni_devices_.reserve(expected_records);
  sni_vendors_.reserve(expected_records);
}

void CertIndex::record(const SniRecord& rec,
                       const std::string& leaf_fingerprint,
                       const DatasetIndex& client, std::uint32_t client_sni) {
  const std::uint32_t sni = snis_.intern(rec.sni);
  for (std::uint32_t d : client.sni_devices()[client_sni]) {
    append(sni_devices_, sni, devices_.intern(client.devices().str(d)));
  }
  PostingList vendors;
  for (std::uint32_t v : client.sni_vendors()[client_sni]) {
    vendors.push_back(vendors_.intern(client.vendors().str(v)));
    append(sni_vendors_, sni, vendors.back());
  }

  if (!rec.reachable || rec.chain.empty()) {
    record_fp_.push_back(kNone);
    return;
  }

  const x509::Certificate& cert = rec.chain.front();
  const std::uint32_t fp = fps_.intern(leaf_fingerprint);
  if (fp == fp_issuer_.size()) {  // first record serving this fingerprint
    fp_issuer_.push_back(issuers_.intern(cert.issuer.organization));
    fp_validity_days_.push_back(cert.validity_days());
  }
  record_fp_.push_back(fp);
  for (std::uint32_t vendor : vendors) append(vendor_fps_, vendor, fp);
}

void CertIndex::finalize() {
  sort_unique_all(sni_devices_);
  sort_unique_all(sni_vendors_);
  sort_unique_all(vendor_fps_);
  // Posting tables are row-indexed by interned ids; pad to the full domain
  // so accessors never index past the end for rows that gained no postings.
  sni_devices_.resize(snis_.size());
  sni_vendors_.resize(snis_.size());
  vendor_fps_.resize(vendors_.size());
}

}  // namespace iotls::core
