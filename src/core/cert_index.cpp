#include "core/cert_index.hpp"

#include <algorithm>

#include "core/cert_dataset.hpp"

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

}  // namespace

void CertIndex::reserve(std::size_t expected_records) {
  snis_.reserve(expected_records);
  record_leaf_.reserve(expected_records);
  record_fp_.reserve(expected_records);
  sni_devices_.reserve(expected_records);
  sni_vendors_.reserve(expected_records);
}

void CertIndex::record(const SniRecord& rec,
                       const std::string& leaf_fingerprint) {
  const std::uint32_t sni = snis_.intern(rec.sni);
  for (const std::string& device : rec.devices) {
    append(sni_devices_, sni, devices_.intern(device));
  }
  for (const std::string& vendor : rec.vendors) {
    append(sni_vendors_, sni, vendors_.intern(vendor));
  }

  if (!rec.reachable || rec.chain.empty()) {
    record_leaf_.push_back(kNone);
    record_fp_.push_back(kNone);
    return;
  }

  const x509::Certificate& cert = rec.chain.front();
  const std::uint32_t fp = fps_.intern(leaf_fingerprint);
  if (fp == fp_issuer_.size()) {  // first record serving this fingerprint
    fp_issuer_.push_back(issuers_.intern(cert.issuer.organization));
    fp_validity_days_.push_back(cert.validity_days());
  }

  // Leaf identity: SPKI + serial (the paper's certificate dedup key).
  const std::uint32_t spki = spkis_.intern(cert.subject_key_id);
  std::string identity = cert.subject_key_id;
  identity += '\x1f';
  identity += std::to_string(cert.serial);
  const std::uint32_t leaf = leaf_ids_.intern(identity);
  if (leaf == leaf_certs_.size()) {  // first sighting of this certificate
    leaf_certs_.push_back(cert);
    leaf_fp_.push_back(fp);
    leaf_issuer_.push_back(issuers_.intern(cert.issuer.organization));
    leaf_spki_.push_back(spki);
  }
  record_leaf_.push_back(leaf);
  record_fp_.push_back(fp);

  append(leaf_servers_, leaf, sni);
  for (const std::string& ip : rec.server_ips) {
    append(leaf_ips_, leaf, ips_.intern(ip));
  }
  const std::uint32_t issuer = leaf_issuer_[leaf];
  append(issuer_leaves_, issuer, leaf);
  for (const std::string& vendor : rec.vendors) {
    append(vendor_leaves_, vendors_.intern(vendor), leaf);
  }
}

void CertIndex::finalize() {
  sort_unique_all(sni_devices_);
  sort_unique_all(sni_vendors_);
  sort_unique_all(leaf_servers_);
  sort_unique_all(leaf_ips_);
  sort_unique_all(vendor_leaves_);
  sort_unique_all(issuer_leaves_);
  // Posting tables are row-indexed by interned ids; pad to the full domain
  // so accessors never index past the end for rows that gained no postings.
  sni_devices_.resize(snis_.size());
  sni_vendors_.resize(snis_.size());
  leaf_servers_.resize(leaf_certs_.size());
  leaf_ips_.resize(leaf_certs_.size());
  vendor_leaves_.resize(vendors_.size());
  issuer_leaves_.resize(issuers_.size());
}

}  // namespace iotls::core
