// CertIndex: the interned-id cross-index behind CertDataset (§5).
//
// The seed §5 analyses (issuers, CT/validity) re-derived everything from
// the per-SNI record list: every pass re-hashed the leaf certificate
// (`fingerprint()` is a SHA-256 over the full encoding) and re-joined
// vendors/issuers through string-keyed maps. The index is built once, in
// the sequential fold of CertDataset::collect (record order), and gives the
// analyses dense uint32 ids with sorted posting lists instead:
//
//  * leaves are deduplicated by SPKI+serial — each distinct certificate is
//    fingerprinted and classified once, not once per serving SNI;
//  * sni↔device/vendor/ip and vendor↔leaf/issuer↔leaf relations are sorted
//    posting lists over interned ids;
//  * the hex SHA-256 fingerprint of each distinct leaf is memoized, so no
//    analysis downstream of collect() ever re-hashes a certificate.
//
// Built in input order, so ids and posting lists are bit-identical at every
// --jobs level; the string-keyed record/leaf views CertDataset keeps for
// the report layer are unchanged and remain the compatibility surface.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/interner.hpp"
#include "x509/certificate.hpp"

namespace iotls::core {

struct SniRecord;

class CertIndex {
 public:
  static constexpr std::uint32_t kNone = Interner::kNone;

  /// Interners for each id domain, first-seen-ordered over the record fold.
  const Interner& snis() const { return snis_; }
  const Interner& devices() const { return devices_; }
  const Interner& vendors() const { return vendors_; }
  const Interner& ips() const { return ips_; }
  /// Leaf issuer organizations (Fig. 5 y-axis domain).
  const Interner& issuers() const { return issuers_; }
  /// Subject key ids (the SPKI-hash domain of the leaf identity).
  const Interner& spkis() const { return spkis_; }
  /// Distinct leaf SHA-256 fingerprints (hex), memoized at collect time.
  const Interner& fps() const { return fps_; }

  /// Number of distinct leaves (deduplicated by SPKI+serial).
  std::uint32_t leaf_count() const {
    return static_cast<std::uint32_t>(leaf_certs_.size());
  }
  /// The certificate of a leaf id (first-seen instance).
  const x509::Certificate& leaf_cert(std::uint32_t leaf) const {
    return leaf_certs_[leaf];
  }
  /// Memoized hex fingerprint of a leaf id.
  const std::string& leaf_fingerprint(std::uint32_t leaf) const {
    return fps_.str(leaf_fp_[leaf]);
  }
  std::uint32_t leaf_fp(std::uint32_t leaf) const { return leaf_fp_[leaf]; }
  std::uint32_t leaf_issuer(std::uint32_t leaf) const { return leaf_issuer_[leaf]; }
  std::uint32_t leaf_spki(std::uint32_t leaf) const { return leaf_spki_[leaf]; }

  /// Issuer organization id of a fingerprint id, captured from the first
  /// record serving it — the same "first insertion wins" semantics as the
  /// seed's fingerprint-keyed leaf map.
  std::uint32_t fp_issuer(std::uint32_t fp) const { return fp_issuer_[fp]; }
  std::int64_t fp_validity_days(std::uint32_t fp) const {
    return fp_validity_days_[fp];
  }

  /// Record position -> leaf id (kNone when unreachable or empty chain).
  const std::vector<std::uint32_t>& record_leaf() const { return record_leaf_; }
  /// Record position -> fingerprint id (kNone when no leaf).
  const std::vector<std::uint32_t>& record_fp() const { return record_fp_; }

  // Posting lists, indexed by the row domain's id; sorted-unique after
  // finalize().
  const std::vector<PostingList>& sni_devices() const { return sni_devices_; }
  const std::vector<PostingList>& sni_vendors() const { return sni_vendors_; }
  const std::vector<PostingList>& leaf_servers() const { return leaf_servers_; }
  const std::vector<PostingList>& leaf_ips() const { return leaf_ips_; }
  const std::vector<PostingList>& vendor_leaves() const { return vendor_leaves_; }
  const std::vector<PostingList>& issuer_leaves() const { return issuer_leaves_; }

  void reserve(std::size_t expected_records);

  /// Intern one collected record (sequential fold, input order).
  /// `leaf_fingerprint` is the precomputed hex fingerprint of the record's
  /// leaf (empty when unreachable or the chain is empty).
  void record(const SniRecord& rec, const std::string& leaf_fingerprint);

  /// Sort/unique the posting lists. Call once, after the last record().
  void finalize();

 private:
  Interner snis_, devices_, vendors_, ips_, issuers_, spkis_, fps_;

  // Per-leaf columns (leaf = distinct SPKI+serial identity).
  Interner leaf_ids_;  // "spki \x1f serial" -> dense leaf id
  std::vector<x509::Certificate> leaf_certs_;
  std::vector<std::uint32_t> leaf_fp_, leaf_issuer_, leaf_spki_;

  // Per-fingerprint columns (first-record-wins, seed leaf-map semantics).
  std::vector<std::uint32_t> fp_issuer_;
  std::vector<std::int64_t> fp_validity_days_;

  std::vector<std::uint32_t> record_leaf_, record_fp_;

  std::vector<PostingList> sni_devices_, sni_vendors_;
  std::vector<PostingList> leaf_servers_, leaf_ips_;
  std::vector<PostingList> vendor_leaves_, issuer_leaves_;
};

}  // namespace iotls::core
