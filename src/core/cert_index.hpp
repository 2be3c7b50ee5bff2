// CertIndex: the interned-id cross-index behind CertDataset (§5).
//
// The seed §5 analyses (issuers, CT/validity) re-derived everything from
// the per-SNI record list: every pass re-hashed the leaf certificate
// (`fingerprint()` is a SHA-256 over the full encoding) and re-joined
// vendors/issuers through string-keyed maps. The index is built once, in
// the sequential fold of CertDataset::collect (record order), and gives the
// analyses dense uint32 ids with sorted posting lists instead:
//
//  * the leaf's hex SHA-256 fingerprint is the one leaf identity: each
//    distinct fingerprint is interned, and its issuer and validity are
//    captured once, so no analysis downstream of collect() ever re-hashes
//    a certificate;
//  * sni↔device/vendor and vendor↔fingerprint relations are sorted
//    posting lists over interned ids, and they are the only record of
//    which devices and vendors contacted an SNI.
//
// Built in input order, so ids and posting lists are bit-identical at every
// --jobs level. SNIs are interned in record order, so an SNI's id is its
// position in CertDataset::records().
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "core/interner.hpp"
#include "x509/certificate.hpp"

namespace iotls::core {

class DatasetIndex;
struct SniRecord;

class CertIndex {
 public:
  static constexpr std::uint32_t kNone = Interner::kNone;

  /// Interners for each id domain, first-seen-ordered over the record fold.
  const Interner& snis() const { return snis_; }
  const Interner& devices() const { return devices_; }
  const Interner& vendors() const { return vendors_; }
  /// Leaf issuer organizations (Fig. 5 y-axis domain).
  const Interner& issuers() const { return issuers_; }
  /// Distinct leaf SHA-256 fingerprints (hex), memoized at collect time.
  const Interner& fps() const { return fps_; }

  /// Issuer organization id of a fingerprint id, captured from the first
  /// record serving it (identical bytes share one issuer).
  std::uint32_t fp_issuer(std::uint32_t fp) const { return fp_issuer_[fp]; }
  std::int64_t fp_validity_days(std::uint32_t fp) const {
    return fp_validity_days_[fp];
  }

  /// Record position -> fingerprint id (kNone when no leaf).
  const std::vector<std::uint32_t>& record_fp() const { return record_fp_; }

  // Posting lists, indexed by the row domain's id; sorted-unique after
  // finalize().
  const std::vector<PostingList>& sni_devices() const { return sni_devices_; }
  const std::vector<PostingList>& sni_vendors() const { return sni_vendors_; }
  const std::vector<PostingList>& vendor_fps() const { return vendor_fps_; }

  /// The devices / vendors that contacted an SNI, by name (the report
  /// edge: name order is the order the §5 tables print in).
  std::set<std::string> device_names(std::uint32_t sni) const;
  std::set<std::string> vendor_names(std::uint32_t sni) const;

  void reserve(std::size_t expected_records);

  /// Intern one collected record (sequential fold, input order).
  /// `leaf_fingerprint` is the precomputed hex fingerprint of the record's
  /// leaf (empty when unreachable or the chain is empty); membership is
  /// read from the client index's posting lists for `client_sni`.
  void record(const SniRecord& rec, const std::string& leaf_fingerprint,
              const DatasetIndex& client, std::uint32_t client_sni);

  /// Sort/unique the posting lists. Call once, after the last record().
  void finalize();

 private:
  Interner snis_, devices_, vendors_, issuers_, fps_;

  // Per-fingerprint columns (first-record-wins).
  std::vector<std::uint32_t> fp_issuer_;
  std::vector<std::int64_t> fp_validity_days_;

  std::vector<std::uint32_t> record_fp_;

  std::vector<PostingList> sni_devices_, sni_vendors_, vendor_fps_;
};

}  // namespace iotls::core
