// DatasetIndex: the interned-id cross-index behind ClientDataset.
//
// Replaces the seed's twelve map<string, set<string>> indexes with posting
// lists (sorted vector<uint32_t>) over dense interned ids, plus per-vendor
// bitsets over the fingerprint domain for the Table 4 Jaccard analysis.
// Built in the sequential fold of ClientDataset::from_fleet (event order),
// so ids and posting lists are bit-identical at every --jobs level. Every
// §4 analysis and the §5.1 SNI walk read it directly; row orders that
// follow the seed's std::map iteration come from the lexicographic id
// permutations below.
#pragma once

#include <cstdint>
#include <vector>

#include "core/interner.hpp"
#include "tls/fingerprint.hpp"

namespace iotls::core {

struct ParsedEvent;

class DatasetIndex {
 public:
  /// Interners for each id domain. Ids are first-seen-ordered over the
  /// event stream (devices/vendors appear when their first event
  /// parses, not when the fleet lists them — matching the seed maps, which
  /// only held entities with >= 1 parsed event).
  const Interner& vendors() const { return vendors_; }
  const Interner& devices() const { return devices_; }
  const Interner& users() const { return users_; }
  const Interner& snis() const { return snis_; }
  const Interner& fps() const { return fps_; }

  /// Fingerprint value by fingerprint id.
  const tls::Fingerprint& fp_value(std::uint32_t fp) const { return fp_values_[fp]; }

  // Posting lists, indexed by the row domain's id; sorted-unique after
  // finalize(). fp_vendors()[f] are the vendor ids seen with fingerprint f,
  // and so on — the same relations as the seed's string maps.
  const std::vector<PostingList>& fp_vendors() const { return fp_vendors_; }
  const std::vector<PostingList>& fp_devices() const { return fp_devices_; }
  const std::vector<PostingList>& fp_snis() const { return fp_snis_; }
  const std::vector<PostingList>& vendor_fps() const { return vendor_fps_; }
  const std::vector<PostingList>& device_fps() const { return device_fps_; }
  const std::vector<PostingList>& sni_devices() const { return sni_devices_; }
  const std::vector<PostingList>& sni_vendors() const { return sni_vendors_; }
  const std::vector<PostingList>& sni_fps() const { return sni_fps_; }
  const std::vector<PostingList>& sni_users() const { return sni_users_; }

  /// device id -> vendor id (a total function on interned devices).
  std::uint32_t device_vendor(std::uint32_t device) const {
    return device_vendor_[device];
  }

  /// Per-vendor bitset over the fingerprint id domain (built at finalize).
  /// vendor_similarities computes |A ∩ B| as one AND+popcount pass.
  const Bitset& vendor_fp_bits(std::uint32_t vendor) const {
    return vendor_fp_bits_[vendor];
  }

  // Lexicographic id permutations (the seed's std::map iteration orders,
  // which report row ordering depends on). Computed once at finalize.
  const std::vector<std::uint32_t>& vendors_by_name() const { return vendors_by_name_; }
  const std::vector<std::uint32_t>& devices_by_name() const { return devices_by_name_; }
  const std::vector<std::uint32_t>& snis_by_name() const { return snis_by_name_; }
  const std::vector<std::uint32_t>& fps_by_key() const { return fps_by_key_; }

  /// Size hints from the raw fleet (satellite: reserve before the fold).
  void reserve(std::size_t expected_devices, std::size_t expected_events);

  /// Intern one parsed event (sequential fold, input order). Fills the
  /// event's *_ix fields and appends to the posting lists.
  void record(ParsedEvent& ev);

  /// Sort/unique the posting lists, build the vendor bitsets and the
  /// lexicographic permutations. Callable repeatedly: the streaming ingest
  /// records an epoch of events and re-finalizes, and only rows touched
  /// since the previous finalize are re-sorted (the dirty sets below), so
  /// an epoch fold costs O(epoch delta + id universe), not O(history).
  /// Appending the same event stream under any epoch split yields indexes
  /// byte-identical to one batch fold over the concatenation.
  void finalize();

 private:
  /// Rows of one relation appended to since the last finalize().
  struct DirtyRows {
    std::vector<std::uint32_t> rows;
    std::vector<std::uint8_t> noted;  // row id -> already in `rows`

    void note(std::uint32_t row);
    void clear();
  };

  void append(std::vector<PostingList>& lists, DirtyRows& dirty,
              std::uint32_t row, std::uint32_t id);

  Interner vendors_, devices_, users_, snis_, fps_;
  std::vector<tls::Fingerprint> fp_values_;

  std::vector<PostingList> fp_vendors_, fp_devices_, fp_snis_;
  std::vector<PostingList> vendor_fps_, device_fps_;
  std::vector<PostingList> sni_devices_, sni_vendors_, sni_fps_, sni_users_;
  std::vector<std::uint32_t> device_vendor_;

  DirtyRows dirty_fp_vendors_, dirty_fp_devices_, dirty_fp_snis_;
  DirtyRows dirty_vendor_fps_, dirty_device_fps_;
  DirtyRows dirty_sni_devices_, dirty_sni_vendors_, dirty_sni_fps_,
      dirty_sni_users_;

  std::vector<Bitset> vendor_fp_bits_;
  std::vector<std::uint32_t> vendors_by_name_, devices_by_name_, snis_by_name_,
      fps_by_key_;
};

}  // namespace iotls::core
