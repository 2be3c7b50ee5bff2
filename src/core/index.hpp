// DatasetIndex: the interned-id cross-index behind ClientDataset.
//
// Replaces the seed's twelve map<string, set<string>> indexes with posting
// lists (sorted vector<uint32_t>) over dense interned ids, plus per-vendor
// bitsets over the fingerprint domain for the Table 4 Jaccard analysis.
// ClientDataset::append_events feeds it one fixed-size block of events at a
// time, in three phases: find() looks ids up read-only on the parse
// workers, intern() interns only the misses sequentially in input order,
// and append() extends one relation's posting lists per pool task, walking
// the block in input order. Ids and posting
// lists are therefore bit-identical at every --jobs level. Every §4
// analysis and the §5.1 SNI walk read it directly; row orders that follow
// the seed's std::map iteration come from the lexicographic id
// permutations below.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "core/interner.hpp"
#include "tls/fingerprint.hpp"

namespace iotls::core {

/// The strings one parsed event is interned under.
struct EventKeys {
  std::string_view vendor, device, user, sni, fp_key;
};

/// One event's interned ids; Interner::kNone marks a string not yet
/// interned (find() before intern()).
struct EventIds {
  std::uint32_t vendor = Interner::kNone;
  std::uint32_t device = Interner::kNone;
  std::uint32_t user = Interner::kNone;
  std::uint32_t sni = Interner::kNone;
  std::uint32_t fp = Interner::kNone;
};

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
  const std::vector<PostingList>& fp_vendors() const { return fp_vendors_.lists; }
  const std::vector<PostingList>& fp_devices() const { return fp_devices_.lists; }
  const std::vector<PostingList>& fp_snis() const { return fp_snis_.lists; }
  const std::vector<PostingList>& vendor_fps() const { return vendor_fps_.lists; }
  const std::vector<PostingList>& device_fps() const { return device_fps_.lists; }
  const std::vector<PostingList>& sni_devices() const { return sni_devices_.lists; }
  const std::vector<PostingList>& sni_vendors() const { return sni_vendors_.lists; }
  const std::vector<PostingList>& sni_fps() const { return sni_fps_.lists; }
  const std::vector<PostingList>& sni_users() const { return sni_users_.lists; }

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

  /// Look up each id of `ids` that is still kNone; it stays kNone when its
  /// key was never interned. Read-only, so the parse workers call it
  /// concurrently (nothing may intern meanwhile).
  void find(const EventKeys& keys, EventIds& ids) const;

  /// Intern each id of `ids` that is still kNone, in the order vendor,
  /// device, user, sni, fp, and record the fingerprint value and the
  /// device's vendor. Called sequentially in input order, so first-seen ids
  /// do not depend on how the stream was blocked or split into epochs.
  void intern(const EventKeys& keys, const tls::Fingerprint& fp, EventIds& ids);

  /// Number of posting-list relations (fp_vendors() ... sni_users()).
  static constexpr std::size_t kRelations = 9;

  /// Append a block of interned events, in block order, to relation
  /// `relation` (< kRelations). Each relation owns its lists and dirty
  /// rows, so the relations of one block may be appended concurrently with
  /// each other and with find(); every list (unsorted until finalize)
  /// equals an event-at-a-time fold.
  void append(std::size_t relation, std::span<const EventIds> block);

  /// Sort/unique the posting lists, build the vendor bitsets and the
  /// lexicographic permutations. Callable repeatedly: the streaming ingest
  /// records an epoch of events and re-finalizes, and only rows touched
  /// since the previous finalize are re-sorted (the dirty sets below), so
  /// an epoch fold costs O(epoch delta + id universe), not O(history).
  /// Appending the same event stream under any epoch split yields indexes
  /// byte-identical to one batch fold over the concatenation.
  void finalize();

 private:
  /// One row -> ids relation, with the rows appended to since the last
  /// finalize() (only those need a re-sort).
  struct Relation {
    std::vector<PostingList> lists;
    std::vector<std::uint32_t> dirty;
    std::vector<std::uint8_t> noted;  // row id -> already in `dirty`

    void append(std::uint32_t row, std::uint32_t id);
    void sort_dirty();
  };
  struct RelationSpec;
  static const RelationSpec kRelationSpecs[kRelations];

  Interner vendors_, devices_, users_, snis_, fps_;
  std::vector<tls::Fingerprint> fp_values_;

  Relation fp_vendors_, fp_devices_, fp_snis_;
  Relation vendor_fps_, device_fps_;
  Relation sni_devices_, sni_vendors_, sni_fps_, sni_users_;
  std::vector<std::uint32_t> device_vendor_;

  std::vector<Bitset> vendor_fp_bits_;
  std::vector<std::uint32_t> vendors_by_name_, devices_by_name_, snis_by_name_,
      fps_by_key_;
};

}  // namespace iotls::core
