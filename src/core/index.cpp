#include "core/index.hpp"

#include <algorithm>


namespace iotls::core {

/// Append to a posting list, skipping the (very common) case of consecutive
/// duplicates; full dedup happens in finalize(). `row` may be first-seen.
void DatasetIndex::Relation::append(std::uint32_t row, std::uint32_t id) {
  if (row >= lists.size()) lists.resize(row + 1);
  PostingList& list = lists[row];
  if (!list.empty() && list.back() == id) return;
  list.push_back(id);
  if (row >= noted.size()) noted.resize(row + 1, 0);
  if (noted[row]) return;
  noted[row] = 1;
  dirty.push_back(row);
}

/// Delta re-sort: only rows appended to since the last finalize need a
/// sort/unique pass; every other row kept its sorted-unique form.
void DatasetIndex::Relation::sort_dirty() {
  for (std::uint32_t row : dirty) {
    PostingList& list = lists[row];
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
    noted[row] = 0;
  }
  dirty.clear();
}

/// Each relation with the event ids that pick its row and its entry.
struct DatasetIndex::RelationSpec {
  Relation DatasetIndex::*relation;
  std::uint32_t EventIds::*row;
  std::uint32_t EventIds::*id;
};

const DatasetIndex::RelationSpec DatasetIndex::kRelationSpecs[kRelations] = {
    {&DatasetIndex::fp_vendors_, &EventIds::fp, &EventIds::vendor},
    {&DatasetIndex::fp_devices_, &EventIds::fp, &EventIds::device},
    {&DatasetIndex::fp_snis_, &EventIds::fp, &EventIds::sni},
    {&DatasetIndex::vendor_fps_, &EventIds::vendor, &EventIds::fp},
    {&DatasetIndex::device_fps_, &EventIds::device, &EventIds::fp},
    {&DatasetIndex::sni_devices_, &EventIds::sni, &EventIds::device},
    {&DatasetIndex::sni_vendors_, &EventIds::sni, &EventIds::vendor},
    {&DatasetIndex::sni_fps_, &EventIds::sni, &EventIds::fp},
    {&DatasetIndex::sni_users_, &EventIds::sni, &EventIds::user},
};

void DatasetIndex::reserve(std::size_t expected_devices,
                           std::size_t expected_events) {
  devices_.reserve(expected_devices);
  device_vendor_.reserve(expected_devices);
  device_fps_.lists.reserve(expected_devices);
  // Fingerprint/SNI universes are far smaller than the event stream; a
  // sqrt-ish hint avoids rehashing without overcommitting.
  std::size_t hint = expected_events / 8 + 16;
  fps_.reserve(hint);
  snis_.reserve(hint);
}

void DatasetIndex::find(const EventKeys& keys, EventIds& ids) const {
  if (ids.vendor == Interner::kNone) ids.vendor = vendors_.find(keys.vendor);
  if (ids.device == Interner::kNone) ids.device = devices_.find(keys.device);
  if (ids.user == Interner::kNone) ids.user = users_.find(keys.user);
  if (ids.sni == Interner::kNone) ids.sni = snis_.find(keys.sni);
  if (ids.fp == Interner::kNone) ids.fp = fps_.find(keys.fp_key);
}

void DatasetIndex::intern(const EventKeys& keys, const tls::Fingerprint& fp,
                          EventIds& ids) {
  if (ids.vendor == Interner::kNone) ids.vendor = vendors_.intern(keys.vendor);
  if (ids.device == Interner::kNone) ids.device = devices_.intern(keys.device);
  if (ids.user == Interner::kNone) ids.user = users_.intern(keys.user);
  if (ids.sni == Interner::kNone) ids.sni = snis_.intern(keys.sni);
  if (ids.fp == Interner::kNone) ids.fp = fps_.intern(keys.fp_key);
  if (ids.fp == fp_values_.size()) fp_values_.push_back(fp);

  if (ids.device >= device_vendor_.size()) device_vendor_.resize(ids.device + 1);
  device_vendor_[ids.device] = ids.vendor;
}

void DatasetIndex::append(std::size_t relation, std::span<const EventIds> block) {
  const RelationSpec& spec = kRelationSpecs[relation];
  Relation& lists = this->*spec.relation;
  for (const EventIds& ids : block) lists.append(ids.*spec.row, ids.*spec.id);
}

void DatasetIndex::finalize() {
  for (const RelationSpec& spec : kRelationSpecs) (this->*spec.relation).sort_dirty();

  vendor_fp_bits_.assign(vendors_.size(), Bitset(fps_.size()));
  for (std::uint32_t v = 0; v < vendor_fps_.lists.size(); ++v) {
    for (std::uint32_t f : vendor_fps_.lists[v]) vendor_fp_bits_[v].set(f);
  }

  vendors_by_name_ = vendors_.ids_by_string();
  devices_by_name_ = devices_.ids_by_string();
  snis_by_name_ = snis_.ids_by_string();
  fps_by_key_ = fps_.ids_by_string();
}

}  // namespace iotls::core
