#include "core/index.hpp"

#include <algorithm>

#include "core/dataset.hpp"

namespace iotls::core {

void DatasetIndex::DirtyRows::note(std::uint32_t row) {
  if (row >= noted.size()) noted.resize(row + 1, 0);
  if (noted[row]) return;
  noted[row] = 1;
  rows.push_back(row);
}

void DatasetIndex::DirtyRows::clear() {
  for (std::uint32_t row : rows) noted[row] = 0;
  rows.clear();
}

/// Append to a posting list, skipping the (very common) case of consecutive
/// duplicates; full dedup happens in finalize(). `row` may be first-seen.
void DatasetIndex::append(std::vector<PostingList>& lists, DirtyRows& dirty,
                          std::uint32_t row, std::uint32_t id) {
  if (row >= lists.size()) lists.resize(row + 1);
  PostingList& list = lists[row];
  if (!list.empty() && list.back() == id) return;
  list.push_back(id);
  dirty.note(row);
}


void DatasetIndex::reserve(std::size_t expected_devices,
                           std::size_t expected_events) {
  devices_.reserve(expected_devices);
  device_vendor_.reserve(expected_devices);
  device_fps_.reserve(expected_devices);
  // Fingerprint/SNI universes are far smaller than the event stream; a
  // sqrt-ish hint avoids rehashing without overcommitting.
  std::size_t hint = expected_events / 8 + 16;
  fps_.reserve(hint);
  snis_.reserve(hint);
}

void DatasetIndex::record(ParsedEvent& ev) {
  ev.vendor_ix = vendors_.intern(ev.vendor);
  ev.device_ix = devices_.intern(ev.device_id);
  ev.user_ix = users_.intern(ev.user);
  ev.sni_ix = snis_.intern(ev.sni);
  ev.fp_ix = fps_.intern(ev.fp_key);
  if (ev.fp_ix == fp_values_.size()) fp_values_.push_back(ev.fp);

  append(fp_vendors_, dirty_fp_vendors_, ev.fp_ix, ev.vendor_ix);
  append(fp_devices_, dirty_fp_devices_, ev.fp_ix, ev.device_ix);
  append(fp_snis_, dirty_fp_snis_, ev.fp_ix, ev.sni_ix);
  append(vendor_fps_, dirty_vendor_fps_, ev.vendor_ix, ev.fp_ix);
  append(device_fps_, dirty_device_fps_, ev.device_ix, ev.fp_ix);
  append(sni_devices_, dirty_sni_devices_, ev.sni_ix, ev.device_ix);
  append(sni_vendors_, dirty_sni_vendors_, ev.sni_ix, ev.vendor_ix);
  append(sni_fps_, dirty_sni_fps_, ev.sni_ix, ev.fp_ix);
  append(sni_users_, dirty_sni_users_, ev.sni_ix, ev.user_ix);

  if (ev.device_ix >= device_vendor_.size()) device_vendor_.resize(ev.device_ix + 1);
  device_vendor_[ev.device_ix] = ev.vendor_ix;
}

void DatasetIndex::finalize() {
  // Delta re-sort: only rows appended to since the last finalize need a
  // sort/unique pass; every other row kept its sorted-unique form.
  auto sort_unique_dirty = [](std::vector<PostingList>& lists, DirtyRows& dirty) {
    for (std::uint32_t row : dirty.rows) {
      PostingList& list = lists[row];
      std::sort(list.begin(), list.end());
      list.erase(std::unique(list.begin(), list.end()), list.end());
    }
    dirty.clear();
  };
  sort_unique_dirty(fp_vendors_, dirty_fp_vendors_);
  sort_unique_dirty(fp_devices_, dirty_fp_devices_);
  sort_unique_dirty(fp_snis_, dirty_fp_snis_);
  sort_unique_dirty(vendor_fps_, dirty_vendor_fps_);
  sort_unique_dirty(device_fps_, dirty_device_fps_);
  sort_unique_dirty(sni_devices_, dirty_sni_devices_);
  sort_unique_dirty(sni_vendors_, dirty_sni_vendors_);
  sort_unique_dirty(sni_fps_, dirty_sni_fps_);
  sort_unique_dirty(sni_users_, dirty_sni_users_);

  vendor_fp_bits_.assign(vendors_.size(), Bitset(fps_.size()));
  for (std::uint32_t v = 0; v < vendor_fps_.size(); ++v) {
    for (std::uint32_t f : vendor_fps_[v]) vendor_fp_bits_[v].set(f);
  }

  vendors_by_name_ = vendors_.ids_by_string();
  devices_by_name_ = devices_.ids_by_string();
  snis_by_name_ = snis_.ids_by_string();
  fps_by_key_ = fps_.ids_by_string();
}

}  // namespace iotls::core
