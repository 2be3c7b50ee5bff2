// SeedMaps: the seed's eager string-keyed indexes, rebuilt from a
// ClientDataset's parsed events.
//
// The seed's ClientDataset filled std::map<string, set<string>> indexes one
// parsed event at a time. The reference algorithms in the equivalence tests
// restate the seed over these maps, so a reference depends on the parsed
// events alone and never on the DatasetIndex the analyses under test read.
#pragma once

#include <map>
#include <set>
#include <string>

#include "core/dataset.hpp"
#include "tls/fingerprint.hpp"

namespace iotls::core {

struct SeedMaps {
  using SetMap = std::map<std::string, std::set<std::string>>;

  std::map<std::string, tls::Fingerprint> fingerprints;  // by key, first wins
  SetMap fp_vendors, fp_snis, vendor_fps, device_fps;
  SetMap sni_devices, sni_vendors, sni_fps, sni_users;
  std::map<std::string, std::string> device_vendor;
  std::set<std::string> vendors, users, snis;

  /// Requires retained events (ClientDataset::retain_events()).
  explicit SeedMaps(const ClientDataset& ds) {
    for (const ParsedEvent& e : ds.events()) {
      fingerprints.emplace(e.fp_key, e.fp);
      fp_vendors[e.fp_key].insert(e.vendor);
      fp_snis[e.fp_key].insert(e.sni);
      vendor_fps[e.vendor].insert(e.fp_key);
      device_fps[e.device_id].insert(e.fp_key);
      sni_devices[e.sni].insert(e.device_id);
      sni_vendors[e.sni].insert(e.vendor);
      sni_fps[e.sni].insert(e.fp_key);
      sni_users[e.sni].insert(e.user);
      device_vendor[e.device_id] = e.vendor;
      vendors.insert(e.vendor);
      users.insert(e.user);
      snis.insert(e.sni);
    }
  }
};

}  // namespace iotls::core
