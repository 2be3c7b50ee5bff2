// The parsed client-side dataset: wire bytes -> fingerprints + indexes.
//
// This is the paper's analysis input (§4): every event's ClientHello is
// parsed from capture bytes, fingerprinted, and joined with the device's
// user label. All §4 analyses run off the interned DatasetIndex built here.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/index.hpp"
#include "devicesim/types.hpp"
#include "tls/fingerprint.hpp"

namespace iotls::core {

/// One parsed ClientHello observation. The *_ix fields are the event's
/// interned ids in the dataset's DatasetIndex (dense, deterministic).
struct ParsedEvent {
  std::string device_id;
  std::string vendor;
  std::string type;     // device type/model label
  std::string user;
  std::int64_t day = 0;
  std::string sni;
  tls::ClientHello hello;
  tls::Fingerprint fp;
  std::string fp_key;   // cached fp.key()

  std::uint32_t device_ix = 0;
  std::uint32_t vendor_ix = 0;
  std::uint32_t user_ix = 0;
  std::uint32_t sni_ix = 0;
  std::uint32_t fp_ix = 0;
};

/// Why an event was dropped during parsing (per-reason counts are exposed
/// so data-quality loss is attributable, not just a single total).
struct DropCounts {
  std::size_t unknown_device = 0;   // event names a device not in the fleet
  std::size_t no_client_hello = 0;  // wire bytes decode but carry no hello
  std::size_t parse_error = 0;      // wire bytes are not a TLS record stream

  std::size_t total() const {
    return unknown_device + no_client_hello + parse_error;
  }
};

/// Parsed dataset carrying the interned cross-index the §4 metrics run on.
class ClientDataset {
 public:
  /// Parse a fleet's events. Undecodable events are dropped (counted
  /// per reason in drop_counts()). `jobs` > 1 runs the parallel phases of
  /// append_events' block fold on a worker pool (0 = hardware
  /// concurrency); interning stays sequential in input order, so the
  /// resulting dataset is identical to the jobs=1 build bit for bit.
  static ClientDataset from_fleet(const devicesim::FleetDataset& fleet,
                                  const tls::FingerprintOptions& opts = {},
                                  int jobs = 1);

  /// Incremental ingest: parse `events` (devices resolved against `devices`)
  /// and fold them into the dataset after whatever is already there. The
  /// fold walks fixed 4,096-event blocks on one pool of `jobs` workers, in
  /// three phases per block: (A) parse, fingerprint and read-only id lookup
  /// in parallel; (B) drops and interning of the missed ids, sequential in
  /// arrival order; (C) posting-list appends, one relation per task. Ingest
  /// memory is O(block) plus the index (plus events() when retained), and
  /// any epoch split of one event stream builds the same dataset as a
  /// single batch call over the concatenation, bit for bit. Call finalize()
  /// before reading the index.
  void append_events(const std::vector<devicesim::ClientHelloEvent>& events,
                     const std::vector<devicesim::Device>& devices,
                     const tls::FingerprintOptions& opts = {}, int jobs = 1);

  /// Re-finalize the index after append_events (O(appended delta + id
  /// universe)).
  void finalize() { index_.finalize(); }

  /// When false, append_events folds every parsed event into the index but
  /// does not retain it in events() — resident memory stays O(distinct
  /// interned ids + posting lists) instead of O(total events), which is
  /// what lets the streaming fold run a 1M-device fleet on one machine.
  /// Every index-backed analysis (all of the stream reports) is unaffected;
  /// only the event-iterating analyses (tls_params, longitudinal, semantic,
  /// device_metrics) need retained events. Set before the first
  /// append_events; flipping it mid-ingest only affects later epochs.
  void set_retain_events(bool retain) { retain_events_ = retain; }
  bool retain_events() const { return retain_events_; }

  /// Parsed events, in fold order (empty when retain_events is false).
  const std::vector<ParsedEvent>& events() const { return events_; }
  std::size_t dropped_events() const { return dropped_.total(); }
  const DropCounts& drop_counts() const { return dropped_; }

  /// The interned-id cross-index every analysis reads.
  const DatasetIndex& index() const { return index_; }

 private:
  std::vector<ParsedEvent> events_;
  DropCounts dropped_;
  DatasetIndex index_;
  bool retain_events_ = true;
};

}  // namespace iotls::core
