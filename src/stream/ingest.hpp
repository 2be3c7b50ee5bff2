// StreamIngest: the epoch-based incremental fold behind iotlsd.
//
// Owns the growing ClientDataset (and, with certs enabled, the per-epoch
// CertDataset rebuild), folding one epoch of raw events at a time:
//
//   fold_epoch(events):
//     1. client.append_events(events)  — block fold: parallel parse,
//        in-order intern of new ids, per-relation parallel appends,
//        appended after everything already ingested;
//     2. client.finalize()             — delta re-sort of dirty posting-list
//        rows, full bitset/permutation rebuild;
//     3. (certs) CertDataset::collect  — membership recomputed from the
//        client index, probes served from the ProbeMemo so only SNIs never
//        seen before hit the (possibly fault-injected) network.
//
// The contract the daemon's tests pin down: after folding epochs e1..eN,
// every dataset and report is byte-identical to a cold batch run over the
// concatenation e1 ‖ … ‖ eN — at any --jobs level, with or without fault
// injection (the FaultInjector seeds per (SNI, vantage, attempt), so a
// delta probe draws the same faults the batch probe would).
//
// Thread-compat: fold_epoch and the accessors must not race; the daemon
// serializes them behind its own mutex. Within a fold, `jobs` workers are
// used for the parse/probe phases exactly as in batch mode.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/cert_dataset.hpp"
#include "core/dataset.hpp"
#include "devicesim/scenario.hpp"
#include "net/fault.hpp"
#include "net/stack_fingerprint.hpp"
#include "x509/validation.hpp"

namespace iotls::stream {

struct IngestConfig {
  tls::FingerprintOptions fp_opts;
  int jobs = 1;
  /// Build the §5 server-side dataset after every epoch fold.
  bool certs = false;
  /// Minimum distinct users before an SNI is probed (CertDataset::collect).
  std::size_t min_users = 1;
  /// Probe day used by the chain-validation report (2022-04-15 default,
  /// the batch tools' probe day).
  std::int64_t validation_day = 19097;
  /// Fault schedule applied to the probe path when spec.any().
  net::FaultSpec fault;
  /// Retain parsed events in client().events(). The streaming report path
  /// turns this off: every stream report is index/CertDataset-backed, so
  /// dropping the per-event rows keeps the fold's resident memory
  /// O(distinct fingerprints) instead of O(total events) — the fleet-scale
  /// mode. Reports stay byte-identical either way.
  bool retain_events = true;
};

class StreamIngest {
 public:
  /// `devices` is the fleet's device table (events referencing unknown
  /// devices are dropped and counted, exactly as in batch mode).
  explicit StreamIngest(std::vector<devicesim::Device> devices,
                        IngestConfig config = {});
  ~StreamIngest();

  StreamIngest(const StreamIngest&) = delete;
  StreamIngest& operator=(const StreamIngest&) = delete;

  /// Fold one epoch of raw events; returns the epoch number (1-based).
  /// An empty epoch still advances the epoch counter (a heartbeat).
  std::uint64_t fold_epoch(const std::vector<devicesim::ClientHelloEvent>& events);

  const core::ClientDataset& client() const { return client_; }
  /// Non-null once certs are enabled and at least one epoch has folded.
  const core::CertDataset* certs() const {
    return certs_.has_value() ? &*certs_ : nullptr;
  }

  /// Active stack-fingerprint survey (dual-stack battery) over the cert
  /// dataset's SNIs, in records() order. Lazily run on first call after a
  /// fold and memoized per SNI across epochs — only SNIs never fingerprinted
  /// before hit the network, through a battery-private FaultInjector (its
  /// attempt counters must not interleave with the cert prober's), so the
  /// streamed survey is byte-identical to a cold batch run. Requires certs
  /// mode and at least one folded epoch; throws std::logic_error otherwise.
  const net::StackSurvey& stacks();

  /// The simulated world certs are probed against (built iff config.certs).
  const devicesim::SimWorld& world() const { return *world_; }
  x509::ValidationCache& validation_cache() { return vcache_; }
  const IngestConfig& config() const { return config_; }

  std::uint64_t epoch() const { return epoch_; }
  std::uint64_t events_ingested() const { return events_ingested_; }
  /// Highest capture day folded so far (the ingest watermark; -1 before
  /// the first event).
  std::int64_t watermark_day() const { return watermark_day_; }

 private:
  IngestConfig config_;
  std::vector<devicesim::Device> devices_;
  core::ClientDataset client_;
  std::optional<core::CertDataset> certs_;
  std::unique_ptr<devicesim::SimWorld> world_;
  std::unique_ptr<net::FaultInjector> injector_;
  core::ProbeMemo memo_;
  std::optional<net::StackSurvey> stacks_;  // assembled view, reset per fold
  std::map<std::string, net::ServerStackResult> stack_memo_;
  net::StackSurveySummary stack_summary_;   // accumulates fresh batches
  std::unique_ptr<net::FaultInjector> stack_injector_;
  x509::ValidationCache vcache_;
  std::uint64_t epoch_ = 0;
  std::uint64_t events_ingested_ = 0;
  std::int64_t watermark_day_ = -1;
};

}  // namespace iotls::stream
