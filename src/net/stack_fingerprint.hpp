// Active server-stack fingerprinting (JARM-style).
//
// After "Active TLS Stack Fingerprinting: Characterizing TLS Server
// Deployments at Scale" (arxiv 2206.13230): send a *deterministic battery*
// of K varied ClientHellos — TLS version spread, ciphersuite orderings,
// GREASE on/off, ALPN/extension permutations — and hash the canonicalized
// ServerHello responses (selected version / cipher / extensions / alert
// behaviour) into one digest per (SNI, vantage, address family). Two
// servers sharing a digest run behaviourally indistinguishable TLS stacks;
// clustering vendors' backends by digest is the server-side dual of the
// paper's Table 4/5 client-fingerprint sharing.
//
// The battery is *normative*: docs/FINGERPRINTING.md carries the exact
// probe table, canonicalization grammar and hash rule, and a test
// cross-checks that document against standard_battery() — the fingerprint
// is reproducible from the doc alone.
//
// Surveys run on the survey engine (net/survey.hpp), all probes of one SNI
// in a fixed order (family-major, then vantage, then battery index), so a
// survey is byte-identical at any --jobs level, faults and budget included.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "net/internet.hpp"
#include "net/retry.hpp"
#include "net/survey.hpp"
#include "net/vantage.hpp"
#include "tls/clienthello.hpp"

namespace iotls::net {

/// One declarative battery entry: everything needed to build its
/// ClientHello. `extensions` lists the ordered extension type codes the
/// hello carries; codes with content (0 = SNI, 16 = ALPN from `alpn`,
/// 43 = supported_versions from `supported_versions`) get their payloads
/// from the spec, all others are sent empty. `grease` prepends 0x0a0a to
/// both the suite list and the extension list (RFC 8701; the value is
/// fixed, not rotated, so the battery bytes are deterministic).
struct ProbeSpec {
  std::string name;
  std::uint16_t legacy_version = 0x0303;
  std::vector<std::uint16_t> cipher_suites;
  std::vector<std::uint16_t> extensions;
  std::vector<std::uint16_t> supported_versions;
  std::vector<std::string> alpn;
  bool grease = false;

  /// The probe's ClientHello for `sni`. Deterministic: the hello random is
  /// derived from (probe name, sni), nothing else.
  tls::ClientHello build(const std::string& sni) const;
};

/// One battery entry's canonicalized outcome (docs/FINGERPRINTING.md §3):
///   "vvvv|cccc|eeee+eeee|proto"  ServerHello: selected version, cipher,
///                                extension codes in wire order ("-" when
///                                none), ALPN protocol ("-" when none)
///   "alert|N"                    fatal/warning alert, decimal description
///   "x|category"                 no server response: dns, connect,
///                                timeout, parse, or skipped (breaker)
struct ProbeObservation {
  std::string probe;      // ProbeSpec::name
  std::string canonical;
  int attempts = 1;       // connection attempts incl. retries; 0 = skipped
};

/// The battery's outcome at one (SNI, vantage, family).
struct StackFingerprint {
  VantagePoint vantage = VantagePoint::kNewYork;
  AddressFamily family = AddressFamily::kIPv4;
  /// Did any probe elicit a server response (ServerHello or alert)? False
  /// for v4-dark hosts and for v6 probes of v4-only servers.
  bool answered = false;
  std::vector<ProbeObservation> observations;  // battery order
  /// First 32 hex chars of SHA-256 over the ","-joined canonical strings.
  std::string digest;
  /// Leaf-certificate fingerprint from the first probe that served a
  /// chain; empty when none did. Feeds the dual-stack cert-divergence
  /// report without re-running the §5 harvester.
  std::string leaf_fp;
};

/// All fingerprints of one SNI: vantage-major map, families within.
struct ServerStackResult {
  std::string sni;
  std::map<VantagePoint, std::map<AddressFamily, StackFingerprint>> fingerprints;

  /// Lookup; nullptr when that (vantage, family) was not probed.
  const StackFingerprint* at(VantagePoint v, AddressFamily f) const;
};

/// Additive battery accounting (merged across shards in input order).
struct StackSurveySummary {
  std::size_t snis = 0;
  std::uint64_t probes = 0;    // battery entries attempted
  std::uint64_t attempts = 0;  // connection attempts incl. retries
  std::uint64_t retries = 0;
  std::uint64_t answered_probes = 0;
  std::uint64_t skipped_probes = 0;  // denied by an open breaker

  void merge(const StackSurveySummary& other);
};

struct StackSurvey {
  std::vector<ServerStackResult> results;  // input order
  StackSurveySummary summary;
};

/// Drives the battery against an Internet (the simulation, or a
/// FaultInjector wrapped around it). Mirrors TlsProber's configuration
/// surface: retry policy, per-(SNI, family) circuit breaker, injectable
/// clock, and jobs-sharded surveys with input-order merge.
class StackFingerprinter {
 public:
  explicit StackFingerprinter(const Internet& internet) : internet_(&internet) {}

  /// The normative K=10 battery of docs/FINGERPRINTING.md.
  static const std::vector<ProbeSpec>& standard_battery();

  /// Replace the battery (tests use 2-3 entry batteries; iotls_probe
  /// --battery=K sends a prefix of the standard one).
  void set_battery(std::vector<ProbeSpec> battery) {
    battery_ = std::move(battery);
  }
  const std::vector<ProbeSpec>& battery() const { return battery_; }

  /// Families probed per (SNI, vantage), in order. Default: IPv4 only.
  void set_families(std::vector<AddressFamily> families) {
    families_ = std::move(families);
  }
  const std::vector<AddressFamily>& families() const { return families_; }

  void set_retry_policy(const RetryPolicy& policy) { retry_ = policy; }
  /// Breaker keyed per (SNI, family) — a dark v6 frontend must not
  /// quarantine the v4 battery. failure_threshold 0 disables.
  void set_breaker(const BreakerConfig& config) { breaker_config_ = config; }
  void set_clock(Clock* clock) { clock_ = clock; }
  void set_jobs(int jobs) { jobs_ = jobs; }

  /// Run the battery at one (SNI, vantage, family); no breaker (that is
  /// survey-scoped).
  StackFingerprint fingerprint(const std::string& sni, VantagePoint vantage,
                               AddressFamily family) const;

  /// Full battery for one SNI: every configured family x all vantages.
  ServerStackResult fingerprint_server(const std::string& sni) const;

  /// Battery over a list of SNIs, sharded by distinct SNI when jobs > 1;
  /// byte-identical to the sequential walk at any jobs level.
  StackSurvey survey(const std::vector<std::string>& snis) const;

 private:
  /// The battery at one (SNI, vantage, family), gated and accounted by
  /// `shard`.
  StackFingerprint run_battery(const std::string& sni, VantagePoint vantage,
                               AddressFamily family,
                               SurveyShard<StackSurveySummary>& shard) const;
  /// The survey engine's per-SNI callback: every family x vantage.
  ServerStackResult survey_one(const std::string& sni,
                               SurveyShard<StackSurveySummary>& shard) const;

  const Internet* internet_;
  std::vector<ProbeSpec> battery_ = standard_battery();
  std::vector<AddressFamily> families_ = {AddressFamily::kIPv4};
  RetryPolicy retry_;
  BreakerConfig breaker_config_;
  Clock* clock_ = nullptr;
  int jobs_ = 1;
  mutable VirtualClock own_clock_;
};

}  // namespace iotls::net
