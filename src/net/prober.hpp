// Active TLS prober — our analogue of the paper's certificate harvester
// (§5.1): connect to each SNI from each vantage point, record the served
// chain, cross-check consistency across locations.
//
// Resilience: probes retry transient failures (timeout/connect) under a
// configurable RetryPolicy with deterministic backoff, surveys enforce a
// global retry budget and a per-SNI circuit breaker, and every result is
// tagged transient vs persistent with its attempt count — so a survey under
// network chaos degrades gracefully into partial results plus an explicit
// degradation summary instead of silently undercounting reachability.
//
// Parallelism: survey()/survey_report() run on the survey engine
// (net/survey.hpp) — survey_one() is the per-SNI callback, sharded by
// distinct SNI across set_jobs(N) workers and merged in input order, so
// the parallel report is bit-identical to the sequential one.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "net/internet.hpp"
#include "net/probe_error.hpp"
#include "net/retry.hpp"
#include "net/survey.hpp"
#include "net/vantage.hpp"
#include "tls/serverhello.hpp"
#include "x509/certificate.hpp"
#include "x509/revocation.hpp"

namespace iotls::net {

/// Result of one probe (one SNI from one vantage point).
struct ProbeResult {
  std::string sni;
  VantagePoint vantage = VantagePoint::kNewYork;
  /// Address family the connection travelled over (kIPv4 unless the prober
  /// was pointed at IPv6 with TlsProber::set_family).
  AddressFamily family = AddressFamily::kIPv4;
  bool reachable = false;
  std::uint16_t negotiated_suite = 0;
  std::vector<x509::Certificate> chain;  // as served, leaf first
  std::optional<x509::OcspResponse> stapled;  // CertificateStatus, if sent
  ProbeError error = ProbeError::kNone;  // category, set when !reachable
  std::string error_detail;              // human-readable message

  /// Connection attempts made (>= 1 unless the breaker skipped the probe).
  int attempts = 1;
  /// Failure weather: true when the final category is retryable network
  /// weather (timeout/connect) — the host may well exist; false means the
  /// outcome is definitive (success, alert, parse, dns, skipped).
  bool transient = false;
  /// True when the circuit breaker quarantined the SNI and this probe was
  /// never attempted (error == kSkipped, attempts == 0).
  bool quarantined = false;

  /// The one way to build a breaker-skipped result. Pins the quarantine
  /// invariant — `quarantined` implies `error == kSkipped` AND
  /// `attempts == 0` (no connection was ever opened) — in a single place,
  /// instead of every survey path re-assembling the fields (and one of
  /// them inheriting the `attempts = 1` default, which contradicts the
  /// invariant documented above).
  static ProbeResult skipped_by_breaker(std::string sni, VantagePoint vantage);

  /// Legacy display string: the detail when present, else the category name;
  /// empty for a successful probe.
  std::string error_string() const {
    if (error == ProbeError::kNone) return {};
    return error_detail.empty() ? probe_error_name(error) : error_detail;
  }
};

/// Harvest of one SNI across all vantage points.
struct MultiVantageResult {
  std::string sni;
  std::map<VantagePoint, ProbeResult> by_vantage;

  /// Leaf fingerprints identical at every reachable vantage?
  ///
  /// Vacuous agreement is deliberate: with zero or one reachable vantage,
  /// or when reachable vantages served empty chains, there is no pair of
  /// leaves to disagree — the SNI counts as consistent (the paper's
  /// Table 16 likewise only counts *observed* cross-location differences).
  bool consistent_across_vantages() const;

  /// Majority failure category across failed vantages (ties broken in
  /// favour of New York, the paper's primary vantage; then by enum order).
  /// kNone when every vantage succeeded.
  ProbeError majority_error() const;

  /// Stage-span failure tag: majority_error()'s name when no vantage
  /// answered, empty otherwise.
  std::string failure_tag() const;
};

/// How a survey degraded under failure: the §5.1 funnel bookkeeping.
struct DegradationSummary {
  std::size_t snis = 0;             // surveyed
  std::size_t fully_reachable = 0;  // every vantage answered
  std::size_t degraded = 0;         // some, not all, vantages answered
  std::size_t unreachable = 0;      // no vantage answered
  std::size_t quarantined_snis = 0; // >=1 probe skipped by the breaker

  std::uint64_t attempts = 0;          // connection attempts, incl. retries
  std::uint64_t retries = 0;           // attempts beyond each probe's first
  std::uint64_t recovered_probes = 0;  // failed at least once, then succeeded
  std::uint64_t transient_failures = 0;   // probes lost to network weather
  std::uint64_t persistent_failures = 0;  // probes with definitive failures
  std::uint64_t skipped_probes = 0;       // probes denied by the breaker
  std::uint64_t budget_denied = 0;        // retries forgone: budget exhausted
  std::uint64_t backoff_ms_total = 0;     // virtual time slept between tries

  /// Fold another summary in (additive fields only). Used by the parallel
  /// survey executor to merge per-shard accounting; addition commutes, so
  /// the merged totals equal the sequential walk's regardless of shard
  /// completion order.
  void merge(const DegradationSummary& other);

  std::string to_string() const;
};

/// Survey output: per-SNI results plus the degradation accounting.
struct SurveyReport {
  std::vector<MultiVantageResult> results;
  DegradationSummary summary;
};

/// The prober drives full wire handshakes against an Internet (the
/// simulation itself, or a FaultInjector wrapped around it).
class TlsProber {
 public:
  explicit TlsProber(const Internet& internet) : internet_(&internet) {}

  /// Retry discipline for every probe. Default: single attempt (the
  /// historical fail-fast behaviour).
  void set_retry_policy(const RetryPolicy& policy) { retry_ = policy; }
  const RetryPolicy& retry_policy() const { return retry_; }

  /// Per-SNI circuit breaker used by survey(). Default: open after 3
  /// consecutive connectivity failures — which a distinct-SNI survey never
  /// notices (each SNI sees exactly 3 probes), but repeated passes over a
  /// dead host skip it. failure_threshold 0 disables quarantining.
  void set_breaker(const BreakerConfig& config) { breaker_config_ = config; }
  const BreakerConfig& breaker_config() const { return breaker_config_; }

  /// Address family every probe travels over. Default IPv4 — the §5
  /// pipeline's historical behaviour; set kIPv6 to walk the same survey
  /// over the v6 frontends (v4-only servers then report dns failures,
  /// "no AAAA record").
  void set_family(AddressFamily family) { family_ = family; }
  AddressFamily family() const { return family_; }

  /// Clock that backoff sleeps advance; defaults to an internal
  /// VirtualClock (instant, deterministic). Non-owning.
  void set_clock(Clock* clock) { clock_ = clock; }
  Clock& clock() const { return clock_ != nullptr ? *clock_ : own_clock_; }

  /// Worker threads for survey()/survey_report(). 1 (the default) walks
  /// the survey sequentially on the calling thread; N > 1 shards SNI
  /// groups across a work-stealing pool; 0 asks the hardware. A finite
  /// retry budget always walks sequentially (see net/survey.hpp). Whatever
  /// the value, the report is bit-identical to the sequential walk as long
  /// as the fault spec uses no outage windows (see README "Parallelism").
  void set_jobs(int jobs) { jobs_ = jobs; }
  int jobs() const { return jobs_; }

  /// Probe one SNI from one vantage point (retries per the policy; no
  /// budget, no breaker — those are survey-scoped).
  ProbeResult probe(const std::string& sni, VantagePoint vantage) const;

  /// Probe one SNI from all three vantage points.
  MultiVantageResult probe_all_vantages(const std::string& sni) const;

  /// Probe a list of SNIs from all vantage points.
  std::vector<MultiVantageResult> survey(const std::vector<std::string>& snis) const;

  /// survey() plus the degradation summary and breaker bookkeeping.
  SurveyReport survey_report(const std::vector<std::string>& snis) const;

  /// The survey engine's per-SNI callback: all vantage points in order,
  /// gated and accounted by `shard`.
  MultiVantageResult survey_one(const std::string& sni,
                                SurveyShard<DegradationSummary>& shard) const;

 private:
  /// One connection attempt, no retries — the seed prober's body.
  ProbeResult probe_once(const std::string& sni, VantagePoint vantage) const;
  /// Full retry loop. `budget` (nullable) is the survey's retry budget;
  /// `summary` (nullable) accumulates degradation stats.
  ProbeResult probe_with_retries(const std::string& sni, VantagePoint vantage,
                                 RetryBudget* budget,
                                 DegradationSummary* summary) const;

  const Internet* internet_;
  RetryPolicy retry_;
  BreakerConfig breaker_config_;
  AddressFamily family_ = AddressFamily::kIPv4;
  Clock* clock_ = nullptr;
  int jobs_ = 1;
  mutable VirtualClock own_clock_;
};

}  // namespace iotls::net
