// Resilience policy for the probing pipeline (§5.1): retry discipline,
// deterministic backoff, and a per-SNI circuit breaker.
//
// Active-measurement studies must separate transient network failure from
// persistent unreachability before reporting reachability numbers (the
// paper's 1,194 SNIs -> 1,151 reachable funnel). The policy here retries
// only transient categories, backs off exponentially with *deterministic*
// jitter (derived from the seeded PRNG, so a survey replays byte-identically
// under the same seed), and quarantines hosts that keep failing so one dead
// fleet segment cannot stall a survey.
//
// Time never comes from the wall clock: backoff sleeps advance an injectable
// virtual Clock, which keeps tests instant and schedules reproducible.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "net/probe_error.hpp"
#include "net/vantage.hpp"

namespace iotls::net {

/// Injectable time source. The prober "sleeps" between attempts by
/// advancing the clock; the default VirtualClock makes that a no-op in
/// real time while keeping elapsed-time accounting exact.
class Clock {
 public:
  virtual ~Clock() = default;
  virtual std::uint64_t now_ms() const = 0;
  /// Sleep for `ms` milliseconds (virtually or actually).
  virtual void sleep_ms(std::uint64_t ms) = 0;
};

/// Simulated clock: sleeping advances `now` instantly. Deterministic, and
/// thread-safe: concurrent survey workers each add their span's backoff to
/// the shared virtual timeline, so the final reading is the same sum the
/// sequential walk produces regardless of interleaving.
class VirtualClock final : public Clock {
 public:
  std::uint64_t now_ms() const override {
    return now_ms_.load(std::memory_order_relaxed);
  }
  void sleep_ms(std::uint64_t ms) override {
    now_ms_.fetch_add(ms, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> now_ms_{0};
};

/// Retry discipline for one probe: how many attempts, how long between
/// them, and how much retrying a whole survey may do in total.
struct RetryPolicy {
  /// Total connection attempts per (SNI, vantage), including the first.
  /// 1 reproduces the historical single-attempt fail-fast prober.
  int max_attempts = 1;

  /// Backoff before retry k (k >= 1) is
  ///   min(base_backoff_ms * multiplier^(k-1) + jitter, max_backoff_ms)
  /// with jitter drawn deterministically in [0, base_backoff_ms) from
  /// (jitter_seed, sni, vantage, k). max_backoff_ms caps the returned
  /// delay, jitter included.
  std::uint64_t base_backoff_ms = 100;
  double multiplier = 2.0;
  std::uint64_t max_backoff_ms = 5000;
  std::uint64_t jitter_seed = 42;

  /// Survey-wide cap on *extra* attempts (retries). Once a survey has
  /// consumed the budget, remaining probes run single-attempt. Guards a
  /// survey of mostly-dead hosts against attempt amplification. UINT64_MAX
  /// is unlimited; a finite budget makes the survey walk sequentially.
  std::uint64_t retry_budget = UINT64_MAX;

  /// Only transient network categories are retried; definitive server
  /// behaviour (alert, parse, dns) never is.
  static bool retryable(ProbeError e) {
    return e == ProbeError::kTimeout || e == ProbeError::kConnect;
  }

  /// Deterministic backoff before retry `k` (1-based) of `sni`@`vantage`.
  std::uint64_t backoff_ms(int k, const std::string& sni, VantagePoint vantage) const;
};

/// Survey-wide retry allowance: a budget of K tokens permits exactly K
/// extra attempts across all (SNI, vantage) probes of one survey. A plain
/// counter — the survey engine spends a finite budget on one thread, in
/// input order (net/survey.hpp).
class RetryBudget {
 public:
  explicit RetryBudget(std::uint64_t tokens) : tokens_(tokens) {}

  /// Take one token; false when the budget is spent.
  bool try_acquire() {
    if (tokens_ == 0) return false;
    --tokens_;
    return true;
  }

  std::uint64_t remaining() const { return tokens_; }

 private:
  std::uint64_t tokens_;
};

/// Per-SNI circuit breaker configuration. `failure_threshold == 0`
/// disables the breaker entirely.
struct BreakerConfig {
  /// Consecutive connectivity failures (post-retry) that open the circuit.
  int failure_threshold = 3;
  /// Denied probes while open before a half-open trial probe is allowed.
  int cooldown_denials = 2;
};

/// Classic closed -> open -> half-open breaker, keyed by SNI.
///
/// Feed it *connectivity* outcomes only: a server that answers with a fatal
/// alert or garbage is reachable — record_success — while dns/timeout/
/// connect failures count toward opening. While open, allow() denies
/// probes (the survey marks them ProbeError::kSkipped) until
/// `cooldown_denials` denials have accumulated; the next probe is a
/// half-open trial whose outcome closes or re-opens the circuit.
class CircuitBreaker {
 public:
  enum class State { kClosed, kOpen, kHalfOpen };

  explicit CircuitBreaker(BreakerConfig config = {}) : config_(config) {}

  bool enabled() const { return config_.failure_threshold > 0; }

  /// May this SNI be probed right now? Denials while open count toward
  /// the cooldown; the call that ends the cooldown flips to half-open and
  /// admits the trial probe.
  bool allow(const std::string& sni);

  void record_success(const std::string& sni);
  void record_failure(const std::string& sni);

  State state(const std::string& sni) const;

  /// SNIs currently quarantined (open or half-open circuit).
  std::vector<std::string> quarantined() const;

  struct Counts {
    std::size_t closed = 0;
    std::size_t open = 0;
    std::size_t half_open = 0;
  };
  Counts counts() const;

 private:
  struct Entry {
    State state = State::kClosed;
    int consecutive_failures = 0;
    int denials = 0;  // while open, probes denied since opening
  };

  BreakerConfig config_;
  std::map<std::string, Entry> entries_;
};

}  // namespace iotls::net
