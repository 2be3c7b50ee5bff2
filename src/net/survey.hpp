// The survey engine every probe walk runs on: TlsProber::survey_report,
// StackFingerprinter::survey and core::CertDataset::collect are per-SNI
// callbacks over run_survey(), byte-identical at every --jobs level.
// Occurrences group by distinct SNI; a group runs in input order with a
// fresh CircuitBreaker and summary partial, so its breaker history and the
// fault injector's per-(SNI, vantage) attempt counters replay exactly.
// Results and partials merge in input order. A finite retry budget is
// spent in walk order, so a budgeted survey walks on the calling thread.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "exec/pool.hpp"
#include "net/probe_error.hpp"
#include "net/retry.hpp"
#include "net/vantage.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace iotls::net {

/// A failed connection's category, and whether it is worth a retry.
struct NetFailure {
  ProbeError error = ProbeError::kConnect;
  bool transient = false;
};

/// The one NetError::Kind -> ProbeError classification. Timeouts and
/// refusals are transient; no route and kProtocol (filed as kConnect) are
/// definitive.
NetFailure classify(NetError::Kind kind);

/// Feed one probe outcome to a breaker: connectivity failures (dns,
/// timeout, connect) count toward opening it; any answer — success, a
/// fatal alert, even a garbled flight — proves a server is there.
void record_outcome(CircuitBreaker& breaker, const std::string& key,
                    ProbeError error);

/// What the attempt loop did for one (SNI, vantage) probe.
struct AttemptLog {
  int attempts = 0;              // connections opened (>= 1)
  std::uint64_t backoff_ms = 0;  // slept between them
  bool budget_denied = false;    // a wanted retry the budget refused
};

/// The attempt loop: run `once(attempt)` (1-based) until its outcome (with
/// a `transient` member) is definitive, max_attempts is reached or `budget`
/// (nullptr = unlimited) refuses; back off on `clock` before each retry.
template <typename Once>
auto with_retries(const RetryPolicy& policy, Clock& clock, RetryBudget* budget,
                  const std::string& sni, VantagePoint vantage, AttemptLog& log,
                  Once&& once) {
  const int max_attempts = policy.max_attempts < 1 ? 1 : policy.max_attempts;
  for (int attempt = 1;; ++attempt) {
    auto outcome = once(attempt);
    log.attempts = attempt;
    if (!outcome.transient || attempt == max_attempts) return outcome;
    if (budget != nullptr && !budget->try_acquire()) {
      log.budget_denied = true;
      return outcome;
    }
    const std::uint64_t backoff = policy.backoff_ms(attempt, sni, vantage);
    log.backoff_ms += backoff;
    clock.sleep_ms(backoff);
  }
}

/// One SNI group's private state, handed to the per-SNI callback.
template <typename Summary>
struct SurveyShard {
  CircuitBreaker breaker;
  Summary summary;                // this group's additive partial
  RetryBudget* budget = nullptr;  // the survey's budget; nullptr = unlimited
};

template <typename Result, typename Summary>
struct SurveyRun {
  std::vector<Result> results;      // input order
  Summary summary;                  // partials folded in input order
  CircuitBreaker::Counts breakers;  // summed over the groups' breakers
};

/// Input indices grouped by distinct SNI, groups in first-occurrence order.
std::vector<std::vector<std::size_t>> group_by_sni(
    const std::vector<std::string>& snis);

/// Run `probe_one(sni, shard)` for every occurrence in `snis` on `jobs`
/// workers (one when `retry.retry_budget` is finite). `Summary` needs an
/// `snis` count and an additive merge(); `failure_tag(result)` tags a
/// failed item on the `stage` span (empty = none); groups report as
/// "<stage>.shard".
template <typename Summary, typename ProbeOne, typename FailureTag>
auto run_survey(const std::vector<std::string>& snis, const std::string& stage,
                int jobs, const RetryPolicy& retry, const BreakerConfig& breaker,
                ProbeOne&& probe_one, FailureTag&& failure_tag) {
  using Result = std::decay_t<std::invoke_result_t<
      ProbeOne&, const std::string&, SurveyShard<Summary>&>>;
  auto span = obs::tracer().span(stage);

  const std::vector<std::vector<std::size_t>> groups = group_by_sni(snis);
  std::optional<RetryBudget> budget;
  if (retry.retry_budget != UINT64_MAX) budget.emplace(retry.retry_budget);

  SurveyRun<Result, Summary> run;
  run.results.resize(snis.size());
  std::vector<SurveyShard<Summary>> shards(
      groups.size(), SurveyShard<Summary>{CircuitBreaker(breaker), Summary{},
                                          budget ? &*budget : nullptr});
  const std::string shard_stage = stage + ".shard";
  exec::parallel_for(budget ? 1 : jobs, groups.size(), [&](std::size_t g) {
    auto shard_span = obs::tracer().span(shard_stage);
    for (std::size_t index : groups[g]) {
      run.results[index] = probe_one(snis[index], shards[g]);
      shard_span.add_items();
    }
  });

  run.summary.snis = snis.size();
  for (const SurveyShard<Summary>& shard : shards) {
    run.summary.merge(shard.summary);
    const CircuitBreaker::Counts counts = shard.breaker.counts();
    run.breakers.closed += counts.closed;
    run.breakers.open += counts.open;
    run.breakers.half_open += counts.half_open;
  }
  for (const Result& result : run.results) {
    span.add_items();
    const std::string tag = failure_tag(result);
    if (!tag.empty()) span.fail(tag);
  }
  return run;
}

}  // namespace iotls::net
