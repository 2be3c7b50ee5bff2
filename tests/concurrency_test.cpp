// Concurrency suite (ctest label: concurrency) — run it under TSan via the
// `tsan` preset / scripts/check_robustness.sh.
//
// Two properties are pinned here:
//  1. Determinism: a survey at --jobs 8 serializes to the byte-identical
//     report of the --jobs 1 walk, including under 20% injected timeouts
//     with retries — and so do the §4 dataset build and corpus matching.
//  2. Budget exactness: a retry budget of K spends exactly K tokens
//     survey-wide at any jobs level, and a survey that exhausts it is
//     byte-identical to the --jobs 1 walk; breaker-skipped probes keep
//     the quarantine invariant (attempts == 0) on every shard.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/dataset.hpp"
#include "core/library_match.hpp"
#include "devicesim/fleet.hpp"
#include "devicesim/scenario.hpp"
#include "net/fault.hpp"
#include "net/internet.hpp"
#include "net/prober.hpp"
#include "net/retry.hpp"
#include "net/survey_json.hpp"
#include "util/dates.hpp"
#include "x509/authority.hpp"

namespace iotls::net {
namespace {

x509::CertificateAuthority concurrency_ca() {
  return x509::CertificateAuthority::make_root("Concurrency CA", "Concurrency",
                                               x509::CaKind::kPublicTrust, 15000,
                                               30000);
}

SimServer make_server(const std::string& sni, const x509::CertificateAuthority& ca,
                      bool reachable = true) {
  SimServer server;
  server.sni = sni;
  server.ips = {"203.0.113.9"};
  x509::IssueRequest req;
  req.subject.common_name = sni;
  req.san_dns = {sni};
  req.not_before = 18000;
  req.not_after = 19500;
  server.default_chain = {ca.issue(req), ca.certificate()};
  server.reachable = reachable;
  return server;
}

struct Fleet {
  SimInternet internet;
  std::vector<std::string> snis;
};

Fleet make_fleet(std::size_t n, const x509::CertificateAuthority& ca) {
  Fleet fleet;
  for (std::size_t i = 0; i < n; ++i) {
    std::string sni = "host" + std::to_string(i) + ".conc.example.com";
    fleet.internet.add_server(make_server(sni, ca));
    fleet.snis.push_back(std::move(sni));
  }
  return fleet;
}

// ------------------------------------------------- survey determinism

TEST(ParallelSurvey, ByteIdenticalToSequentialUnderTwentyPercentFaults) {
  auto ca = concurrency_ca();
  Fleet fleet = make_fleet(48, ca);

  FaultSpec spec;
  spec.seed = 42;
  spec.timeout_rate = 0.20;
  spec.garble_rate = 0.05;  // exercises arbitrary-byte error_detail too

  RetryPolicy retry;
  retry.max_attempts = 4;
  retry.base_backoff_ms = 50;

  auto run = [&](int jobs) {
    // Fresh injector per run: per-(SNI, vantage, attempt) fault streams are
    // order-independent, but the injector's attempt counters must start
    // from zero for each run to be a replay.
    FaultInjector injector(fleet.internet, spec);
    TlsProber prober(injector);
    prober.set_retry_policy(retry);
    prober.set_jobs(jobs);
    return survey_report_dump(prober.survey_report(fleet.snis));
  };

  const std::string sequential = run(1);
  const std::string parallel = run(8);
  EXPECT_EQ(parallel, sequential);

  // And a parallel run replays itself.
  EXPECT_EQ(run(8), parallel);
}

TEST(ParallelSurvey, ByteIdenticalOnCleanFleetWithDuplicatesAndDeadHosts) {
  auto ca = concurrency_ca();
  Fleet fleet = make_fleet(20, ca);
  fleet.internet.add_server(make_server("dead.conc.example.com", ca, false));
  // Duplicates and a dead host exercise breaker history within one shard.
  std::vector<std::string> snis = fleet.snis;
  snis.push_back("dead.conc.example.com");
  snis.insert(snis.end(), fleet.snis.begin(), fleet.snis.end());
  snis.push_back("dead.conc.example.com");
  snis.push_back("dead.conc.example.com");

  RetryPolicy retry;
  retry.max_attempts = 3;
  retry.base_backoff_ms = 10;

  auto run = [&](int jobs) {
    TlsProber prober(fleet.internet);
    prober.set_retry_policy(retry);
    prober.set_breaker(BreakerConfig{2, 1000});
    prober.set_jobs(jobs);
    return survey_report_dump(prober.survey_report(snis));
  };

  EXPECT_EQ(run(8), run(1));
}

// ------------------------------------------------- budget exactness

TEST(ParallelSurvey, BudgetSpendsExactlyKTokensAcrossWorkers) {
  auto ca = concurrency_ca();
  SimInternet internet;
  std::vector<std::string> snis;
  for (int i = 0; i < 16; ++i) {
    std::string sni = "dark" + std::to_string(i) + ".conc.example.com";
    internet.add_server(make_server(sni, ca, false));
    snis.push_back(std::move(sni));
  }

  RetryPolicy retry;
  retry.max_attempts = 4;  // each probe wants 3 retries; demand >> budget
  retry.base_backoff_ms = 0;
  retry.retry_budget = 7;

  TlsProber prober(internet);
  prober.set_retry_policy(retry);
  prober.set_breaker(BreakerConfig{0, 2});  // isolate the budget effect
  prober.set_jobs(8);

  SurveyReport report = prober.survey_report(snis);
  // Never K-1, never K+1, no unsigned wraparound: exactly 7 retries, so
  // exactly 16*3 first attempts + 7 = 55 connections.
  EXPECT_EQ(report.summary.retries, 7u);
  EXPECT_EQ(report.summary.attempts, 16u * 3u + 7u);
  EXPECT_GT(report.summary.budget_denied, 0u);
}

TEST(ParallelSurvey, ZeroBudgetMeansZeroRetriesOnEveryWorker) {
  auto ca = concurrency_ca();
  SimInternet internet;
  std::vector<std::string> snis;
  for (int i = 0; i < 8; ++i) {
    std::string sni = "dark" + std::to_string(i) + ".conc.example.com";
    internet.add_server(make_server(sni, ca, false));
    snis.push_back(std::move(sni));
  }
  RetryPolicy retry;
  retry.max_attempts = 4;
  retry.base_backoff_ms = 0;
  retry.retry_budget = 0;
  TlsProber prober(internet);
  prober.set_retry_policy(retry);
  prober.set_breaker(BreakerConfig{0, 2});
  prober.set_jobs(8);

  SurveyReport report = prober.survey_report(snis);
  EXPECT_EQ(report.summary.retries, 0u);
  EXPECT_EQ(report.summary.attempts, 8u * 3u);
  EXPECT_GT(report.summary.budget_denied, 0u);
}

TEST(ParallelSurvey, ExhaustingBudgetIsByteIdenticalAcrossJobs) {
  // Which probe gets the last token depends on walk order, so a survey
  // whose budget runs out mid-walk must spend it exactly as --jobs 1 does.
  auto ca = concurrency_ca();
  Fleet fleet = make_fleet(64, ca);
  const FaultSpec spec = FaultSpec::parse("seed=7,timeout=0.2");

  RetryPolicy retry;
  retry.max_attempts = 4;
  retry.base_backoff_ms = 10;
  retry.retry_budget = 12;  // demand is several times this

  auto run = [&](int jobs) {
    FaultInjector injector(fleet.internet, spec);
    TlsProber prober(injector);
    prober.set_retry_policy(retry);
    prober.set_jobs(jobs);
    return prober.survey_report(fleet.snis);
  };

  const SurveyReport sequential = run(1);
  ASSERT_EQ(sequential.summary.retries, 12u);
  ASSERT_GT(sequential.summary.budget_denied, 0u);
  const std::string want = survey_report_dump(sequential);
  for (int repeat = 0; repeat < 5; ++repeat) {
    // A bool check: a mismatch would otherwise print two full dumps.
    EXPECT_TRUE(survey_report_dump(run(8)) == want) << "repeat " << repeat;
  }
}

// ------------------------------------------------- quarantine invariant

TEST(ParallelSurvey, QuarantinedProbesKeepAttemptsZeroOnEveryShard) {
  auto ca = concurrency_ca();
  Fleet fleet = make_fleet(6, ca);
  std::vector<std::string> snis;
  for (int d = 0; d < 6; ++d) {
    std::string sni = "dead" + std::to_string(d) + ".conc.example.com";
    fleet.internet.add_server(make_server(sni, ca, false));
    // Three occurrences each: occurrence one opens the breaker, the rest
    // are quarantined inside the same shard.
    for (int k = 0; k < 3; ++k) snis.push_back(sni);
  }
  snis.insert(snis.end(), fleet.snis.begin(), fleet.snis.end());

  TlsProber prober(fleet.internet);
  prober.set_breaker(BreakerConfig{2, 1000});
  prober.set_jobs(8);

  SurveyReport report = prober.survey_report(snis);
  std::size_t quarantined = 0;
  for (const MultiVantageResult& multi : report.results) {
    for (const auto& [vantage, probe] : multi.by_vantage) {
      if (!probe.quarantined) continue;
      ++quarantined;
      EXPECT_EQ(probe.error, ProbeError::kSkipped) << probe.sni;
      EXPECT_EQ(probe.attempts, 0) << probe.sni;
    }
  }
  EXPECT_GT(quarantined, 0u);
  EXPECT_EQ(report.summary.skipped_probes, quarantined);
}

// ------------------------------------------------- §4 analysis parallelism

TEST(ParallelAnalysis, DatasetAndCorpusMatchEqualSequential) {
  devicesim::FleetConfig cfg;
  cfg.users = 30;  // small fleet: the suite also runs under TSan
  auto corpus = corpus::LibraryCorpus::standard();
  auto universe = devicesim::ServerUniverse::standard();
  devicesim::FleetDataset fleet = devicesim::generate_fleet(cfg, corpus, universe);

  auto seq = core::ClientDataset::from_fleet(fleet, {}, 1);
  auto par = core::ClientDataset::from_fleet(fleet, {}, 8);

  ASSERT_EQ(par.events().size(), seq.events().size());
  for (std::size_t i = 0; i < seq.events().size(); ++i) {
    EXPECT_EQ(par.events()[i].device_id, seq.events()[i].device_id);
    EXPECT_EQ(par.events()[i].fp_key, seq.events()[i].fp_key);
    EXPECT_EQ(par.events()[i].sni, seq.events()[i].sni);
  }
  EXPECT_EQ(par.drop_counts().total(), seq.drop_counts().total());
  // Interned ids are first-seen ordered, so equal interners and equal
  // posting lists mean equal relations between the same strings.
  const core::DatasetIndex& pix = par.index();
  const core::DatasetIndex& six = seq.index();
  auto same_strings = [](const core::Interner& a, const core::Interner& b) {
    if (a.size() != b.size()) return false;
    for (std::uint32_t id = 0; id < a.size(); ++id) {
      if (a.str(id) != b.str(id)) return false;
    }
    return true;
  };
  EXPECT_TRUE(same_strings(pix.fps(), six.fps()));
  EXPECT_TRUE(same_strings(pix.vendors(), six.vendors()));
  EXPECT_TRUE(same_strings(pix.snis(), six.snis()));
  EXPECT_EQ(pix.fp_vendors(), six.fp_vendors());
  EXPECT_EQ(pix.vendor_fps(), six.vendor_fps());
  EXPECT_EQ(pix.sni_fps(), six.sni_fps());
  EXPECT_EQ(pix.fp_snis(), six.fp_snis());
  ASSERT_EQ(pix.fps().size(), six.fps().size());

  const std::int64_t ref_day = days(2020, 8, 1);
  auto match_seq = core::match_against_corpus(seq, corpus, ref_day, 1);
  auto match_par = core::match_against_corpus(par, corpus, ref_day, 8);
  EXPECT_EQ(match_par.total_fingerprints, match_seq.total_fingerprints);
  EXPECT_EQ(match_par.matched_libraries, match_seq.matched_libraries);
  EXPECT_EQ(match_par.unsupported_libraries, match_seq.unsupported_libraries);
  ASSERT_EQ(match_par.matches.size(), match_seq.matches.size());
  for (std::size_t i = 0; i < match_seq.matches.size(); ++i) {
    EXPECT_EQ(match_par.matches[i].fp_key, match_seq.matches[i].fp_key);
    EXPECT_EQ(match_par.matches[i].library, match_seq.matches[i].library);
    EXPECT_EQ(match_par.matches[i].supported, match_seq.matches[i].supported);
    EXPECT_EQ(match_par.matches[i].device_count,
              match_seq.matches[i].device_count);
  }
}

}  // namespace
}  // namespace iotls::net
