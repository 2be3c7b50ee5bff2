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

#include <algorithm>
#include <random>
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
#include "tls/record.hpp"
#include "util/dates.hpp"
#include "x509/authority.hpp"

#include "seed_maps.hpp"

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

// ------------------------------------------------- §4 block fold identity
//
// ClientDataset::append_events folds 4,096-event blocks: a parallel parse
// with read-only id lookups, an in-order intern of the misses, then one
// posting-list task per relation. The fleet below straddles three block
// boundaries, drops one event of each kind right at the first boundary, and
// keeps introducing new strings in every block, so a fold that interned out
// of order, lost a miss to a concurrent lookup or appended a relation out of
// order would differ from the jobs=1 single-call build somewhere.

namespace iotls::core {
namespace {

constexpr std::size_t kFoldBlock = 4096;
constexpr std::size_t kFoldEvents = 3 * kFoldBlock + 17;

devicesim::ClientHelloEvent fold_event(const std::string& device,
                                       const std::string& sni,
                                       std::size_t fp, std::int64_t day) {
  tls::ClientHello ch;
  ch.cipher_suites = {0xc02f, static_cast<std::uint16_t>(0x1301 + fp % 7),
                      static_cast<std::uint16_t>(0x0a00 + fp)};
  ch.extensions.push_back({10, {}});
  if (fp % 3 == 0) ch.extensions.push_back({11, {}});
  ch.set_sni(sni);
  Bytes msg = ch.encode();
  devicesim::ClientHelloEvent event;
  event.device_id = device;
  event.day = day;
  event.sni = sni;
  event.wire = tls::encode_records(tls::ContentType::kHandshake, 0x0303,
                                   BytesView(msg.data(), msg.size()));
  return event;
}

/// 3 x 4096 + 17 events whose device, vendor, user, SNI and fingerprint
/// universes grow through every block, with the three drop kinds at
/// positions 4095, 4096 and 4097.
const devicesim::FleetDataset& fold_fleet() {
  static const devicesim::FleetDataset fleet = [] {
    devicesim::FleetDataset f;
    constexpr std::size_t kDevices = 300;
    for (std::size_t d = 0; d < kDevices; ++d) {
      f.devices.push_back({"dev-" + std::to_string(d),
                           "Vendor" + std::to_string(d % 9),
                           "Type" + std::to_string(d % 4),
                           "user-" + std::to_string(d % 40)});
    }
    for (std::size_t k = 0; k < kFoldEvents; ++k) {
      // Each universe's bound grows with k, so first occurrences are spread
      // over all blocks and most strings recur within and after their block.
      std::size_t h = (k * 2654435761u) >> 7;
      std::size_t device = h % std::min(kDevices, 10 + k / 40);
      std::size_t sni = (k * k + 3 * k) % (5 + k / 60);
      std::size_t fp = (k * 31 + device) % (3 + k / 300);
      f.events.push_back(fold_event("dev-" + std::to_string(device),
                                    "host" + std::to_string(sni) + ".fold.example",
                                    fp, 18000 + static_cast<std::int64_t>(k % 90)));
    }
    // A string first seen just past a boundary, recurring in the same block
    // and in the next one.
    for (std::size_t k : {4098u, 4099u, 4200u, 8192u, 8193u}) {
      f.events[k] = fold_event("dev-7", "late.fold.example", 1000, 18000);
    }
    f.events[4095].device_id = "ghost";   // unknown device
    f.events[4096].wire = {0x16, 0x03};   // not a record stream
    tls::ClientHello ch;                  // records carrying no ClientHello
    Bytes body = ch.encode();
    Bytes server_hello = tls::encode_handshake(tls::HandshakeType::kServerHello,
                                               BytesView(body.data(), body.size()));
    f.events[4097].wire = tls::encode_records(
        tls::ContentType::kHandshake, 0x0303,
        BytesView(server_hello.data(), server_hello.size()));
    return f;
  }();
  return fleet;
}

/// Fold `fleet` in epochs cut at `cuts`, finalizing after each epoch as the
/// streaming ingest does.
ClientDataset fold_in_epochs(const devicesim::FleetDataset& fleet,
                             std::vector<std::size_t> cuts, int jobs,
                             bool retain = true) {
  ClientDataset ds;
  ds.set_retain_events(retain);
  cuts.push_back(fleet.events.size());
  std::size_t begin = 0;
  for (std::size_t end : cuts) {
    std::vector<devicesim::ClientHelloEvent> epoch(
        fleet.events.begin() + static_cast<std::ptrdiff_t>(begin),
        fleet.events.begin() + static_cast<std::ptrdiff_t>(end));
    ds.append_events(epoch, fleet.devices, {}, jobs);
    ds.finalize();
    begin = end;
  }
  return ds;
}

std::vector<std::string> strings_of(const Interner& in) {
  std::vector<std::string> out;
  for (std::uint32_t id = 0; id < in.size(); ++id) out.push_back(in.str(id));
  return out;
}

void expect_same_index(const ClientDataset& got, const ClientDataset& want) {
  const DatasetIndex& g = got.index();
  const DatasetIndex& w = want.index();
  EXPECT_EQ(strings_of(g.vendors()), strings_of(w.vendors()));
  EXPECT_EQ(strings_of(g.devices()), strings_of(w.devices()));
  EXPECT_EQ(strings_of(g.users()), strings_of(w.users()));
  EXPECT_EQ(strings_of(g.snis()), strings_of(w.snis()));
  EXPECT_EQ(strings_of(g.fps()), strings_of(w.fps()));
  EXPECT_EQ(g.fp_vendors(), w.fp_vendors());
  EXPECT_EQ(g.fp_devices(), w.fp_devices());
  EXPECT_EQ(g.fp_snis(), w.fp_snis());
  EXPECT_EQ(g.vendor_fps(), w.vendor_fps());
  EXPECT_EQ(g.device_fps(), w.device_fps());
  EXPECT_EQ(g.sni_devices(), w.sni_devices());
  EXPECT_EQ(g.sni_vendors(), w.sni_vendors());
  EXPECT_EQ(g.sni_fps(), w.sni_fps());
  EXPECT_EQ(g.sni_users(), w.sni_users());
  ASSERT_EQ(g.devices().size(), w.devices().size());
  for (std::uint32_t d = 0; d < w.devices().size(); ++d) {
    EXPECT_EQ(g.device_vendor(d), w.device_vendor(d)) << d;
  }
  ASSERT_EQ(g.fps().size(), w.fps().size());
  for (std::uint32_t f = 0; f < w.fps().size(); ++f) {
    EXPECT_EQ(g.fp_value(f), w.fp_value(f)) << f;
  }
  EXPECT_EQ(got.drop_counts().unknown_device, want.drop_counts().unknown_device);
  EXPECT_EQ(got.drop_counts().no_client_hello, want.drop_counts().no_client_hello);
  EXPECT_EQ(got.drop_counts().parse_error, want.drop_counts().parse_error);
}

void expect_same_dataset(const ClientDataset& got, const ClientDataset& want) {
  expect_same_index(got, want);
  ASSERT_EQ(got.events().size(), want.events().size());
  for (std::size_t i = 0; i < want.events().size(); ++i) {
    const ParsedEvent& g = got.events()[i];
    const ParsedEvent& w = want.events()[i];
    EXPECT_EQ(g.device_id, w.device_id) << i;
    EXPECT_EQ(g.vendor, w.vendor) << i;
    EXPECT_EQ(g.type, w.type) << i;
    EXPECT_EQ(g.user, w.user) << i;
    EXPECT_EQ(g.day, w.day) << i;
    EXPECT_EQ(g.sni, w.sni) << i;
    EXPECT_EQ(g.hello, w.hello) << i;
    EXPECT_EQ(g.fp, w.fp) << i;
    EXPECT_EQ(g.fp_key, w.fp_key) << i;
    EXPECT_EQ(g.device_ix, w.device_ix) << i;
    EXPECT_EQ(g.vendor_ix, w.vendor_ix) << i;
    EXPECT_EQ(g.user_ix, w.user_ix) << i;
    EXPECT_EQ(g.sni_ix, w.sni_ix) << i;
    EXPECT_EQ(g.fp_ix, w.fp_ix) << i;
  }
}

const ClientDataset& fold_reference() {
  static const ClientDataset ds = fold_in_epochs(fold_fleet(), {}, 1);
  return ds;
}

TEST(BlockFold, ReferenceDropsEachKindAtTheBoundary) {
  const ClientDataset& ref = fold_reference();
  EXPECT_EQ(ref.drop_counts().unknown_device, 1u);
  EXPECT_EQ(ref.drop_counts().parse_error, 1u);
  EXPECT_EQ(ref.drop_counts().no_client_hello, 1u);
  EXPECT_EQ(ref.events().size(), kFoldEvents - 3);
  // Every universe kept growing past the first block.
  const std::uint32_t late_sni = ref.index().snis().find("late.fold.example");
  ASSERT_NE(late_sni, Interner::kNone);
  EXPECT_EQ(ref.events()[4095].sni_ix, late_sni);  // event 4098, 3 drops before
  EXPECT_GT(ref.index().devices().size(), 200u);
  EXPECT_GT(ref.index().snis().size(), 150u);
  EXPECT_GT(ref.index().fps().size(), 30u);
}

TEST(BlockFold, IdenticalAtEveryJobsLevel) {
  for (int jobs : {2, 8}) {
    SCOPED_TRACE(jobs);
    expect_same_dataset(fold_in_epochs(fold_fleet(), {}, jobs), fold_reference());
  }
}

TEST(BlockFold, IdenticalUnderEpochSplits) {
  for (std::size_t cut : {1u, 4095u, 4096u, 4097u}) {
    SCOPED_TRACE(cut);
    expect_same_dataset(fold_in_epochs(fold_fleet(), {cut}, 4), fold_reference());
  }
  std::mt19937 rng(20231024);
  std::vector<std::size_t> cuts;
  for (int i = 0; i < 5; ++i) {
    cuts.push_back(std::uniform_int_distribution<std::size_t>(1, kFoldEvents - 1)(rng));
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  expect_same_dataset(fold_in_epochs(fold_fleet(), cuts, 2), fold_reference());
}

TEST(BlockFold, RetainEventsDoesNotChangeTheIndex) {
  ClientDataset lean = fold_in_epochs(fold_fleet(), {4096}, 8, false);
  EXPECT_TRUE(lean.events().empty());
  expect_same_index(lean, fold_reference());
}

TEST(BlockFold, IndexMatchesSeedMapsFromEvents) {
  const ClientDataset& ref = fold_reference();
  const DatasetIndex& ix = ref.index();
  const SeedMaps seed(ref);
  using SetMap = SeedMaps::SetMap;
  auto as_strings = [](const Interner& rows, const Interner& cols,
                       const std::vector<PostingList>& lists) {
    SetMap out;
    for (std::uint32_t r = 0; r < lists.size(); ++r) {
      for (std::uint32_t c : lists[r]) out[rows.str(r)].insert(cols.str(c));
    }
    return out;
  };
  EXPECT_EQ(as_strings(ix.fps(), ix.vendors(), ix.fp_vendors()), seed.fp_vendors);
  EXPECT_EQ(as_strings(ix.fps(), ix.snis(), ix.fp_snis()), seed.fp_snis);
  EXPECT_EQ(as_strings(ix.vendors(), ix.fps(), ix.vendor_fps()), seed.vendor_fps);
  EXPECT_EQ(as_strings(ix.devices(), ix.fps(), ix.device_fps()), seed.device_fps);
  EXPECT_EQ(as_strings(ix.snis(), ix.devices(), ix.sni_devices()), seed.sni_devices);
  EXPECT_EQ(as_strings(ix.snis(), ix.vendors(), ix.sni_vendors()), seed.sni_vendors);
  EXPECT_EQ(as_strings(ix.snis(), ix.fps(), ix.sni_fps()), seed.sni_fps);
  EXPECT_EQ(as_strings(ix.snis(), ix.users(), ix.sni_users()), seed.sni_users);
  std::map<std::string, std::string> device_vendor;
  for (std::uint32_t d = 0; d < ix.devices().size(); ++d) {
    device_vendor[ix.devices().str(d)] = ix.vendors().str(ix.device_vendor(d));
  }
  EXPECT_EQ(device_vendor, seed.device_vendor);
  ASSERT_EQ(ix.fps().size(), seed.fingerprints.size());
  for (const auto& [key, fp] : seed.fingerprints) {
    EXPECT_EQ(ix.fp_value(ix.fps().find(key)), fp) << key;
  }
  // Posting lists are sorted-unique after finalize.
  for (const PostingList& list : ix.sni_devices()) {
    EXPECT_TRUE(std::is_sorted(list.begin(), list.end()));
    EXPECT_EQ(std::adjacent_find(list.begin(), list.end()), list.end());
  }
}

}  // namespace
}  // namespace iotls::core
