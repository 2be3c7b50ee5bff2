// The daemon's byte-identity contract: after folding epochs e1..eN, every
// dataset and report is byte-identical to a cold batch run over the
// concatenation e1 ‖ … ‖ eN — at any jobs level, with and without fault
// injection. Plus the epoch sources and the live HTTP surface.
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "corpus/corpus.hpp"
#include "devicesim/export.hpp"
#include "devicesim/fleet.hpp"
#include "devicesim/scenario.hpp"
#include "net/fault.hpp"
#include "obs/http_server.hpp"
#include "stream/daemon.hpp"
#include "stream/ingest.hpp"
#include "stream/reports.hpp"
#include "stream/source.hpp"

namespace iotls::stream {
namespace {

devicesim::FleetDataset small_fleet(int users, bool cover_all_snis = true) {
  devicesim::FleetConfig config;
  config.users = users;
  config.cover_all_snis = cover_all_snis;
  return devicesim::generate_fleet(config, corpus::LibraryCorpus::standard(),
                                   devicesim::ServerUniverse::standard());
}

std::string render(const std::string& name, StreamIngest& ingest) {
  auto doc = render_report(name, ingest);
  return doc.has_value() ? doc->dump() : "<unknown report>";
}

// ------------------------------------------------ epoch-prefix identity

TEST(StreamIngestTest, ClientReportsMatchColdBatchAtEveryEpochPrefix) {
  devicesim::FleetDataset fleet = small_fleet(30);
  const std::vector<std::string> reports = {"table02", "table03", "table04",
                                            "table05"};
  for (int jobs : {1, 8}) {
    IngestConfig config;
    config.jobs = jobs;
    StreamIngest streamed(fleet.devices, config);
    ReplaySource source(fleet.events, 4);
    std::vector<devicesim::ClientHelloEvent> prefix;
    while (auto batch = source.next_epoch()) {
      prefix.insert(prefix.end(), batch->events.begin(), batch->events.end());
      streamed.fold_epoch(batch->events);

      // Cold batch over the same prefix: one degenerate epoch.
      StreamIngest cold(fleet.devices, config);
      cold.fold_epoch(prefix);

      ASSERT_EQ(streamed.client().events().size(),
                cold.client().events().size());
      ASSERT_EQ(streamed.client().dropped_events(),
                cold.client().dropped_events());
      for (const std::string& name : reports) {
        EXPECT_EQ(render(name, streamed), render(name, cold))
            << name << " diverged at epoch " << streamed.epoch()
            << " with jobs=" << jobs;
      }
    }
    EXPECT_EQ(streamed.epoch(), 4u);
    EXPECT_EQ(streamed.events_ingested(), fleet.events.size());
  }
}

TEST(StreamIngestTest, CertReportsMatchColdBatchWithAndWithoutFaults) {
  devicesim::FleetDataset fleet = small_fleet(8, /*cover_all_snis=*/false);
  const std::vector<std::string> reports = {"certs", "chains", "issuers", "ct"};
  // Outage windows are deliberately absent: they key on global per-vantage
  // connection counters, which are order-dependent by design (see
  // net/fault.hpp); per-(SNI,vantage,attempt) fault draws are not.
  for (const std::string& spec : {std::string(), std::string("seed=7,timeout=0.2")}) {
    for (int jobs : {1, 8}) {
      // At min_users=2 an SNI can cross the threshold in a later epoch; the
      // streamed side then probes it fresh next to memoized neighbours.
      for (std::size_t min_users : {1, 2}) {
        IngestConfig config;
        config.jobs = jobs;
        config.certs = true;
        config.min_users = min_users;
        if (!spec.empty()) config.fault = net::FaultSpec::parse(spec);
        StreamIngest streamed(fleet.devices, config);
        ReplaySource source(fleet.events, 3);
        std::vector<devicesim::ClientHelloEvent> prefix;
        std::set<std::string> below;  // seen SNIs not collected last epoch
        std::size_t crossed = 0;
        while (auto batch = source.next_epoch()) {
          prefix.insert(prefix.end(), batch->events.begin(),
                        batch->events.end());
          streamed.fold_epoch(batch->events);

          StreamIngest cold(fleet.devices, config);
          cold.fold_epoch(prefix);

          ASSERT_NE(streamed.certs(), nullptr);
          ASSERT_NE(cold.certs(), nullptr);
          ASSERT_EQ(streamed.certs()->records().size(),
                    cold.certs()->records().size());
          for (const std::string& name : reports) {
            EXPECT_EQ(render(name, streamed), render(name, cold))
                << name << " diverged at epoch " << streamed.epoch()
                << " with jobs=" << jobs << " fault=\"" << spec
                << "\" min_users=" << min_users;
          }

          std::set<std::string> collected;
          for (const core::SniRecord& record : streamed.certs()->records()) {
            collected.insert(record.sni);
            crossed += below.count(record.sni);
          }
          below.clear();
          const core::Interner& snis = streamed.client().index().snis();
          for (std::uint32_t sni = 0; sni < snis.size(); ++sni) {
            if (collected.count(snis.str(sni)) == 0) below.insert(snis.str(sni));
          }
        }
        if (min_users == 2) {
          // Non-vacuous: the threshold keeps some SNIs, drops others, and
          // at least one SNI crossed it between epochs.
          EXPECT_FALSE(streamed.certs()->records().empty());
          EXPECT_FALSE(below.empty());
          EXPECT_GT(crossed, 0u);
        }
      }
    }
  }
}

// ---------------------------------------------------------- ReplaySource

TEST(ReplaySourceTest, PartitionsEventsIntoContiguousSlices) {
  std::vector<devicesim::ClientHelloEvent> events(10);
  for (std::size_t i = 0; i < events.size(); ++i) {
    events[i].device_id = "d" + std::to_string(i);
  }
  ReplaySource source(events, 3);
  std::vector<std::size_t> sizes;
  std::vector<devicesim::ClientHelloEvent> seen;
  while (auto batch = source.next_epoch()) {
    sizes.push_back(batch->events.size());
    seen.insert(seen.end(), batch->events.begin(), batch->events.end());
  }
  ASSERT_EQ(sizes.size(), 3u);
  // Even slices, the final epoch absorbing the remainder.
  EXPECT_EQ(sizes[0], 3u);
  EXPECT_EQ(sizes[1], 3u);
  EXPECT_EQ(sizes[2], 4u);
  ASSERT_EQ(seen.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(seen[i].device_id, events[i].device_id) << "order changed";
  }
  EXPECT_FALSE(source.next_epoch().has_value()) << "drained source yielded";
}

TEST(ReplaySourceTest, EpochCountIsClampedToEventCount) {
  std::vector<devicesim::ClientHelloEvent> events(4);
  EXPECT_EQ(ReplaySource(events, 0).epochs(), 1u);
  EXPECT_EQ(ReplaySource(events, 99).epochs(), 4u);
  ReplaySource empty({}, 5);
  EXPECT_FALSE(empty.next_epoch().has_value());
}

// ------------------------------------------------------------ TailSource

TEST(TailSourceTest, FollowsAppendsAndLeavesPartialLinesPending) {
  devicesim::FleetDataset fleet = small_fleet(3, /*cover_all_snis=*/false);
  std::istringstream csv(devicesim::export_events_csv(fleet));
  std::vector<std::string> lines;
  for (std::string line; std::getline(csv, line);) lines.push_back(line);
  ASSERT_GE(lines.size(), 6u) << "fixture fleet too small";

  std::string path = testing::TempDir() + "/stream_tail_events.csv";
  auto append = [&](const std::string& text) {
    std::ofstream out(path, std::ios::app | std::ios::binary);
    out << text;
  };
  std::remove(path.c_str());

  // Header + two complete rows.
  append(lines[0] + "\n" + lines[1] + "\n" + lines[2] + "\n");
  TailSource tail(path);
  auto batch = tail.next_epoch();
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(batch->events.size(), 2u);

  // A writer mid-append: the partial row must wait for its newline.
  std::string half = lines[3].substr(0, lines[3].size() / 2);
  append(half);
  EXPECT_FALSE(tail.next_epoch().has_value());

  // Completing the row — plus a junk line, which is counted, not fatal —
  // yields the two real events.
  append(lines[3].substr(half.size()) + "\nthis,is,junk\n" + lines[4] + "\n");
  batch = tail.next_epoch();
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(batch->events.size(), 2u);
  EXPECT_EQ(batch->events[0].sni, fleet.events[2].sni);
  EXPECT_EQ(tail.malformed_rows(), 1u);

  EXPECT_FALSE(tail.next_epoch().has_value()) << "no growth, no epoch";
  std::remove(path.c_str());
}

// ---------------------------------------------------------- SurveyDaemon

TEST(SurveyDaemonTest, ServesLiveReportsByteIdenticalToBatch) {
  devicesim::FleetDataset fleet = small_fleet(20);
  IngestConfig config;
  config.jobs = 2;
  SurveyDaemon daemon(fleet.devices, config);
  std::string error;
  ASSERT_TRUE(daemon.start(0, &error)) << error;

  // Before the first fold, reports answer 503, not garbage.
  std::string body;
  EXPECT_EQ(obs::http_get(daemon.port(), "/report/table02", &body), 503);
  EXPECT_NE(body.find("no epoch folded yet"), std::string::npos);

  ReplaySource source(fleet.events, 3);
  EXPECT_EQ(daemon.drain(source), 3u);

  StreamIngest cold(fleet.devices, config);
  cold.fold_epoch(fleet.events);

  for (const std::string name : {"table02", "table03", "table04", "table05"}) {
    ASSERT_EQ(obs::http_get(daemon.port(), "/report/" + name, &body), 200);
    EXPECT_EQ(body, render_report(name, cold)->dump() + "\n")
        << "/report/" << name << " is not the batch bytes";
  }

  ASSERT_EQ(obs::http_get(daemon.port(), "/epoch", &body), 200);
  EXPECT_NE(body.find("\"epoch\":3"), std::string::npos) << body;
  EXPECT_NE(body.find("\"certs\":false"), std::string::npos) << body;

  // Cert-mode reports on a client-only daemon explain themselves.
  EXPECT_EQ(obs::http_get(daemon.port(), "/report/certs", &body), 503);
  EXPECT_NE(body.find("--certs"), std::string::npos) << body;
  EXPECT_EQ(obs::http_get(daemon.port(), "/report/nonsense", &body), 404);

  daemon.stop();
}

}  // namespace
}  // namespace iotls::stream
