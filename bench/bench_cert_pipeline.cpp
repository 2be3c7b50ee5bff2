// §5 certificate-pipeline performance suite (google-benchmark): the
// EXPERIMENTS.md before/after numbers come from here.
//
// Synthetic survey at the acceptance scale: 1,100 SNIs served from one
// public root through 50 shared intermediates, every leaf shared by 5 SNIs
// (220 distinct certificates). Three configurations of the §5.2–§5.4
// analyses (chain validation, issuer matrix/report, CT report) run over the
// identical dataset:
//
//   seed_stringmap      the pre-index path: sequential, signature edges
//                       re-verified per SNI, leaf fingerprints re-hashed
//                       (SHA-256 over the full encoding) per use, analyses
//                       joined through string-keyed maps;
//   interned_jobs1      the CertIndex path with a ValidationCache — each
//                       distinct certificate verified and hashed once;
//   interned_jobs8      the same with --jobs 8.
//
// seed_stringmap runs tests/seed_certs.hpp, the restatement that
// test_cert_pipeline holds the other two byte-identical to; this suite
// only measures.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "core/cert_dataset.hpp"
#include "core/chains.hpp"
#include "core/ct_validity.hpp"
#include "core/dataset.hpp"
#include "core/issuers.hpp"
#include "devicesim/fleet.hpp"
#include "devicesim/scenario.hpp"
#include "net/internet.hpp"
#include "tls/clienthello.hpp"
#include "tls/record.hpp"
#include "util/dates.hpp"
#include "x509/authority.hpp"
#include "x509/validation.hpp"

#include "seed_certs.hpp"

using namespace iotls;

namespace {

constexpr int kGroups = 220;        // distinct leaf certificates
constexpr int kShare = 5;           // SNIs per leaf -> 1,100 SNIs
constexpr int kIntermediates = 50;  // shared issuing intermediates
constexpr int kVendors = 16;
const std::int64_t kProbeDay = days(2022, 4, 15);

/// The synthetic world plus the client dataset pointing at it, built once.
struct Synthetic {
  devicesim::SimWorld world;
  core::ClientDataset client;
  core::CertDataset certs;

  static const Synthetic& get() {
    static Synthetic s;
    return s;
  }

 private:
  Synthetic() {
    auto root = x509::CertificateAuthority::make_root(
        "Synthetic Root CA", "SyntheticPKI", x509::CaKind::kPublicTrust, 0, 40000);
    root.publish_key(world.keys);
    x509::TrustStore store("bench");
    store.add_root(root.certificate());
    world.trust.add(std::move(store));
    world.issuer_is_public["SyntheticPKI"] = true;

    std::vector<x509::CertificateAuthority> icas;
    icas.reserve(kIntermediates);
    for (int i = 0; i < kIntermediates; ++i) {
      icas.push_back(root.subordinate("Synthetic ICA " + std::to_string(i),
                                      0, 40000, "SyntheticPKI"));
      icas.back().publish_key(world.keys);
    }

    auto log = std::make_unique<ct::CtLog>("bench-log");
    devicesim::FleetDataset fleet;
    fleet.users = {"u1", "u2"};
    for (int v = 0; v < kVendors; ++v) {
      fleet.devices.push_back({"dev-" + std::to_string(v),
                               "Vendor" + std::to_string(v), "Widget",
                               v % 2 ? "u1" : "u2"});
    }

    std::vector<std::string> snis;
    for (int g = 0; g < kGroups; ++g) {
      const x509::CertificateAuthority& ica = icas[g % kIntermediates];
      x509::IssueRequest req;
      req.subject.common_name = "g" + std::to_string(g) + ".bench.example.com";
      req.san_dns = {"*.g" + std::to_string(g) + ".bench.example.com"};
      req.not_before = 18000;
      req.not_after = 19000;
      x509::Certificate leaf = ica.issue(req);
      log->submit(leaf, 18100);

      for (int k = 0; k < kShare; ++k) {
        net::SimServer server;
        server.sni = "s" + std::to_string(k) + ".g" + std::to_string(g) +
                     ".bench.example.com";
        server.ips = {"198.51.100." + std::to_string((g * kShare + k) % 251)};
        server.default_chain = {leaf, ica.certificate()};
        snis.push_back(server.sni);
        world.internet.add_server(std::move(server));
      }
    }
    world.ct_index.add_log(log.get());
    world.logs.push_back(std::move(log));

    // Two devices contact each SNI: one ClientHello event per (SNI, device).
    for (std::size_t i = 0; i < snis.size(); ++i) {
      for (int d : {static_cast<int>(i) % kVendors,
                    static_cast<int>(i + 7) % kVendors}) {
        tls::ClientHello ch;
        ch.legacy_version = 0x0303;
        ch.cipher_suites = {0x1301, 0xc02f, 0x009c};
        ch.extensions.push_back({10, {}});
        ch.set_sni(snis[i]);
        Bytes msg = ch.encode();
        devicesim::ClientHelloEvent e;
        e.device_id = "dev-" + std::to_string(d);
        e.day = days(2019, 7, 1);
        e.sni = snis[i];
        e.wire = tls::encode_records(tls::ContentType::kHandshake, 0x0303,
                                     BytesView(msg.data(), msg.size()));
        fleet.events.push_back(std::move(e));
      }
    }

    client = core::ClientDataset::from_fleet(fleet);
    certs = core::CertDataset::collect(client, world);
  }
};

// ------------------------------------------------------------ benchmarks

void BM_Analyses_SeedStringMap(benchmark::State& state) {
  const Synthetic& s = Synthetic::get();
  const core::SeedMaps seed(s.client);  // the seed's membership sets
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::ref_validate_dataset(s.certs, seed, s.world, kProbeDay));
    benchmark::DoNotOptimize(
        core::ref_issuer_matrix(s.certs, seed, s.world.issuer_is_public));
    benchmark::DoNotOptimize(
        core::ref_issuer_report(s.certs, seed, s.world.issuer_is_public));
    benchmark::DoNotOptimize(core::ref_ct_report(s.certs, seed, s.world));
  }
  state.counters["snis"] = kGroups * kShare;
}
BENCHMARK(BM_Analyses_SeedStringMap)->Unit(benchmark::kMillisecond);

void run_interned(benchmark::State& state, int jobs) {
  const Synthetic& s = Synthetic::get();
  for (auto _ : state) {
    x509::ValidationCache cache;  // cold per iteration, like one survey run
    benchmark::DoNotOptimize(
        core::validate_dataset(s.certs, s.world, kProbeDay, jobs, &cache));
    benchmark::DoNotOptimize(core::issuer_matrix(s.certs, s.world.issuer_is_public));
    benchmark::DoNotOptimize(core::issuer_report(s.certs, s.world.issuer_is_public));
    benchmark::DoNotOptimize(core::ct_report(s.certs, s.world, jobs));
  }
  state.counters["snis"] = kGroups * kShare;
}

void BM_Analyses_InternedCached_Jobs1(benchmark::State& state) {
  run_interned(state, 1);
}
BENCHMARK(BM_Analyses_InternedCached_Jobs1)->Unit(benchmark::kMillisecond);

void BM_Analyses_InternedCached_Jobs8(benchmark::State& state) {
  run_interned(state, 8);
}
BENCHMARK(BM_Analyses_InternedCached_Jobs8)->Unit(benchmark::kMillisecond);

void run_collect(benchmark::State& state, int jobs) {
  const Synthetic& s = Synthetic::get();
  for (auto _ : state) {
    x509::ValidationCache cache;
    benchmark::DoNotOptimize(
        core::CertDataset::collect(s.client, s.world, 1, jobs, &cache));
  }
  state.counters["snis"] = kGroups * kShare;
}

void BM_Collect_Jobs1(benchmark::State& state) { run_collect(state, 1); }
BENCHMARK(BM_Collect_Jobs1)->Unit(benchmark::kMillisecond);

void BM_Collect_Jobs8(benchmark::State& state) { run_collect(state, 8); }
BENCHMARK(BM_Collect_Jobs8)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
