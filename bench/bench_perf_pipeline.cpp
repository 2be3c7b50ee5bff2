// Performance suite (google-benchmark): throughput of the pipeline's hot
// paths — ClientHello encode/parse, fingerprinting, JA3 hashing, certificate
// encode/parse/validation, Merkle proofs, pcap extraction.
#include <benchmark/benchmark.h>

#include <map>
#include <random>

#include "common.hpp"
#include "core/semantic.hpp"
#include "core/sharing.hpp"
#include "core/vendor_metrics.hpp"
#include "ct/merkle.hpp"
#include "devicesim/stacks.hpp"
#include "pcap/flow.hpp"
#include "tls/fingerprint.hpp"
#include "tls/record.hpp"
#include "x509/validation.hpp"

using namespace iotls;

namespace {

tls::ClientHello sample_hello() {
  tls::ClientHello ch;
  ch.cipher_suites = {0x1301, 0x1302, 0xc02b, 0xc02f, 0xcca9, 0xc013,
                      0xc014, 0x009c, 0x002f, 0x0035, 0x000a};
  ch.extensions = {{10, {0, 4, 0, 23, 0, 24}}, {11, {1, 0}}, {13, {0, 2, 4, 1}},
                   {35, {}}, {23, {}}};
  ch.set_sni("device-metrics-us.amazon.com");
  return ch;
}

void BM_ClientHelloEncode(benchmark::State& state) {
  tls::ClientHello ch = sample_hello();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ch.encode());
  }
}
BENCHMARK(BM_ClientHelloEncode);

void BM_ClientHelloParse(benchmark::State& state) {
  Bytes wire = sample_hello().encode();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tls::ClientHello::parse(BytesView(wire.data(), wire.size())));
  }
}
BENCHMARK(BM_ClientHelloParse);

void BM_Fingerprint(benchmark::State& state) {
  tls::ClientHello ch = sample_hello();
  for (auto _ : state) {
    benchmark::DoNotOptimize(tls::fingerprint_of(ch));
  }
}
BENCHMARK(BM_Fingerprint);

void BM_Ja3Hash(benchmark::State& state) {
  tls::Fingerprint fp = tls::fingerprint_of(sample_hello());
  for (auto _ : state) {
    benchmark::DoNotOptimize(fp.ja3());
  }
}
BENCHMARK(BM_Ja3Hash);

void BM_CorpusMatch(benchmark::State& state) {
  const auto& corpus = bench::Context::get().corpus;
  tls::Fingerprint fp = tls::fingerprint_of(sample_hello());
  for (auto _ : state) {
    benchmark::DoNotOptimize(corpus.best_match(fp));
  }
}
BENCHMARK(BM_CorpusMatch);

void BM_CertificateEncodeParse(benchmark::State& state) {
  auto ca = x509::CertificateAuthority::make_root("Perf CA", "Perf",
                                                  x509::CaKind::kPublicTrust, 0, 40000);
  x509::IssueRequest req;
  req.subject.common_name = "perf.example.com";
  req.san_dns = {"perf.example.com", "alt.perf.example.com"};
  req.not_after = 400;
  x509::Certificate cert = ca.issue(req);
  for (auto _ : state) {
    Bytes enc = cert.encode();
    benchmark::DoNotOptimize(x509::Certificate::parse(BytesView(enc.data(), enc.size())));
  }
}
BENCHMARK(BM_CertificateEncodeParse);

void BM_ChainValidation(benchmark::State& state) {
  auto ca = x509::CertificateAuthority::make_root("Perf CA", "Perf",
                                                  x509::CaKind::kPublicTrust, 0, 40000);
  auto inter = ca.subordinate("Perf Issuing", 0, 39000);
  x509::KeyRegistry keys;
  ca.publish_key(keys);
  inter.publish_key(keys);
  x509::TrustStoreSet trust;
  x509::TrustStore store("perf");
  store.add_root(ca.certificate());
  trust.add(std::move(store));
  x509::IssueRequest req;
  req.subject.common_name = "perf.example.com";
  req.san_dns = {"perf.example.com"};
  req.not_after = 400;
  std::vector<x509::Certificate> chain = {inter.issue(req), inter.certificate(),
                                          ca.certificate()};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        x509::validate_chain(chain, "perf.example.com", trust, keys, 100));
  }
}
BENCHMARK(BM_ChainValidation);

// One tree per size, built once per process so repetitions measure the
// proofs alone. 1,000,000 is not a power of two, so its proofs cross the
// non-perfect right edge.
const ct::MerkleTree& merkle_tree(std::uint64_t leaves) {
  static std::map<std::uint64_t, ct::MerkleTree> trees;
  auto [it, inserted] = trees.try_emplace(leaves);
  if (inserted) {
    for (std::uint64_t i = 0; i < leaves; ++i) {
      std::string entry = "entry" + std::to_string(i);
      it->second.append(BytesView(
          reinterpret_cast<const std::uint8_t*>(entry.data()), entry.size()));
    }
  }
  return it->second;
}

/// The tree for the benchmark's size, or nullptr (and the run skipped) if
/// it is empty; sets the `leaves` counter.
const ct::MerkleTree* merkle_workload(benchmark::State& state) {
  const ct::MerkleTree& tree =
      merkle_tree(static_cast<std::uint64_t>(state.range(0)));
  state.counters["leaves"] = static_cast<double>(tree.size());
  if (tree.size() == 0) {
    state.SkipWithError("empty Merkle tree");
    return nullptr;
  }
  return &tree;
}

void BM_MerkleInclusionProof(benchmark::State& state) {
  const ct::MerkleTree* tree = merkle_workload(state);
  if (!tree) return;
  const std::uint64_t n = tree->size();
  std::mt19937_64 rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree->inclusion_proof(rng() % n, n));
  }
}
BENCHMARK(BM_MerkleInclusionProof)->Arg(1024)->Arg(1000000);

void BM_MerkleConsistencyProof(benchmark::State& state) {
  const ct::MerkleTree* tree = merkle_workload(state);
  if (!tree) return;
  const std::uint64_t n = tree->size();
  std::mt19937_64 rng(2);
  for (auto _ : state) {
    std::uint64_t first = 1 + rng() % n;
    std::uint64_t second = first + rng() % (n - first + 1);
    benchmark::DoNotOptimize(tree->consistency_proof(first, second));
  }
}
BENCHMARK(BM_MerkleConsistencyProof)->Arg(1024)->Arg(1000000);

void BM_MerkleHistoricalRoot(benchmark::State& state) {
  const ct::MerkleTree* tree = merkle_workload(state);
  if (!tree) return;
  const std::uint64_t n = tree->size();
  std::mt19937_64 rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree->root(1 + rng() % n));
  }
}
BENCHMARK(BM_MerkleHistoricalRoot)->Arg(1024)->Arg(1000000);

void BM_PcapExtractHellos(benchmark::State& state) {
  // One flow carrying a ClientHello, framed and pcap-encoded.
  Bytes msg = sample_hello().encode();
  Bytes records = tls::encode_records(tls::ContentType::kHandshake, 0x0301,
                                      BytesView(msg.data(), msg.size()));
  pcap::TcpSegment seg;
  seg.src_ip = pcap::Ipv4Addr::from_string("192.168.1.10");
  seg.dst_ip = pcap::Ipv4Addr::from_string("93.184.216.34");
  seg.src_port = 40000;
  seg.dst_port = 443;
  seg.payload = records;
  pcap::PcapPacket packet;
  packet.frame = pcap::encode_frame(seg);
  std::vector<pcap::PcapPacket> capture(16, packet);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pcap::extract_client_hellos(capture));
  }
}
BENCHMARK(BM_PcapExtractHellos);

// --- Synthetic perf-acceptance scale: 64 vendors x 1,000 fingerprints ----
// The acceptance workload for the interned DatasetIndex. Built once.

struct SyntheticContext {
  devicesim::FleetDataset fleet;
  core::ClientDataset client;

  SyntheticContext()
      : fleet(bench::synthetic_fleet()),
        client(core::ClientDataset::from_fleet(fleet)) {}

  static const SyntheticContext& get() {
    static SyntheticContext ctx;
    return ctx;
  }
};

void BM_DatasetBuild64x1k(benchmark::State& state) {
  const auto& fleet = SyntheticContext::get().fleet;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::ClientDataset::from_fleet(fleet));
  }
}
BENCHMARK(BM_DatasetBuild64x1k)->Unit(benchmark::kMillisecond);

void BM_VendorJaccard64x1k(benchmark::State& state) {
  const auto& ds = SyntheticContext::get().client;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::vendor_similarities(ds, 0.2));
  }
}
BENCHMARK(BM_VendorJaccard64x1k)->Unit(benchmark::kMillisecond);

void BM_ServerTied64x1k(benchmark::State& state) {
  const auto& ds = SyntheticContext::get().client;
  const auto& corpus = bench::Context::get().corpus;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::server_tied_fingerprints(ds, corpus));
  }
}
BENCHMARK(BM_ServerTied64x1k)->Unit(benchmark::kMillisecond);

void BM_SemanticMatch64x1k(benchmark::State& state) {
  const auto& ds = SyntheticContext::get().client;
  const auto& corpus = bench::Context::get().corpus;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::semantic_match(ds, corpus, bench::kCaptureEnd));
  }
}
BENCHMARK(BM_SemanticMatch64x1k)->Unit(benchmark::kMillisecond);

void BM_FullClientAnalysis(benchmark::State& state) {
  const auto& ctx = bench::Context::get();
  for (auto _ : state) {
    auto ds = core::ClientDataset::from_fleet(ctx.fleet);
    benchmark::DoNotOptimize(core::fingerprint_degree_distribution(ds));
  }
}
BENCHMARK(BM_FullClientAnalysis)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
