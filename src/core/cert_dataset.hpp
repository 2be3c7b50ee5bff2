// §5.1: the IoT-server certificate dataset — probe every SNI extracted from
// ClientHellos from three vantage points, collect leaves, measure sharing.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/cert_index.hpp"
#include "core/dataset.hpp"
#include "devicesim/scenario.hpp"
#include "net/prober.hpp"

namespace iotls::x509 {
class ValidationCache;
}

namespace iotls::core {

/// Per-SNI probe outcome (New York is the reference vantage, §5.1).
struct SniRecord {
  std::string sni;
  bool reachable = false;
  /// Chain as served to New York, normalized to leaf-first order (the
  /// harvester repairs misordered chains the way Zeek does;
  /// `served_misordered` records that it had to).
  std::vector<x509::Certificate> chain;
  bool served_misordered = false;
  std::map<net::VantagePoint, std::optional<std::string>> leaf_by_vantage;
  std::vector<std::string> server_ips;
  bool stapled = false;        // server answered status_request with a staple
  bool staple_valid = false;   // ...that verified against the responder key
};

/// Table 15 row.
struct SldPopularity {
  std::string sld;
  std::size_t servers = 0;
  std::size_t devices = 0;
};

/// Table 16 row data.
struct GeoComparison {
  std::map<net::VantagePoint, std::size_t> extracted;   // SNIs with a cert
  std::size_t shared_all = 0;                            // same leaf everywhere
  std::map<net::VantagePoint, std::size_t> exclusive;    // leaf unique to place
};

/// One probed SNI: the record, plus the leaf fingerprint — hashed once and
/// interned as the leaf's identity in the index — and the stage-span
/// failure tag.
struct ProbedSni {
  SniRecord record;
  std::string leaf_fp;
  std::string fail_reason;
};

/// Probe outcomes carried across epochs by the streaming daemon. A
/// ProbedSni is a pure function of (SNI, world); membership grows with the
/// event stream, so it lives only in the index, rebuilt from the client
/// index on every collect and never memoized. A memo-seeded collect probes
/// only never-seen SNIs, byte-identical to a cold collect over the same
/// client dataset.
struct ProbeMemo {
  std::map<std::string, ProbedSni> by_sni;
};

/// The §5.1 dataset.
class CertDataset {
 public:
  /// Probe every SNI observed from at least `min_users` users.
  ///
  /// `jobs` shards the probing across worker threads (1 = sequential on the
  /// caller, 0 = hardware concurrency) on the survey engine; SNIs are
  /// probed one per shard and merged in input (lexicographic SNI) order,
  /// each with one attempt per vantage, so the dataset — records,
  /// counters and the interned index — is byte-identical at every jobs
  /// level. `cache` (optional) memoizes OCSP staple verification
  /// across servers sharing a certificate. `internet` (optional) overrides
  /// the internet probes travel through — e.g. a FaultInjector decorating
  /// `world.internet` — without touching the world's PKI or IP metadata.
  /// `memo` (optional) skips probing for memoized SNIs and stores the
  /// outcomes of the ones probed this call (see ProbeMemo).
  static CertDataset collect(const ClientDataset& client,
                             const devicesim::SimWorld& world,
                             std::size_t min_users = 1, int jobs = 1,
                             x509::ValidationCache* cache = nullptr,
                             const net::Internet* internet = nullptr,
                             ProbeMemo* memo = nullptr);

  const std::vector<SniRecord>& records() const { return records_; }
  /// Distinct leaf certificates, by hex SHA-256 fingerprint (§5.1's leaf
  /// count; the index's fingerprint domain).
  const Interner& leaves() const { return index_.fps(); }

  /// The interned-id cross-index built during collect (dense ids, posting
  /// lists, per-leaf fingerprint memo) — what the §5.1–§5.4 analyses and
  /// the membership of every record are read from.
  const CertIndex& index() const { return index_; }

  std::size_t extracted_snis() const { return extracted_; }
  std::size_t reachable_snis() const { return reachable_; }

  /// Distinct leaf issuer organizations (Table 6 "#issuer organizations").
  std::set<std::string> issuer_organizations() const;

  /// Table 15: most popular SLDs by contacting devices (top `n`).
  std::vector<SldPopularity> popular_slds(std::size_t n) const;
  std::size_t distinct_slds() const;

  /// Certificate sharing stats (§5.1): servers per certificate and IPs per
  /// certificate.
  struct SharingStats {
    double mean_servers_per_cert = 0;
    std::size_t max_servers_per_cert = 0;
    double mean_ips_per_cert = 0;       // over certs on > 1 IP
    std::size_t max_ips_per_cert = 0;
    std::size_t certs_on_multiple_ips = 0;
    double multi_ip_ratio = 0;
  };
  SharingStats sharing_stats() const;

  /// Table 16: cross-vantage comparison.
  GeoComparison geo_comparison() const;

 private:
  std::vector<SniRecord> records_;
  CertIndex index_;
  std::size_t extracted_ = 0;
  std::size_t reachable_ = 0;
};

}  // namespace iotls::core
