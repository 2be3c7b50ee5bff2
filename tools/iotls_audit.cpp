// iotls_audit — run the §4 client-side analysis over an exported dataset.
//
// Usage:
//   iotls_audit [--jobs=N] [--stats[=json]] [--certs] [--report=NAME]
//               events.csv devices.csv
//   iotls_audit --snapshot=FILE [--jobs=N] [--stats[=json]] [--certs]
//               [--report=NAME]
//   iotls_audit --export-snapshot=OUT [--jobs=N] events.csv devices.csv
//
// `--report=NAME` prints one stream report document (see
// src/stream/reports.hpp for names) as a single JSON line on stdout and
// exits — computed through the same single-epoch streaming fold iotlsd
// uses, so the output is byte-comparable against the daemon's
// /report/NAME body after any epoch split of the same events.
//
// `--snapshot=FILE` reads a columnar .iotlsnap container (docs/SNAPSHOT.md)
// instead of the CSVs. With `--report=`, events stream through the fold in
// chunks and parsed rows are not retained, so resident memory stays
// O(distinct fingerprints) — the fleet-scale path. Reports are
// byte-identical to the CSV run over the same dataset at every --jobs
// level.
//
// `--export-snapshot=OUT` converts the CSVs into a snapshot at OUT
// (verifying every section checksum after the write) and exits.
//
// `--jobs=N` parses ClientHellos, runs corpus matching — and, with
// `--certs`, probes/validates the server-side dataset — on N worker
// threads (0 = hardware concurrency); results are identical to --jobs=1.
//
// `--fault-spec=SPEC` (with --report=) applies a declarative fault schedule
// to the probe path (net::FaultSpec syntax, e.g. drop=0.2) — reports stay
// byte-identical between CSV and snapshot inputs under injection because
// faults are seeded per (SNI, vantage, attempt), not per probe order.
//
// `--certs` appends the §5 server-side pipeline: every SNI the dataset's
// devices contacted is probed against the standard simulated internet, the
// served chains are validated (signature verification memoized per
// distinct certificate), and the issuer/CT headline numbers are printed.
//
// Consumes the anonymized CSVs produced by devicesim/export (the format of
// the paper's artifact release) and prints the headline client-side
// measurements: fingerprint universe, degree distribution, customization,
// vulnerability profile and library match rate. Works without the fleet
// generator — any dataset in the released format can be analysed.
//
// Observability: IOTLS_LOG_LEVEL controls structured logs on stderr (e.g.
// debug logs each dropped event with its reason); `--stats` appends stage
// timings and the metric registry, `--stats=json` emits them as one JSON
// document on stderr. `--serve=PORT` exposes the live export plane
// (/metrics, /stats, /healthz, /readyz, /trace) during the run (with
// `--serve-linger[=MS]` it stays up afterwards); `--trace-out=FILE` writes
// the run's nested spans as Chrome trace-event JSON for Perfetto.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <vector>

#include "core/cert_dataset.hpp"
#include "core/chains.hpp"
#include "core/ct_validity.hpp"
#include "core/dataset.hpp"
#include "core/issuers.hpp"
#include "core/library_match.hpp"
#include "core/vendor_metrics.hpp"
#include "devicesim/export.hpp"
#include "devicesim/scenario.hpp"
#include "fleetio/snapshot.hpp"
#include "net/fault.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs_cli.hpp"
#include "report/obs_report.hpp"
#include "stream/ingest.hpp"
#include "stream/reports.hpp"
#include "stream/source.hpp"
#include "util/dates.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "x509/validation.hpp"

using namespace iotls;

namespace {

enum class StatsMode { kOff, kText, kJson };

constexpr const char* kUsage =
    "usage: iotls_audit [--jobs=N] [--stats[=json]] [--certs]\n"
    "                   [--report=NAME] [--fault-spec=SPEC] [--serve=PORT]\n"
    "                   [--serve-linger[=MS]] [--trace-out=FILE]\n"
    "                   events.csv devices.csv\n"
    "       iotls_audit --snapshot=FILE [--jobs=N] [--stats[=json]]\n"
    "                   [--certs] [--report=NAME] [--fault-spec=SPEC]\n"
    "       iotls_audit --export-snapshot=OUT [--jobs=N] events.csv devices.csv\n";

std::string slurp(const char* path) {
  std::ifstream f(path);
  if (!f) throw ParseError(std::string("cannot open ") + path);
  std::ostringstream out;
  out << f.rdbuf();
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  StatsMode stats = StatsMode::kOff;
  int jobs = 1;
  bool certs_mode = false;
  net::FaultSpec fault;
  std::string report_name;
  std::string snapshot_path;
  std::string export_snapshot_path;
  tools::ObsCli obs_cli;
  std::vector<const char*> paths;
  for (int i = 1; i < argc; ++i) {
    bool bad = false;
    if (obs_cli.parse(argv[i], &bad)) {
      if (bad) return 2;
    }
    else if (std::strcmp(argv[i], "--stats") == 0) stats = StatsMode::kText;
    else if (std::strcmp(argv[i], "--stats=json") == 0) stats = StatsMode::kJson;
    else if (std::strcmp(argv[i], "--certs") == 0) certs_mode = true;
    else if (std::strncmp(argv[i], "--report=", 9) == 0) report_name = argv[i] + 9;
    else if (std::strncmp(argv[i], "--snapshot=", 11) == 0)
      snapshot_path = argv[i] + 11;
    else if (std::strncmp(argv[i], "--export-snapshot=", 18) == 0)
      export_snapshot_path = argv[i] + 18;
    else if (std::strncmp(argv[i], "--fault-spec=", 13) == 0) {
      try {
        fault = net::FaultSpec::parse(argv[i] + 13);
      } catch (const ParseError& e) {
        std::fprintf(stderr, "--fault-spec: %s\n", e.what());
        return 2;
      }
    }
    else if (std::strncmp(argv[i], "--jobs=", 7) == 0) {
      auto n = parse_u64(argv[i] + 7, std::numeric_limits<int>::max());
      if (!n) {
        std::fprintf(stderr, "--jobs= wants a non-negative integer, got '%s'\n",
                     argv[i] + 7);
        return 2;
      }
      jobs = static_cast<int>(*n);
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      std::fprintf(stderr, "%s", kUsage);
      return 2;
    } else paths.push_back(argv[i]);
  }
  std::size_t want_paths = snapshot_path.empty() ? 2 : 0;
  if (paths.size() != want_paths ||
      (!snapshot_path.empty() && !export_snapshot_path.empty())) {
    std::fprintf(stderr, "%s", kUsage);
    return 2;
  }
  if (!obs_cli.start()) return 2;

  devicesim::FleetDataset fleet;
  std::optional<fleetio::SnapshotReader> snap;
  try {
    if (!snapshot_path.empty()) {
      snap = fleetio::SnapshotReader::open(snapshot_path);
    } else {
      fleet = devicesim::import_events_csv(slurp(paths[0]), slurp(paths[1]));
    }
  } catch (const ParseError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  if (!export_snapshot_path.empty()) {
    // CSV -> snapshot converter: write, then re-open and checksum every
    // section so a converted file is known-good before anything trusts it.
    try {
      fleetio::write_snapshot(fleet, export_snapshot_path);
      auto written = fleetio::SnapshotReader::open(export_snapshot_path);
      written.verify_checksums();
      std::printf("snapshot: wrote %s (%zu bytes): %u devices, %u users, "
                  "%llu events, %u strings\n",
                  export_snapshot_path.c_str(), written.file_size(),
                  written.device_count(), written.user_count(),
                  static_cast<unsigned long long>(written.event_count()),
                  written.string_count());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
    std::fflush(stdout);
    obs_cli.finish();
    return 0;
  }

  if (!report_name.empty()) {
    // Batch mode as the degenerate streaming case: one epoch holding the
    // whole event stream, rendered by the exact code iotlsd serves. Every
    // stream report is index/CertDataset-backed, so parsed rows need not
    // be retained — with a snapshot input the events stream through in
    // chunks and resident memory stays O(distinct fingerprints).
    bool server_side = report_name == "certs" || report_name == "chains" ||
                       report_name == "issuers" || report_name == "ct" ||
                       report_name == "stacks" || report_name == "dualstack";
    stream::IngestConfig config;
    config.jobs = jobs;
    config.certs = certs_mode || server_side;
    config.fault = fault;
    config.retain_events = false;
    std::unique_ptr<stream::StreamIngest> ingest;
    if (snap.has_value()) {
      ingest = std::make_unique<stream::StreamIngest>(snap->devices(), config);
      stream::SnapshotSource source(std::move(*snap),
                                    stream::SnapshotSource::kDefaultChunkEvents,
                                    jobs);
      bool folded = false;
      while (auto batch = source.next_epoch()) {
        ingest->fold_epoch(batch->events);
        folded = true;
      }
      if (!folded) ingest->fold_epoch({});  // empty dataset still reports
    } else {
      ingest = std::make_unique<stream::StreamIngest>(fleet.devices, config);
      ingest->fold_epoch(fleet.events);
    }
    auto doc = stream::render_report(report_name, *ingest);
    if (!doc.has_value()) {
      std::fprintf(stderr, "unknown report: %s (known:", report_name.c_str());
      for (const std::string& name : stream::report_names()) {
        std::fprintf(stderr, " %s", name.c_str());
      }
      std::fprintf(stderr, ")\n");
      return 2;
    }
    std::printf("%s\n", doc->dump().c_str());
    std::fflush(stdout);
    if (stats == StatsMode::kText) {
      std::fprintf(stderr, "\n%s",
                   report::stats_text(obs::metrics(), obs::tracer()).c_str());
    } else if (stats == StatsMode::kJson) {
      std::fprintf(stderr, "%s\n",
                   report::stats_json(obs::metrics(), obs::tracer()).c_str());
    }
    obs_cli.finish();
    return 0;
  }

  if (fault.any()) {
    // Fault injection runs through the streaming probe path only.
    std::fprintf(stderr, "--fault-spec requires --report=NAME\n");
    return 2;
  }
  if (snap.has_value()) {
    // Headline mode needs the event-iterating analyses; materialize fully.
    fleet = snap->load(jobs);
    snap.reset();
  }

  auto ds = core::ClientDataset::from_fleet(fleet, {}, jobs);
  std::printf("dataset: %zu devices, %zu users, %zu events (%zu undecodable)\n",
              fleet.devices.size(), fleet.users.size(), ds.events().size(),
              ds.dropped_events());
  const core::DropCounts& drops = ds.drop_counts();
  if (drops.total() > 0) {
    std::printf("dropped: %zu unknown device, %zu no ClientHello, %zu parse error\n",
                drops.unknown_device, drops.no_client_hello, drops.parse_error);
  }
  std::printf("distinct fingerprints: %zu across %zu vendors and %zu SNIs\n\n",
              std::size_t{ds.index().fps().size()},
              std::size_t{ds.index().vendors().size()},
              std::size_t{ds.index().snis().size()});

  auto degree = core::fingerprint_degree_distribution(ds);
  std::printf("fingerprint degree: %s single-vendor, %zu shared by 2, "
              "%zu by 3-5, %zu by >5\n",
              fmt_percent(degree.ratio1()).c_str(), degree.degree2,
              degree.degree3to5, degree.degree_gt5);

  auto doc = core::doc_vendor(ds);
  std::printf("vendors with a unique fingerprint: %s; with DoC > 0.5: %s\n",
              fmt_percent(core::fraction_with_unique(doc)).c_str(),
              fmt_percent(core::fraction_above(doc, 0.5)).c_str());

  auto vuln = core::vulnerability_stats(ds);
  std::printf("vulnerable fingerprints: %zu (%s); 3DES in %zu; "
              "ANON/EXPORT/NULL in %zu (devices: %zu, vendors: %zu)\n",
              vuln.vulnerable_fps,
              fmt_percent(vuln.total_fps ? double(vuln.vulnerable_fps) /
                                               vuln.total_fps : 0).c_str(),
              vuln.by_tag.count("3DES") ? vuln.by_tag.at("3DES") : 0,
              vuln.severe_fps, vuln.severe_devices, vuln.severe_vendors);

  auto corpus = corpus::LibraryCorpus::standard();
  auto match = core::match_against_corpus(ds, corpus, days(2020, 8, 1), jobs);
  std::printf("known-library matches: %zu fingerprints (%s), "
              "%zu libraries (%zu unsupported)\n",
              match.matches.size(), fmt_percent(match.match_ratio()).c_str(),
              match.matched_libraries, match.unsupported_libraries);

  if (certs_mode) {
    auto universe = devicesim::ServerUniverse::standard();
    devicesim::SimWorld world = devicesim::build_world(universe);
    x509::ValidationCache vcache;
    auto certs = core::CertDataset::collect(ds, world, 1, jobs, &vcache);
    std::printf("\ncertificates: %zu SNIs extracted, %zu reachable, "
                "%zu distinct leaves, %zu issuer organizations\n",
                certs.extracted_snis(), certs.reachable_snis(),
                std::size_t{certs.leaves().size()},
                certs.issuer_organizations().size());

    auto chains = core::validate_dataset(certs, world, days(2022, 4, 15), jobs,
                                         &vcache);
    std::printf("chain validation: %zu validated, %zu trusted, "
                "%zu failure rows (%zu private-root, %zu self-signed), "
                "%zu expired, %zu CN mismatches\n",
                chains.validated, chains.trusted, chains.failure_rows.size(),
                chains.private_root_rows.size(), chains.self_signed_rows.size(),
                chains.expired.size(), chains.cn_mismatches.size());

    auto issuers = core::issuer_report(certs, world.issuer_is_public);
    std::printf("issuers: %zu organizations, %zu private leaves (%s); "
                "%zu public-only vendors, %zu self-signing vendors\n",
                issuers.issuer_organizations, issuers.private_leaves,
                fmt_percent(issuers.private_ratio).c_str(),
                issuers.public_only_vendors.size(),
                issuers.self_signing_vendors.size());

    auto ct = core::ct_report(certs, world, jobs);
    std::printf("ct: %zu/%zu public leaves logged (%zu anomalies), "
                "%zu private leaves (%zu logged)\n",
                ct.public_leaves_in_ct, ct.public_leaves,
                ct.public_not_logged.size(), ct.private_leaves,
                ct.private_leaves_in_ct);
  }

  if (stats == StatsMode::kText) {
    std::fprintf(stderr, "\n%s",
                 report::stats_text(obs::metrics(), obs::tracer()).c_str());
  } else if (stats == StatsMode::kJson) {
    std::fprintf(stderr, "%s\n",
                 report::stats_json(obs::metrics(), obs::tracer()).c_str());
  }
  std::fflush(stdout);
  obs_cli.finish();
  return 0;
}
