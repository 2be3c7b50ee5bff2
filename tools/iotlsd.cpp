// iotlsd — the resident incremental survey daemon (ROADMAP item 1).
//
// Ingests fleet ClientHello events epoch by epoch, folding each epoch into
// the client dataset (and, with --certs, the server-side certificate
// dataset) *incrementally*: epoch N's state is byte-identical to a cold
// batch run over the first N epochs' events. Results are served live over
// the obs export plane.
//
// Usage:
//   iotlsd [--port=N] [--jobs=N] [--epochs=K] [--follow] [--certs]
//          [--min-users=N] [--fault-spec=SPEC] events.csv devices.csv
//   iotlsd --snapshot=FILE [--port=N] [--jobs=N] [--epochs=K] [--certs]
//          [--min-users=N] [--fault-spec=SPEC]
//   iotlsd --export-fleet=PREFIX [--users=N] [--wire]
//          [--synthetic=DEVICES[,EVENTS_PER_DEVICE]] [--snapshot=FILE]
//
// Modes:
//   * replay (default): slice events.csv into K epochs (--epochs, default 3),
//     fold them all, then keep serving until GET /quitquitquit. With
//     --snapshot=FILE the epochs come from a columnar .iotlsnap container
//     instead (devices included), each epoch materialized from the mapped
//     columns only when folded;
//   * follow (--follow): tail events.csv for appended rows, folding each
//     poll's batch as one epoch, until /quitquitquit;
//   * export (--export-fleet=PREFIX): generate a fleet and write
//     PREFIX-events.csv / PREFIX-devices.csv, then exit (the fixture
//     generator for the CI daemon phase). --synthetic=D[,E] swaps in the
//     scale-test generator (D devices, E events each — millions build in
//     seconds); --snapshot=FILE additionally writes the fleet as a
//     .iotlsnap container.
//
// Endpoints: /metrics /stats /healthz /readyz /trace /quitquitquit from the
// export plane, plus /epoch (ingest progress: epoch counter, event count,
// capture-day watermark) and /report/<name> (see src/stream/reports.hpp;
// docs/DAEMON.md has the full reference).
//
// The bound port is announced on stderr as
//   iotlsd: serving on 127.0.0.1:PORT
// so scripts can scrape an ephemeral --port=0.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "devicesim/export.hpp"
#include "devicesim/fleet.hpp"
#include "devicesim/scenario.hpp"
#include "fleetio/snapshot.hpp"
#include "stream/daemon.hpp"
#include "stream/source.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

using namespace iotls;

namespace {

constexpr const char* kUsage =
    "usage: iotlsd [--port=N] [--jobs=N] [--epochs=K] [--follow] [--certs]\n"
    "              [--min-users=N] [--fault-spec=SPEC] events.csv devices.csv\n"
    "       iotlsd --snapshot=FILE [--port=N] [--jobs=N] [--epochs=K]\n"
    "              [--certs] [--min-users=N] [--fault-spec=SPEC]\n"
    "       iotlsd --export-fleet=PREFIX [--users=N] [--wire]\n"
    "              [--synthetic=DEVICES[,EVENTS_PER_DEVICE]] [--snapshot=FILE]\n";

std::string slurp(const char* path) {
  std::ifstream f(path);
  if (!f) throw ParseError(std::string("cannot open ") + path);
  std::ostringstream out;
  out << f.rdbuf();
  return out.str();
}

int export_fleet(const std::string& prefix, int users, bool wire,
                 const std::optional<devicesim::SyntheticFleetSpec>& synthetic,
                 const std::string& snapshot_out) {
  devicesim::FleetDataset fleet;
  if (synthetic.has_value()) {
    fleet = devicesim::generate_synthetic_fleet(*synthetic);
  } else {
    devicesim::FleetConfig cfg;
    if (users > 0) cfg.users = users;
    auto corpus = corpus::LibraryCorpus::standard();
    auto universe = devicesim::ServerUniverse::standard();
    fleet = devicesim::generate_fleet(cfg, corpus, universe);
  }

  devicesim::ExportOptions opts;
  opts.include_wire = wire;
  std::string events_csv = devicesim::export_events_csv(fleet, opts);
  std::string devices_csv = devicesim::export_devices_csv(fleet, opts);
  struct Out {
    std::string path;
    const std::string* body;
  };
  for (const Out& out : {Out{prefix + "-events.csv", &events_csv},
                         Out{prefix + "-devices.csv", &devices_csv}}) {
    std::ofstream f(out.path, std::ios::binary | std::ios::trunc);
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", out.path.c_str());
      return 1;
    }
    f << *out.body;
    std::fprintf(stderr, "iotlsd: wrote %s\n", out.path.c_str());
  }

  if (!snapshot_out.empty()) {
    // The snapshot must hold exactly the dataset importing the CSVs yields
    // (pseudonymized ids, canonical wire bytes), not the raw generator
    // fleet — otherwise reports from the two inputs would diverge.
    try {
      fleetio::write_snapshot(
          devicesim::import_events_csv(events_csv, devices_csv), snapshot_out);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "cannot write %s: %s\n", snapshot_out.c_str(),
                   e.what());
      return 1;
    }
    std::fprintf(stderr, "iotlsd: wrote %s\n", snapshot_out.c_str());
  }
  std::fprintf(stderr, "iotlsd: fleet: %zu devices, %zu events\n",
               fleet.devices.size(), fleet.events.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  unsigned long long port = 0;
  unsigned long long epochs = 3;
  int users = 0;
  bool follow = false;
  bool wire = false;
  std::string export_prefix;
  std::string snapshot_path;
  std::optional<devicesim::SyntheticFleetSpec> synthetic;
  stream::IngestConfig config;
  std::vector<const char*> paths;

  constexpr std::uint64_t kIntMax = std::numeric_limits<int>::max();
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    // `--flag=N` with N in [min, max]. A malformed or out-of-range N is a
    // usage error that names the flag and the value.
    std::optional<std::uint64_t> n;
    bool bad_number = false;
    auto uint_flag = [&](const char* flag, std::uint64_t min, std::uint64_t max,
                         const char* wants) {
      const std::size_t len = std::strlen(flag);
      if (std::strncmp(arg, flag, len) != 0) return false;
      n = parse_u64(arg + len, max);
      if (n && *n >= min) return true;
      std::fprintf(stderr, "%s wants %s, got '%s'\n", flag, wants, arg + len);
      bad_number = true;
      return false;
    };
    constexpr const char* kNonNegative = "a non-negative integer";
    if (uint_flag("--port=", 0, 65535, "an integer from 0 to 65535")) {
      port = *n;
    } else if (uint_flag("--jobs=", 0, kIntMax, kNonNegative)) {
      config.jobs = static_cast<int>(*n);
    } else if (uint_flag("--epochs=", 1, UINT64_MAX, "a positive integer")) {
      epochs = *n;
    } else if (uint_flag("--min-users=", 0, SIZE_MAX, kNonNegative)) {
      config.min_users = static_cast<std::size_t>(*n);
    } else if (uint_flag("--users=", 0, kIntMax, kNonNegative)) {
      users = static_cast<int>(*n);
    } else if (bad_number) {
      return 2;
    } else if (std::strcmp(arg, "--follow") == 0) {
      follow = true;
    } else if (std::strcmp(arg, "--certs") == 0) {
      config.certs = true;
    } else if (std::strcmp(arg, "--wire") == 0) {
      wire = true;
    } else if (std::strncmp(arg, "--fault-spec=", 13) == 0) {
      try {
        config.fault = net::FaultSpec::parse(arg + 13);
      } catch (const ParseError& e) {
        std::fprintf(stderr, "--fault-spec: %s\n", e.what());
        return 2;
      }
    } else if (std::strncmp(arg, "--export-fleet=", 15) == 0) {
      export_prefix = arg + 15;
    } else if (std::strncmp(arg, "--snapshot=", 11) == 0) {
      snapshot_path = arg + 11;
    } else if (std::strncmp(arg, "--synthetic=", 12) == 0) {
      devicesim::SyntheticFleetSpec spec;
      const char* rest = arg + 12;
      const char* comma = std::strchr(rest, ',');
      std::optional<std::uint64_t> d, e;
      bool ok;
      if (comma != nullptr) {
        d = parse_u64(std::string_view(rest, comma - rest), SIZE_MAX);
        e = parse_u64(comma + 1, SIZE_MAX);
        ok = d && e && *d >= 1 && *e >= 1;
        if (ok) spec.events_per_device = static_cast<std::size_t>(*e);
      } else {
        d = parse_u64(rest, SIZE_MAX);
        ok = d && *d >= 1;
      }
      if (!ok) {
        std::fprintf(stderr,
                     "--synthetic= wants DEVICES[,EVENTS_PER_DEVICE]\n%s",
                     kUsage);
        return 2;
      }
      spec.devices = static_cast<std::size_t>(*d);
      synthetic = spec;
    } else if (arg[0] == '-') {
      std::fprintf(stderr, "unknown flag: %s\n%s", arg, kUsage);
      return 2;
    } else {
      paths.push_back(arg);
    }
  }

  if (!export_prefix.empty()) {
    if (!paths.empty()) {
      std::fprintf(stderr, "--export-fleet takes no CSV arguments\n%s", kUsage);
      return 2;
    }
    return export_fleet(export_prefix, users, wire, synthetic, snapshot_path);
  }
  bool snapshot_input = !snapshot_path.empty();
  if (paths.size() != (snapshot_input ? 0u : 2u) ||
      (snapshot_input && follow)) {
    std::fprintf(stderr, "%s", kUsage);
    return 2;
  }

  std::vector<devicesim::Device> devices;
  devicesim::FleetDataset fleet;
  std::optional<fleetio::SnapshotReader> snap;
  try {
    if (snapshot_input) {
      snap = fleetio::SnapshotReader::open(snapshot_path);
      devices = snap->devices();
    } else if (follow) {
      // Tail mode reads events incrementally; only devices load up front.
      devices = devicesim::parse_devices_csv(slurp(paths[1]));
    } else {
      fleet = devicesim::import_events_csv(slurp(paths[0]), slurp(paths[1]));
      devices = fleet.devices;
    }
  } catch (const ParseError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  stream::SurveyDaemon daemon(std::move(devices), config);
  std::string error;
  if (!daemon.start(static_cast<std::uint16_t>(port), &error)) {
    std::fprintf(stderr, "iotlsd: cannot serve: %s\n", error.c_str());
    return 1;
  }
  std::fprintf(stderr, "iotlsd: serving on 127.0.0.1:%u\n",
               static_cast<unsigned>(daemon.port()));
  std::fflush(stderr);

  if (follow) {
    stream::TailSource tail(paths[0]);
    // Poll between folds; wait_for_shutdown doubles as the poll interval.
    while (!daemon.wait_for_shutdown(50)) daemon.step(tail);
  } else {
    std::size_t folded;
    if (snapshot_input) {
      stream::SnapshotSource source = stream::SnapshotSource::with_epochs(
          std::move(*snap), static_cast<std::size_t>(epochs), config.jobs);
      folded = daemon.drain(source);
    } else {
      stream::ReplaySource source(std::move(fleet.events),
                                  static_cast<std::size_t>(epochs));
      folded = daemon.drain(source);
    }
    std::fprintf(stderr, "iotlsd: folded %zu epochs (%llu events); waiting\n",
                 folded,
                 static_cast<unsigned long long>(
                     daemon.ingest().events_ingested()));
    std::fflush(stderr);
    daemon.wait_for_shutdown();
  }

  daemon.stop();
  return 0;
}
