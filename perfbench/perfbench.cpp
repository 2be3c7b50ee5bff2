// perfbench — the in-process workload runner behind perfbench/run.py.
//
//   perfbench prepare --workload=W --seed=N --dir=D
//       Generate the workload's inputs from the seed and write them into D
//       (a separate process, so the generator's memory never shows in the
//       measured process's peak RSS).
//   perfbench run --workload=W --seed=N --dir=D --jobs=J --units=U
//                 --warmup=K [--trace]
//       Run K warm-up units, then U timed units, and print one JSON result
//       on stdout: setup and unit samples, work done, the workload's
//       success funnel, peak RSS and the correctness checks. With --trace
//       the timed units alternate untraced/traced, spans are recorded around
//       every layer call, and the per-layer metrics are added.
//
// Workloads (see NOTES.md for why each exists):
//   paper_batch    cold iotls_audit-style passes over the paper fleet CSVs
//   fleet_stream   snapshot -> streaming fold of a 400k-event synthetic fleet
//   daemon_epochs  the paper fleet replayed in 125-event epochs under faults
//   ct_log         batches appended to one RFC 6962 Merkle tree, with proofs
//   (daemon_epochs runs like the others but is not in BENCHMARK.json)
//
// A unit is a pass for paper_batch and fleet_stream, a replay (whose epochs
// are the samples) for daemon_epochs, and a batch for ct_log. Warm-up units
// are discarded; for daemon_epochs they are epochs of the first replay.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "core/cert_dataset.hpp"
#include "core/chains.hpp"
#include "core/dataset.hpp"
#include "corpus/corpus.hpp"
#include "ct/merkle.hpp"
#include "devicesim/export.hpp"
#include "devicesim/fleet.hpp"
#include "devicesim/scenario.hpp"
#include "exec/pool.hpp"
#include "fleetio/snapshot.hpp"
#include "net/fault.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/resource.hpp"
#include "stream/ingest.hpp"
#include "stream/reports.hpp"
#include "stream/source.hpp"
#include "tls/clienthello.hpp"
#include "tls/fingerprint.hpp"
#include "tls/record.hpp"
#include "trace.hpp"
#include "util/error.hpp"
#include "x509/validation.hpp"

using namespace iotls;
using obs::Json;
using perfbench::Clock;
using perfbench::Trace;

namespace {

// ---------------------------------------------------------- workload shape
// Fixed here, not on the command line, so every run of a workload does the
// same work; only the seed varies the inputs.

constexpr std::size_t kDaemonEpochEvents = 125;
constexpr const char* kDaemonFaultSpec = "seed=7,timeout=0.2";

devicesim::SyntheticFleetSpec fleet_stream_spec() {
  devicesim::SyntheticFleetSpec spec;
  spec.devices = 100000;
  spec.events_per_device = 4;
  spec.vendors = 64;
  spec.fingerprints = 512;
  spec.snis = 97;
  return spec;
}

// Proofs cost O(tree size) today. The log starts large and grows by ~60%
// over a run, so unit costs stay within a narrow band and the median draws
// on units from the whole run; see NOTES.md for the sizing.
constexpr std::size_t kCtBootstrap = 4096;  // entries in the log at setup
constexpr std::size_t kCtBatch = 8;         // entries appended per unit
constexpr std::size_t kCtSampled = 2;       // older entries proven per unit
constexpr std::size_t kCtEntryMin = 900;    // certificate-sized entries
constexpr std::size_t kCtEntrySpan = 1100;
constexpr int kCtSetupRepeats = 15;
constexpr int kPaperSetupForks = 5;

const std::vector<std::string>& paper_reports() {
  static const std::vector<std::string> names = {
      "table02", "table03", "table04", "table05",
      "certs",   "chains",  "issuers", "ct"};
  return names;
}

const std::vector<std::string>& fleet_reports() {
  static const std::vector<std::string> names = {"table02", "table03",
                                                 "table04", "table05"};
  return names;
}

// ------------------------------------------------------------------ utils

struct Options {
  std::string mode;
  std::string workload;
  std::string dir;
  std::uint64_t seed = 0;
  int jobs = 1;
  int units = 1;
  int warmup = 0;
  bool trace = false;
};

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

template <typename F>
double time_ms(F&& f) {
  auto t0 = Clock::now();
  f();
  return ms_between(t0, Clock::now());
}

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("cannot read " + path);
  std::ostringstream out;
  out << f.rdbuf();
  return out.str();
}

void spit(const std::string& path, const std::string& data) {
  std::ofstream f(path, std::ios::binary);
  f << data;
  if (!f) throw std::runtime_error("cannot write " + path);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// splitmix64: the benchmark's own seeded generator, so inputs depend on
/// the seed argument alone.
struct SplitMix {
  std::uint64_t s;
  std::uint64_t next() {
    std::uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
};

struct Check {
  std::string name;
  bool ok = true;
  std::string detail;
};

/// Everything a run reports back to run.py.
struct Result {
  std::vector<double> setup_ms;
  std::vector<double> unit_ms;         // timed, untraced units
  std::vector<double> traced_unit_ms;  // timed, traced units
  double work = 0;                     // events (or proofs) in timed units
  double timed_ms = 0;                 // wall of the timed untraced units
  std::uint64_t ok = 0;
  std::uint64_t attempted = 0;
  std::vector<Check> checks;
  Json::Object layers;

  void check(std::string name, bool ok_, std::string detail = "") {
    checks.push_back({std::move(name), ok_, std::move(detail)});
  }
};

/// Per-unit counters recorded during traced units, keyed by unit id.
class UnitCounts {
 public:
  void add(int unit, const std::string& name, double v) {
    if (unit >= 0) by_unit_[unit][name] += v;
  }
  /// Median over traced units of the per-unit value (absent counts as 0).
  double median_of(const std::string& name) const {
    std::vector<double> v;
    for (const auto& [unit, counts] : by_unit_) {
      auto it = counts.find(name);
      v.push_back(it == counts.end() ? 0.0 : it->second);
    }
    return median(v);
  }
  double sum_of(const std::string& name) const {
    double total = 0;
    for (const auto& [unit, counts] : by_unit_) {
      auto it = counts.find(name);
      if (it != counts.end()) total += it->second;
    }
    return total;
  }

 private:
  std::map<int, std::map<std::string, double>> by_unit_;
};

// ------------------------------------------------------- shadow replays
// fold_epoch hides append_events, finalize and CertDataset::collect. A
// traced unit repeats those public calls, in the same order, on a shadow
// dataset (the ingest's world, its own FaultInjector and caches), once at
// the run's jobs level and once at jobs=1 for the speedup baseline.

/// Parse and fingerprint every event's wire bytes the way append_events
/// does, without folding anything. Returns the number of hellos found.
std::size_t parse_fingerprint_only(
    const std::vector<devicesim::ClientHelloEvent>& events,
    const tls::FingerprintOptions& opts, int jobs) {
  std::vector<std::uint8_t> found(events.size(), 0);
  exec::parallel_for(jobs, events.size(), [&](std::size_t i) {
    const Bytes& wire = events[i].wire;
    try {
      auto records = tls::parse_records(BytesView(wire.data(), wire.size()));
      Bytes payload = tls::handshake_payload(records);
      for (const tls::HandshakeMessage& m :
           tls::split_handshakes(BytesView(payload.data(), payload.size()))) {
        if (m.type != tls::HandshakeType::kClientHello) continue;
        Bytes framed = tls::encode_handshake(
            m.type, BytesView(m.body.data(), m.body.size()));
        tls::ClientHello hello =
            tls::ClientHello::parse(BytesView(framed.data(), framed.size()));
        found[i] = !tls::fingerprint_of(hello, opts).key().empty();
        break;
      }
    } catch (const ParseError&) {
    }
  });
  return static_cast<std::size_t>(std::count(found.begin(), found.end(), 1));
}

struct ShadowSide {
  core::ClientDataset client;
  core::ProbeMemo memo;
  x509::ValidationCache cache;
  std::unique_ptr<net::FaultInjector> injector;
  std::optional<core::CertDataset> certs;
};

class Shadow {
 public:
  Shadow(const stream::StreamIngest& ingest, Trace& trace, UnitCounts& counts,
         Result& result)
      : ingest_(ingest), trace_(trace), counts_(counts), result_(result) {
    for (ShadowSide* side : {&at_jobs_, &at_one_}) {
      side->client.set_retain_events(false);
      if (ingest.config().certs && ingest.config().fault.any()) {
        side->injector = std::make_unique<net::FaultInjector>(
            ingest.world().internet, ingest.config().fault);
      }
    }
  }

  /// Repeat the fold's hidden calls for `events`, attributing them to the
  /// span `fold` and checking the results against the ingest's.
  /// `check` compares counts with the ingest, which must then have folded
  /// exactly the events the shadow has.
  void fold(const std::vector<devicesim::ClientHelloEvent>& events,
            const std::vector<devicesim::Device>& devices, int fold,
            bool check = true) {
    const stream::IngestConfig& cfg = ingest_.config();
    int unit = trace_.current_unit();
    int jobs = cfg.jobs;

    double append_j = 0;
    int append_id = -1;
    {
      auto s = trace_.replay("core.append_events", fold);
      append_id = s.id();
      append_j = time_ms([&] {
        at_jobs_.client.append_events(events, devices, cfg.fp_opts, jobs);
      });
    }
    {
      auto s = trace_.replay("tls.parse_fingerprint", append_id);
      parse_fingerprint_only(events, cfg.fp_opts, jobs);
    }
    {
      auto s = trace_.replay("core.finalize", fold);
      at_jobs_.client.finalize();
    }
    counts_.add(unit, "exec.jJ.append_events", append_j);
    counts_.add(unit, "exec.j1.append_events", time_ms([&] {
      at_one_.client.append_events(events, devices, cfg.fp_opts, 1);
    }));
    at_one_.client.finalize();

    if (check) {
      check_client(ingest_.client(), at_jobs_.client, "jobs");
      check_client(ingest_.client(), at_one_.client, "jobs=1");
    }
    if (!cfg.certs) return;

    const devicesim::SimWorld& world = ingest_.world();
    std::size_t memo_before = at_jobs_.memo.by_sni.size();
    auto collect = [&](ShadowSide& side, int at) {
      side.certs = core::CertDataset::collect(side.client, world, cfg.min_users,
                                              at, &side.cache,
                                              side.injector.get(), &side.memo);
    };
    {
      auto s = trace_.replay("core.cert_collect", fold);
      counts_.add(unit, "exec.jJ.cert_collect",
                  time_ms([&] { collect(at_jobs_, jobs); }));
    }
    counts_.add(unit, "exec.j1.cert_collect",
                time_ms([&] { collect(at_one_, 1); }));

    std::size_t fresh = at_jobs_.memo.by_sni.size() - memo_before;
    counts_.add(unit, "core.cert_collect.fresh_snis", static_cast<double>(fresh));
    counts_.add(unit, "core.cert_collect.memo_snis",
                static_cast<double>(at_jobs_.certs->records().size() - fresh));

    // Chain validation at jobs and at 1, each on a cold cache so the two
    // do the same verification work.
    core::ChainReport chains_j;
    core::ChainReport chains_1;
    auto validate = [&](core::ChainReport& out, int at) {
      x509::ValidationCache cold;
      out = core::validate_dataset(*at_jobs_.certs, world, cfg.validation_day,
                                   at, &cold);
    };
    counts_.add(unit, "exec.jJ.validate",
                time_ms([&] { validate(chains_j, jobs); }));
    counts_.add(unit, "exec.j1.validate",
                time_ms([&] { validate(chains_1, 1); }));

    const core::CertDataset* real = ingest_.certs();
    for (const ShadowSide* side : {&at_jobs_, &at_one_}) {
      bool same = real != nullptr &&
                  side->certs->extracted_snis() == real->extracted_snis() &&
                  side->certs->reachable_snis() == real->reachable_snis() &&
                  side->certs->leaves().size() == real->leaves().size();
      if (!same) {
        result_.check("shadow.cert_collect", false,
                      "shadow CertDataset counts differ from the ingest's");
      }
    }
    if (chains_j.validated != chains_1.validated ||
        chains_j.trusted != chains_1.trusted) {
      result_.check("shadow.validate", false,
                    "validate_dataset differs between jobs levels");
    }
  }

 private:
  void check_client(const core::ClientDataset& real,
                    const core::ClientDataset& shadow, const char* which) {
    const core::DatasetIndex& a = real.index();
    const core::DatasetIndex& b = shadow.index();
    bool same = a.fps().size() == b.fps().size() &&
                a.snis().size() == b.snis().size() &&
                a.devices().size() == b.devices().size() &&
                a.vendors().size() == b.vendors().size() &&
                real.dropped_events() == shadow.dropped_events();
    if (!same) {
      result_.check(std::string("shadow.client.") + which, false,
                    "shadow ClientDataset counts differ from the ingest's");
    }
  }

  const stream::StreamIngest& ingest_;
  Trace& trace_;
  UnitCounts& counts_;
  Result& result_;
  ShadowSide at_jobs_;
  ShadowSide at_one_;
};

/// Counter deltas across the real (not shadow) calls of one traced unit.
class CounterWindow {
 public:
  CounterWindow() { snap(before_); }
  void close(UnitCounts& counts, int unit) {
    std::map<std::string, std::uint64_t> after;
    snap(after);
    for (const auto& [name, v] : after) {
      counts.add(unit, name, static_cast<double>(v - before_[name]));
    }
  }

 private:
  static void snap(std::map<std::string, std::uint64_t>& out) {
    for (const char* name : {"net.probe.total", "net.probe.attempts",
                             "net.probe.retry", "x509.cache.hit",
                             "x509.cache.miss"}) {
      out[name] = obs::metrics().counter(name).value();
    }
  }
  std::map<std::string, std::uint64_t> before_;
};

void count_client(UnitCounts& counts, int unit,
                  const stream::StreamIngest& ingest,
                  const core::DropCounts& drops_before, std::size_t events_in) {
  const core::ClientDataset& client = ingest.client();
  const core::DropCounts& drops = client.drop_counts();
  counts.add(unit, "core.events_in", static_cast<double>(events_in));
  counts.add(unit, "core.drops.unknown_device",
             static_cast<double>(drops.unknown_device - drops_before.unknown_device));
  counts.add(unit, "core.drops.no_client_hello",
             static_cast<double>(drops.no_client_hello - drops_before.no_client_hello));
  counts.add(unit, "core.drops.parse_error",
             static_cast<double>(drops.parse_error - drops_before.parse_error));
  counts.add(unit, "core.index.fingerprints", client.index().fps().size());
  counts.add(unit, "core.index.snis", client.index().snis().size());
  counts.add(unit, "core.index.devices", client.index().devices().size());
  if (const core::CertDataset* certs = ingest.certs()) {
    counts.add(unit, "core.reachable_share",
               certs->extracted_snis() == 0
                   ? 0.0
                   : static_cast<double>(certs->reachable_snis()) /
                         static_cast<double>(certs->extracted_snis()));
  }
}

std::map<std::string, std::string> render_all(
    const std::vector<std::string>& names, stream::StreamIngest& ingest,
    Trace& trace) {
  std::map<std::string, std::string> docs;
  for (const std::string& name : names) {
    // The chains document is chain validation plus a small JSON build, so
    // its span is the x509 layer's.
    auto s = trace.span(name == "chains" ? "x509.validate"
                                         : "stream.render." + name);
    docs[name] = stream::render_report(name, ingest)->dump();
  }
  return docs;
}

// ------------------------------------------------------------ per-layer

std::string layer_of(const std::string& span) {
  return span.substr(0, span.find('.'));
}

/// The full per-layer metric set, in one order for every workload; a layer
/// call the workload never makes reads 0.
void emit_layers(const Trace& trace, const UnitCounts& counts, Result& r) {
  std::vector<perfbench::UnitBreakdown> units =
      perfbench::breakdown(trace.spans(), layer_of);
  auto per_unit_ms = [&](const std::string& span) {
    std::vector<double> v;
    for (const auto& u : units) {
      auto it = u.by_name_ms.find(span);
      v.push_back(it == u.by_name_ms.end() ? 0.0 : it->second);
    }
    return median(v);
  };
  auto per_call = [&](const std::string& span, double scale) {
    std::vector<double> v;
    for (const perfbench::Span& s : trace.spans()) {
      if (s.name == span) v.push_back(s.ms() * scale);
    }
    return median(v);
  };
  auto speedup = [&](const std::string& stage) {
    double one = counts.sum_of("exec.j1." + stage);
    double jobs = counts.sum_of("exec.jJ." + stage);
    return jobs > 0 ? one / jobs : 0.0;
  };
  auto put = [&](const std::string& name, double value, const char* unit) {
    r.layers.emplace_back(name, Json(Json::Object{{"value", value},
                                                  {"unit", unit}}));
  };

  put("devicesim.import_csv_ms", per_unit_ms("devicesim.import_csv"), "ms");
  put("devicesim.build_world_ms", per_unit_ms("devicesim.build_world"), "ms");
  put("fleetio.open_ms", per_unit_ms("fleetio.open"), "ms");
  put("fleetio.devices_ms", per_unit_ms("fleetio.devices"), "ms");
  put("fleetio.materialize_ms", per_unit_ms("fleetio.materialize"), "ms");
  put("fleetio.events", counts.median_of("fleetio.events"), "count");
  put("tls.parse_fingerprint_ms", per_unit_ms("tls.parse_fingerprint"), "ms");
  put("core.append_events_ms", per_unit_ms("core.append_events"), "ms");
  put("core.finalize_ms", per_unit_ms("core.finalize"), "ms");
  for (const char* c :
       {"core.events_in", "core.drops.unknown_device",
        "core.drops.no_client_hello", "core.drops.parse_error",
        "core.index.fingerprints", "core.index.snis", "core.index.devices"}) {
    put(c, counts.median_of(c), "count");
  }
  put("core.cert_collect_ms", per_unit_ms("core.cert_collect"), "ms");
  put("core.cert_collect.fresh_snis",
      counts.median_of("core.cert_collect.fresh_snis"), "count");
  put("core.cert_collect.memo_snis",
      counts.median_of("core.cert_collect.memo_snis"), "count");
  put("core.reachable_share", counts.median_of("core.reachable_share"), "share");
  for (const char* c : {"net.probe.total", "net.probe.attempts", "net.probe.retry"}) {
    put(c, counts.median_of(c), "count");
  }
  put("net.stacks_ms", per_unit_ms("net.stacks"), "ms");
  put("net.stacks.fresh_snis", counts.median_of("net.stacks.fresh_snis"), "count");
  put("x509.validate_ms", per_unit_ms("x509.validate"), "ms");
  double hit = counts.sum_of("x509.cache.hit");
  double miss = counts.sum_of("x509.cache.miss");
  put("x509.cache.hit_share", hit + miss > 0 ? hit / (hit + miss) : 0.0, "share");
  put("stream.fold_epoch_ms", per_unit_ms("stream.fold_epoch"), "ms");
  for (const std::string& name : stream::report_names()) {
    put("stream.render_ms." + name,
        per_unit_ms(name == "chains" ? "x509.validate" : "stream.render." + name),
        "ms");
  }
  put("ct.append_ms", per_unit_ms("ct.append"), "ms");
  put("ct.tree_head_ms", per_unit_ms("ct.tree_head"), "ms");
  put("ct.consistency_proof_ms", per_unit_ms("ct.consistency_proof"), "ms");
  put("ct.inclusion_proof_us", per_call("ct.inclusion_proof", 1e3), "us");
  put("ct.verify_us", per_call("ct.verify", 1e3), "us");
  put("ct.proof_hashes", counts.median_of("ct.proof_hashes"), "count");
  for (const char* stage :
       {"append_events", "cert_collect", "validate", "materialize"}) {
    put(std::string("exec.speedup.") + stage, speedup(stage), "x");
  }
  for (const char* layer : {"devicesim", "fleetio", "tls", "core", "net",
                            "x509", "stream", "ct"}) {
    std::vector<double> v;
    for (const auto& u : units) {
      auto it = u.self_by_layer_ms.find(layer);
      v.push_back(it == u.self_by_layer_ms.end() ? 0.0 : it->second);
    }
    put(std::string("bench.self_ms.") + layer, median(v), "ms");
  }
  std::vector<double> unattributed;
  for (const auto& u : units) {
    if (u.wall_ms > 0) unattributed.push_back(u.unattributed_ms / u.wall_ms);
  }
  put("bench.unattributed_share", median(unattributed), "share");
  double plain = median(r.unit_ms);
  put("bench.trace_overhead_share",
      plain > 0 ? median(r.traced_unit_ms) / plain - 1.0 : 0.0, "share");
}

// ------------------------------------------------------------- prepare

void prepare_paper(const Options& o) {
  devicesim::FleetConfig config;
  config.seed = o.seed;
  auto fleet = devicesim::generate_fleet(config,
                                         corpus::LibraryCorpus::standard(),
                                         devicesim::ServerUniverse::standard());
  spit(o.dir + "/events.csv", devicesim::export_events_csv(fleet));
  spit(o.dir + "/devices.csv", devicesim::export_devices_csv(fleet));
}

void prepare_fleet_stream(const Options& o) {
  auto fleet = devicesim::generate_synthetic_fleet(fleet_stream_spec());
  // Crowdsourced uploads arrive interleaved across devices; the seed picks
  // the interleaving.
  SplitMix rng{o.seed};
  for (std::size_t i = fleet.events.size(); i > 1; --i) {
    std::swap(fleet.events[i - 1], fleet.events[rng.below(i)]);
  }
  fleetio::write_snapshot(fleet, o.dir + "/fleet.iotlsnap");
}

// ---------------------------------------------------------- paper_batch

void run_paper_batch(const Options& o, Result& r, Trace& trace) {
  const std::string events_csv = slurp(o.dir + "/events.csv");
  const std::string devices_csv = slurp(o.dir + "/devices.csv");
  stream::IngestConfig config;
  config.jobs = o.jobs;
  config.certs = true;
  config.retain_events = false;

  struct Pass {
    double wall_ms = 0;  // the unit, not the teardown or the shadow replays
    std::map<std::string, std::string> docs;
    std::size_t events = 0;
    std::size_t reachable = 0;
    std::size_t extracted = 0;
  };
  UnitCounts counts;
  // One cold pass exactly as `iotls_audit --report` runs it.
  auto pass = [&](bool traced) {
    Pass out;
    devicesim::FleetDataset fleet;
    std::optional<stream::StreamIngest> ingest;
    int fold_id = -1;
    CounterWindow window;
    auto t0 = Clock::now();
    {
      auto unit = trace.unit();
      {
        auto s = trace.span("devicesim.import_csv");
        fleet = devicesim::import_events_csv(events_csv, devices_csv);
      }
      {
        auto s = trace.span("devicesim.build_world");
        ingest.emplace(fleet.devices, config);
      }
      {
        auto s = trace.span("stream.fold_epoch");
        fold_id = s.id();
        ingest->fold_epoch(fleet.events);
      }
      out.docs = render_all(paper_reports(), *ingest, trace);
    }
    out.wall_ms = ms_between(t0, Clock::now());
    out.events = fleet.events.size();
    out.reachable = ingest->certs()->reachable_snis();
    out.extracted = ingest->certs()->extracted_snis();
    if (traced) {
      int unit = trace.current_unit();
      window.close(counts, unit);
      count_client(counts, unit, *ingest, core::DropCounts{}, out.events);
      Shadow shadow(*ingest, trace, counts, r);
      shadow.fold(fleet.events, fleet.devices, fold_id);
    }
    return out;
  };

  // setup_s: the cold first pass of a fresh process (lazy static tables,
  // first-touch page faults, allocator growth). No thread exists yet, so
  // forking here is safe; each child times one pass and reports it.
  for (int i = 0; i < kPaperSetupForks; ++i) {
    int fds[2];
    if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
    pid_t pid = fork();
    if (pid < 0) throw std::runtime_error("fork failed");
    if (pid == 0) {
      close(fds[0]);
      double ms = pass(false).wall_ms;
      ssize_t n = write(fds[1], &ms, sizeof(ms));
      _exit(n == static_cast<ssize_t>(sizeof(ms)) ? 0 : 1);
    }
    close(fds[1]);
    double ms = 0;
    ssize_t n = read(fds[0], &ms, sizeof(ms));
    close(fds[0]);
    int status = 0;
    waitpid(pid, &status, 0);
    if (n != static_cast<ssize_t>(sizeof(ms)) || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
      throw std::runtime_error("setup probe process failed");
    }
    r.setup_ms.push_back(ms);
  }

  trace.set_active(false);
  std::optional<Pass> first;
  bool stable = true;
  for (int i = 0; i < o.warmup + o.units; ++i) {
    bool timed = i >= o.warmup;
    bool traced = o.trace && timed && (i - o.warmup) % 2 == 1;
    trace.set_active(traced);
    Pass p = pass(traced);
    if (!first) first = p;
    stable = stable && p.docs == first->docs;
    if (!timed) continue;
    if (traced) {
      r.traced_unit_ms.push_back(p.wall_ms);
      continue;
    }
    r.unit_ms.push_back(p.wall_ms);
    r.timed_ms += p.wall_ms;
    r.work += static_cast<double>(p.events);
  }
  trace.set_active(false);
  r.check("paper_batch.passes_identical", stable,
          "every pass renders the same eight documents");
  std::filesystem::create_directories(o.dir + "/docs");
  for (const auto& [name, doc] : first->docs) {
    spit(o.dir + "/docs/" + name + ".json", doc + "\n");
  }
  r.ok = first->reachable;
  r.attempted = first->extracted;
  if (o.trace) emit_layers(trace, counts, r);
}

// -------------------------------------------------------- daemon_epochs

void run_daemon_epochs(const Options& o, Result& r, Trace& trace) {
  devicesim::FleetDataset fleet = devicesim::import_events_csv(
      slurp(o.dir + "/events.csv"), slurp(o.dir + "/devices.csv"));
  std::vector<std::vector<devicesim::ClientHelloEvent>> epochs;
  for (std::size_t at = 0; at < fleet.events.size(); at += kDaemonEpochEvents) {
    std::size_t end = std::min(fleet.events.size(), at + kDaemonEpochEvents);
    epochs.emplace_back(fleet.events.begin() + static_cast<std::ptrdiff_t>(at),
                        fleet.events.begin() + static_cast<std::ptrdiff_t>(end));
  }
  stream::IngestConfig config;
  config.jobs = o.jobs;
  config.certs = true;
  config.fault = net::FaultSpec::parse(kDaemonFaultSpec);

  UnitCounts counts;
  std::optional<std::map<std::string, std::string>> final_docs;
  bool stable = true;
  std::size_t reachable = 0;
  std::size_t extracted = 0;
  // Here a unit is a replay and --warmup counts the leading epochs of the
  // first replay that are discarded (lazy statics, first allocations).
  for (int replay = 0; replay < o.units; ++replay) {
    bool traced = o.trace && replay % 2 == 1;
    trace.set_active(false);
    auto s0 = Clock::now();
    stream::StreamIngest ingest(fleet.devices, config);
    r.setup_ms.push_back(ms_between(s0, Clock::now()));
    trace.set_active(traced);
    std::optional<Shadow> shadow;
    if (traced) shadow.emplace(ingest, trace, counts, r);

    std::set<std::string> fingerprinted;
    std::map<std::string, std::string> docs;
    for (std::size_t e = 0; e < epochs.size(); ++e) {
      const auto& epoch = epochs[e];
      bool timed = replay > 0 || e >= static_cast<std::size_t>(o.warmup);
      int fold_id = -1;
      core::DropCounts drops_before = ingest.client().drop_counts();
      CounterWindow window;
      auto t0 = Clock::now();
      {
        auto unit = trace.unit();
        {
          auto s = trace.span("stream.fold_epoch");
          fold_id = s.id();
          ingest.fold_epoch(epoch);
        }
        {
          auto s = trace.span("net.stacks");
          ingest.stacks();
        }
        docs = render_all(stream::report_names(), ingest, trace);
      }
      double ms = ms_between(t0, Clock::now());
      if (!timed) continue;
      if (!traced) {
        r.unit_ms.push_back(ms);
        r.timed_ms += ms;
        r.work += static_cast<double>(epoch.size());
        continue;
      }
      int unit = trace.current_unit();
      r.traced_unit_ms.push_back(ms);
      window.close(counts, unit);
      count_client(counts, unit, ingest, drops_before, epoch.size());
      std::size_t fresh = 0;
      for (const core::SniRecord& record : ingest.certs()->records()) {
        fresh += fingerprinted.insert(record.sni).second ? 1 : 0;
      }
      counts.add(unit, "net.stacks.fresh_snis", static_cast<double>(fresh));
      shadow->fold(epoch, fleet.devices, fold_id);
    }
    if (!final_docs) final_docs = docs;
    stable = stable && docs == *final_docs;
    reachable = ingest.certs()->reachable_snis();
    extracted = ingest.certs()->extracted_snis();
  }
  trace.set_active(false);
  r.check("daemon_epochs.replays_identical", stable,
          "every replay ends on the same ten documents");

  // The daemon's epoch-prefix contract: the final epoch's documents equal a
  // single-epoch fold of the same events under the same fault spec.
  stream::StreamIngest batch(fleet.devices, config);
  batch.fold_epoch(fleet.events);
  auto batch_docs = render_all(stream::report_names(), batch, trace);
  for (const std::string& name : stream::report_names()) {
    r.check("daemon_epochs.epoch_prefix." + name,
            batch_docs[name] == (*final_docs)[name],
            "final epoch vs single-epoch fold");
  }
  r.ok = reachable;
  r.attempted = extracted;
  if (o.trace) emit_layers(trace, counts, r);
}

// --------------------------------------------------------- fleet_stream

void run_fleet_stream(const Options& o, Result& r, Trace& trace) {
  const std::string path = o.dir + "/fleet.iotlsnap";
  UnitCounts counts;

  struct Pass {
    double wall_ms = 0;  // the unit, not the teardown or the shadow replays
    std::map<std::string, std::string> docs;
    std::uint64_t offered = 0;
    std::uint64_t folded = 0;
  };
  // One streaming pass, exactly as `iotls_audit --snapshot --report` runs it.
  auto pass = [&](int jobs, bool traced) {
    Pass out;
    stream::IngestConfig config;
    config.jobs = jobs;
    config.retain_events = false;
    std::optional<stream::SnapshotSource> source;
    std::optional<stream::StreamIngest> ingest;
    // A traced pass keeps its epochs so the shadow can replay them once the
    // unit is over.
    std::vector<std::pair<int, stream::EventBatch>> kept;
    auto t0 = Clock::now();
    {
      auto unit = trace.unit();
      {
        auto s = trace.span("fleetio.open");
        std::optional<fleetio::SnapshotReader> reader;
        double open_ms =
            time_ms([&] { reader = fleetio::SnapshotReader::open(path); });
        if (jobs == o.jobs) r.setup_ms.push_back(open_ms);
        source.emplace(std::move(*reader),
                       stream::SnapshotSource::kDefaultChunkEvents, jobs);
      }
      std::vector<devicesim::Device> devices;
      {
        auto s = trace.span("fleetio.devices");
        devices = source->reader().devices();
      }
      {
        auto s = trace.span("stream.ingest_init");
        ingest.emplace(std::move(devices), config);
      }
      while (true) {
        std::optional<stream::EventBatch> batch;
        {
          auto s = trace.span("fleetio.materialize");
          batch = source->next_epoch();
        }
        if (!batch) break;
        int fold_id = -1;
        {
          auto s = trace.span("stream.fold_epoch");
          fold_id = s.id();
          ingest->fold_epoch(batch->events);
        }
        out.offered += batch->events.size();
        if (traced) kept.emplace_back(fold_id, std::move(*batch));
      }
      out.docs = render_all(fleet_reports(), *ingest, trace);
    }
    out.wall_ms = ms_between(t0, Clock::now());
    out.folded = ingest->events_ingested() - ingest->client().dropped_events();
    if (!traced) return out;

    int unit = trace.current_unit();
    count_client(counts, unit, *ingest, core::DropCounts{}, out.offered);
    std::vector<devicesim::Device> devices = source->reader().devices();
    Shadow shadow(*ingest, trace, counts, r);
    std::uint64_t at = 0;
    for (std::size_t i = 0; i < kept.size(); ++i) {
      const auto& events = kept[i].second.events;
      counts.add(unit, "fleetio.events", static_cast<double>(events.size()));
      shadow.fold(events, devices, kept[i].first, i + 1 == kept.size());
      std::uint64_t end = at + events.size();
      counts.add(unit, "exec.jJ.materialize",
                 time_ms([&] { source->reader().events(at, end, jobs); }));
      counts.add(unit, "exec.j1.materialize",
                 time_ms([&] { source->reader().events(at, end, 1); }));
      at = end;
    }
    return out;
  };

  std::optional<Pass> first;
  bool stable = true;
  for (int i = 0; i < o.warmup + o.units; ++i) {
    bool timed = i >= o.warmup;
    bool traced = o.trace && timed && (i - o.warmup) % 2 == 1;
    trace.set_active(traced);
    Pass p = pass(o.jobs, traced);
    if (!first) first = p;
    stable = stable && p.docs == first->docs;
    if (!timed) continue;
    if (traced) {
      r.traced_unit_ms.push_back(p.wall_ms);
      continue;
    }
    r.unit_ms.push_back(p.wall_ms);
    r.timed_ms += p.wall_ms;
    r.work += static_cast<double>(p.offered);
  }
  trace.set_active(false);
  r.check("fleet_stream.passes_identical", stable,
          "every pass renders the same four documents");
  Pass sequential = pass(1, false);
  for (const std::string& name : fleet_reports()) {
    r.check("fleet_stream.jobs_identity." + name,
            sequential.docs[name] == first->docs[name],
            "jobs=1 vs jobs=J documents");
  }
  r.ok = first->folded;
  r.attempted = first->offered;
  if (o.trace) emit_layers(trace, counts, r);
}

// --------------------------------------------------------------- ct_log

void run_ct_log(const Options& o, Result& r, Trace& trace) {
  const std::size_t units = static_cast<std::size_t>(o.warmup + o.units);
  SplitMix rng{o.seed};
  std::vector<Bytes> entries(kCtBootstrap + units * kCtBatch);
  for (Bytes& e : entries) {
    e.resize(kCtEntryMin + rng.below(kCtEntrySpan));
    for (std::uint8_t& b : e) b = static_cast<std::uint8_t>(rng.next());
  }
  SplitMix pick{o.seed ^ 0x5ca1ab1e5eedULL};
  auto view = [&](std::size_t i) {
    return BytesView(entries[i].data(), entries[i].size());
  };

  // setup_s: bootstrap the log to its starting size and take its head.
  ct::MerkleTree tree;
  ct::Hash head{};
  for (int i = 0; i < kCtSetupRepeats; ++i) {
    auto t0 = Clock::now();
    ct::MerkleTree fresh;
    for (std::size_t j = 0; j < kCtBootstrap; ++j) fresh.append(view(j));
    head = fresh.root();
    r.setup_ms.push_back(ms_between(t0, Clock::now()));
    tree = std::move(fresh);
  }

  UnitCounts counts;
  std::uint64_t requested = 0;
  std::uint64_t verified = 0;
  for (std::size_t u = 0; u < units; ++u) {
    bool timed = u >= static_cast<std::size_t>(o.warmup);
    bool traced = o.trace && timed && (u - static_cast<std::size_t>(o.warmup)) % 2 == 1;
    trace.set_active(traced);
    const std::uint64_t prev = tree.size();
    const ct::Hash prev_head = head;
    std::uint64_t asked = 0;
    std::uint64_t ok = 0;
    std::size_t path_hashes = 0;
    auto t0 = Clock::now();
    {
      auto unit = trace.unit();
      {
        auto s = trace.span("ct.append");
        for (std::size_t k = 0; k < kCtBatch; ++k) tree.append(view(prev + k));
      }
      const std::uint64_t size = tree.size();
      {
        auto s = trace.span("ct.tree_head");
        head = tree.root();
      }
      std::vector<ct::Hash> consistency;
      {
        auto s = trace.span("ct.consistency_proof");
        consistency = tree.consistency_proof(prev, size);
      }
      {
        auto s = trace.span("ct.verify");
        ok += ct::verify_consistency(prev, size, prev_head, head, consistency);
        ++asked;
      }
      auto prove = [&](std::uint64_t i) {
        std::vector<ct::Hash> proof;
        {
          auto s = trace.span("ct.inclusion_proof");
          proof = tree.inclusion_proof(i, size);
        }
        auto s = trace.span("ct.verify");
        ok += ct::verify_inclusion(ct::leaf_hash(view(i)), i, size, proof, head);
        ++asked;
        path_hashes += proof.size();
      };
      for (std::size_t k = 0; k < kCtBatch; ++k) prove(prev + k);
      for (std::size_t k = 0; k < kCtSampled; ++k) prove(pick.below(prev));
    }
    double ms = ms_between(t0, Clock::now());
    requested += asked;
    verified += ok;
    if (!timed) continue;
    if (traced) {
      r.traced_unit_ms.push_back(ms);
      counts.add(trace.current_unit(), "ct.proof_hashes",
                 static_cast<double>(path_hashes) /
                     static_cast<double>(kCtBatch + kCtSampled));
      continue;
    }
    r.unit_ms.push_back(ms);
    r.timed_ms += ms;
    r.work += static_cast<double>(ok);
  }
  trace.set_active(false);
  r.check("ct_log.all_proofs_verify", verified == requested,
          std::to_string(verified) + "/" + std::to_string(requested));

  // A tampered leaf must not verify, nor a tampered earlier head.
  std::uint64_t victim = pick.below(tree.size());
  Bytes forged = entries[victim];
  forged[forged.size() / 2] ^= 0x01;
  auto proof = tree.inclusion_proof(victim, tree.size());
  bool forged_ok = ct::verify_inclusion(
      ct::leaf_hash(BytesView(forged.data(), forged.size())), victim,
      tree.size(), proof, head);
  r.check("ct_log.tampered_leaf_rejected", !forged_ok, "flipped one entry byte");
  std::uint64_t half = tree.size() / 2;
  ct::Hash wrong = tree.root(half);
  wrong[0] ^= 0x01;
  bool forged_cons = ct::verify_consistency(
      half, tree.size(), wrong, head, tree.consistency_proof(half, tree.size()));
  r.check("ct_log.tampered_head_rejected", !forged_cons, "flipped one head byte");

  r.ok = verified;
  r.attempted = requested;
  if (o.trace) emit_layers(trace, counts, r);
}

// ----------------------------------------------------------------- main

/// False on a malformed command line (numbers included).
bool parse_args(int argc, char** argv, Options& o) try {
  if (argc < 2) return false;
  o.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&](const char* key) -> std::optional<std::string> {
      std::string prefix = std::string("--") + key + "=";
      if (arg.rfind(prefix, 0) != 0) return std::nullopt;
      return arg.substr(prefix.size());
    };
    if (auto v = value("workload")) o.workload = *v;
    else if (auto v = value("dir")) o.dir = *v;
    else if (auto v = value("seed")) o.seed = std::stoull(*v);
    else if (auto v = value("jobs")) o.jobs = std::stoi(*v);
    else if (auto v = value("units")) o.units = std::stoi(*v);
    else if (auto v = value("warmup")) o.warmup = std::stoi(*v);
    else if (arg == "--trace") o.trace = true;
    else return false;
  }
  return (o.mode == "prepare" || o.mode == "run") && !o.workload.empty() &&
         !o.dir.empty() && o.jobs >= 1 && o.units >= 1 && o.warmup >= 0;
} catch (const std::logic_error&) {  // std::sto* on a non-number
  return false;
}

Json to_json(const std::vector<double>& v) {
  Json::Array out;
  for (double x : v) out.emplace_back(x);
  return Json(std::move(out));
}

int run(const Options& o) {
  Trace trace(o.trace);
  Result r;
  if (o.workload == "paper_batch") run_paper_batch(o, r, trace);
  else if (o.workload == "daemon_epochs") run_daemon_epochs(o, r, trace);
  else if (o.workload == "fleet_stream") run_fleet_stream(o, r, trace);
  else if (o.workload == "ct_log") run_ct_log(o, r, trace);
  else throw std::invalid_argument("unknown workload " + o.workload);

  if (o.trace && !trace.write(o.dir + "/trace.json")) {
    r.check("trace.written", false, "cannot write trace.json");
  }
  Json::Array checks;
  for (const Check& c : r.checks) {
    checks.emplace_back(Json::Object{
        {"name", c.name}, {"ok", c.ok}, {"detail", c.detail}});
  }
  Json out(Json::Object{
      {"workload", o.workload},
      {"seed", o.seed},
      {"jobs", o.jobs},
      {"units", o.units},
      {"warmup", o.warmup},
      {"setup_ms", to_json(r.setup_ms)},
      {"unit_ms", to_json(r.unit_ms)},
      {"traced_unit_ms", to_json(r.traced_unit_ms)},
      {"work", r.work},
      {"timed_ms", r.timed_ms},
      {"ok", r.ok},
      {"attempted", r.attempted},
      {"peak_rss_kb", obs::read_proc_memory().rss_peak_bytes / 1024},
      {"checks", Json(std::move(checks))},
      {"layers", Json(std::move(r.layers))},
  });
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!parse_args(argc, argv, o)) {
    std::fprintf(stderr,
                 "usage: perfbench prepare --workload=W --seed=N --dir=D\n"
                 "       perfbench run --workload=W --seed=N --dir=D --jobs=J\n"
                 "                     --units=U --warmup=K [--trace]\n");
    return 2;
  }
  try {
    if (o.mode == "prepare") {
      if (o.workload == "paper_batch" || o.workload == "daemon_epochs") {
        prepare_paper(o);
      } else if (o.workload == "fleet_stream") {
        prepare_fleet_stream(o);
      } else if (o.workload != "ct_log") {
        throw std::invalid_argument("unknown workload " + o.workload);
      }
      return 0;
    }
    return run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
