// iotls_probe — probe IoT servers and validate their certificate chains.
//
// Usage:
//   iotls_probe [--all] [--jobs=N] [--stats[=json]] [--retries=N]
//               [--backoff-ms=N] [--retry-budget=N] [--breaker=N]
//               [--fault-spec=SPEC] [sni ...]
//
// Runs against the repository's simulated internet (this reproduction has
// no live sockets): performs a full TLS exchange from each of the three
// vantage points, validates the served chain against the Mozilla+Apple+
// Microsoft store union, and reports issuer, validity, CT presence, OCSP
// stapling and geo consistency — the §5 pipeline for arbitrary names.
//
// Resilience: `--retries=N` allows N total attempts per probe with
// exponential backoff (`--backoff-ms` base, deterministic jitter) on
// transient failures only; `--retry-budget` caps a survey's extra attempts;
// `--breaker=N` quarantines an SNI after N consecutive connectivity
// failures (0 disables). `--fault-spec` layers deterministic network chaos
// over the simulation, e.g.
//   --fault-spec=seed=7,timeout=0.2,reset=0.05,outage=frankfurt:10:25
// so the retry/breaker machinery can be exercised and measured end to end.
//
// Parallelism: `--jobs=N` fans the survey across N worker threads (0 =
// hardware concurrency, default 1 = sequential). SNIs are sharded by name
// and merged in input order, so the report is byte-identical to --jobs=1
// (see README "Parallelism" for the two documented caveats).
//
// Fingerprinting: `--battery[=K]` switches from certificate harvesting to
// active stack fingerprinting — the first K probes (default: all) of the
// normative ClientHello battery (docs/FINGERPRINTING.md) against each SNI,
// canonicalized and hashed into one digest per (SNI, vantage, family).
// `--family=v4|v6|dual` picks the address families probed (dual requires
// --battery; without it, v4/v6 steers the certificate prober). The battery
// honours --retries/--backoff-ms/--breaker/--fault-spec; --retry-budget is
// deliberately ignored (budget exhaustion is walk-order-dependent and
// would break the --jobs byte-identity contract).
//
// Observability: set IOTLS_LOG_LEVEL=debug for structured per-probe logs on
// stderr. `--stats` appends per-stage timings and the metric registry to
// the report; `--stats=json` replaces the report with one JSON document
// (counters, histograms, stage spans) on stdout. `--serve=PORT` exposes the
// live export plane (/metrics, /stats, /healthz, /readyz, /trace) during the
// survey — with `--serve-linger[=MS]` it stays up after the run so a scraper
// can collect final totals; `--trace-out=FILE` writes a Chrome trace-event
// JSON of the survey's nested spans (open it in Perfetto).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "devicesim/scenario.hpp"
#include "net/fault.hpp"
#include "net/prober.hpp"
#include "net/stack_fingerprint.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "report/obs_report.hpp"
#include "obs_cli.hpp"
#include "util/dates.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "x509/validation.hpp"

using namespace iotls;

namespace {

enum class StatsMode { kOff, kText, kJson };

void usage(std::FILE* out) {
  std::fprintf(out,
               "usage: iotls_probe [--all] [--jobs=N] [--stats[=json]] [--retries=N]\n"
               "                   [--backoff-ms=N] [--retry-budget=N] [--breaker=N]\n"
               "                   [--fault-spec=SPEC] [--battery[=K]]\n"
               "                   [--family=v4|v6|dual] [--serve=PORT]\n"
               "                   [--serve-linger[=MS]] [--trace-out=FILE] [sni ...]\n");
}

constexpr std::uint64_t kIntMax = std::numeric_limits<int>::max();

/// Parse the numeric value of a `--flag=N` argument in [0, max]; exits on
/// garbage.
std::uint64_t flag_u64(const char* arg, const char* flag,
                       std::uint64_t max = UINT64_MAX) {
  const char* value = arg + std::strlen(flag);
  auto n = parse_u64(value, max);
  if (!n) {
    std::fprintf(stderr, "%s wants a non-negative integer, got '%s'\n", flag, value);
    std::exit(2);
  }
  return *n;
}

bool has_prefix(const char* arg, const char* prefix) {
  return std::strncmp(arg, prefix, std::strlen(prefix)) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool all = false;
  StatsMode stats = StatsMode::kOff;
  net::RetryPolicy retry;
  net::BreakerConfig breaker;
  net::FaultSpec fault_spec;
  bool faults = false;
  bool battery = false;
  std::size_t battery_k = 0;  // 0 = the full standard battery
  std::string family_flag = "v4";
  int jobs = 1;
  tools::ObsCli obs_cli;
  std::vector<std::string> snis;
  for (int i = 1; i < argc; ++i) {
    bool bad = false;
    if (obs_cli.parse(argv[i], &bad)) {
      if (bad) return 2;
    }
    else if (std::strcmp(argv[i], "--all") == 0) all = true;
    else if (has_prefix(argv[i], "--jobs=")) {
      jobs = static_cast<int>(flag_u64(argv[i], "--jobs=", kIntMax));
    }
    else if (std::strcmp(argv[i], "--stats") == 0) stats = StatsMode::kText;
    else if (std::strcmp(argv[i], "--stats=json") == 0) stats = StatsMode::kJson;
    else if (has_prefix(argv[i], "--retries=")) {
      retry.max_attempts =
          1 + static_cast<int>(flag_u64(argv[i], "--retries=", kIntMax - 1));
    } else if (has_prefix(argv[i], "--backoff-ms=")) {
      retry.base_backoff_ms = flag_u64(argv[i], "--backoff-ms=");
    } else if (has_prefix(argv[i], "--retry-budget=")) {
      retry.retry_budget = flag_u64(argv[i], "--retry-budget=");
    } else if (has_prefix(argv[i], "--breaker=")) {
      breaker.failure_threshold =
          static_cast<int>(flag_u64(argv[i], "--breaker=", kIntMax));
    } else if (std::strcmp(argv[i], "--battery") == 0) {
      battery = true;
    } else if (has_prefix(argv[i], "--battery=")) {
      battery = true;
      battery_k = static_cast<std::size_t>(flag_u64(argv[i], "--battery="));
      if (battery_k == 0) {
        std::fprintf(stderr, "--battery wants K >= 1 probes\n");
        return 2;
      }
    } else if (has_prefix(argv[i], "--family=")) {
      family_flag = argv[i] + std::strlen("--family=");
      if (family_flag != "v4" && family_flag != "v6" && family_flag != "dual") {
        std::fprintf(stderr, "--family wants v4|v6|dual, got '%s'\n",
                     family_flag.c_str());
        return 2;
      }
    } else if (has_prefix(argv[i], "--fault-spec=")) {
      try {
        fault_spec = net::FaultSpec::parse(argv[i] + std::strlen("--fault-spec="));
        faults = true;
      } catch (const ParseError& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
      }
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      usage(stderr);
      return 2;
    }
    else snis.emplace_back(argv[i]);
  }
  if (!all && snis.empty()) {
    usage(stderr);
    std::fprintf(stderr, "example: iotls_probe appboot.netflix.com a2.tuyaus.com\n");
    return 2;
  }
  if (family_flag == "dual" && !battery) {
    std::fprintf(stderr, "--family=dual requires --battery (the certificate "
                         "prober walks one family per run)\n");
    return 2;
  }
  if (!obs_cli.start()) return 2;

  auto universe = devicesim::ServerUniverse::standard();
  devicesim::SimWorld world = devicesim::build_world(universe);

  // Optionally decorate the simulated internet with seeded chaos.
  net::VirtualClock clock;
  std::unique_ptr<net::FaultInjector> injector;
  const net::Internet* internet = &world.internet;
  if (faults) {
    injector = std::make_unique<net::FaultInjector>(world.internet, fault_spec,
                                                    &clock);
    internet = injector.get();
  }
  const std::int64_t today = days(2022, 4, 15);
  const bool quiet = stats == StatsMode::kJson;  // stdout carries JSON only

  if (all) {
    for (const devicesim::ServerSpec& spec : universe.specs()) {
      snis.push_back(spec.fqdn);
    }
  }

  if (battery) {
    net::StackFingerprinter fingerprinter(*internet);
    const std::vector<net::ProbeSpec>& standard =
        net::StackFingerprinter::standard_battery();
    if (battery_k > 0 && battery_k < standard.size()) {
      fingerprinter.set_battery(std::vector<net::ProbeSpec>(
          standard.begin(),
          standard.begin() + static_cast<std::ptrdiff_t>(battery_k)));
    }
    std::vector<net::AddressFamily> families = {net::AddressFamily::kIPv4};
    if (family_flag == "v6") families = {net::AddressFamily::kIPv6};
    if (family_flag == "dual") {
      families = {net::AddressFamily::kIPv4, net::AddressFamily::kIPv6};
    }
    fingerprinter.set_families(families);
    fingerprinter.set_retry_policy(retry);
    fingerprinter.set_breaker(breaker);
    fingerprinter.set_clock(&clock);
    fingerprinter.set_jobs(jobs);

    net::StackSurvey survey = fingerprinter.survey(snis);
    std::size_t divergent = 0;
    for (const net::ServerStackResult& result : survey.results) {
      std::string line;
      const net::StackFingerprint* v4 = nullptr;
      const net::StackFingerprint* v6 = nullptr;
      for (net::AddressFamily family : families) {
        const net::StackFingerprint* fp =
            result.at(net::VantagePoint::kNewYork, family);
        if (family == net::AddressFamily::kIPv4) v4 = fp;
        else v6 = fp;
        line += "  " + net::family_name(family) + "=";
        line += (fp != nullptr && fp->answered) ? fp->digest : "unanswered";
      }
      bool diverged = v4 != nullptr && v6 != nullptr && v4->answered &&
                      v6->answered && v4->digest != v6->digest;
      if (diverged) ++divergent;
      if (!quiet) {
        std::printf("%-40s%s%s\n", result.sni.c_str(), line.c_str(),
                    diverged ? "  [DIVERGENT]" : "");
      }
    }
    if (!quiet) {
      const net::StackSurveySummary& s = survey.summary;
      std::printf("\nbattery: %zu probes x %zu famil%s x %zu vantages over "
                  "%zu SNIs\n",
                  fingerprinter.battery().size(), families.size(),
                  families.size() == 1 ? "y" : "ies", net::kAllVantagePoints.size(),
                  s.snis);
      std::printf("summary: %llu probes (%llu answered, %llu skipped), "
                  "%llu attempts (%llu retries)%s\n",
                  static_cast<unsigned long long>(s.probes),
                  static_cast<unsigned long long>(s.answered_probes),
                  static_cast<unsigned long long>(s.skipped_probes),
                  static_cast<unsigned long long>(s.attempts),
                  static_cast<unsigned long long>(s.retries),
                  family_flag == "dual"
                      ? (", " + std::to_string(divergent) + " dual-stack divergent").c_str()
                      : "");
      if (faults) {
        net::FaultInjector::Stats fs = injector->stats();
        std::printf("faults injected: %llu timeouts, %llu resets, "
                    "%llu truncated, %llu garbled over %llu connects\n",
                    static_cast<unsigned long long>(fs.timeouts),
                    static_cast<unsigned long long>(fs.resets),
                    static_cast<unsigned long long>(fs.truncated),
                    static_cast<unsigned long long>(fs.garbled),
                    static_cast<unsigned long long>(fs.connects));
      }
    }
    if (stats == StatsMode::kText) {
      std::printf("\n%s", report::stats_text(obs::metrics(), obs::tracer()).c_str());
    } else if (stats == StatsMode::kJson) {
      std::printf("%s\n", report::stats_json(obs::metrics(), obs::tracer()).c_str());
    }
    std::fflush(stdout);
    obs_cli.finish();
    return 0;
  }

  net::TlsProber prober(*internet);
  prober.set_retry_policy(retry);
  prober.set_breaker(breaker);
  prober.set_clock(&clock);
  prober.set_jobs(jobs);
  if (family_flag == "v6") prober.set_family(net::AddressFamily::kIPv6);
  // Shared across the walk: chains sharing intermediates verify each
  // signature edge once (x509.cache.{hit,miss} in --stats shows the ratio).
  x509::ValidationCache vcache;

  net::SurveyReport survey = prober.survey_report(snis);

  std::size_t ok = 0, failed = 0, unreachable = 0;
  for (const net::MultiVantageResult& multi : survey.results) {
    const std::string& sni = multi.sni;
    const net::ProbeResult& ny = multi.by_vantage.at(net::VantagePoint::kNewYork);
    if (!ny.reachable) {
      if (!quiet) {
        if (ny.quarantined) {
          std::printf("%-40s QUARANTINED (circuit breaker open)\n", sni.c_str());
        } else {
          std::printf("%-40s UNREACHABLE (%s; %s, %d attempt%s)\n", sni.c_str(),
                      ny.error_string().c_str(),
                      ny.transient ? "transient" : "persistent", ny.attempts,
                      ny.attempts == 1 ? "" : "s");
        }
      }
      ++unreachable;
      continue;
    }
    if (ny.chain.empty()) {
      // Reachable but served nothing we could decode into a chain (possible
      // under garbled-response fault injection).
      if (!quiet) std::printf("%-40s EMPTY CHAIN\n", sni.c_str());
      ++failed;
      continue;
    }
    x509::ValidationResult v = [&] {
      auto span = obs::tracer().span("chain.validate");
      span.add_items();
      auto result = x509::validate_chain(ny.chain, sni, world.trust, world.keys,
                                         today, &vcache);
      if (!x509::chain_trusted(result.status)) {
        span.fail(x509::chain_status_slug(result.status));
      }
      return result;
    }();
    const x509::Certificate& leaf = ny.chain.front();
    bool in_ct = world.ct_index.logged(leaf.fingerprint());
    {
      auto span = obs::tracer().span("report");
      span.add_items();
      if (!quiet) {
        std::printf("%-40s %s\n", sni.c_str(),
                    x509::chain_status_name(v.status).c_str());
        std::printf("    issuer: %-30s validity: %lld days%s%s\n",
                    leaf.issuer.organization.c_str(),
                    static_cast<long long>(leaf.validity_days()),
                    v.expired ? "  [EXPIRED]" : "",
                    v.hostname_ok ? "" : "  [CN MISMATCH]");
        std::printf("    CT: %s   OCSP staple: %s   geo-consistent: %s   chain len: %zu\n",
                    in_ct ? "logged" : "NOT logged",
                    ny.stapled.has_value() ? "yes" : "no",
                    multi.consistent_across_vantages() ? "yes" : "NO",
                    ny.chain.size());
      }
    }
    if (x509::chain_trusted(v.status) && !v.expired && v.hostname_ok) ++ok;
    else ++failed;
  }
  if (!quiet) {
    std::printf("\n%zu clean, %zu problematic, %zu unreachable\n", ok, failed,
                unreachable);
    std::printf("degradation: %s\n", survey.summary.to_string().c_str());
    if (faults) {
      net::FaultInjector::Stats fs = injector->stats();
      std::printf("faults injected: %llu timeouts, %llu resets, %llu truncated, "
                  "%llu garbled, %llu outage hits over %llu connects "
                  "(+%llu virtual ms latency)\n",
                  static_cast<unsigned long long>(fs.timeouts),
                  static_cast<unsigned long long>(fs.resets),
                  static_cast<unsigned long long>(fs.truncated),
                  static_cast<unsigned long long>(fs.garbled),
                  static_cast<unsigned long long>(fs.outage_hits),
                  static_cast<unsigned long long>(fs.connects),
                  static_cast<unsigned long long>(fs.latency_ms_total));
    }
  }

  if (stats == StatsMode::kText) {
    std::printf("\n%s", report::stats_text(obs::metrics(), obs::tracer()).c_str());
  } else if (stats == StatsMode::kJson) {
    std::printf("%s\n", report::stats_json(obs::metrics(), obs::tracer()).c_str());
  }
  // Flush before lingering so a supervisor that scrapes-then-quits sees the
  // stats document even when stdout is a pipe.
  std::fflush(stdout);
  obs_cli.finish();
  return failed > 0 ? 1 : 0;
}
