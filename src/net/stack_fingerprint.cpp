#include "net/stack_fingerprint.hpp"

#include <cstdio>

#include "crypto/sha256.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tls/alert.hpp"
#include "tls/record.hpp"
#include "tls/serverhello.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/writer.hpp"
#include "x509/certificate.hpp"

namespace iotls::net {

namespace {

constexpr std::uint16_t kGreaseValue = 0x0a0a;

std::string hex4(std::uint16_t v) {
  char buf[5];
  std::snprintf(buf, sizeof buf, "%04x", v);
  return buf;
}

/// Selected ALPN protocol from a ServerHello's extension 16 (RFC 7301 wire
/// form: u16 list length, then one u8-length-prefixed name). Empty when the
/// extension is absent or malformed.
std::string alpn_of_serverhello(const tls::ServerHello& sh) {
  for (const tls::Extension& e : sh.extensions) {
    if (e.type != 16) continue;
    if (e.data.size() < 3) return {};
    std::size_t name_len = e.data[2];
    if (3 + name_len > e.data.size()) return {};
    return std::string(e.data.begin() + 3, e.data.begin() + 3 + name_len);
  }
  return {};
}

/// Negotiated version: the supported_versions echo (extension 43) when
/// present — a TLS 1.3 ServerHello keeps 0x0303 on the wire — else the
/// legacy version field.
std::uint16_t version_of_serverhello(const tls::ServerHello& sh) {
  for (const tls::Extension& e : sh.extensions) {
    if (e.type == 43 && e.data.size() == 2) {
      return static_cast<std::uint16_t>((e.data[0] << 8) | e.data[1]);
    }
  }
  return sh.version;
}

/// One battery probe's outcome. `error` is kNone for a ServerHello and
/// kAlert for an alert; `transient` marks retryable network weather.
struct Outcome {
  std::string canonical;
  ProbeError error = ProbeError::kNone;
  bool transient = false;
  std::string leaf_fp;
};

/// One connection attempt with an encoded ClientHello flight.
Outcome probe_once(const Internet& internet, BytesView flight,
                   VantagePoint vantage, AddressFamily family) {
  Outcome out;
  Bytes response;
  try {
    response = internet.connect(vantage, family, flight);
  } catch (const NetError& e) {
    // Only network weather earns another attempt; dns ("no AAAA") and
    // protocol rejections are the path's definitive answer.
    NetFailure failure = classify(e.kind());
    out.error = failure.error;
    out.transient = failure.transient;
    out.canonical = "x|" + probe_error_name(failure.error);
    return out;
  }

  if (auto alert =
          tls::find_alert(BytesView(response.data(), response.size()))) {
    out.error = ProbeError::kAlert;
    out.canonical =
        "alert|" + std::to_string(static_cast<int>(alert->description));
    return out;
  }

  try {
    auto records =
        tls::parse_records(BytesView(response.data(), response.size()));
    Bytes handshakes = tls::handshake_payload(records);
    auto msgs = tls::split_handshakes(
        BytesView(handshakes.data(), handshakes.size()));
    std::string leaf_fp;
    for (const auto& m : msgs) {
      Bytes framed = tls::encode_handshake(
          m.type, BytesView(m.body.data(), m.body.size()));
      if (m.type == tls::HandshakeType::kServerHello) {
        auto sh =
            tls::ServerHello::parse(BytesView(framed.data(), framed.size()));
        std::string exts;
        for (const tls::Extension& e : sh.extensions) {
          if (!exts.empty()) exts += '+';
          exts += hex4(e.type);
        }
        if (exts.empty()) exts = "-";
        std::string alpn = alpn_of_serverhello(sh);
        out.canonical = hex4(version_of_serverhello(sh)) + "|" +
                        hex4(sh.cipher_suite) + "|" + exts + "|" +
                        (alpn.empty() ? "-" : alpn);
      } else if (m.type == tls::HandshakeType::kCertificate &&
                 leaf_fp.empty()) {
        auto cert_msg = tls::CertificateMsg::parse(
            BytesView(framed.data(), framed.size()));
        if (!cert_msg.chain.empty()) {
          leaf_fp = x509::Certificate::parse(
                        BytesView(cert_msg.chain.front().data(),
                                  cert_msg.chain.front().size()))
                        .fingerprint();
        }
      }
    }
    out.leaf_fp = std::move(leaf_fp);
    if (out.canonical.empty()) {  // no ServerHello at all
      out.error = ProbeError::kParse;
      out.canonical = "x|parse";
    }
  } catch (const ParseError&) {
    // A garbled flight is a definitive (non-retryable) observation, same
    // as the §5 prober.
    out.error = ProbeError::kParse;
    out.canonical = "x|parse";
  }
  return out;
}

}  // namespace

tls::ClientHello ProbeSpec::build(const std::string& sni) const {
  tls::ClientHello ch;
  ch.legacy_version = legacy_version;
  // Deterministic hello random: the battery must be a pure function of
  // (probe, sni) so a replayed survey sends identical bytes.
  Rng rng(fnv1a64("stackprobe:" + name + ":" + sni));
  for (auto& b : ch.random) b = static_cast<std::uint8_t>(rng.uniform(0, 255));

  if (grease) ch.cipher_suites.push_back(kGreaseValue);
  ch.cipher_suites.insert(ch.cipher_suites.end(), cipher_suites.begin(),
                          cipher_suites.end());

  if (grease) ch.extensions.push_back({kGreaseValue, {}});
  for (std::uint16_t code : extensions) {
    switch (code) {
      case 0:
        ch.set_sni(sni);
        break;
      case 10:  // supported_groups: secp256r1, secp384r1
        ch.extensions.push_back({10, {0x00, 0x04, 0x00, 0x17, 0x00, 0x18}});
        break;
      case 11:  // ec_point_formats: uncompressed
        ch.extensions.push_back({11, {0x01, 0x00}});
        break;
      case 13:  // signature_algorithms: ecdsa_sha256, rsa_pkcs1_sha384
        ch.extensions.push_back({13, {0x00, 0x04, 0x04, 0x01, 0x05, 0x01}});
        break;
      case 16: {  // ALPN from the spec's protocol list (RFC 7301)
        Writer w;
        auto list = w.begin_length(2);
        for (const std::string& proto : alpn) {
          auto entry = w.begin_length(1);
          w.str(proto);
          w.end_length(entry);
        }
        w.end_length(list);
        ch.extensions.push_back({16, w.take()});
        break;
      }
      case 43: {  // supported_versions from the spec's version list
        Writer w;
        auto list = w.begin_length(1);
        for (std::uint16_t v : supported_versions) w.u16(v);
        w.end_length(list);
        ch.extensions.push_back({43, w.take()});
        break;
      }
      default:  // flag-style extensions travel empty (5, 23, 35, ...)
        ch.extensions.push_back({code, {}});
        break;
    }
  }
  return ch;
}

const std::vector<ProbeSpec>& StackFingerprinter::standard_battery() {
  // The normative K=10 battery. docs/FINGERPRINTING.md carries this table
  // verbatim and tests/stack_fingerprint_test.cpp cross-checks the two —
  // change them together. "M" below is the §5 prober's modern suite list.
  static const std::vector<std::uint16_t> kModern = {
      0xc02b, 0xc02f, 0xc02c, 0xc030, 0xcca9, 0xcca8, 0xc013,
      0xc014, 0x009c, 0x009d, 0x002f, 0x0035, 0x000a};
  static const std::vector<ProbeSpec> kBattery = [] {
    std::vector<ProbeSpec> b;
    // 1. Baseline TLS 1.2, full modern list, rich extension set.
    b.push_back({"tls12", 0x0303, kModern,
                 {0, 5, 10, 11, 13, 16, 23}, {}, {"h2", "http/1.1"}, false});
    // 2. Same suites reversed: does the server honour client order?
    {
      std::vector<std::uint16_t> rev(kModern.rbegin(), kModern.rend());
      b.push_back({"tls12-reverse", 0x0303, std::move(rev),
                   {0, 10, 11, 13}, {}, {}, false});
    }
    // 3. Narrow top-3 offer: preference when choice is scarce.
    b.push_back({"tls12-top3", 0x0303, {0xc02b, 0xc02f, 0xcca9},
                 {0, 10, 11, 13}, {}, {}, false});
    // 4. GREASE in suites and extensions (RFC 8701 tolerance).
    b.push_back({"tls12-grease", 0x0303, kModern,
                 {0, 5, 10, 11, 13, 16, 23}, {}, {"h2"}, true});
    // 5. TLS 1.3 offer with a 1.2 fallback list.
    {
      std::vector<std::uint16_t> suites = {0x1301, 0x1302, 0x1303};
      suites.insert(suites.end(), kModern.begin(), kModern.end());
      b.push_back({"tls13", 0x0303, std::move(suites),
                   {0, 10, 11, 13, 16, 43}, {0x0304, 0x0303}, {"h2"}, false});
    }
    // 6. Pure TLS 1.3, permuted extension order.
    b.push_back({"tls13-compat", 0x0303, {0x1301, 0x1302, 0x1303},
                 {0, 43, 10, 11, 13}, {0x0304}, {}, false});
    // 7. TLS 1.1 with the legacy CBC tail.
    b.push_back({"tls11", 0x0302, {0xc013, 0xc014, 0x002f, 0x0035, 0x000a},
                 {0, 10, 11}, {}, {}, false});
    // 8. TLS 1.0, legacy suites only.
    b.push_back({"tls10", 0x0301, {0x002f, 0x0035, 0x000a, 0x0005, 0x0004},
                 {0}, {}, {}, false});
    // 9. RC4-leaning legacy offer: only ancient stacks accept.
    b.push_back({"legacy-rc4", 0x0301, {0x0005, 0x0004, 0x000a},
                 {0}, {}, {}, false});
    // 10. Bare hello: SNI + session_ticket, nothing else.
    b.push_back({"bare", 0x0303, kModern, {0, 35}, {}, {}, false});
    return b;
  }();
  return kBattery;
}

const StackFingerprint* ServerStackResult::at(VantagePoint v,
                                              AddressFamily f) const {
  auto vit = fingerprints.find(v);
  if (vit == fingerprints.end()) return nullptr;
  auto fit = vit->second.find(f);
  if (fit == vit->second.end()) return nullptr;
  return &fit->second;
}

void StackSurveySummary::merge(const StackSurveySummary& other) {
  snis += other.snis;
  probes += other.probes;
  attempts += other.attempts;
  retries += other.retries;
  answered_probes += other.answered_probes;
  skipped_probes += other.skipped_probes;
}

StackFingerprint StackFingerprinter::run_battery(
    const std::string& sni, VantagePoint vantage, AddressFamily family,
    SurveyShard<StackSurveySummary>& shard) const {
  // Breaker key per (SNI, family): "no AAAA" on a v4-only server must not
  // quarantine the v4 battery (and vice versa).
  const std::string breaker_key = sni + "|" + family_name(family);
  static obs::Counter& probes = obs::metrics().counter("net.fingerprint.probes");
  Clock& clock = clock_ != nullptr ? *clock_ : own_clock_;

  StackFingerprint fp;
  fp.vantage = vantage;
  fp.family = family;
  fp.observations.reserve(battery_.size());

  std::string joined;
  for (const ProbeSpec& spec : battery_) {
    if (!joined.empty()) joined += ',';
    if (!shard.breaker.allow(breaker_key)) {
      ++shard.summary.skipped_probes;
      joined += "x|skipped";
      fp.observations.push_back({spec.name, "x|skipped", 0});
      continue;
    }

    probes.inc();
    Bytes hello_msg = spec.build(sni).encode();
    Bytes flight =
        tls::encode_records(tls::ContentType::kHandshake, 0x0301,
                            BytesView(hello_msg.data(), hello_msg.size()));
    AttemptLog log;
    Outcome seen = with_retries(
        retry_, clock, shard.budget, sni, vantage, log, [&](int) {
          return probe_once(*internet_, BytesView(flight.data(), flight.size()),
                            vantage, family);
        });
    record_outcome(shard.breaker, breaker_key, seen.error);

    // Answered: a ServerHello or an alert came back.
    const bool answered =
        seen.error == ProbeError::kNone || seen.error == ProbeError::kAlert;
    StackSurveySummary& summary = shard.summary;
    ++summary.probes;
    summary.attempts += static_cast<std::uint64_t>(log.attempts);
    summary.retries += static_cast<std::uint64_t>(log.attempts - 1);
    if (answered) {
      ++summary.answered_probes;
      fp.answered = true;
    }
    if (fp.leaf_fp.empty()) fp.leaf_fp = std::move(seen.leaf_fp);

    joined += seen.canonical;
    fp.observations.push_back(
        {spec.name, std::move(seen.canonical), log.attempts});
  }

  fp.digest = crypto::sha256_hex(
                  BytesView(reinterpret_cast<const std::uint8_t*>(joined.data()),
                            joined.size()))
                  .substr(0, 32);
  return fp;
}

StackFingerprint StackFingerprinter::fingerprint(const std::string& sni,
                                                 VantagePoint vantage,
                                                 AddressFamily family) const {
  // A lone battery has no survey: its breaker is disabled, its accounting
  // is dropped.
  SurveyShard<StackSurveySummary> lone{CircuitBreaker(BreakerConfig{0, 0}), {}};
  return run_battery(sni, vantage, family, lone);
}

ServerStackResult StackFingerprinter::fingerprint_server(
    const std::string& sni) const {
  SurveyShard<StackSurveySummary> shard{CircuitBreaker(breaker_config_), {}};
  return survey_one(sni, shard);
}

ServerStackResult StackFingerprinter::survey_one(
    const std::string& sni, SurveyShard<StackSurveySummary>& shard) const {
  obs::TraceSpan trace_span("net.fingerprint");
  if (trace_span.active()) trace_span.detail("sni=" + sni);

  // Family-major walk, v4 before v6, vantages in enum order: the fault
  // injector's attempt counters are keyed (SNI, vantage) — not family — so
  // this fixed order is what makes a dual-stack survey replayable.
  ServerStackResult out;
  out.sni = sni;
  for (AddressFamily family : families_) {
    for (VantagePoint v : kAllVantagePoints) {
      out.fingerprints[v][family] = run_battery(sni, v, family, shard);
    }
  }
  return out;
}

StackSurvey StackFingerprinter::survey(
    const std::vector<std::string>& snis) const {
  auto run = run_survey<StackSurveySummary>(
      snis, "fingerprint", jobs_, retry_, breaker_config_,
      [this](const std::string& sni, SurveyShard<StackSurveySummary>& shard) {
        return survey_one(sni, shard);
      },
      [](const ServerStackResult&) { return std::string(); });
  return {std::move(run.results), run.summary};
}

}  // namespace iotls::net
