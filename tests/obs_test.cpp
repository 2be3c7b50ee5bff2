// Tests for the observability layer: metrics, JSON export, logging sinks,
// stage tracing, and the prober's failure-category instrumentation.
#include <gtest/gtest.h>

#include "core/cert_dataset.hpp"
#include "core/dataset.hpp"
#include "corpus/corpus.hpp"
#include "devicesim/fleet.hpp"
#include "devicesim/scenario.hpp"
#include "net/internet.hpp"
#include "net/prober.hpp"
#include "obs/json.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/prometheus.hpp"
#include "obs/trace.hpp"
#include "report/obs_report.hpp"
#include "util/error.hpp"
#include "x509/authority.hpp"

namespace iotls::obs {
namespace {

// ----------------------------------------------------------------- metrics

TEST(Metrics, CounterAccumulatesAndResets) {
  Registry reg;
  Counter& c = reg.counter("test.counter");
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  // Same name resolves to the same instrument.
  EXPECT_EQ(&reg.counter("test.counter"), &c);
  reg.reset();
  EXPECT_EQ(c.value(), 0u);  // reference stays valid after reset
}

TEST(Metrics, GaugeSetsAndAdds) {
  Registry reg;
  Gauge& g = reg.gauge("test.gauge");
  g.set(10);
  g.add(-3);
  EXPECT_EQ(g.value(), 7);
}

TEST(Metrics, HistogramBucketsSamplesCorrectly) {
  Registry reg;
  Histogram& h = reg.histogram("test.hist", {10, 100, 1000});
  h.observe(5);     // bucket <=10
  h.observe(10);    // bucket <=10 (bounds are inclusive)
  h.observe(50);    // bucket <=100
  h.observe(5000);  // overflow
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 5065u);
  auto counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 0u);
  EXPECT_EQ(counts[3], 1u);
  EXPECT_EQ(h.quantile_bound(0.5), 10u);
  EXPECT_EQ(h.quantile_bound(0.75), 100u);
  // The overflow bucket reports the largest finite bound.
  EXPECT_EQ(h.quantile_bound(1.0), 1000u);
}

TEST(Metrics, HistogramRejectsBadBounds) {
  EXPECT_THROW(Histogram({}), std::invalid_argument);
  EXPECT_THROW(Histogram({5, 5}), std::invalid_argument);
  EXPECT_THROW(Histogram({10, 5}), std::invalid_argument);
}

// ------------------------------------------------------ metric-name mangling
//
// Vantage names, fault-spec tokens and future label-ish name parts can carry
// bytes the Prometheus data model forbids (dashes, spaces, uppercase). The
// registry canonicalizes at registration so the JSON export and the
// exposition agree on one spelling.

TEST(Metrics, SanitizeMetricNameCanonicalizes) {
  EXPECT_EQ(sanitize_metric_name("net.probe.total"), "net.probe.total");
  EXPECT_EQ(sanitize_metric_name("net.probe.reachable.new-york"),
            "net.probe.reachable.new_york");
  EXPECT_EQ(sanitize_metric_name("vantage.New York"), "vantage.new_york");
  EXPECT_EQ(sanitize_metric_name("UPPER.Case"), "upper.case");
  EXPECT_EQ(sanitize_metric_name("weird/:{}name"), "weird____name");
  // Leading digit and empty input get a '_' prefix (Prometheus names may
  // not start with a digit).
  EXPECT_EQ(sanitize_metric_name("3des.hits"), "_3des.hits");
  EXPECT_EQ(sanitize_metric_name(""), "_");
}

TEST(Metrics, RegistryCanonicalizesNamesAtRegistration) {
  Registry reg;
  Counter& dashed = reg.counter("probe.frankfurt-de");
  Counter& canonical = reg.counter("probe.frankfurt_de");
  EXPECT_EQ(&dashed, &canonical);  // one instrument, one spelling
  dashed.inc(3);
  Json parsed = parse_json(reg.to_json());
  EXPECT_EQ(parsed.find("counters")->find("probe.frankfurt_de")->as_int(), 3);
  EXPECT_EQ(parsed.find("counters")->find("probe.frankfurt-de"), nullptr);
}

// -------------------------------------------------------------- prometheus

TEST(Prometheus, NameFoldsDotsToUnderscores) {
  EXPECT_EQ(prometheus_name("net.probe.total"), "net_probe_total");
  EXPECT_EQ(prometheus_name("x509.cache.hit"), "x509_cache_hit");
  // Un-canonical input is sanitized first.
  EXPECT_EQ(prometheus_name("probe.new-york"), "probe_new_york");
}

TEST(Prometheus, ExpositionRendersAllInstrumentKindsDeterministically) {
  Registry reg;
  reg.counter("b.counter").inc(2);
  reg.counter("a.counter").inc(1);
  reg.gauge("queue.depth").set(-5);
  Histogram& h = reg.histogram("latency_ns", {10, 100});
  h.observe(7);
  h.observe(70);
  h.observe(700);

  std::string text = prometheus_text(reg);
  std::string error;
  EXPECT_TRUE(validate_exposition(text, &error)) << error;

  // Counters come name-sorted, each with HELP and TYPE.
  std::size_t a = text.find("a_counter 1\n");
  std::size_t b = text.find("b_counter 2\n");
  ASSERT_NE(a, std::string::npos);
  ASSERT_NE(b, std::string::npos);
  EXPECT_LT(a, b);
  EXPECT_NE(text.find("# TYPE a_counter counter\n"), std::string::npos);
  EXPECT_NE(text.find("# HELP a_counter iotls counter a.counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("queue_depth -5\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE queue_depth gauge\n"), std::string::npos);

  // Histogram buckets are cumulative, +Inf equals _count.
  EXPECT_NE(text.find("latency_ns_bucket{le=\"10\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("latency_ns_bucket{le=\"100\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("latency_ns_bucket{le=\"+Inf\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("latency_ns_sum 777\n"), std::string::npos);
  EXPECT_NE(text.find("latency_ns_count 3\n"), std::string::npos);

  // Deterministic: identical registry state renders identical bytes.
  EXPECT_EQ(text, prometheus_text(reg));
}

TEST(Prometheus, ValidatorRejectsMalformedLines) {
  std::string error;
  EXPECT_TRUE(validate_exposition("", &error));
  EXPECT_TRUE(validate_exposition("a_b 1\n", &error));
  EXPECT_TRUE(validate_exposition("a_b{le=\"+Inf\"} 2\n", &error));
  EXPECT_FALSE(validate_exposition("3bad_name 1\n", &error));
  EXPECT_FALSE(validate_exposition("name-with-dash 1\n", &error));
  EXPECT_FALSE(validate_exposition("no_value\n", &error));
  EXPECT_FALSE(validate_exposition("bad_value abc\n", &error));
  EXPECT_FALSE(validate_exposition("# BOGUS comment kind\n", &error));
  EXPECT_FALSE(validate_exposition("unterminated{le=\"1\" 2\n", &error));
  // The error message names the offending line.
  EXPECT_FALSE(validate_exposition("ok_line 1\nbad-line 2\n", &error));
  EXPECT_NE(error.find("bad-line"), std::string::npos);
}

// -------------------------------------------------------------------- json

TEST(Json, ParsesAndDumpsRoundTrip) {
  const std::string doc =
      R"({"a":1,"b":-2.5,"c":"x\"y","d":[true,false,null],"e":{"nested":7}})";
  Json parsed = parse_json(doc);
  EXPECT_EQ(parsed.find("a")->as_int(), 1);
  EXPECT_DOUBLE_EQ(parsed.find("b")->as_double(), -2.5);
  EXPECT_EQ(parsed.find("c")->as_string(), "x\"y");
  EXPECT_EQ(parsed.find("d")->as_array().size(), 3u);
  EXPECT_EQ(parsed.find("e")->find("nested")->as_int(), 7);
  // dump -> parse -> dump is a fixed point.
  EXPECT_EQ(parse_json(parsed.dump()).dump(), parsed.dump());
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(parse_json(""), ParseError);
  EXPECT_THROW(parse_json("{"), ParseError);
  EXPECT_THROW(parse_json("[1,]"), ParseError);
  EXPECT_THROW(parse_json("{\"a\":1} trailing"), ParseError);
  EXPECT_THROW(parse_json("nul"), ParseError);
}

TEST(Metrics, JsonExportRoundTrips) {
  Registry reg;
  reg.counter("probe.total").inc(7);
  reg.gauge("queue.depth").set(-3);
  Histogram& h = reg.histogram("latency_ns", {100, 1000});
  h.observe(50);
  h.observe(5000);

  Json parsed = parse_json(reg.to_json());
  EXPECT_EQ(parsed.find("counters")->find("probe.total")->as_int(), 7);
  EXPECT_EQ(parsed.find("gauges")->find("queue.depth")->as_int(), -3);
  const Json* hist = parsed.find("histograms")->find("latency_ns");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->find("count")->as_int(), 2);
  EXPECT_EQ(hist->find("sum")->as_int(), 5050);
  const auto& buckets = hist->find("buckets")->as_array();
  ASSERT_EQ(buckets.size(), 3u);
  EXPECT_EQ(buckets[0].find("le")->as_int(), 100);
  EXPECT_EQ(buckets[0].find("count")->as_int(), 1);
  EXPECT_TRUE(buckets[2].find("le")->is_null());  // overflow bucket
  EXPECT_EQ(buckets[2].find("count")->as_int(), 1);
}

// --------------------------------------------------------------------- log

TEST(Log, LevelsParseAndGate) {
  EXPECT_EQ(parse_log_level("DEBUG", LogLevel::kWarn), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level("nonsense", LogLevel::kWarn), LogLevel::kWarn);
  Logger log;
  log.set_level(LogLevel::kWarn);
  EXPECT_FALSE(log.enabled(LogLevel::kDebug));
  EXPECT_TRUE(log.enabled(LogLevel::kWarn));
  EXPECT_TRUE(log.enabled(LogLevel::kError));
  log.set_level(LogLevel::kOff);
  EXPECT_FALSE(log.enabled(LogLevel::kError));
}

TEST(Log, RingBufferSinkCapturesStructuredRecords) {
  Logger log;
  log.set_level(LogLevel::kDebug);
  auto ring = std::make_shared<RingBufferSink>(8);
  log.set_sink(ring);

  log.debug("probe failed", {{"sni", "a2.tuyaus.com"}, {"attempt", 3}});
  log.log(LogLevel::kTrace, "below the gate");  // filtered

  auto records = ring->records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].level, LogLevel::kDebug);
  EXPECT_EQ(records[0].message, "probe failed");
  ASSERT_EQ(records[0].fields.size(), 2u);
  EXPECT_EQ(records[0].fields[0].key, "sni");
  EXPECT_EQ(records[0].fields[0].value, "a2.tuyaus.com");
  EXPECT_EQ(records[0].fields[1].value, "3");
}

TEST(Log, RingBufferEvictsOldestAtCapacity) {
  RingBufferSink ring(2);
  for (int i = 0; i < 5; ++i) {
    ring.write({LogLevel::kInfo, "msg" + std::to_string(i), {}});
  }
  auto records = ring.records();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].message, "msg3");
  EXPECT_EQ(records[1].message, "msg4");
  EXPECT_EQ(ring.dropped(), 3u);
}

TEST(Log, FormatsKeyValueLine) {
  LogRecord record{LogLevel::kWarn, "chain invalid",
                   {{"sni", "cam.example.com"}, {"detail", "has spaces"}}};
  EXPECT_EQ(format_record(record),
            "level=warn msg=\"chain invalid\" sni=cam.example.com "
            "detail=\"has spaces\"");
}

// ------------------------------------------------------------------- trace

TEST(Trace, SpansAccumulatePerStage) {
  StageTracer tracer;
  {
    auto span = tracer.span("probe");
    span.add_items(10);
    span.fail("timeout", 2);
  }
  {
    auto span = tracer.span("probe");
    span.add_items(5);
    span.fail("dns");
  }
  auto snapshot = tracer.snapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_EQ(snapshot[0].first, "probe");
  const StageStats& stats = snapshot[0].second;
  EXPECT_EQ(stats.calls, 2u);
  EXPECT_EQ(stats.items, 15u);
  EXPECT_EQ(stats.failures, 3u);
  EXPECT_EQ(stats.failure_reasons.at("timeout"), 2u);
  EXPECT_EQ(stats.failure_reasons.at("dns"), 1u);
}

TEST(Trace, PreservesFirstSeenOrderAndExportsJson) {
  StageTracer tracer;
  { auto s = tracer.span("pcap.decode"); s.add_items(3); }
  { auto s = tracer.span("fingerprint.extract"); }
  { auto s = tracer.span("pcap.decode"); }
  auto snapshot = tracer.snapshot();
  ASSERT_EQ(snapshot.size(), 2u);
  EXPECT_EQ(snapshot[0].first, "pcap.decode");
  EXPECT_EQ(snapshot[1].first, "fingerprint.extract");

  Json parsed = parse_json(tracer.to_json());
  EXPECT_EQ(parsed.find("pcap.decode")->find("calls")->as_int(), 2);
  EXPECT_EQ(parsed.find("pcap.decode")->find("items")->as_int(), 3);
  ASSERT_NE(parsed.find("pcap.decode")->find("wall_ns"), nullptr);
}

// ------------------------------------------------------------ obs_report

TEST(ObsReport, StatsJsonIsOneValidDocument) {
  Registry reg;
  reg.counter("x509.validate.ok").inc(4);
  StageTracer tracer;
  { auto s = tracer.span("chain.validate"); s.add_items(4); }
  Json parsed = parse_json(report::stats_json(reg, tracer));
  EXPECT_EQ(parsed.find("metrics")->find("counters")->find("x509.validate.ok")->as_int(), 4);
  EXPECT_EQ(parsed.find("stages")->find("chain.validate")->find("items")->as_int(), 4);
}

TEST(ObsReport, StageTableHasOneRowPerStage) {
  StageTracer tracer;
  { auto s = tracer.span("probe"); s.fail("timeout"); }
  { auto s = tracer.span("report"); }
  report::Table table = report::stage_summary_table(tracer);
  EXPECT_EQ(table.rows(), 2u);
  std::string rendered = table.render();
  EXPECT_NE(rendered.find("probe"), std::string::npos);
  EXPECT_NE(rendered.find("timeout (1)"), std::string::npos);
}

// ------------------------------------------- prober counter instrumentation

x509::CertificateAuthority obs_test_ca() {
  return x509::CertificateAuthority::make_root("Obs Test CA", "ObsTest",
                                               x509::CaKind::kPublicTrust, 15000,
                                               30000);
}

net::SimServer obs_test_server(const std::string& sni,
                               const x509::CertificateAuthority& ca) {
  net::SimServer server;
  server.sni = sni;
  server.ips = {"203.0.113.9"};
  x509::IssueRequest req;
  req.subject.common_name = sni;
  req.san_dns = {sni};
  req.not_before = 18000;
  req.not_after = 19500;
  server.default_chain = {ca.issue(req), ca.certificate()};
  return server;
}

TEST(ProberMetrics, CountsReachabilityAndErrorCategories) {
  auto ca = obs_test_ca();
  net::SimInternet internet;
  internet.add_server(obs_test_server("up.example.com", ca));

  net::SimServer refusing = obs_test_server("tls13.example.com", ca);
  refusing.supported_suites = {0x1301};  // no overlap with the prober
  internet.add_server(std::move(refusing));

  net::SimServer firewalled = obs_test_server("fw.example.com", ca);
  firewalled.unreachable_from = {net::VantagePoint::kNewYork};
  internet.add_server(std::move(firewalled));

  Registry& reg = metrics();
  auto counter_value = [&](const std::string& name) {
    return reg.counter(name).value();
  };
  std::uint64_t base_total = counter_value("net.probe.total");
  std::uint64_t base_reach_ny = counter_value("net.probe.reachable.new_york");
  std::uint64_t base_unreach_ny = counter_value("net.probe.unreachable.new_york");
  std::uint64_t base_dns = counter_value("net.probe.error.dns");
  std::uint64_t base_alert = counter_value("net.probe.error.alert");
  std::uint64_t base_timeout = counter_value("net.probe.error.timeout");
  std::uint64_t base_hist =
      reg.histogram("net.probe.handshake_ns").count();

  net::TlsProber prober(internet);
  auto ny = net::VantagePoint::kNewYork;

  auto up = prober.probe("up.example.com", ny);
  EXPECT_TRUE(up.reachable);
  EXPECT_EQ(up.error, net::ProbeError::kNone);

  auto missing = prober.probe("nosuch.example.com", ny);
  EXPECT_EQ(missing.error, net::ProbeError::kDns);

  auto refused = prober.probe("tls13.example.com", ny);
  EXPECT_EQ(refused.error, net::ProbeError::kAlert);

  auto timed_out = prober.probe("fw.example.com", ny);
  EXPECT_EQ(timed_out.error, net::ProbeError::kTimeout);

  EXPECT_EQ(counter_value("net.probe.total") - base_total, 4u);
  EXPECT_EQ(counter_value("net.probe.reachable.new_york") - base_reach_ny, 1u);
  EXPECT_EQ(counter_value("net.probe.unreachable.new_york") - base_unreach_ny, 3u);
  EXPECT_EQ(counter_value("net.probe.error.dns") - base_dns, 1u);
  EXPECT_EQ(counter_value("net.probe.error.alert") - base_alert, 1u);
  EXPECT_EQ(counter_value("net.probe.error.timeout") - base_timeout, 1u);
  // Every probe (reachable or not) lands one handshake latency sample.
  EXPECT_EQ(reg.histogram("net.probe.handshake_ns").count() - base_hist, 4u);
}

TEST(ProberMetrics, SurveySpanRecordsItemsAndFailureReasons) {
  auto ca = obs_test_ca();
  net::SimInternet internet;
  internet.add_server(obs_test_server("good.example.com", ca));

  StageTracer& tr = tracer();
  tr.reset();
  net::TlsProber prober(internet);
  prober.survey({"good.example.com", "gone.example.com"});

  auto snapshot = tr.snapshot();
  ASSERT_FALSE(snapshot.empty());
  const StageStats* probe_stats = nullptr;
  for (const auto& [stage, stats] : snapshot) {
    if (stage == "probe") probe_stats = &stats;
  }
  ASSERT_NE(probe_stats, nullptr);
  EXPECT_EQ(probe_stats->calls, 1u);
  EXPECT_EQ(probe_stats->items, 2u);
  EXPECT_EQ(probe_stats->failures, 1u);
  EXPECT_EQ(probe_stats->failure_reasons.at("dns"), 1u);

  // The §5.1 harvest runs on the same engine under its own stage name:
  // one `certs.probe` call per collect (no second span around the
  // engine's), one item per SNI it probed, and a tag per SNI no vantage
  // reached.
  corpus::LibraryCorpus corpus = corpus::LibraryCorpus::standard();
  devicesim::ServerUniverse universe = devicesim::ServerUniverse::standard();
  devicesim::FleetConfig config;
  config.users = 40;
  config.cover_all_snis = false;
  core::ClientDataset client = core::ClientDataset::from_fleet(
      devicesim::generate_fleet(config, corpus, universe));
  devicesim::SimWorld world = devicesim::build_world(universe);

  tr.reset();
  core::ProbeMemo memo;
  auto cold = core::CertDataset::collect(client, world, 1, 4, nullptr, nullptr,
                                         &memo);
  auto probe_row = [&] {
    for (const auto& [stage, stats] : tr.snapshot()) {
      if (stage == "certs.probe") return stats;
    }
    return StageStats{};
  };
  StageStats harvest = probe_row();
  EXPECT_EQ(harvest.calls, 1u);
  for (const auto& [stage, stats] : tr.snapshot()) {
    EXPECT_NE(stage, "probe") << "collect must not share iotls_probe's row";
  }
  EXPECT_EQ(harvest.items, cold.extracted_snis());
  std::uint64_t unreachable = 0;
  for (const core::SniRecord& record : cold.records()) {
    bool none = true;
    for (const auto& [vantage, leaf] : record.leaf_by_vantage) {
      if (leaf.has_value()) none = false;
    }
    if (none && !record.reachable) ++unreachable;
  }
  EXPECT_GT(unreachable, 0u);
  EXPECT_EQ(harvest.failures, unreachable);
  std::uint64_t tagged = 0;
  for (const auto& [reason, n] : harvest.failure_reasons) tagged += n;
  EXPECT_EQ(tagged, harvest.failures);

  // A fully memoized collect probes nothing but still owns one row.
  core::CertDataset::collect(client, world, 1, 4, nullptr, nullptr, &memo);
  harvest = probe_row();
  EXPECT_EQ(harvest.calls, 2u);
  EXPECT_EQ(harvest.items, cold.extracted_snis());
}

// -------------------------------------------------------- string escaping
//
// Garbled-stream faults can push arbitrary bytes into error_detail, which
// flows into --stats=json. The dump must stay valid pure-ASCII JSON for
// any byte payload, and parsing the dump must hand back the exact bytes.

TEST(JsonEscape, ControlCharactersUseShortOrUnicodeEscapes) {
  Json j(std::string("a\b\f\n\r\tb\x01\x1f"));
  std::string dump = j.dump();
  EXPECT_EQ(dump, "\"a\\b\\f\\n\\r\\tb\\u0001\\u001f\"");
  EXPECT_EQ(parse_json(dump).as_string(), j.as_string());
}

TEST(JsonEscape, HighAndDeleteBytesBecomeUnicodeEscapes) {
  // 0x7f (DEL) and every byte >= 0x80 previously passed through raw,
  // making the document non-ASCII and, for stray continuation bytes,
  // invalid UTF-8.
  std::string raw;
  raw += '\x7f';
  raw += static_cast<char>(0x80);
  raw += static_cast<char>(0xc3);
  raw += static_cast<char>(0xff);
  std::string dump = Json(raw).dump();
  EXPECT_EQ(dump, "\"\\u007f\\u0080\\u00c3\\u00ff\"");
  EXPECT_EQ(parse_json(dump).as_string(), raw);
}

TEST(JsonEscape, EveryByteValueRoundTripsAndDumpsPureAscii) {
  std::string all;
  for (int b = 0; b < 256; ++b) all += static_cast<char>(b);
  Json obj{Json::Object{}};
  obj.set(all, Json(all));  // keys escape through the same path
  std::string dump = obj.dump();
  for (char c : dump) {
    unsigned char u = static_cast<unsigned char>(c);
    ASSERT_GE(u, 0x20u);
    ASSERT_LT(u, 0x7fu);
  }
  Json back = parse_json(dump);
  EXPECT_EQ(back.as_object().at(0).first, all);
  EXPECT_EQ(back.as_object().at(0).second.as_string(), all);
}

}  // namespace
}  // namespace iotls::obs
