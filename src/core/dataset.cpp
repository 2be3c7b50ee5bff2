#include "core/dataset.hpp"

#include <unordered_map>

#include "exec/pool.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tls/record.hpp"
#include "util/error.hpp"

namespace iotls::core {

// ------------------------------------------------------------------ parse

namespace {

// Per-event outcome of the (parallelizable) parse phase. Index maps,
// counters and logs are folded sequentially afterwards, in input order,
// so jobs=N builds the exact dataset jobs=1 does.
struct ParseOutcome {
  enum class Kind { kOk, kUnknownDevice, kNoClientHello, kParseError };
  Kind kind = Kind::kParseError;
  ParsedEvent ev;  // filled only when kind == kOk
};

using DeviceLookup = std::unordered_map<std::string_view, const devicesim::Device*>;

ParseOutcome parse_one(const devicesim::ClientHelloEvent& raw,
                       const DeviceLookup& devices,
                       const tls::FingerprintOptions& opts) {
  ParseOutcome out;
  auto dev_it = devices.find(std::string_view(raw.device_id));
  if (dev_it == devices.end()) {
    out.kind = ParseOutcome::Kind::kUnknownDevice;
    return out;
  }
  ParsedEvent ev;
  try {
    auto records = tls::parse_records(BytesView(raw.wire.data(), raw.wire.size()));
    Bytes payload = tls::handshake_payload(records);
    auto msgs = tls::split_handshakes(BytesView(payload.data(), payload.size()));
    bool found = false;
    for (const tls::HandshakeMessage& m : msgs) {
      if (m.type != tls::HandshakeType::kClientHello) continue;
      Bytes framed =
          tls::encode_handshake(m.type, BytesView(m.body.data(), m.body.size()));
      ev.hello = tls::ClientHello::parse(BytesView(framed.data(), framed.size()));
      found = true;
      break;
    }
    if (!found) {
      out.kind = ParseOutcome::Kind::kNoClientHello;
      return out;
    }
  } catch (const ParseError&) {
    out.kind = ParseOutcome::Kind::kParseError;
    return out;
  }

  const devicesim::Device& device = *dev_it->second;
  ev.device_id = device.id;
  ev.vendor = device.vendor;
  ev.type = device.type;
  ev.user = device.user_id;
  ev.day = raw.day;
  ev.sni = ev.hello.sni().value_or(raw.sni);
  ev.fp = tls::fingerprint_of(ev.hello, opts);
  ev.fp_key = ev.fp.key();
  out.kind = ParseOutcome::Kind::kOk;
  out.ev = std::move(ev);
  return out;
}

}  // namespace

ClientDataset ClientDataset::from_fleet(const devicesim::FleetDataset& fleet,
                                        const tls::FingerprintOptions& opts,
                                        int jobs) {
  ClientDataset ds;
  ds.events_.reserve(fleet.events.size());
  ds.index_.reserve(fleet.devices.size(), fleet.events.size());
  ds.append_events(fleet.events, fleet.devices, opts, jobs);
  ds.finalize();
  return ds;
}

void ClientDataset::append_events(
    const std::vector<devicesim::ClientHelloEvent>& raw_events,
    const std::vector<devicesim::Device>& fleet_devices,
    const tls::FingerprintOptions& opts, int jobs) {
  static obs::Counter& parsed_counter =
      obs::metrics().counter("core.dataset.events_parsed");
  static obs::Counter& drop_unknown_device =
      obs::metrics().counter("core.dataset.events_dropped.unknown_device");
  static obs::Counter& drop_no_hello =
      obs::metrics().counter("core.dataset.events_dropped.no_client_hello");
  static obs::Counter& drop_parse_error =
      obs::metrics().counter("core.dataset.events_dropped.parse_error");
  auto span = obs::tracer().span("fingerprint.extract");

  DeviceLookup devices;
  devices.reserve(fleet_devices.size());
  for (const devicesim::Device& d : fleet_devices) devices[d.id] = &d;

  // Phase 1 (parallel): pure per-event parse into index-addressed slots.
  std::vector<ParseOutcome> outcomes(raw_events.size());
  exec::parallel_for(jobs, raw_events.size(), [&](std::size_t i) {
    outcomes[i] = parse_one(raw_events[i], devices, opts);
  });

  // Phase 2 (sequential, input order): counters, logs, span tallies and
  // the interned cross-index.
  auto drop = [&](std::size_t& reason_count, obs::Counter& counter,
                  const char* reason, const devicesim::ClientHelloEvent& raw) {
    ++reason_count;
    counter.inc();
    span.add_items();
    span.fail(reason);
    if (obs::logger().enabled(obs::LogLevel::kDebug)) {
      obs::logger().debug("event dropped",
                          {{"device", raw.device_id}, {"reason", reason}});
    }
  };

  for (std::size_t i = 0; i < raw_events.size(); ++i) {
    const devicesim::ClientHelloEvent& raw = raw_events[i];
    ParseOutcome& outcome = outcomes[i];
    switch (outcome.kind) {
      case ParseOutcome::Kind::kUnknownDevice:
        drop(dropped_.unknown_device, drop_unknown_device, "unknown_device", raw);
        continue;
      case ParseOutcome::Kind::kNoClientHello:
        drop(dropped_.no_client_hello, drop_no_hello, "no_client_hello", raw);
        continue;
      case ParseOutcome::Kind::kParseError:
        drop(dropped_.parse_error, drop_parse_error, "parse_error", raw);
        continue;
      case ParseOutcome::Kind::kOk:
        break;
    }
    ParsedEvent& ev = outcome.ev;
    index_.record(ev);
    if (retain_events_) events_.push_back(std::move(ev));
    parsed_counter.inc();
    span.add_items();
  }
}

}  // namespace iotls::core
