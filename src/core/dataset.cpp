#include "core/dataset.hpp"

#include <algorithm>
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

/// Events per fold block. The parse slots are reused from block to block,
/// so ingest holds O(kBlockEvents) parse state plus the index, whatever
/// the size of the epoch it is handed.
constexpr std::size_t kBlockEvents = 4096;

/// Events per parse task within a block: enough to amortise the pool's
/// per-task cost, few enough that idle workers can steal a block's tail.
constexpr std::size_t kParseTaskEvents = 64;

/// Fleet position of each device id.
using DeviceLookup = std::unordered_map<std::string_view, std::uint32_t>;

/// One event's parse result, reused across blocks. Nothing in it is
/// interned yet: `ids` holds the lookups the index could answer read-only.
struct ParseSlot {
  enum class Kind { kOk, kUnknownDevice, kNoClientHello, kParseError };
  Kind kind = Kind::kParseError;
  std::uint32_t device_pos = 0;  // into the call's device list
  const devicesim::Device* device = nullptr;
  std::string sni;
  tls::ClientHello hello;
  tls::Fingerprint fp;
  std::string fp_key;
  EventIds ids;

  EventKeys keys() const {
    return {device->vendor, device->id, device->user_id, sni, fp_key};
  }
};

/// The ClientHello carried by a record stream; kind reports why not.
ParseSlot::Kind parse_hello(const Bytes& wire, tls::ClientHello& hello) {
  try {
    auto records = tls::parse_records(BytesView(wire.data(), wire.size()));
    Bytes payload = tls::handshake_payload(records);
    auto msgs = tls::split_handshakes(BytesView(payload.data(), payload.size()));
    for (const tls::HandshakeMessage& m : msgs) {
      if (m.type != tls::HandshakeType::kClientHello) continue;
      Bytes framed =
          tls::encode_handshake(m.type, BytesView(m.body.data(), m.body.size()));
      hello = tls::ClientHello::parse(BytesView(framed.data(), framed.size()));
      return ParseSlot::Kind::kOk;
    }
    return ParseSlot::Kind::kNoClientHello;
  } catch (const ParseError&) {
    return ParseSlot::Kind::kParseError;
  }
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

  DeviceLookup device_pos;
  device_pos.reserve(fleet_devices.size());
  for (std::uint32_t p = 0; p < fleet_devices.size(); ++p) {
    device_pos[fleet_devices[p].id] = p;
  }
  // The vendor, device and user ids of each fleet device once one of its
  // events is interned, so later blocks skip those three lookups. Written
  // in phase B only, read in phase A only.
  std::vector<EventIds> device_ids(fleet_devices.size());

  // Phase A for one event: parse, fingerprint and look up ids read-only.
  auto parse_into = [&](ParseSlot& slot, const devicesim::ClientHelloEvent& raw) {
    auto pos_it = device_pos.find(std::string_view(raw.device_id));
    if (pos_it == device_pos.end()) {
      slot.kind = ParseSlot::Kind::kUnknownDevice;
      return;
    }
    slot.kind = parse_hello(raw.wire, slot.hello);
    if (slot.kind != ParseSlot::Kind::kOk) return;
    slot.device_pos = pos_it->second;
    slot.device = &fleet_devices[slot.device_pos];
    slot.sni = slot.hello.sni().value_or(raw.sni);
    slot.fp = tls::fingerprint_of(slot.hello, opts);
    slot.fp_key = slot.fp.key();
    slot.ids = device_ids[slot.device_pos];
    index_.find(slot.keys(), slot.ids);
  };

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

  exec::ThreadPool pool(exec::resolve_jobs(jobs));
  std::vector<ParseSlot> slots(std::min(raw_events.size(), kBlockEvents));
  std::vector<EventIds> block_ids;
  block_ids.reserve(slots.size());

  // Phase C of each block runs in the same pool job as phase A of the next
  // one: appends write only the relations, parsing reads only the
  // interners, and the job ends before phase B interns again.
  for (std::size_t begin = 0;; begin += kBlockEvents) {
    const std::size_t n =
        begin < raw_events.size() ? std::min(kBlockEvents, raw_events.size() - begin) : 0;
    const std::size_t append_tasks = block_ids.empty() ? 0 : DatasetIndex::kRelations;
    const std::size_t parse_tasks = (n + kParseTaskEvents - 1) / kParseTaskEvents;
    pool.parallel_for(append_tasks + parse_tasks, [&](std::size_t task) {
      if (task < append_tasks) {
        // Phase C (previous block): one relation per task, in input order.
        index_.append(task, block_ids);
        return;
      }
      // Phase A: parse, fingerprint and look up ids read-only.
      const std::size_t first = (task - append_tasks) * kParseTaskEvents;
      const std::size_t end = std::min(n, first + kParseTaskEvents);
      for (std::size_t i = first; i < end; ++i) {
        parse_into(slots[i], raw_events[begin + i]);
      }
    });
    if (n == 0) break;

    // Phase B (sequential, input order): drops, counters and logs; intern
    // the lookups phase A missed, so first-seen ids follow input order.
    block_ids.clear();
    for (std::size_t i = 0; i < n; ++i) {
      const devicesim::ClientHelloEvent& raw = raw_events[begin + i];
      ParseSlot& slot = slots[i];
      switch (slot.kind) {
        case ParseSlot::Kind::kUnknownDevice:
          drop(dropped_.unknown_device, drop_unknown_device, "unknown_device", raw);
          continue;
        case ParseSlot::Kind::kNoClientHello:
          drop(dropped_.no_client_hello, drop_no_hello, "no_client_hello", raw);
          continue;
        case ParseSlot::Kind::kParseError:
          drop(dropped_.parse_error, drop_parse_error, "parse_error", raw);
          continue;
        case ParseSlot::Kind::kOk:
          break;
      }
      index_.intern(slot.keys(), slot.fp, slot.ids);
      block_ids.push_back(slot.ids);
      device_ids[slot.device_pos] = {slot.ids.vendor, slot.ids.device, slot.ids.user};
      if (retain_events_) {
        const devicesim::Device& device = *slot.device;
        ParsedEvent& ev = events_.emplace_back();
        ev.device_id = device.id;
        ev.vendor = device.vendor;
        ev.type = device.type;
        ev.user = device.user_id;
        ev.day = raw.day;
        ev.sni = std::move(slot.sni);
        ev.hello = std::move(slot.hello);
        ev.fp = std::move(slot.fp);
        ev.fp_key = std::move(slot.fp_key);
        ev.device_ix = slot.ids.device;
        ev.vendor_ix = slot.ids.vendor;
        ev.user_ix = slot.ids.user;
        ev.sni_ix = slot.ids.sni;
        ev.fp_ix = slot.ids.fp;
      }
    }
    parsed_counter.inc(block_ids.size());
    span.add_items(block_ids.size());
  }
}

}  // namespace iotls::core
