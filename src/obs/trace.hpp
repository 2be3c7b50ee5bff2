// Pipeline tracing: aggregated stage profiling plus optional span-level
// flight recording.
//
// Two cooperating layers share the instrumentation points:
//
//  * StageTracer (always on, cheap): each pipeline phase (pcap decode ->
//    fingerprint extraction -> corpus match -> probe -> chain validation ->
//    report) opens a Span; on close the span's wall time, item count and
//    failure reasons merge into the stage's accumulated stats. Repeated
//    spans of the same stage accumulate, so a tool's per-SNI loop and a
//    library's per-call span both roll up into one per-stage row of the
//    final `--stats` summary.
//
//  * TraceRecorder (off by default, `--trace-out=FILE` turns it on): when
//    enabled, every span — StageTracer spans and the lighter TraceSpan
//    markers — additionally records an individual timed event carrying a
//    stable per-thread ordinal, a unique span id and a parent link derived
//    from the per-thread span stack. The recorded events export as Chrome
//    trace-event JSON ("traceEvents" of "ph":"X" complete events), loadable
//    in chrome://tracing or Perfetto, so a `--jobs 8` survey renders as a
//    real per-worker flamegraph. When disabled, the only cost at a span
//    site is one relaxed atomic load (enforced by bench_obs_overhead).
//
// Canonical stage names used across the pipeline:
//   pcap.decode, fingerprint.extract, corpus.match, probe, probe.shard
//   (iotls_probe's survey), certs.probe, certs.probe.shard (the §5.1
//   harvest in CertDataset::collect), chain.validate, report
// Span-level names nest under them: net.survey_one (one SNI, all
// vantages) -> net.probe (one SNI x vantage attempt loop).
//
// Thread-safety: a StageTracer::Span buffers its item/failure/reason
// tallies locally and merges them into the tracer under one mutex at
// end(), so worker threads may each hold their own Span concurrently (even
// for the same stage name) without contending per item. Sharing a single
// Span object across threads is NOT supported — give each worker its own,
// or tally in the parallel region and add_items() on the caller's span
// after the join (what net::run_survey does to keep stage rows
// deterministic). Span open/close must happen on one thread (the parent
// link comes from that thread's span stack).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.hpp"

namespace iotls::obs {

/// One recorded span: a closed interval on one thread's timeline.
struct TraceEvent {
  std::string name;
  std::string detail;        // optional, e.g. "sni=a2.tuyaus.com"
  std::uint64_t start_ns = 0;  // since TraceRecorder::enable()
  std::uint64_t dur_ns = 0;
  std::uint32_t tid = 0;     // stable per-thread ordinal (0 = first thread)
  std::uint64_t id = 0;      // unique per span, 1-based
  std::uint64_t parent = 0;  // id of the enclosing span on this thread, 0 = root
  std::uint64_t items = 0;
  std::uint64_t failures = 0;
};

/// Span-level flight recorder. Disabled by default; enable() starts a new
/// recording epoch. Bounded: at most `capacity` events are kept (the
/// default fits a full `--all --jobs 8` survey many times over); overflow
/// increments dropped() instead of growing without bound.
class TraceRecorder {
 public:
  struct OpenSpan {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
  };

  void enable();
  void disable();
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Nanoseconds since enable() (0 when never enabled).
  std::uint64_t now_ns() const;

  /// Assign a span id, link it to the calling thread's innermost open span
  /// and push it on that thread's stack. Only call while enabled.
  OpenSpan open_span();
  /// Pop `span` from the calling thread's stack and record `ev` (id/parent/
  /// tid are filled in from `span` and the calling thread).
  void close_span(const OpenSpan& span, TraceEvent ev);

  /// Recorded events sorted by (start_ns, id) — deterministic for a given
  /// set of spans regardless of which worker closed first.
  std::vector<TraceEvent> events() const;
  std::uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }
  void set_capacity(std::size_t capacity);

  /// {"displayTimeUnit":"ms","traceEvents":[...]} — Chrome trace-event
  /// JSON (complete "X" events, microsecond timestamps), loadable in
  /// chrome://tracing and Perfetto.
  Json chrome_trace_json() const;
  /// Serialize chrome_trace_json() to `path`; false + `error` on I/O failure.
  bool write_chrome_trace(const std::string& path, std::string* error = nullptr) const;

  /// Drop all recorded events (keeps the enabled state and epoch).
  void reset();

  /// Stable small ordinal for the calling thread (shared with nothing else;
  /// purely a display id for trace tracks).
  static std::uint32_t thread_ordinal();

 private:
  std::atomic<bool> enabled_{false};
  std::chrono::steady_clock::time_point epoch_{};
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<std::uint64_t> dropped_{0};
  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
  std::size_t capacity_ = 1u << 20;
};

/// The process-wide recorder `--trace-out` enables.
TraceRecorder& recorder();

/// Lightweight RAII span that reports only to the recorder: a no-op (one
/// relaxed load) when recording is off, so it can sit on per-probe paths
/// that are too hot for a StageTracer merge. `name` must outlive the span
/// (string literals at every call site).
class TraceSpan {
 public:
  explicit TraceSpan(const char* name) {
    if (!obs::recorder().enabled()) return;
    active_ = true;
    name_ = name;
    start_ = obs::recorder().now_ns();
    open_ = obs::recorder().open_span();
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
  ~TraceSpan() { end(); }

  bool active() const { return active_; }
  /// Attach a free-form detail string (call sites guard on active() to
  /// avoid building the string when recording is off).
  void detail(std::string d) {
    if (active_) detail_ = std::move(d);
  }

  void end();

 private:
  bool active_ = false;
  const char* name_ = "";
  std::string detail_;
  std::uint64_t start_ = 0;
  TraceRecorder::OpenSpan open_;
};

/// Accumulated statistics for one pipeline stage.
struct StageStats {
  std::uint64_t calls = 0;     // spans closed
  std::uint64_t items = 0;     // work units processed
  std::uint64_t failures = 0;  // work units that failed
  std::uint64_t wall_ns = 0;   // total wall time across spans
  std::map<std::string, std::uint64_t> failure_reasons;
};

class StageTracer {
 public:
  /// RAII span: records wall time from construction to end()/destruction.
  class Span {
   public:
    Span(StageTracer* tracer, std::string stage)
        : tracer_(tracer),
          stage_(std::move(stage)),
          start_(std::chrono::steady_clock::now()) {
      maybe_open_trace();
    }
    Span(Span&& other) noexcept { *this = std::move(other); }
    Span& operator=(Span&& other) noexcept;
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    ~Span() { end(); }

    void add_items(std::uint64_t n = 1) { items_ += n; }
    /// Count a failed work unit under `reason` (also counts as an item
    /// if the caller did not add it separately — callers add items for
    /// successes and failures alike; fail() only tags the failure).
    void fail(const std::string& reason, std::uint64_t n = 1);

    /// Close the span and merge into the tracer. Idempotent.
    void end();

   private:
    /// When the recorder is enabled, also open a trace-level span so the
    /// stage shows up in the Chrome trace. One relaxed load when disabled.
    void maybe_open_trace();

    StageTracer* tracer_ = nullptr;
    std::string stage_;
    std::chrono::steady_clock::time_point start_;
    std::uint64_t items_ = 0;
    std::uint64_t failures_ = 0;
    std::map<std::string, std::uint64_t> reasons_;
    bool trace_active_ = false;
    std::uint64_t trace_start_ns_ = 0;
    TraceRecorder::OpenSpan trace_open_;
  };

  Span span(std::string stage) { return Span(this, std::move(stage)); }

  /// Stages in first-seen order with their accumulated stats.
  std::vector<std::pair<std::string, StageStats>> snapshot() const;

  void reset();

  /// {"<stage>":{"calls":..,"items":..,"failures":..,"wall_ns":..,
  ///             "failure_reasons":{...}}, ...} in first-seen order.
  Json to_json_value() const;
  std::string to_json() const { return to_json_value().dump(); }

 private:
  friend class Span;
  void record(const std::string& stage, std::uint64_t wall_ns,
              std::uint64_t items, std::uint64_t failures,
              const std::map<std::string, std::uint64_t>& reasons);

  mutable std::mutex mu_;
  std::vector<std::string> order_;
  std::map<std::string, StageStats> stages_;
};

/// The process-wide tracer the pipeline stages report into.
StageTracer& tracer();

}  // namespace iotls::obs
