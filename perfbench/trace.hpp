// In-memory spans the benchmark records around its own calls into each
// iotls layer (traced runs only), and the per-unit attribution computed
// from them. Nothing here reaches into the program: every span brackets a
// public call made from the benchmark's files.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  std::string name;  // "<layer>.<call>"; "unit" for a unit root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  // index into Trace::spans(); -1 for a unit root
  int unit = -1;    // shared by every span recorded for one unit
  /// Timed on a shadow replay of a call that `parent` makes internally.
  /// The interval lies after the unit, not inside its parent.
  bool replay = false;

  double ms() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
};

class Trace {
 public:
  explicit Trace(bool enabled) : enabled_(enabled) {}
  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  /// Record only while active (a traced run alternates traced and plain
  /// units); starts inactive. Has no effect on a disabled trace.
  void set_active(bool active) { active_ = active; }

  /// Closes its span on destruction. Inert when tracing is off.
  class Scope {
   public:
    Scope(Trace* trace, int id) : trace_(trace), id_(id) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      if (id_ >= 0) trace_->close(id_);
    }
    int id() const { return id_; }

   private:
    Trace* trace_;
    int id_;
  };

  /// A unit root: spans opened until the next unit() share its id.
  Scope unit();
  /// A span nested in whatever span is open.
  Scope span(const std::string& name);
  /// A span timed on a shadow replay, attributed as a child of `parent`.
  Scope replay(const std::string& name, int parent);

  /// Id of the most recent unit root (-1 before the first).
  int current_unit() const { return unit_; }

  const std::vector<Span>& spans() const { return spans_; }

  /// Write every span as one JSON array (name, start/end ns, parent, unit,
  /// replay). Returns false when the file cannot be written.
  bool write(const std::string& path) const;

 private:
  int open(const std::string& name, int parent, bool replay);
  void close(int id);

  bool on() const { return enabled_ && active_; }

  bool enabled_;
  bool active_ = false;
  std::vector<Span> spans_;
  std::vector<int> stack_;
  int unit_ = -1;
  int units_ = 0;
  Clock::time_point epoch_ = Clock::now();
};

/// Per-unit attribution.
struct UnitBreakdown {
  double wall_ms = 0;
  /// Raw duration summed per span name (replayed spans included).
  std::map<std::string, double> by_name_ms;
  /// Self time summed per layer.
  std::map<std::string, double> self_by_layer_ms;
  /// The unit root's self time: wall time inside no layer call.
  double unattributed_ms = 0;
};

/// Self time of a span is its duration minus what its children cover.
/// Replayed children are not nested in time, so they are scaled down
/// together when their sum exceeds what the parent's real children leave
/// over; the scale carries down to their own children.
std::vector<UnitBreakdown> breakdown(
    const std::vector<Span>& spans,
    const std::function<std::string(const std::string&)>& layer_of);

}  // namespace perfbench
