#include "trace.hpp"

#include <algorithm>
#include <fstream>

#include "obs/json.hpp"

namespace perfbench {

Trace::Scope Trace::unit() {
  if (!on()) return Scope(this, -1);
  unit_ = units_++;
  return Scope(this, open("unit", -1, false));
}

Trace::Scope Trace::span(const std::string& name) {
  if (!on()) return Scope(this, -1);
  return Scope(this, open(name, stack_.empty() ? -1 : stack_.back(), false));
}

Trace::Scope Trace::replay(const std::string& name, int parent) {
  if (!on() || parent < 0) return Scope(this, -1);
  return Scope(this, open(name, parent, true));
}

int Trace::open(const std::string& name, int parent, bool replay) {
  Span s;
  s.name = name;
  s.parent = parent;
  s.unit = unit_;
  s.replay = replay;
  s.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - epoch_).count();
  spans_.push_back(std::move(s));
  int id = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(id);
  return id;
}

void Trace::close(int id) {
  spans_[static_cast<std::size_t>(id)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_)
          .count();
  // Scopes close in LIFO order, so the span is on top of the stack.
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

bool Trace::write(const std::string& path) const {
  using iotls::obs::Json;
  Json::Array out;
  out.reserve(spans_.size());
  for (const Span& s : spans_) {
    out.emplace_back(Json::Object{
        {"name", s.name},
        {"start_ns", s.start_ns},
        {"end_ns", s.end_ns},
        {"parent", s.parent},
        {"unit", s.unit},
        {"replay", s.replay},
    });
  }
  std::ofstream f(path);
  f << Json(std::move(out)).dump() << "\n";
  return static_cast<bool>(f);
}

std::vector<UnitBreakdown> breakdown(
    const std::vector<Span>& spans,
    const std::function<std::string(const std::string&)>& layer_of) {
  std::vector<std::vector<int>> children(spans.size());
  std::vector<int> roots;
  int max_unit = -1;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    max_unit = std::max(max_unit, s.unit);
    if (s.parent < 0) {
      if (s.name == "unit") roots.push_back(static_cast<int>(i));
    } else {
      children[static_cast<std::size_t>(s.parent)].push_back(static_cast<int>(i));
    }
  }

  std::vector<UnitBreakdown> out(static_cast<std::size_t>(max_unit + 1));
  // Depth-first from each root; eff is the span's attributed duration.
  struct Item {
    int id;
    double eff;
  };
  for (int root : roots) {
    const Span& r = spans[static_cast<std::size_t>(root)];
    UnitBreakdown& unit = out[static_cast<std::size_t>(r.unit)];
    unit.wall_ms = r.ms();
    std::vector<Item> todo{{root, r.ms()}};
    while (!todo.empty()) {
      Item item = todo.back();
      todo.pop_back();
      const Span& s = spans[static_cast<std::size_t>(item.id)];
      double scale = s.ms() > 0 ? item.eff / s.ms() : 0.0;
      double real = 0;
      double replayed = 0;
      for (int c : children[static_cast<std::size_t>(item.id)]) {
        const Span& child = spans[static_cast<std::size_t>(c)];
        (child.replay ? replayed : real) += child.ms() * scale;
      }
      double room = std::max(0.0, item.eff - real);
      double fit = replayed > room && replayed > 0 ? room / replayed : 1.0;
      double covered = 0;
      for (int c : children[static_cast<std::size_t>(item.id)]) {
        const Span& child = spans[static_cast<std::size_t>(c)];
        double eff = child.ms() * scale * (child.replay ? fit : 1.0);
        covered += eff;
        todo.push_back({c, eff});
      }
      double self = std::max(0.0, item.eff - covered);
      if (item.id == root) {
        unit.unattributed_ms = self;
      } else {
        unit.by_name_ms[s.name] += s.ms();
        unit.self_by_layer_ms[layer_of(s.name)] += self;
      }
    }
  }
  return out;
}

}  // namespace perfbench
