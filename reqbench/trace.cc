#include "trace.h"

#include <cstdio>
#include <cstring>
#include <fstream>

namespace reqbench {

std::string LayerOf(const char* span_name) {
  const char* dot = std::strchr(span_name, '.');
  return dot == nullptr ? std::string(span_name)
                        : std::string(span_name, dot);
}

std::int64_t Tracer::Now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

int Tracer::Begin(const char* name, int request) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.request = request;
  span.start_ns = Now();
  spans_.push_back(span);
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::End(int id) {
  spans_[static_cast<std::size_t>(id)].end_ns = Now();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::vector<double> Tracer::DurationsMs(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (name == span.name) out.push_back((span.end_ns - span.start_ns) / 1e6);
  }
  return out;
}

std::map<std::string, double> Tracer::SelfMsByLayer() const {
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_ns - spans_[i].start_ns;
  }
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      self[static_cast<std::size_t>(span.parent)] -= span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, double> by_layer;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    by_layer[LayerOf(spans_[i].name)] += self[i] / 1e6;
  }
  return by_layer;
}

bool Tracer::Write(const std::string& path, double wall_ms) const {
  std::ofstream out(path, std::ios::trunc);
  out << "{\"wall_ms\": " << wall_ms << ",\n \"self_ms\": {";
  bool first = true;
  for (const auto& [layer, ms] : SelfMsByLayer()) {
    out << (first ? "" : ", ") << JsonString(layer) << ": " << ms;
    first = false;
  }
  out << "},\n \"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char row[256];
    std::snprintf(row, sizeof(row),
                  "  {\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                  "\"end_ns\": %lld, \"parent\": %d, \"request\": %d}%s\n",
                  i, s.name, static_cast<long long>(s.start_ns),
                  static_cast<long long>(s.end_ns), s.parent, s.request,
                  i + 1 < spans_.size() ? "," : "");
    out << row;
  }
  out << " ]}\n";
  return static_cast<bool>(out);
}

}  // namespace reqbench
