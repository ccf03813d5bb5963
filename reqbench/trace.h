// In-memory span recorder for the traced run. Spans nest strictly (each
// stage runs inside its parent), are kept in memory while the run lasts,
// and are written out once at the end with per-layer self times.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

#include "common.h"

namespace reqbench {

struct Span {
  const char* name = "";  // "<layer>.<stage>", or "request" for the root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;   // index into the span list, -1 for a root
  int request = -1;  // request id shared by a request's spans
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  // Opens a span under the innermost open one and returns its id.
  int Begin(const char* name, int request);
  void End(int id);

  // Runs `body` inside a span.
  template <typename F>
  auto Time(const char* name, int request, F&& body) {
    const int id = Begin(name, request);
    if constexpr (std::is_void_v<decltype(body())>) {
      body();
      End(id);
    } else {
      auto result = body();
      End(id);
      return result;
    }
  }

  const std::vector<Span>& spans() const { return spans_; }

  // Durations (ms) of every span with this name.
  std::vector<double> DurationsMs(const std::string& name) const;

  // Self time (ms) summed per layer: a span's duration minus its
  // children's. The root "request" spans count as layer "request".
  std::map<std::string, double> SelfMsByLayer() const;

  // Writes every span plus the per-layer self times as JSON.
  bool Write(const std::string& path, double wall_ms) const;

 private:
  std::int64_t Now() const;

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// "soc.parse" -> "soc".
std::string LayerOf(const char* span_name);

}  // namespace reqbench
