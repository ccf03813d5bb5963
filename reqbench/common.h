// Shared plumbing of the request-level benchmark: clock, percentiles,
// process resource figures, and the metric list a run prints.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace reqbench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - start).count();
}

// Nearest-rank percentile (0 < p <= 100) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double p);

// Geometric mean of positive values; 0 when empty.
double GeometricMean(const std::vector<double>& values);

// User + system CPU of the whole process so far, in milliseconds.
double ProcessCpuMs();

// Peak resident set of the process so far, in MiB.
double PeakRssMb();

// One printed metric: name, value, unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class MetricList {
 public:
  void Add(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

// Escapes a string for a JSON string literal (quotes included).
std::string JsonString(const std::string& text);

// The response line with its "req=<i>" tag removed, so two answers to the
// same request compare equal wherever they sat in a stream.
std::string WithoutRequestTag(const std::string& response);

// The "req=<i>" index of a response line, or -1.
int RequestTag(const std::string& response);

}  // namespace reqbench
