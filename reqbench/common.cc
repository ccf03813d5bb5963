#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace reqbench {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const std::size_t index = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(values.size()))) - 1;
  return values[index];
}

double GeometricMean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double ProcessCpuMs() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(usage.ru_utime) + ms(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char escaped[8];
      std::snprintf(escaped, sizeof(escaped), "\\u%04x", c);
      out += escaped;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string WithoutRequestTag(const std::string& response) {
  const std::size_t tag = response.find(" req=");
  if (tag == std::string::npos) return response;
  const std::size_t end = response.find(' ', tag + 1);
  return response.substr(0, tag) +
         (end == std::string::npos ? "" : response.substr(end));
}

int RequestTag(const std::string& response) {
  const std::size_t tag = response.find(" req=");
  if (tag == std::string::npos) return -1;
  int value = 0;
  std::size_t i = tag + 5;
  if (i >= response.size() || response[i] < '0' || response[i] > '9') return -1;
  for (; i < response.size() && response[i] >= '0' && response[i] <= '9'; ++i) {
    if (value > 100000000) return -1;
    value = value * 10 + (response[i] - '0');
  }
  return value;
}

}  // namespace reqbench
