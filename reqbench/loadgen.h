// Open-loop load generator for serve_variants: one pipelined loopback
// connection, requests sent on a fixed schedule whatever the server does,
// each timed from when it was due so a stall is charged to every request
// queued behind it.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace reqbench {

// True for an answer the server refused to evaluate (ERROR overloaded,
// deadline or draining) and for no answer at all; false for MAKESPAN and
// ERROR eval lines.
bool IsShed(const std::string& response);

struct OpenLoopRun {
  std::vector<std::string> lines;      // sent, by request index
  std::vector<std::string> responses;  // by request index; "" = none
  std::vector<double> latency_ms;      // due -> response; -1 = none
  std::vector<double> lag_ms;          // due -> actually sent
  bool aborted = false;                // stopped early: already failed
  double elapsed_s = 0.0;
  double cpu_ms = 0.0;                 // process CPU over the run

  int Answered() const;
  int Shed() const;  // answered lines that are IsShed
  // Latency percentile over sent requests, a missing answer counting as
  // infinitely late.
  double LatencyPercentile(double p) const;
};

// Sends lines[first..) at `rate` for `seconds` over a fresh connection to
// 127.0.0.1:port, from one thread. With abort_over_ms > 0 the run stops
// sending once more than 1% of its planned requests have waited longer
// than that (the p99 limit can no longer be met).
OpenLoopRun RunOpenLoop(int port, const std::vector<std::string>& lines,
                        std::size_t first, double rate, double seconds,
                        double abort_over_ms);

// A rate passes when every request was answered without a shed, p99 is
// within the limit, and the backlog did not grow (the median latency of
// the last quarter is within twice that of the first quarter, plus 2 ms).
bool MeetsLimit(const OpenLoopRun& run, double p99_limit_ms);

// Round trips of the STATS verb on an idle connection (transport only:
// the reader thread answers it without touching a worker), in ms.
std::vector<double> StatsRoundTrips(int port, int count);

}  // namespace reqbench
