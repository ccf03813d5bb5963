#include "loadgen.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "common.h"
#include "service/net/client.h"
#include "service/net/socket.h"

namespace reqbench {

int OpenLoopRun::Answered() const {
  return static_cast<int>(std::count_if(
      responses.begin(), responses.end(),
      [](const std::string& r) { return !r.empty(); }));
}

bool IsShed(const std::string& response) {
  return response.empty() || (response.rfind("ERROR", 0) == 0 &&
                              response.find(" eval:") == std::string::npos);
}

int OpenLoopRun::Shed() const {
  return static_cast<int>(std::count_if(
      responses.begin(), responses.end(),
      [](const std::string& r) { return !r.empty() && IsShed(r); }));
}

double OpenLoopRun::LatencyPercentile(double p) const {
  std::vector<double> values = latency_ms;
  for (double& v : values) {
    if (v < 0) v = std::numeric_limits<double>::infinity();
  }
  return Percentile(std::move(values), p);
}

OpenLoopRun RunOpenLoop(int port, const std::vector<std::string>& lines,
                        std::size_t first, double rate, double seconds,
                        double abort_over_ms) {
  OpenLoopRun run;
  const std::size_t planned =
      first >= lines.size()
          ? 0
          : std::min(lines.size() - first,
                     static_cast<std::size_t>(std::ceil(rate * seconds)));
  std::string error;
  soctest::Socket socket = soctest::ConnectToLoopback(port, &error);
  if (!socket.valid()) {
    std::fprintf(stderr, "loadgen: connect failed: %s\n", error.c_str());
    run.aborted = true;
    return run;
  }
  const int fd = socket.fd();
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  run.responses.assign(planned, "");
  run.latency_ms.assign(planned, -1.0);
  run.lag_ms.assign(planned, 0.0);
  const double cpu_start = ProcessCpuMs();
  const Clock::time_point start = Clock::now();
  const auto due = [&](std::size_t i) {
    return start + std::chrono::nanoseconds(static_cast<std::int64_t>(1e9 * i / rate));
  };
  const Clock::time_point give_up =
      due(planned) + std::chrono::seconds(15);

  // One thread sends what is due and reads what has arrived, waiting in
  // ppoll until the next send is due or a response can be read.
  std::size_t sent = 0, received = 0, late = 0;
  bool abort = false, shut = false;
  std::string buffer;
  char chunk[8192];
  while (Clock::now() < give_up) {
    Clock::time_point now = Clock::now();
    while (!abort && sent < planned && due(sent) <= now) {
      if (!soctest::WriteAll(fd, lines[first + sent] + "\n")) {
        abort = true;
        break;
      }
      now = Clock::now();
      run.lag_ms[sent] = MsSince(due(sent), now);
      ++sent;
    }
    if (!shut && (abort || sent == planned)) {
      socket.ShutdownWrite();
      shut = true;
    }
    if (shut && received == sent) break;
    const auto wait = !shut ? std::max(due(sent) - now, Clock::duration::zero())
                            : std::chrono::milliseconds(50);
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(wait).count();
    timespec timeout{static_cast<time_t>(ns / 1000000000), static_cast<long>(ns % 1000000000)};
    pollfd pfd{fd, POLLIN, 0};
    if (::ppoll(&pfd, 1, &timeout, nullptr) <= 0) continue;
    const long got = soctest::ReadSome(fd, chunk, sizeof(chunk));
    if (got <= 0) break;  // the server closed after our half-close
    // Acknowledge at once: the server does not set TCP_NODELAY, so with
    // delayed ACKs a response could wait for the next request's arrival
    // and the latency would measure the send interval instead.
    ::setsockopt(fd, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof(one));
    now = Clock::now();
    buffer.append(chunk, static_cast<std::size_t>(got));
    std::size_t newline;
    while ((newline = buffer.find('\n')) != std::string::npos) {
      std::string line = buffer.substr(0, newline);
      buffer.erase(0, newline + 1);
      const int tag = RequestTag(line);
      if (tag < 0 || static_cast<std::size_t>(tag) >= sent ||
          !run.responses[static_cast<std::size_t>(tag)].empty()) {
        std::fprintf(stderr, "loadgen: unexpected response: %s\n", line.c_str());
        continue;
      }
      const double ms = MsSince(due(static_cast<std::size_t>(tag)), now);
      run.latency_ms[static_cast<std::size_t>(tag)] = ms;
      run.responses[static_cast<std::size_t>(tag)] = std::move(line);
      ++received;
      if (abort_over_ms > 0 && ms > abort_over_ms && ++late > planned / 100) {
        abort = true;
      }
    }
  }

  run.aborted = sent < planned;
  run.lines.assign(lines.begin() + static_cast<long>(first),
                   lines.begin() + static_cast<long>(first + sent));
  run.responses.resize(sent);
  run.latency_ms.resize(sent);
  run.lag_ms.resize(sent);
  run.elapsed_s = MsSince(start, Clock::now()) / 1000.0;
  run.cpu_ms = ProcessCpuMs() - cpu_start;
  return run;
}

bool MeetsLimit(const OpenLoopRun& run, double p99_limit_ms) {
  if (run.aborted || run.lines.empty() ||
      run.Answered() != static_cast<int>(run.lines.size()) || run.Shed() > 0 ||
      run.LatencyPercentile(99) > p99_limit_ms) {
    return false;
  }
  const std::size_t quarter = std::max<std::size_t>(1, run.latency_ms.size() / 4);
  const std::vector<double> first(run.latency_ms.begin(),
                                  run.latency_ms.begin() + static_cast<long>(quarter));
  const std::vector<double> last(run.latency_ms.end() - static_cast<long>(quarter),
                                 run.latency_ms.end());
  return Percentile(last, 50) <= 2 * Percentile(first, 50) + 2.0;
}

std::vector<double> StatsRoundTrips(int port, int count) {
  std::vector<double> out;
  soctest::LineClient client;
  std::string error;
  if (!client.Connect(port, &error)) return out;
  for (int i = 0; i < count; ++i) {
    const Clock::time_point start = Clock::now();
    if (!client.SendLine("STATS")) break;
    if (!client.ReadLine(5000)) break;
    out.push_back(MsSince(start, Clock::now()));
  }
  client.Close();
  return out;
}

}  // namespace reqbench
