// reqbench: the request-level benchmark program.
//
//   reqbench --workload <cold_compile|warm_search|serve_variants>
//            --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
//            [--span-file <path>] [--corrupt <k>]
//
// --trace 0 measures the end-to-end metrics on the real request path;
// --trace 1 replays the workload through the staged copy of that path and
// prints the per-layer ledger (staged.h). Either way every answer is
// checked, and the last stdout line is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// --corrupt k damages the k-th checked answer (0-based) before its check,
// to prove the checks catch it. See README.md for the metric definitions.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "checks.h"
#include "common.h"
#include "loadgen.h"
#include "service/net/client.h"
#include "service/net/soc_server.h"
#include "staged.h"
#include "trace.h"
#include "workloads.h"

namespace reqbench {
namespace {

// Set-up is repeated this many times per run and its median reported.
constexpr int kSetupRepetitions = 5;

// serve_variants: the fixed offered rate for the latency metrics, the p99
// limit that defines the highest sustained rate, and the bisection range
// and step.
constexpr double kFixedRate = 100.0;
constexpr double kP99LimitMs = 100.0;
constexpr double kMinRate = 200.0;
constexpr double kMaxRate = 3200.0;
constexpr double kRateStep = 0.08;  // stop when hi/lo <= 1 + step
// Share of --seconds spent at the fixed rate, and the requests each
// bisection trial sends per second of --seconds, up to 1000 (ten beyond its
// p99).
constexpr double kFixedShare = 0.5;
constexpr double kTrialRequestsPerSecond = 50;
constexpr double kMaxTrialRequests = 1000;
constexpr int kTrialAttempts = 3;

// Traced runs replay a fixed number of lines per second of --seconds, so
// per-layer totals compare across runs and commits.
constexpr double kTracedColdPerSecond = 6.0;
constexpr double kTracedSearchPerSecond = 10.0;
// serve_variants' traced run sends at the fixed rate for this share of
// --seconds, then replays those lines through both offline paths.
constexpr double kTracedServeShare = 0.25;

// makespan_vs_lb, ok_ratio, `attempted` and `failed` are taken over a fixed
// set of requests, so they do not depend on how many requests a run gets
// through: the first lines of the closed-loop streams, this many per second
// of --seconds (served untimed after the timed phase if it ended first), and
// serve_variants' fixed-rate phase.
constexpr double kQualityColdPerSecond = 10.0;
constexpr double kQualitySearchPerSecond = 32.0;

struct Options {
  Workload workload = Workload::kColdCompile;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;
  std::string span_file;
  long corrupt = -1;
};

struct Result {
  MetricList metrics;
  Tally tally;  // the fixed quality set: `attempted` and `failed`
  Tally extra;  // every other answer: checked, and any failure clears `correct`
};

soctest::BatchOptions OfflineOptions() {
  soctest::BatchOptions options;
  options.threads = 1;
  options.dedup = true;
  return options;
}

soctest::ServerOptions ServerOptionsForBench() {
  soctest::ServerOptions options;
  options.batch.threads = 2;
  options.batch.dedup = true;
  return options;
}

double Median(std::vector<double> values) { return Percentile(std::move(values), 50); }

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Checks one answer (with the optional deliberate corruption) into the
// tally and returns the check.
Check CheckInto(Tally& tally, const Served& served, const std::string& line,
                long& checked, long corrupt) {
  Check check;
  if (!served.parsed) {
    check.verdict = Verdict::kEvalError;
    check.detail = served.response;
  } else if (checked == corrupt) {
    soctest::BatchItemResult damaged = served.item;
    CorruptAnswer(damaged);
    check = CheckAnswer(served.request, damaged);
  } else {
    check = CheckAnswer(served.request, served.item);
  }
  ++checked;
  tally.Add(check, line);
  return check;
}

// makespan_vs_lb and ok_ratio over the checks of the fixed quality set.
void AddQualityMetrics(MetricList& metrics, const std::vector<Check>& quality) {
  std::vector<double> ratios;
  for (const Check& check : quality) {
    if (check.verdict == Verdict::kOk) ratios.push_back(check.makespan_vs_lb);
  }
  metrics.Add("makespan_vs_lb", GeometricMean(ratios), "ratio");
  metrics.Add("ok_ratio",
              Ratio(static_cast<double>(ratios.size()),
                    static_cast<double>(quality.size())),
              "ratio");
}

void PrintLatencyLine(const char* label, const std::vector<double>& latency) {
  std::printf("LATENCY %s samples=%zu p50_ms=%.4f p90_ms=%.4f p99_ms=%.4f\n",
              label, latency.size(), Percentile(latency, 50),
              Percentile(latency, 90), Percentile(latency, 99));
}

// ---- offline set-up -------------------------------------------------------

struct OfflineSetup {
  WorkloadInputs inputs;
  std::unique_ptr<soctest::BatchScheduler> scheduler;
  soctest::ScheduleWorkspace ws;
  double setup_s = 0.0;  // median over repetitions
};

void Warm(soctest::BatchScheduler& scheduler, soctest::ScheduleWorkspace& ws,
          const std::vector<std::string>& lines) {
  for (const std::string& line : lines) {
    const Served served = ServeLine(scheduler, ws, line, 0);
    if (!served.item.ok() || !served.parsed) {
      std::fprintf(stderr, "warm-up failed: %s -> %s\n", line.c_str(),
                   served.response.c_str());
    }
  }
}

std::unique_ptr<OfflineSetup> SetUpOffline(const Options& options, int repetitions) {
  std::vector<double> times;
  std::unique_ptr<OfflineSetup> setup;
  for (int r = 0; r < repetitions; ++r) {
    const Clock::time_point start = Clock::now();
    setup = std::make_unique<OfflineSetup>();
    setup->inputs = MakeInputs(options.workload, options.seed, options.work_dir,
                               SizingFor(options.seconds));
    setup->scheduler = std::make_unique<soctest::BatchScheduler>(OfflineOptions());
    Warm(*setup->scheduler, setup->ws, setup->inputs.warm_lines);
    times.push_back(MsSince(start, Clock::now()) / 1000.0);
  }
  setup->setup_s = Median(times);
  return setup;
}

// ---- untraced: closed loop, one client ------------------------------------

// Each timing metric is computed per window (kWindows equal slices of the
// timed phase) and the best window is reported. Load from outside the
// benchmark only ever adds time, and on a shared box it comes and goes
// within a run; the least-disturbed window is the steadiest estimate of
// the program's own speed (README.md, "Why the best window").
constexpr int kWindows = 5;

struct WindowStats {
  std::vector<double> latency_ms;
  double busy_ms = 0.0;
  double cpu_ms = 0.0;
};

// The lowest `metric(window)` over the non-empty windows.
template <typename F>
double BestWindow(const std::vector<WindowStats>& windows, F metric) {
  double best = std::numeric_limits<double>::infinity();
  for (const WindowStats& w : windows) {
    if (!w.latency_ms.empty()) best = std::min(best, metric(w));
  }
  return best;
}

Result RunClosedLoop(const Options& options) {
  Result result;
  std::unique_ptr<OfflineSetup> setup = SetUpOffline(options, kSetupRepetitions);
  std::vector<WindowStats> windows(kWindows);
  std::vector<double> latency;
  const std::size_t quality_lines = static_cast<std::size_t>(
      options.seconds * (options.workload == Workload::kColdCompile
                             ? kQualityColdPerSecond
                             : kQualitySearchPerSecond));
  std::vector<Check> quality;
  long checked = 0;
  const Clock::time_point begin = Clock::now();
  const double run_ms = options.seconds * 1000;
  std::size_t k = 0;
  for (;; ++k) {
    const double elapsed = MsSince(begin, Clock::now());
    if (elapsed >= run_ms) break;
    WindowStats& window =
        windows[static_cast<std::size_t>(elapsed / run_ms * kWindows)];
    const std::string line = StreamLine(options.workload, setup->inputs, k);
    const double cpu_before = ProcessCpuMs();
    const Clock::time_point start = Clock::now();
    const Served served =
        ServeLine(*setup->scheduler, setup->ws, line, static_cast<int>(k));
    const double ms = MsSince(start, Clock::now());
    window.cpu_ms += ProcessCpuMs() - cpu_before;
    window.busy_ms += ms;
    window.latency_ms.push_back(ms);
    latency.push_back(ms);
    // The client checks each answer before sending the next line; that
    // time is outside the request path and outside the metrics.
    if (k < quality_lines) {
      quality.push_back(CheckInto(result.tally, served, line, checked, options.corrupt));
    } else {
      CheckInto(result.extra, served, line, checked, options.corrupt);
    }
  }
  const double rss = PeakRssMb();
  for (; k < quality_lines; ++k) {  // the rest of the quality set, untimed
    const std::string line = StreamLine(options.workload, setup->inputs, k);
    const Served served =
        ServeLine(*setup->scheduler, setup->ws, line, static_cast<int>(k));
    quality.push_back(CheckInto(result.tally, served, line, checked, options.corrupt));
  }
  PrintLatencyLine("closed_loop", latency);
  const double throughput =
      1000.0 / BestWindow(windows, [](const WindowStats& w) {
        return w.busy_ms / static_cast<double>(w.latency_ms.size());
      });
  MetricList& m = result.metrics;
  m.Add("setup_s", setup->setup_s, "s");
  m.Add("throughput_rps", throughput, "1/s");
  m.Add("latency_p50_ms", BestWindow(windows, [](const WindowStats& w) {
          return Percentile(w.latency_ms, 50);
        }), "ms");
  m.Add("cpu_ms_per_req", BestWindow(windows, [](const WindowStats& w) {
          return w.cpu_ms / static_cast<double>(w.latency_ms.size());
        }), "ms");
  m.Add("peak_rss_mb", rss, "MiB");
  AddQualityMetrics(m, quality);
  return result;
}

// ---- serve_variants: server set-up ----------------------------------------

struct ServerSetup {
  WorkloadInputs inputs;
  std::unique_ptr<soctest::SocServer> server;
  double setup_s = 0.0;
};

std::unique_ptr<ServerSetup> SetUpServer(const Options& options, int repetitions) {
  std::vector<double> times;
  std::unique_ptr<ServerSetup> setup;
  for (int r = 0; r < repetitions; ++r) {
    if (setup && setup->server) setup->server->Stop();
    const Clock::time_point start = Clock::now();
    setup = std::make_unique<ServerSetup>();
    setup->inputs = MakeInputs(options.workload, options.seed, options.work_dir,
                               SizingFor(options.seconds));
    setup->server = std::make_unique<soctest::SocServer>(ServerOptionsForBench());
    std::string error;
    if (!setup->server->Start(&error)) {
      std::fprintf(stderr, "server start failed: %s\n", error.c_str());
      std::exit(3);
    }
    soctest::LineClient client;
    if (!client.Connect(setup->server->port(), &error)) {
      std::fprintf(stderr, "connect failed: %s\n", error.c_str());
      std::exit(3);
    }
    for (const std::string& line : setup->inputs.warm_lines) {
      client.SendLine(line);
      const std::optional<std::string> reply = client.ReadLine(30000);
      if (!reply || reply->rfind("MAKESPAN", 0) != 0) {
        std::fprintf(stderr, "warm-up failed: %s\n", line.c_str());
      }
    }
    client.Close();
    times.push_back(MsSince(start, Clock::now()) / 1000.0);
  }
  setup->setup_s = Median(times);
  return setup;
}

// Reference answers for serve_variants: every distinct line served offline
// through ServeOne, checked, and reduced to its tag-free response and
// verdict. The bit-identity contract makes the answer independent of cache
// state, so the lines are split over a few checker threads sharing one
// scheduler. The k-th distinct line (first-appearance order) is corrupted
// when k == corrupt.
struct Reference {
  std::string response;  // without its req= tag
  Check check;
};

constexpr int kCheckThreads = 3;

std::unordered_map<std::string, Reference> OfflineReference(
    const WorkloadInputs& inputs, const std::vector<const OpenLoopRun*>& runs,
    long corrupt) {
  std::vector<std::string> distinct;
  std::unordered_map<std::string, Reference> reference;
  for (const OpenLoopRun* run : runs) {
    for (const std::string& line : run->lines) {
      if (reference.emplace(line, Reference{}).second) distinct.push_back(line);
    }
  }
  soctest::BatchScheduler scheduler(ServerOptionsForBench().batch);
  {
    soctest::ScheduleWorkspace ws;
    Warm(scheduler, ws, inputs.warm_lines);
  }
  std::vector<Reference> answers(distinct.size());
  std::vector<std::thread> checkers;
  for (int t = 0; t < kCheckThreads; ++t) {
    checkers.emplace_back([&, t] {
      soctest::ScheduleWorkspace ws;
      for (std::size_t i = static_cast<std::size_t>(t); i < distinct.size();
           i += kCheckThreads) {
        Served served = ServeLine(scheduler, ws, distinct[i], 0);
        answers[i].response = WithoutRequestTag(served.response);
        if (!served.parsed) {
          answers[i].check.verdict = Verdict::kEvalError;
          answers[i].check.detail = served.response;
          continue;
        }
        if (static_cast<long>(i) == corrupt) CorruptAnswer(served.item);
        answers[i].check = CheckAnswer(served.request, served.item);
      }
    });
  }
  for (std::thread& checker : checkers) checker.join();
  for (std::size_t i = 0; i < distinct.size(); ++i) {
    reference[distinct[i]] = std::move(answers[i]);
  }
  return reference;
}

// Every answered response must equal the offline line. Shed or missing
// answers count as failures when `count_sheds`; probes above capacity are
// meant to shed. A repeat is held to the same reference as its first
// occurrence, so it must equal it too. The checks are also appended to
// `checks` when given.
void CheckServed(const OpenLoopRun& run,
                 const std::unordered_map<std::string, Reference>& reference,
                 bool count_sheds, Tally& tally, std::vector<Check>* checks) {
  for (std::size_t i = 0; i < run.lines.size(); ++i) {
    const std::string& response = run.responses[i];
    const Reference& ref = reference.at(run.lines[i]);
    Check check = ref.check;
    if (IsShed(response)) {
      if (!count_sheds) continue;
      check.verdict = Verdict::kShed;
      check.detail = response.empty() ? "no response" : response;
    } else if (WithoutRequestTag(response) != ref.response) {
      check.verdict = Verdict::kMismatch;
      check.detail = "served \"" + response + "\", offline \"" + ref.response + "\"";
    }
    tally.Add(check, run.lines[i]);
    if (checks != nullptr) checks->push_back(check);
  }
}

// ---- untraced: serve_variants, open loop ----------------------------------

Result RunServeVariants(const Options& options) {
  Result result;
  std::unique_ptr<ServerSetup> setup = SetUpServer(options, kSetupRepetitions);
  const int port = setup->server->port();
  const std::vector<std::string>& lines = setup->inputs.lines;

  const OpenLoopRun fixed =
      RunOpenLoop(port, lines, 0, kFixedRate, options.seconds * kFixedShare, 0);
  // Taken before the bisection, whose length depends on the machine.
  const double rss = PeakRssMb();
  std::size_t cursor = fixed.lines.size();

  // The highest sustained rate, by bisection on a log scale over
  // [kMinRate, kMaxRate]. Each trial sends trial_requests lines, continuing
  // the same stream so caches stay in their steady state, and stops early
  // once the limit is out of reach. It is printed, not gated (README.md).
  const int trials = static_cast<int>(std::ceil(
      std::log2(std::log(kMaxRate / kMinRate) / std::log(1 + kRateStep))));
  const double trial_requests =
      std::min(kMaxTrialRequests, kTrialRequestsPerSecond * options.seconds);
  double lo = kMinRate, hi = kMaxRate;
  std::vector<OpenLoopRun> probes;
  // One unjudged trial at the first probe rate. The first second after the
  // switch from the fixed rate runs slow (p99 over the limit at half the
  // capacity, then a pass at the same rate), which would otherwise fail
  // the first rate and halve the result. Its answers are checked.
  const double first_rate = std::sqrt(lo * hi);
  probes.push_back(RunOpenLoop(port, lines, cursor, first_rate,
                               trial_requests / first_rate, 0));
  cursor += probes.back().lines.size();
  std::printf("WARMUP rate=%.1f sent=%zu p99_ms=%.3f\n", first_rate,
              probes.back().lines.size(), probes.back().LatencyPercentile(99));
  for (int t = 0; t < trials; ++t) {
    const double rate = std::sqrt(lo * hi);
    // A rate fails only if kTrialAttempts trials in a row fail, so a stall
    // from outside the benchmark cannot end the search early.
    bool pass = false;
    for (int attempt = 0; attempt < kTrialAttempts && !pass; ++attempt) {
      probes.push_back(RunOpenLoop(port, lines, cursor, rate,
                                   trial_requests / rate, kP99LimitMs));
      const OpenLoopRun& probe = probes.back();
      cursor += probe.lines.size();
      pass = MeetsLimit(probe, kP99LimitMs);
      std::printf("TRIAL rate=%.1f sent=%zu answered=%d shed=%d p99_ms=%.3f %s\n",
                  rate, probe.lines.size(), probe.Answered(), probe.Shed(),
                  probe.LatencyPercentile(99), pass ? "pass" : "fail");
    }
    (pass ? lo : hi) = rate;
  }
  setup->server->Stop();

  std::vector<const OpenLoopRun*> runs = {&fixed};
  for (const OpenLoopRun& probe : probes) runs.push_back(&probe);
  const auto reference = OfflineReference(setup->inputs, runs, options.corrupt);
  std::vector<Check> quality;
  CheckServed(fixed, reference, /*count_sheds=*/true, result.tally, &quality);
  for (const OpenLoopRun& probe : probes) {
    CheckServed(probe, reference, /*count_sheds=*/false, result.extra, nullptr);
  }

  std::vector<double> latency;
  std::vector<WindowStats> windows(kWindows);
  for (std::size_t i = 0; i < fixed.latency_ms.size(); ++i) {
    if (fixed.latency_ms[i] < 0) continue;  // counted as a shed above
    latency.push_back(fixed.latency_ms[i]);
    windows[i * kWindows / fixed.latency_ms.size()].latency_ms.push_back(
        fixed.latency_ms[i]);
  }
  PrintLatencyLine("fixed_rate", latency);

  std::printf("SERVER %s\n", setup->server->StatsLine().c_str());
  std::printf("LOADGEN rate=%.1f sent=%zu lag_p50_ms=%.4f lag_p99_ms=%.4f\n",
              kFixedRate, fixed.lines.size(), Percentile(fixed.lag_ms, 50),
              Percentile(fixed.lag_ms, 99));
  std::printf("RATE max_rate_rps=%.4f p99_limit_ms=%.1f\n", lo, kP99LimitMs);
  MetricList& m = result.metrics;
  m.Add("setup_s", setup->setup_s, "s");
  // Answered ÷ elapsed at the fixed rate: the offered 100/s, not a figure
  // of the server (README.md, "What is not gated").
  m.Add("throughput_rps", fixed.Answered() / fixed.elapsed_s, "1/s");
  m.Add("latency_p50_ms", BestWindow(windows, [](const WindowStats& w) {
          return Percentile(w.latency_ms, 50);
        }), "ms");
  m.Add("cpu_ms_per_req",
        fixed.cpu_ms / std::max<std::size_t>(1, fixed.lines.size()), "ms");
  m.Add("peak_rss_mb", rss, "MiB");
  AddQualityMetrics(m, quality);
  return result;
}

// ---- traced runs ------------------------------------------------------------

struct NetLedger {
  double stats_rtt_ms_p50 = 0, service_us_p99 = 0, queue_depth_peak = 0,
         queue_wait_ms_p50 = 0, lag_ms_p99 = 0;
};

Result RunTraced(const Options& options) {
  Result result;
  WorkloadInputs inputs;
  std::vector<std::string> lines;
  NetLedger net;
  std::vector<double> served_latency;  // serve_variants: per line, from due
  const soctest::BatchOptions batch = options.workload == Workload::kServeVariants
                                          ? ServerOptionsForBench().batch
                                          : OfflineOptions();
  std::vector<std::string> server_responses;

  if (options.workload == Workload::kServeVariants) {
    std::unique_ptr<ServerSetup> setup = SetUpServer(options, 1);
    const OpenLoopRun run = RunOpenLoop(setup->server->port(), setup->inputs.lines,
                                        0, kFixedRate,
                                        options.seconds * kTracedServeShare, 0);
    net.stats_rtt_ms_p50 =
        Percentile(StatsRoundTrips(setup->server->port(), 200), 50);
    const soctest::ServerStats stats = setup->server->stats();
    setup->server->Stop();
    net.service_us_p99 = static_cast<double>(stats.p99_service_us);
    net.queue_depth_peak = static_cast<double>(stats.queue_depth_peak);
    net.lag_ms_p99 = Percentile(run.lag_ms, 99);
    lines = run.lines;
    served_latency = run.latency_ms;
    server_responses = run.responses;
    inputs = std::move(setup->inputs);
  } else {
    inputs = MakeInputs(options.workload, options.seed, options.work_dir,
                        SizingFor(options.seconds));
    const double per_second = options.workload == Workload::kColdCompile
                                  ? kTracedColdPerSecond
                                  : kTracedSearchPerSecond;
    const std::size_t count =
        std::max<std::size_t>(8, static_cast<std::size_t>(per_second * options.seconds));
    for (std::size_t k = 0; k < count; ++k) {
      lines.push_back(StreamLine(options.workload, inputs, k));
    }
  }

  // Pass A is the real path, pass B the staged copy, traced. They alternate
  // request by request, each on its own caches warmed the same way, so both
  // see the same machine conditions.
  soctest::BatchScheduler scheduler(batch);
  soctest::ScheduleWorkspace ws;
  Warm(scheduler, ws, inputs.warm_lines);
  StagedPath staged(batch);
  {
    Tracer warm_tracer;
    for (const std::string& line : inputs.warm_lines) staged.Serve(line, 0, warm_tracer);
  }
  const LayerCounters warm_counters = staged.counters();
  const soctest::CacheStats cache0 = staged.cache().stats();
  const soctest::CoreCacheStats core0 = staged.cache().core_stats();
  const soctest::ResultCacheStats results0 = staged.results().stats();

  Tracer tracer;
  double real_ms = 0.0, wall_ms = 0.0;  // A's and B's time in the loop
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const int index = static_cast<int>(i);
    const Clock::time_point a = Clock::now();
    const std::string real = ServeLine(scheduler, ws, lines[i], index).response;
    const Clock::time_point b = Clock::now();
    Served served = staged.Serve(lines[i], index, tracer);
    wall_ms += MsSince(b, Clock::now());
    real_ms += MsSince(a, b);
    Check check;
    if (!served.parsed) {
      check.verdict = Verdict::kEvalError;
      check.detail = served.response;
    } else {
      if (static_cast<long>(i) == options.corrupt) CorruptAnswer(served.item);
      check = CheckAnswer(served.request, served.item);
    }
    if (served.response != real) {
      check.verdict = Verdict::kMismatch;
      check.detail = "staged \"" + served.response + "\", ServeOne \"" + real + "\"";
    } else if (!server_responses.empty() &&
               WithoutRequestTag(server_responses[i]) !=
                   WithoutRequestTag(served.response)) {
      check.verdict =
          IsShed(server_responses[i]) ? Verdict::kShed : Verdict::kMismatch;
      check.detail = "served \"" + server_responses[i] + "\", offline \"" +
                     served.response + "\"";
    }
    result.tally.Add(check, lines[i]);
  }

  // Per-request staged service time (the request minus its validate stage)
  // against the served latency: the rest is an estimate of queue wait.
  const std::vector<Span>& spans = tracer.spans();
  std::vector<double> service_ms(lines.size(), 0.0);
  double validate_total_ms = 0.0;
  for (const Span& span : spans) {
    const double ms = (span.end_ns - span.start_ns) / 1e6;
    const std::string name = span.name;
    if (name == "request") service_ms[static_cast<std::size_t>(span.request)] += ms;
    if (name == "core.validate") {
      service_ms[static_cast<std::size_t>(span.request)] -= ms;
      validate_total_ms += ms;
    }
  }
  if (!served_latency.empty()) {
    std::vector<double> wait;
    for (std::size_t i = 0; i < lines.size(); ++i) {
      if (served_latency[i] >= 0) wait.push_back(served_latency[i] - service_ms[i]);
    }
    net.queue_wait_ms_p50 = Percentile(wait, 50);
  }

  LayerCounters c = staged.counters();
  c.compile_miss_ms -= warm_counters.compile_miss_ms;
  c.scheduled -= warm_counters.scheduled;
  c.admission_rounds -= warm_counters.admission_rounds;
  c.candidates_examined -= warm_counters.candidates_examined;
  const soctest::CacheStats cache1 = staged.cache().stats();
  const soctest::CoreCacheStats core1 = staged.cache().core_stats();
  const soctest::ResultCacheStats results1 = staged.results().stats();
  const double core_compiles = static_cast<double>(core1.compiles - core0.compiles);
  const double result_lookups = static_cast<double>(
      (results1.hits - results0.hits) + (results1.joins - results0.joins) +
      (results1.misses - results0.misses));

  const auto p50 = [&](const char* name) { return Percentile(tracer.DurationsMs(name), 50); };
  MetricList& m = result.metrics;
  m.Add("soc.parse_ms_p50", p50("soc.parse"), "ms");
  m.Add("soc.canonical_ms_p50", p50("soc.canonical"), "ms");
  m.Add("service.result_key_ms_p50", p50("service.result_key"), "ms");
  m.Add("service.serve_ms_p50", p50("service.serve"), "ms");
  m.Add("service.result_cache.hit_ratio",
        Ratio(static_cast<double>(results1.hits - results0.hits), result_lookups),
        "ratio");
  m.Add("service.problem_cache.hit_ratio",
        Ratio(static_cast<double>(cache1.hits - cache0.hits),
              static_cast<double>((cache1.hits - cache0.hits) +
                                  (cache1.misses - cache0.misses))),
        "ratio");
  m.Add("service.problem_cache.evictions",
        static_cast<double>(cache1.evictions - cache0.evictions), "count");
  m.Add("service.core_cache.hit_ratio",
        Ratio(static_cast<double>(core1.hits - core0.hits),
              static_cast<double>((core1.hits - core0.hits) +
                                  (core1.misses - core0.misses))),
        "ratio");
  m.Add("service.core_cache.compiles", core_compiles, "count");
  m.Add("core.compile_ms_total", c.compile_miss_ms, "ms");
  m.Add("core.compile_ms_per_core", Ratio(c.compile_miss_ms, core_compiles), "ms");
  std::vector<double> schedule_ms = tracer.DurationsMs("core.schedule");
  if (schedule_ms.empty()) schedule_ms = c.restart_ms_per_run;  // see README
  m.Add("core.schedule_ms_p50", Percentile(schedule_ms, 50), "ms");
  m.Add("core.admission_rounds",
        Ratio(static_cast<double>(c.admission_rounds), static_cast<double>(c.scheduled)),
        "count/req");
  m.Add("core.candidates_examined",
        Ratio(static_cast<double>(c.candidates_examined), static_cast<double>(c.scheduled)),
        "count/req");
  m.Add("core.validate_ms_p50", p50("core.validate"), "ms");
  m.Add("search.restart_ms_p50", p50("search.restart"), "ms");
  m.Add("search.restart.evaluated",
        Ratio(static_cast<double>(c.restart_evaluated),
              static_cast<double>(c.restart_requests)),
        "count/req");
  const double improves = static_cast<double>(c.improve_requests);
  m.Add("search.improve_ms_p50", p50("search.improve"), "ms");
  m.Add("search.improve.evaluated",
        Ratio(static_cast<double>(c.improve_evaluated), improves), "count/req");
  m.Add("search.improve.accept_ratio",
        Ratio(static_cast<double>(c.improve_improvements),
              static_cast<double>(c.improve_evaluated)),
        "ratio");
  m.Add("search.improve.bound_aborts",
        Ratio(static_cast<double>(c.improve_bound_aborts), improves), "count/req");
  m.Add("search.improve.duplicates_skipped",
        Ratio(static_cast<double>(c.improve_duplicates), improves), "count/req");
  m.Add("tdv.sweep_ms_p50", p50("tdv.sweep"), "ms");
  m.Add("tdv.sweep.widths",
        Ratio(static_cast<double>(c.sweep_widths), static_cast<double>(c.sweeps)),
        "count/req");
  m.Add("net.stats_rtt_ms_p50", net.stats_rtt_ms_p50, "ms");
  m.Add("net.service_us_p99", net.service_us_p99, "us");
  m.Add("net.queue_depth_peak", net.queue_depth_peak, "count");
  m.Add("net.queue_wait_ms_p50", net.queue_wait_ms_p50, "ms");
  m.Add("loadgen.lag_ms_p99", net.lag_ms_p99, "ms");

  // Self time per layer as a share of pass B's time; what no stage covers
  // (the root request spans' own time and the tracer's bookkeeping) is the
  // remainder.
  const std::map<std::string, double> self = tracer.SelfMsByLayer();
  double covered = 0.0;
  for (const char* layer : {"soc", "service", "core", "search", "tdv", "net"}) {
    const auto it = self.find(layer);
    const double ms = it == self.end() ? 0.0 : it->second;
    covered += ms;
    m.Add(std::string(layer) + ".self_share", Ratio(ms, wall_ms), "ratio");
  }
  m.Add("trace.remainder_share", Ratio(wall_ms - covered, wall_ms), "ratio");
  // Tracing overhead: the staged pass minus its extra validate stage,
  // against the untraced pass over the same lines.
  m.Add("trace.overhead_pct",
        100.0 * (Ratio(wall_ms - validate_total_ms, real_ms) - 1.0), "%");

  if (!options.span_file.empty()) {
    if (tracer.Write(options.span_file, wall_ms)) {
      std::printf("SPANS %s spans=%zu\n", options.span_file.c_str(), spans.size());
    } else {
      std::fprintf(stderr, "cannot write span file %s\n", options.span_file.c_str());
    }
  }
  return result;
}

// ---- output -------------------------------------------------------------------

void PrintFacts(double load_at_start) {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  std::printf(
      "FACTS {\"nproc\": %u, \"loadavg_1m_at_start\": %.2f, \"compiler\": %s, "
      "\"build_type\": %s, \"cpu_user_s\": %.3f, \"cpu_sys_s\": %.3f}\n",
      std::thread::hardware_concurrency(), load_at_start,
      JsonString(REQBENCH_COMPILER).c_str(),
      JsonString(REQBENCH_BUILD_TYPE).c_str(),
      usage.ru_utime.tv_sec + usage.ru_utime.tv_usec / 1e6,
      usage.ru_stime.tv_sec + usage.ru_stime.tv_usec / 1e6);
}

void PrintResult(const Result& result) {
  std::string json = "{\"correct\": ";
  json += result.tally.correct() && result.extra.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.tally.attempted());
  json += ", \"failed\": " + std::to_string(result.tally.failed());
  json += ", \"metrics\": {";
  bool first = true;
  for (const Metric& metric : result.metrics.metrics()) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metric.value) ? metric.value : -1.0);
    json += (first ? "" : ", ") + JsonString(metric.name) + ": {\"value\": " +
            value + ", \"unit\": " + JsonString(metric.unit) + "}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

std::optional<Options> ParseArgs(int argc, char** argv) {
  Options options;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      const auto workload = ParseWorkload(value);
      if (!workload) return std::nullopt;
      options.workload = *workload;
      have_workload = true;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      options.trace = value == "1";
    } else if (key == "--work-dir") {
      options.work_dir = value;
    } else if (key == "--span-file") {
      options.span_file = value;
    } else if (key == "--corrupt") {
      options.corrupt = std::atol(value.c_str());
    } else {
      return std::nullopt;
    }
  }
  if (!have_workload || options.work_dir.empty() || !(options.seconds > 0)) {
    return std::nullopt;
  }
  return options;
}

}  // namespace
}  // namespace reqbench

int main(int argc, char** argv) {
  using namespace reqbench;
  const std::optional<Options> options = ParseArgs(argc, argv);
  if (!options) {
    std::fprintf(stderr,
                 "usage: reqbench --workload <cold_compile|warm_search|"
                 "serve_variants> --seed <n> --seconds <s> --trace <0|1> "
                 "--work-dir <dir> [--span-file <path>] [--corrupt <k>]\n");
    return 2;
  }
  double load[1] = {0.0};
  getloadavg(load, 1);
  Result result;
  if (options->trace) {
    result = RunTraced(*options);
  } else if (options->workload == Workload::kServeVariants) {
    result = RunServeVariants(*options);
  } else {
    result = RunClosedLoop(*options);
  }
  std::printf("CHECKS %s\n", result.tally.Summary().c_str());
  std::printf("CHECKS_OUTSIDE_SET %s\n", result.extra.Summary().c_str());
  PrintFacts(load[0]);
  PrintResult(result);
  return 0;
}
