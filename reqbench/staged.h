// The two request paths the benchmark drives offline.
//
// ServeLine is the real path: a request line through ParseRequestText,
// BatchScheduler::ServeOne and the shared response formatter, exactly what
// `soctest_cli batch` and the server do per line.
//
// StagedPath is a copy of that path cut into stages, each timed as a span
// from here, outside the program: ParseRequestText -> CanonicalKey ->
// ResultCache::CanonicalKey -> GetOrCompile -> Optimize / RunRestartSearch /
// ImproveSchedule / SweepWidths -> ValidateSchedule -> FormatMakespanLine.
// The validate stage is the one a fail-closed server would add before
// replying; ServeOne does not run it yet.
// The traced run compares its response lines with ServeLine's byte for
// byte, so the trace describes the real path and drift between the copy
// and BatchScheduler shows as a mismatch.
#pragma once

#include <cstdint>
#include <string>

#include "core/optimizer.h"
#include "service/batch_scheduler.h"
#include "service/problem_cache.h"
#include "service/result_cache.h"
#include "trace.h"

namespace reqbench {

// What one request line produced.
struct Served {
  std::string response;            // the response line
  bool parsed = false;             // request parsed (else response is ERROR)
  soctest::BatchRequest request;   // valid when parsed
  soctest::BatchItemResult item;   // valid when parsed
};

// The real path. `index` is the request's sequence number (req= tag).
Served ServeLine(soctest::BatchScheduler& scheduler,
                 soctest::ScheduleWorkspace& ws, const std::string& line,
                 int index);

// Work counters recorded at the stage boundaries, for the per-layer ledger.
struct LayerCounters {
  double compile_miss_ms = 0.0;      // time of GetOrCompile calls that compiled
  std::int64_t restart_requests = 0;
  std::int64_t restart_evaluated = 0;
  std::vector<double> restart_ms_per_run;  // search time / configurations
  std::int64_t improve_requests = 0;
  std::int64_t improve_evaluated = 0;
  std::int64_t improve_improvements = 0;
  std::int64_t improve_bound_aborts = 0;
  std::int64_t improve_duplicates = 0;
  std::int64_t scheduled = 0;        // answers carrying a schedule
  std::int64_t admission_rounds = 0;
  std::int64_t candidates_examined = 0;
  std::int64_t sweeps = 0;
  std::int64_t sweep_widths = 0;
};

class StagedPath {
 public:
  explicit StagedPath(const soctest::BatchOptions& options);

  // Serves one line like ServeLine, recording spans into `tracer` under
  // request id `index`, with a ValidateSchedule stage before formatting.
  Served Serve(const std::string& line, int index, Tracer& tracer);

  const LayerCounters& counters() const { return counters_; }
  const soctest::CompiledProblemCache& cache() const { return cache_; }
  const soctest::ResultCache& results() const { return results_; }

 private:
  // Evaluates a result-cache miss; spans are recorded under `trace_id`.
  soctest::BatchItemResult Evaluate(const soctest::BatchRequest& request,
                                    std::string canonical, Tracer& tracer,
                                    int trace_id);

  soctest::BatchOptions options_;
  soctest::CompiledProblemCache cache_;
  soctest::ResultCache results_;
  soctest::ScheduleWorkspace ws_;
  LayerCounters counters_;
};

}  // namespace reqbench
