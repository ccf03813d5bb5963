#include "staged.h"

#include <utility>
#include <variant>

#include "checks.h"
#include "core/improver.h"
#include "core/validator.h"
#include "search/driver.h"
#include "search/grid.h"
#include "service/net/protocol.h"
#include "tdv/data_volume.h"

namespace reqbench {

using soctest::BatchItemResult;
using soctest::BatchMode;
using soctest::BatchRequest;

namespace {

constexpr const char* kLineLabel = "request";

// Parses one request line; on failure fills `served` with the ERROR
// response both paths answer.
bool ParseLine(const std::string& line, int index, Served& served) {
  soctest::RequestFileResult parsed = soctest::ParseRequestText(line, kLineLabel);
  if (const auto* error = std::get_if<soctest::RequestParseError>(&parsed)) {
    served.response = soctest::FormatErrorLine(index, "parse", error->ToString());
    return false;
  }
  auto& requests = std::get<std::vector<BatchRequest>>(parsed);
  if (requests.size() != 1) {
    served.response = soctest::FormatErrorLine(index, "parse", "not one request");
    return false;
  }
  served.request = std::move(requests.front());
  served.parsed = true;
  return true;
}

std::string Respond(const BatchItemResult& item, int index) {
  return item.ok() ? soctest::FormatMakespanLine(item)
                   : soctest::FormatErrorLine(index, "eval", *item.error);
}

}  // namespace

Served ServeLine(soctest::BatchScheduler& scheduler,
                 soctest::ScheduleWorkspace& ws, const std::string& line,
                 int index) {
  Served served;
  if (!ParseLine(line, index, served)) return served;
  served.item = scheduler.ServeOne(served.request, index, ws);
  served.response = Respond(served.item, index);
  return served;
}

StagedPath::StagedPath(const soctest::BatchOptions& options)
    : options_(options),
      cache_(soctest::CompiledProblemCache::Options{
          options.shards, options.cache_entries, options.core_cache_entries}),
      results_(soctest::ResultCache::Options{options.shards,
                                             options.result_entries}) {}

// Mirrors BatchScheduler::ServeOne with dedup on, as the benchmark runs it.
Served StagedPath::Serve(const std::string& line, int index, Tracer& tracer) {
  Served served;
  const int root = tracer.Begin("request", index);
  if (!tracer.Time("soc.parse", index,
                   [&] { return ParseLine(line, index, served); })) {
    tracer.End(root);
    return served;
  }
  const BatchRequest& request = served.request;

  const int serve = tracer.Begin("service.serve", index);
  std::string canonical = tracer.Time("soc.canonical", index, [&] {
    return soctest::CompiledProblemCache::CanonicalKey(request.soc);
  });
  const std::string key = tracer.Time("service.result_key", index, [&] {
    return soctest::ResultCache::CanonicalKey(request, options_.w_max, canonical);
  });
  const soctest::ResultCache::Lookup found = tracer.Time(
      "service.result_lookup", index, [&] { return results_.Begin(key); });
  std::shared_ptr<const BatchItemResult> resident = found.result;
  if (found.leader) {
    BatchItemResult evaluated = Evaluate(request, std::move(canonical), tracer, index);
    resident = tracer.Time("service.result_commit", index, [&] {
      return results_.Commit(key, std::move(evaluated));
    });
  }
  served.item = *resident;
  served.item.index = index;
  tracer.End(serve);

  tracer.Time("core.validate", index, [&] {
    if (served.item.ok() && request.mode != BatchMode::kSweep) {
      soctest::ValidateSchedule(ProblemOf(request), served.item.result.schedule);
    }
  });
  served.response = tracer.Time("net.format", index, [&] {
    return Respond(served.item, index);
  });
  tracer.End(root);
  return served;
}

// Mirrors BatchScheduler::Evaluate.
BatchItemResult StagedPath::Evaluate(const BatchRequest& request,
                                     std::string canonical, Tracer& tracer,
                                     int trace_id) {
  BatchItemResult item;
  item.index = -1;  // evaluated for the result cache, as ServeOne does
  item.soc_name = request.soc.soc.name();
  item.mode = request.mode;
  item.tam_width = request.tam_width;

  bool was_hit = false;
  const int compile = tracer.Begin("core.compile", trace_id);
  const std::shared_ptr<const soctest::CompiledProblem> compiled =
      cache_.GetOrCompile(request.soc, std::move(canonical), options_.w_max,
                          &was_hit);
  tracer.End(compile);
  if (!was_hit) {
    const Span& span = tracer.spans()[static_cast<std::size_t>(compile)];
    counters_.compile_miss_ms += (span.end_ns - span.start_ns) / 1e6;
  }
  if (!compiled->ok()) {
    item.error = *compiled->error();
    return item;
  }

  soctest::OptimizerParams params;
  params.tam_width = request.tam_width;
  params.w_max = options_.w_max;
  params.s_percent = request.s_percent;
  params.delta = request.delta;
  params.allow_preemption = request.preempt;
  params.power_budget_override = request.budget;
  params.honor_priority = request.use_priority;
  const soctest::GridExtent extent =
      request.wide ? soctest::GridExtent::kWide : soctest::GridExtent::kCanonical;

  switch (request.mode) {
    case BatchMode::kSchedule:
      if (request.search) {
        const int span = tracer.Begin("search.restart", trace_id);
        const soctest::SearchOutcome outcome = soctest::RunRestartSearch(
            *compiled, soctest::BuildRestartGrid(params, extent), ws_);
        tracer.End(span);
        const Span& s = tracer.spans()[static_cast<std::size_t>(span)];
        ++counters_.restart_requests;
        counters_.restart_evaluated += outcome.evaluated;
        if (outcome.evaluated > 0) {
          counters_.restart_ms_per_run.push_back((s.end_ns - s.start_ns) / 1e6 /
                                                 outcome.evaluated);
        }
        item.result = outcome.best;
      } else {
        item.result = tracer.Time("core.schedule", trace_id, [&] {
          return soctest::Optimize(*compiled, params, ws_);
        });
      }
      break;
    case BatchMode::kImprove: {
      soctest::ImproverParams improver;
      improver.optimizer = params;
      improver.grid = extent;
      improver.iterations = request.iterations;
      improver.batch = request.batch;
      improver.seed = request.seed;
      improver.threads = 1;
      const soctest::ImproverResult outcome =
          tracer.Time("search.improve", trace_id,
                      [&] { return soctest::ImproveSchedule(*compiled, improver); });
      ++counters_.improve_requests;
      counters_.improve_evaluated += outcome.evaluated;
      counters_.improve_improvements += outcome.improvements;
      counters_.improve_bound_aborts += outcome.bound_aborts;
      counters_.improve_duplicates += outcome.duplicates_skipped;
      item.result = outcome.best;
      break;
    }
    case BatchMode::kSweep: {
      soctest::SweepOptions sweep;
      sweep.min_width = request.sweep_min;
      sweep.max_width =
          request.sweep_max > 0 ? request.sweep_max : request.tam_width;
      sweep.optimizer = params;
      sweep.threads = 1;
      item.sweep = tracer.Time("tdv.sweep", trace_id, [&] {
        return soctest::SweepWidths(*compiled, sweep);
      });
      ++counters_.sweeps;
      counters_.sweep_widths += static_cast<std::int64_t>(item.sweep.size());
      if (item.sweep.empty()) {
        item.error = "sweep produced no feasible points";
      } else {
        item.makespan = soctest::MinTimePoint(item.sweep).test_time;
      }
      return item;
    }
  }

  if (!item.result.ok()) {
    item.error = *item.result.error;
  } else {
    item.makespan = item.result.makespan;
    ++counters_.scheduled;
    counters_.admission_rounds += item.result.admission_rounds;
    counters_.candidates_examined += item.result.candidates_examined;
  }
  return item;
}

}  // namespace reqbench
