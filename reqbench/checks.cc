#include "checks.h"

#include <algorithm>
#include <cstdio>
#include <set>
#include <unordered_map>

#include "baseline/lower_bound.h"
#include "core/compiled_problem.h"
#include "core/validator.h"
#include "soc/core_hash.h"
#include "wrapper/rectangles.h"
#include "util/strings.h"

namespace reqbench {

using soctest::StrFormat;

namespace {

// ROADMAP open item 1: with priority-first admission, a budget timeline and
// preemption on, the scheduler can preempt a core past its limit. Such
// answers are still counted as failures; they are only told apart from
// failures nobody has diagnosed yet.
bool IsKnownDefect(const soctest::BatchRequest& request,
                   const std::vector<soctest::Violation>& violations) {
  std::set<int> classes;
  for (const soctest::CoreSpec& core : request.soc.soc.cores()) {
    classes.insert(core.prio);
  }
  if (!request.preempt || !request.use_priority || request.budget.size() < 2 ||
      classes.size() < 2) {
    return false;
  }
  return std::all_of(violations.begin(), violations.end(),
                     [](const soctest::Violation& v) {
                       return v.message.find(" preempted ") != std::string::npos &&
                              v.message.find("times, limit") != std::string::npos;
                     });
}

}  // namespace

soctest::TestProblem ProblemOf(const soctest::BatchRequest& request) {
  soctest::TestProblem problem = soctest::TestProblem::FromParsed(request.soc);
  if (!request.budget.empty()) {
    problem.power = soctest::WithBudget(
        problem.soc, problem.power,
        soctest::PowerBudget::FromSegments(request.budget).value());
  }
  return problem;
}

soctest::Time LowerBound(const soctest::Soc& soc, int width) {
  thread_local std::unordered_map<std::string, soctest::RectangleSet> unclipped;
  std::vector<soctest::RectangleSet> rects;
  rects.reserve(static_cast<std::size_t>(soc.num_cores()));
  for (const soctest::CoreSpec& core : soc.cores()) {
    const std::string key = soctest::CanonicalCoreText(core);
    auto it = unclipped.find(key);
    if (it == unclipped.end()) {
      if (unclipped.size() >= 4096) unclipped.clear();  // bound the memo
      it = unclipped
               .emplace(key, soctest::RectangleSet(core, soctest::kDefaultWMax,
                                                   soctest::kDefaultWMax))
               .first;
    }
    rects.emplace_back(core.id, it->second.curve(), it->second.pareto(), width);
  }
  return soctest::ComputeLowerBound(rects, width).value();
}

Check CheckAnswer(const soctest::BatchRequest& request,
                  const soctest::BatchItemResult& item) {
  Check check;
  if (!item.ok()) {
    check.verdict = Verdict::kEvalError;
    check.detail = *item.error;
    return check;
  }
  const soctest::Soc& soc = request.soc.soc;
  if (request.mode == soctest::BatchMode::kSweep) {
    const int widest =
        request.sweep_max > 0 ? request.sweep_max : request.tam_width;
    const soctest::Time bound = LowerBound(soc, widest);
    if (item.makespan < bound || bound <= 0) {
      check.verdict = Verdict::kInvalid;
      check.detail = StrFormat("sweep minimum %lld below lower bound %lld",
                               static_cast<long long>(item.makespan),
                               static_cast<long long>(bound));
      return check;
    }
    check.makespan_vs_lb =
        static_cast<double>(item.makespan) / static_cast<double>(bound);
    return check;
  }

  const soctest::Schedule& schedule = item.result.schedule;
  std::vector<soctest::Violation> violations =
      soctest::ValidateSchedule(ProblemOf(request), schedule);
  if (schedule.tam_width() != request.tam_width) {
    violations.push_back({StrFormat("schedule width %d, request width %d",
                                    schedule.tam_width(), request.tam_width)});
  }
  if (item.makespan != schedule.Makespan()) {
    violations.push_back({StrFormat("reported makespan %lld, schedule ends at %lld",
                                    static_cast<long long>(item.makespan),
                                    static_cast<long long>(schedule.Makespan()))});
  }
  const soctest::Time bound = LowerBound(soc, request.tam_width);
  if (item.makespan < bound || bound <= 0) {
    violations.push_back({StrFormat("makespan %lld below lower bound %lld",
                                    static_cast<long long>(item.makespan),
                                    static_cast<long long>(bound))});
  }
  if (!violations.empty()) {
    check.verdict = IsKnownDefect(request, violations) ? Verdict::kKnownDefect
                                                       : Verdict::kInvalid;
    check.detail = soctest::FormatViolations(violations);
    return check;
  }
  check.makespan_vs_lb =
      static_cast<double>(item.makespan) / static_cast<double>(bound);
  return check;
}

void CorruptAnswer(soctest::BatchItemResult& item) {
  for (soctest::CoreSchedule& entry : item.result.schedule.mutable_entries()) {
    if (!entry.segments.empty()) {
      ++entry.segments.front().width;
      return;
    }
  }
  item.makespan = 0;  // sweep answers: below any lower bound
}

void Tally::Add(const Check& check, const std::string& line) {
  ++attempted_;
  const char* kind = nullptr;
  switch (check.verdict) {
    case Verdict::kOk:
      ++ok_;
      return;
    case Verdict::kEvalError: ++eval_errors_; kind = "error"; break;
    case Verdict::kShed: ++shed_; kind = "shed"; break;
    case Verdict::kInvalid: ++invalid_; kind = "invalid"; break;
    case Verdict::kKnownDefect: ++known_defect_; kind = "known-defect"; break;
    case Verdict::kMismatch: ++mismatched_; kind = "mismatch"; break;
  }
  std::string detail = check.detail;
  while (!detail.empty() && detail.back() == '\n') detail.pop_back();
  std::fprintf(stderr, "FAILED %s: %s\n  %s\n", kind, line.c_str(),
               detail.c_str());
}

int Tally::failed() const {
  return eval_errors_ + shed_ + invalid_ + known_defect_ + mismatched_;
}

std::string Tally::Summary() const {
  return StrFormat(
      "attempted=%d ok=%d error=%d shed=%d invalid=%d known_defect=%d "
      "mismatched=%d error_rate=%.6f",
      attempted_, ok_, eval_errors_, shed_, invalid_, known_defect_,
      mismatched_,
      attempted_ > 0 ? static_cast<double>(failed()) / attempted_ : 0.0);
}

}  // namespace reqbench
