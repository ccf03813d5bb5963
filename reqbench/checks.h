// Answer checks. Every schedule the benchmark receives is validated against
// its own request, so a speed-up that returns wrong or worse schedules shows
// as failures and in makespan_vs_lb.
#pragma once

#include <string>

#include "core/problem.h"
#include "service/batch_item.h"
#include "service/request.h"

namespace reqbench {

enum class Verdict {
  kOk,
  kEvalError,    // the program answered ERROR for a feasible request
  kShed,         // the server shed the request (overload, deadline, drain)
  kInvalid,      // the schedule fails validation or beats the lower bound
  kKnownDefect,  // kInvalid of the kind the scheduler is known to produce
  kMismatch,     // the answer differs from the reference answer
};

struct Check {
  Verdict verdict = Verdict::kOk;
  std::string detail;
  double makespan_vs_lb = 0.0;  // makespan / ComputeLowerBound, valid only
};

// The problem a request schedules: its SOC with its budget= override
// applied, as the validator must see it.
soctest::TestProblem ProblemOf(const soctest::BatchRequest& request);

// ComputeLowerBound(soc, width, kDefaultWMax), with each core's wrapper
// curve designed once per distinct core content (per thread) and clipped
// per width.
soctest::Time LowerBound(const soctest::Soc& soc, int width);

// Schedule and improve answers must pass ValidateSchedule with the
// request's budget applied and have makespan >= ComputeLowerBound; a sweep
// minimum must be >= the bound at its widest width.
Check CheckAnswer(const soctest::BatchRequest& request,
                  const soctest::BatchItemResult& item);

// The deliberate corruption of the self-test: widens the first segment of
// the schedule by one wire, which no valid schedule survives.
void CorruptAnswer(soctest::BatchItemResult& item);

// A run's check results. Failures are printed to stderr with their request
// line as they are added.
class Tally {
 public:
  void Add(const Check& check, const std::string& line);

  int attempted() const { return attempted_; }
  // Everything error_rate counts: errors, sheds, invalid (known defect
  // included) and mismatched answers.
  int failed() const;
  // No answer is wrong in a way the benchmark does not already document.
  // Every request the workloads send is feasible, and sheds are counted
  // only where the offered load is within capacity, so an ERROR answer or
  // a shed makes it false, as do invalid answers outside the known defect
  // and mismatches.
  bool correct() const {
    return eval_errors_ == 0 && shed_ == 0 && invalid_ == 0 && mismatched_ == 0;
  }
  std::string Summary() const;

 private:
  int attempted_ = 0;
  int ok_ = 0;
  int eval_errors_ = 0;
  int shed_ = 0;
  int invalid_ = 0;
  int known_defect_ = 0;
  int mismatched_ = 0;
};

}  // namespace reqbench
