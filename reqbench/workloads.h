// The three workloads: what each one writes to disk during set-up and the
// request lines it then sends. Everything is derived from the seed; the
// program under test only ever sees request lines and .soc files.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace reqbench {

enum class Workload { kColdCompile, kWarmSearch, kServeVariants };

std::optional<Workload> ParseWorkload(const std::string& name);

struct WorkloadInputs {
  // Served once during set-up, untimed: what a user would find warm.
  std::vector<std::string> warm_lines;
  // The request stream, in send order. Closed loops that run past the end
  // wrap around (see StreamLine).
  std::vector<std::string> lines;
};

// How much input a run needs; derived from --seconds so a run never runs
// out of distinct requests at the speeds this benchmark was sized on.
struct Sizing {
  int cold_socs = 0;         // cold_compile: distinct generated SOCs
  int search_lines = 0;      // warm_search: distinct request lines
  int variant_lines = 0;     // serve_variants: stream length
};
Sizing SizingFor(double seconds);

// Writes the workload's .soc files into `dir` (which must exist) and
// returns its lines. Deterministic in (workload, seed, sizing).
WorkloadInputs MakeInputs(Workload workload, std::uint64_t seed,
                          const std::string& dir, const Sizing& sizing);

// Line k of a closed-loop stream. Past the end, cold_compile wraps onto a
// different TAM width so the request still misses every cache (the pool is
// larger than the problem and core caches); warm_search wraps as is.
std::string StreamLine(Workload workload, const WorkloadInputs& inputs,
                       std::size_t k);

}  // namespace reqbench
