#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "checks.h"
#include "constraints/power.h"
#include "soc/benchmarks.h"
#include "soc/generator.h"
#include "soc/soc_parser.h"
#include "util/rng.h"
#include "util/strings.h"

namespace reqbench {

using soctest::GeneratorParams;
using soctest::Rng;
using soctest::Soc;
using soctest::StrFormat;

namespace {

constexpr int kMinWidth = 16;
constexpr int kWidthSpan = 49;  // TAM widths 16..64

std::uint64_t Mix(std::uint64_t seed, std::uint64_t salt) {
  soctest::SplitMix64 mix(seed * 0x9e3779b97f4a7c15ULL + salt);
  return mix.Next();
}

void WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + path);
}

// 0..n-1 in van der Corput (bit-reversed) order: every prefix spreads over
// the whole range, so a run cut off at any point has still sampled small
// and large values alike.
std::vector<int> SpreadOrder(int n) {
  int bits = 0;
  while ((1 << bits) < n) ++bits;
  std::vector<int> order;
  for (int i = 0; i < (1 << bits); ++i) {
    int reversed = 0;
    for (int b = 0; b < bits; ++b) reversed |= ((i >> b) & 1) << (bits - 1 - b);
    if (reversed < n) order.push_back(reversed);
  }
  return order;
}

// ---- cold_compile -------------------------------------------------------
// Distinct generated SOCs of 16..64 cores, each asked for once as a
// single-pass schedule: every request compiles every core.
WorkloadInputs MakeColdCompile(std::uint64_t seed, const std::string& dir,
                               const Sizing& sizing) {
  WorkloadInputs inputs;
  const std::vector<int> order = SpreadOrder(kWidthSpan);
  for (int k = 0; k < sizing.cold_socs; ++k) {
    GeneratorParams params;
    params.name = StrFormat("cc%04d", k);
    params.seed = Mix(seed, 100000 + static_cast<std::uint64_t>(k));
    params.num_cores = 16 + order[static_cast<std::size_t>(k % kWidthSpan)];
    if (k % 2 == 1) params.child_probability = 0.25;  // hierarchy
    if (k % 4 >= 2) {                                  // shared BIST
      params.num_resources = 3;
      params.resource_probability = 0.3;
    }
    const std::string path = StrFormat("%s/cc%04d.soc", dir.c_str(), k);
    WriteFile(path, soctest::SerializeSoc(soctest::GenerateSoc(params)));
    // Widths follow the same spread order, paired differently with sizes
    // in each block of 49.
    const int width = kMinWidth + order[static_cast<std::size_t>(
                                      (k + 24 + k / kWidthSpan) % kWidthSpan)];
    inputs.lines.push_back(StrFormat("%s %d schedule", path.c_str(), width));
  }
  return inputs;
}

// ---- warm_search --------------------------------------------------------
// Search-heavy requests against SOCs compiled during set-up: the four
// embedded SOCs plus generated 64-core ones. Each SOC has several
// constrained copies (priority classes, per-core preemption limits) so that
// a run averages over many constraint draws rather than riding on one.

constexpr int kGeneratedSocs = 5;  // generated SOCs sharing the fifth slot
constexpr int kGeneratedCores = 32;
// (4 + 5) SOCs x (1 plain + 3 constrained) = 36 entries: well inside the
// problem cache's 64, so nothing compiled in set-up is evicted.
constexpr int kConstrainedCopies = 3;

struct SearchSoc {
  std::string plain_spec;  // embedded name or file
  std::vector<std::string> constrained_paths;
  std::vector<Soc> constrained;
};

// A copy of `soc` with three priority classes and per-core preemption
// limits 0..2 — the constraint mix that schedules through budget events.
Soc Constrain(Soc soc, Rng& rng) {
  for (int c = 0; c < soc.num_cores(); ++c) {
    soctest::CoreSpec& core = soc.mutable_core(c);
    core.prio = static_cast<int>(rng.UniformInt(0, 2));
    core.max_preemptions = static_cast<int>(rng.UniformInt(0, 2));
  }
  return soc;
}

// A throttle timeline every request can meet: the low phase still admits
// the most power-hungry core alone, and the last drop ends within twice the
// lower bound, so the tail is never capped.
std::string ThrottleBudget(const Soc& soc, int width, Rng& rng) {
  const soctest::PowerModel power = soctest::PowerModel::FromSoc(soc, 2.0);
  const std::int64_t high = power.pmax();
  const std::int64_t low = std::max(power.MaxCorePower(), high / 2);
  const std::int64_t bound = std::max<std::int64_t>(1, LowerBound(soc, width));
  const auto span = [&](double lo, double hi) {
    return std::max<std::int64_t>(
        1, static_cast<std::int64_t>(static_cast<double>(bound) *
                                     (lo + (hi - lo) * rng.UniformDouble())));
  };
  const std::int64_t high_span = span(0.2, 0.6);
  const std::int64_t low_span = span(0.1, 0.3);
  return soctest::FormatBudgetTimeline(soctest::MakeThrottleTimeline(
      high, low, high_span, low_span, 2 * bound));
}

WorkloadInputs MakeWarmSearch(std::uint64_t seed, const std::string& dir,
                              const Sizing& sizing) {
  Rng rng(Mix(seed, 2));
  std::vector<SearchSoc> socs;
  std::vector<Soc> plain;
  for (const char* name : {"d695", "p22810s", "p34392s", "p93791s"}) {
    SearchSoc entry;
    entry.plain_spec = std::string("bench:") + name;
    socs.push_back(std::move(entry));
    plain.push_back(soctest::BenchmarkByName(name));
  }
  for (int g = 0; g < kGeneratedSocs; ++g) {
    GeneratorParams params;
    params.name = StrFormat("gen%d_%d", kGeneratedCores, g);
    params.seed = Mix(seed, 10 + static_cast<std::uint64_t>(g));
    params.num_cores = kGeneratedCores;
    params.child_probability = 0.1;
    params.num_resources = 2;
    params.resource_probability = 0.2;
    SearchSoc entry;
    entry.plain_spec = StrFormat("%s/ws_%s.soc", dir.c_str(), params.name.c_str());
    plain.push_back(soctest::GenerateSoc(params));
    WriteFile(entry.plain_spec, soctest::SerializeSoc(plain.back()));
    socs.push_back(std::move(entry));
  }

  WorkloadInputs inputs;
  for (std::size_t i = 0; i < socs.size(); ++i) {
    SearchSoc& entry = socs[i];
    // Single-pass lines never recur in the stream (it has only search=1,
    // improve and sweep), so warming compiles without pre-filling results.
    inputs.warm_lines.push_back(entry.plain_spec + " 32 schedule");
    for (int copy = 0; copy < kConstrainedCopies; ++copy) {
      entry.constrained.push_back(Constrain(plain[i], rng));
      entry.constrained_paths.push_back(StrFormat(
          "%s/ws_%s_c%d.soc", dir.c_str(), plain[i].name().c_str(), copy));
      WriteFile(entry.constrained_paths.back(),
                soctest::SerializeSoc(entry.constrained.back()));
      inputs.warm_lines.push_back(entry.constrained_paths.back() + " 32 schedule");
    }
  }

  // Lines come in pairs: a plain request and a constrained one of the same
  // mode on the same SOC. Pairs rotate over five slots (the embedded SOCs
  // and one generated SOC in turn), then over modes and constrained copies.
  // s= and seed= are unique per pair and every budget is drawn afresh, so
  // no two lines share a result-cache key.
  for (int pair = 0; 2 * pair < sizing.search_lines; ++pair) {
    const int slot = pair % 5;
    const std::size_t soc =
        slot < 4 ? static_cast<std::size_t>(slot)
                 : 4 + static_cast<std::size_t>((pair / 10) % kGeneratedSocs);
    const SearchSoc& entry = socs[soc];
    const std::size_t copy = static_cast<std::size_t>(
        (pair / 10 + pair / (10 * kConstrainedCopies)) % kConstrainedCopies);
    const int width = kMinWidth + static_cast<int>(rng.UniformInt(0, 48));
    const bool improve = (pair / 5) % 2 == 1;
    const std::string unique_s = StrFormat("s=%.17g", 4.0 + pair / 4096.0);
    const std::string mode =
        improve ? StrFormat("improve iters=16 batch=4 seed=%d", pair + 1)
                : "schedule search=1 " + unique_s;
    if (pair % 16 == 15) {  // a few sweeps, for the tdv layer
      inputs.lines.push_back(StrFormat("%s %d sweep min=%d %s",
                                       entry.plain_spec.c_str(), width,
                                       width / 2, unique_s.c_str()));
    } else {
      inputs.lines.push_back(StrFormat("%s %d %s", entry.plain_spec.c_str(),
                                       width, mode.c_str()));
    }
    inputs.lines.push_back(StrFormat(
        "%s %d %s preempt=1 budget=%s", entry.constrained_paths[copy].c_str(),
        width, mode.c_str(),
        ThrottleBudget(entry.constrained[copy], width, rng).c_str()));
  }
  return inputs;
}

// ---- serve_variants -----------------------------------------------------
// One-core edits of 64-core bases, interleaved with repeats of recent
// lines: small per-request work, so the request path and caches dominate.
// Variants rotate over several bases so a run does not ride on how costly
// one generated SOC happens to be.

constexpr int kVariantBases = 4;

// A base SOC's text and where each core's pattern count sits in it: a
// variant is the base with one of those numbers replaced.
struct VariantBase {
  std::string path;
  std::string text;
  struct Field {
    std::size_t begin = 0, end = 0;
    long long value = 0;
  };
  std::vector<Field> fields;
};

VariantBase MakeBase(std::uint64_t seed, int b, const std::string& dir) {
  GeneratorParams params;
  params.name = StrFormat("sv_base%d", b);
  params.seed = Mix(seed, 20 + static_cast<std::uint64_t>(b));
  params.num_cores = 64;
  params.child_probability = 0.1;
  VariantBase base;
  base.text = soctest::SerializeSoc(soctest::GenerateSoc(params));
  base.path = StrFormat("%s/%s.soc", dir.c_str(), params.name.c_str());
  WriteFile(base.path, base.text);
  for (std::size_t at = base.text.find("\n  patterns ");
       at != std::string::npos; at = base.text.find("\n  patterns ", at + 1)) {
    VariantBase::Field field;
    field.begin = at + 12;
    field.end = base.text.find('\n', field.begin);
    field.value =
        std::stoll(base.text.substr(field.begin, field.end - field.begin));
    base.fields.push_back(field);
  }
  if (base.fields.empty()) throw std::runtime_error("serve_variants: no cores");
  return base;
}

WorkloadInputs MakeServeVariants(std::uint64_t seed, const std::string& dir,
                                 const Sizing& sizing) {
  WorkloadInputs inputs;
  std::vector<VariantBase> bases;
  for (int b = 0; b < kVariantBases; ++b) {
    bases.push_back(MakeBase(seed, b, dir));
    inputs.warm_lines.push_back(bases.back().path + " 32 schedule");
  }
  Rng rng(Mix(seed, 5));
  const std::vector<int> core_order = SpreadOrder(64);
  std::vector<std::string> recent;  // the last distinct lines sent
  int variants = 0;
  for (int k = 0; k < sizing.variant_lines; ++k) {
    // One line in three repeats a recent one, so the median request is a
    // fresh variant rather than sitting between the two modes.
    if (!recent.empty() && rng.Bernoulli(1.0 / 3)) {
      inputs.lines.push_back(recent[static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(recent.size()) - 1))]);
      continue;
    }
    // Variant v edits one core of base v % 4; the edit is unique per
    // (base, core), so every variant misses the problem cache and compiles
    // exactly one core.
    const int v = variants++;
    const VariantBase& base = bases[static_cast<std::size_t>(v % kVariantBases)];
    const int round = v / kVariantBases;
    const VariantBase::Field& field = base.fields[static_cast<std::size_t>(
        core_order[static_cast<std::size_t>(round) % core_order.size()]) %
        base.fields.size()];
    const long long patterns =
        field.value + 1 + round / static_cast<int>(core_order.size());
    const std::string path = StrFormat("%s/sv%05d.soc", dir.c_str(), v);
    WriteFile(path, base.text.substr(0, field.begin) + std::to_string(patterns) +
                        base.text.substr(field.end));
    std::string line = StrFormat(
        "%s %d schedule", path.c_str(),
        kMinWidth + static_cast<int>(rng.UniformInt(0, kWidthSpan - 1)));
    inputs.lines.push_back(line);
    recent.push_back(std::move(line));
    if (recent.size() > 32) recent.erase(recent.begin());
  }
  return inputs;
}

}  // namespace

std::optional<Workload> ParseWorkload(const std::string& name) {
  if (name == "cold_compile") return Workload::kColdCompile;
  if (name == "warm_search") return Workload::kWarmSearch;
  if (name == "serve_variants") return Workload::kServeVariants;
  return std::nullopt;
}

Sizing SizingFor(double seconds) {
  Sizing sizing;
  sizing.cold_socs = std::max(49, static_cast<int>(seconds * 40));
  sizing.search_lines = std::max(64, static_cast<int>(seconds * 200));
  // The fixed-rate phase (100/s for half the run), a 1000-request warm-up
  // trial and six bisection rates of up to three 1000-request trials each,
  // with room to spare.
  sizing.variant_lines = static_cast<int>(seconds * 60) + 19500;
  return sizing;
}

WorkloadInputs MakeInputs(Workload workload, std::uint64_t seed,
                          const std::string& dir, const Sizing& sizing) {
  switch (workload) {
    case Workload::kColdCompile: return MakeColdCompile(seed, dir, sizing);
    case Workload::kWarmSearch: return MakeWarmSearch(seed, dir, sizing);
    case Workload::kServeVariants: return MakeServeVariants(seed, dir, sizing);
  }
  return {};
}

std::string StreamLine(Workload workload, const WorkloadInputs& inputs,
                       std::size_t k) {
  const std::size_t n = inputs.lines.size();
  const std::string& line = inputs.lines[k % n];
  const std::size_t cycle = k / n;
  if (cycle == 0 || workload != Workload::kColdCompile) return line;
  // "<path> <width> schedule": move the width so the result key is new.
  const std::size_t end = line.rfind(' ');
  const std::size_t begin = line.rfind(' ', end - 1) + 1;
  const int width = std::stoi(line.substr(begin, end - begin));
  const int moved =
      kMinWidth + static_cast<int>((width - kMinWidth + 13 * cycle) % kWidthSpan);
  return line.substr(0, begin) + std::to_string(moved) + line.substr(end);
}

}  // namespace reqbench
