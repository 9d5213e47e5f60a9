// Benchmark trajectory reports — the stable-schema BENCH_<name>.json every
// bench main emits so runs are comparable across commits.
//
// Schema (version 1):
//   {
//     "schema": 1,
//     "bench": "chaos_soak",
//     "env":      { "seed": "42", "minutes": "3", ... },   strings
//     "headline": { "rediscovery_p95_s": 21.4, ... },      gated numbers
//     "info":     { "samples_taken": 3000, ... },          context, not gated
//     "metrics":  { full to_json(registry) snapshot },     optional
//     "series":   { sampler rings, see export.hpp }        optional
//   }
//
// The contract with ph_bench_compare: `headline` holds only virtual-time /
// deterministic quantities (a same-seed rerun reproduces them bit-exactly),
// so the regression gate can use tight tolerances. `info` is deterministic
// too, but ungated context (sampler counts, per-shard event balance).
// Wall-clock numbers belong in neither: wall time is measured only by
// perfbench (perfbench/run.py, compared with tools/bench_ab.py), which
// repeats runs and bounds their noise.
// `env` captures the knobs that define the run — the gate refuses to
// compare reports whose env differs, so a seed or horizon drift can never
// masquerade as a performance change.
#pragma once

#include <map>
#include <string>

#include "obs/metrics.hpp"
#include "obs/sampler.hpp"

namespace ph::obs {

struct BenchReport {
  std::string bench;
  std::map<std::string, std::string> env;
  std::map<std::string, double> headline;
  std::map<std::string, double> info;
};

/// Renders the report (schema 1). `registry` / `sampler` embed the full
/// metrics snapshot / series rings when supplied.
std::string to_json(const BenchReport& report,
                    const Registry* registry = nullptr,
                    const Sampler* sampler = nullptr);

/// Writes the report to $PH_BENCH_JSON when that is set to a path.
/// Returns true when no dump was requested or the write succeeded.
bool dump_bench_report_if_requested(const BenchReport& report,
                                    const Registry* registry = nullptr,
                                    const Sampler* sampler = nullptr);

}  // namespace ph::obs
