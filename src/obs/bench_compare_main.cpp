// ph_bench_compare — the perf-trajectory regression gate. Diffs a
// candidate BENCH_<name>.json (see obs/bench_report.hpp) against a
// checked-in baseline, metric by metric, with per-metric tolerances.
//
// Usage:
//   ph_bench_compare BASELINE.json CANDIDATE.json [TOLERANCES.json]
//   ph_bench_compare --perturb KEY FACTOR IN.json OUT.json
//
// Compare mode:
//   * both files must be schema-1 reports for the same bench;
//   * the env maps must be identical — a seed/horizon drift is a setup
//     error, not a performance change, and must not pass as one;
//   * every metric in the baseline's "headline" must exist in the
//     candidate and satisfy |cand - base| <= abs + rel * |base|.
//   Tolerances come from the optional TOLERANCES.json:
//     { "default": {"rel": 0.10, "abs": 1e-9},
//       "metrics": { "<headline key>": {"rel": 0.25, "abs": 2.0}, ... } }
//   Candidate-only headline metrics are reported but never fail the gate
//   (new metrics need a baseline refresh, not a red build).
//   Nothing outside "headline" is compared: "info", "metrics" and
//   "series" are context, and wall time is perfbench's to measure.
//
// Perturb mode multiplies headline[KEY] by FACTOR and rewrites the report
// — the self-test that proves the gate trips on a synthetic regression.
//
// Exits 0 when every gated metric is within tolerance; 1 otherwise.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/export.hpp"
#include "obs/json.hpp"

namespace {

using ph::obs::json::Value;

bool read_json(const char* path, Value& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "bench_compare: cannot open '%s'\n", path);
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::string error;
  if (!ph::obs::json::parse(buffer.str(), out, &error)) {
    std::fprintf(stderr, "bench_compare: %s: parse error: %s\n", path,
                 error.c_str());
    return false;
  }
  return true;
}

/// Validates the report shape and returns its required sections.
bool open_report(const char* path, const Value& root, const Value** env,
                 const Value** headline, std::string* bench) {
  if (!root.is_object()) {
    std::fprintf(stderr, "bench_compare: %s: not a JSON object\n", path);
    return false;
  }
  const Value* schema = root.get("schema");
  if (schema == nullptr || !schema->is_number() || schema->number != 1.0) {
    std::fprintf(stderr, "bench_compare: %s: missing or unknown 'schema'\n",
                 path);
    return false;
  }
  const Value* name = root.get("bench");
  if (name == nullptr || !name->is_string()) {
    std::fprintf(stderr, "bench_compare: %s: missing 'bench'\n", path);
    return false;
  }
  *bench = name->string;
  *env = root.get("env");
  *headline = root.get("headline");
  if (*env == nullptr || !(*env)->is_object() || *headline == nullptr ||
      !(*headline)->is_object()) {
    std::fprintf(stderr, "bench_compare: %s: missing 'env'/'headline'\n", path);
    return false;
  }
  return true;
}

struct Tolerance {
  double rel = 0.10;
  double abs = 1e-9;
};

/// Per-metric tolerance with fallback to the file's (or built-in) default.
Tolerance tolerance_for(const Value* tolerances, const std::string& metric) {
  Tolerance out;
  auto apply = [&out](const Value* entry) {
    if (entry == nullptr || !entry->is_object()) return;
    if (const Value* rel = entry->get("rel"); rel && rel->is_number()) {
      out.rel = rel->number;
    }
    if (const Value* abs = entry->get("abs"); abs && abs->is_number()) {
      out.abs = abs->number;
    }
  };
  if (tolerances != nullptr) {
    apply(tolerances->get("default"));
    if (const Value* metrics = tolerances->get("metrics");
        metrics != nullptr && metrics->is_object()) {
      apply(metrics->get(metric));
    }
  }
  return out;
}

int perturb(int argc, char** argv) {
  if (argc != 6) {
    std::fprintf(stderr,
                 "usage: %s --perturb KEY FACTOR IN.json OUT.json\n", argv[0]);
    return 1;
  }
  const std::string key = argv[2];
  const double factor = std::atof(argv[3]);
  Value root;
  if (!read_json(argv[4], root)) return 1;
  const Value* env = nullptr;
  const Value* headline = nullptr;
  std::string bench;
  if (!open_report(argv[4], root, &env, &headline, &bench)) return 1;
  auto it = headline->object->find(key);
  if (it == headline->object->end() || !it->second.is_number()) {
    std::fprintf(stderr, "bench_compare: no headline metric '%s' in %s\n",
                 key.c_str(), argv[4]);
    return 1;
  }
  it->second.number *= factor;  // headline shares the root's object node
  if (!ph::obs::write_file(argv[5], ph::obs::json::serialize(root) + "\n")) {
    return 1;
  }
  std::fprintf(stderr, "bench_compare: %s *= %g written to %s\n", key.c_str(),
               factor, argv[5]);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::string(argv[1]) == "--perturb") {
    return perturb(argc, argv);
  }
  if (argc != 3 && argc != 4) {
    std::fprintf(stderr,
                 "usage: %s BASELINE.json CANDIDATE.json [TOLERANCES.json]\n"
                 "       %s --perturb KEY FACTOR IN.json OUT.json\n",
                 argv[0], argv[0]);
    return 1;
  }
  Value base_root, cand_root, tol_root;
  if (!read_json(argv[1], base_root) || !read_json(argv[2], cand_root)) {
    return 1;
  }
  const Value* tolerances = nullptr;
  if (argc == 4) {
    if (!read_json(argv[3], tol_root)) return 1;
    tolerances = &tol_root;
  }
  const Value *base_env, *base_headline, *cand_env, *cand_headline;
  std::string base_bench, cand_bench;
  if (!open_report(argv[1], base_root, &base_env, &base_headline,
                   &base_bench) ||
      !open_report(argv[2], cand_root, &cand_env, &cand_headline,
                   &cand_bench)) {
    return 1;
  }
  if (base_bench != cand_bench) {
    std::fprintf(stderr,
                 "bench_compare: bench mismatch: baseline '%s' vs "
                 "candidate '%s'\n",
                 base_bench.c_str(), cand_bench.c_str());
    return 1;
  }
  bool ok = true;
  // Env must match both ways: a knob changed, added, or dropped means the
  // runs are not comparable.
  for (const auto& pair :
       {std::pair{base_env, cand_env}, std::pair{cand_env, base_env}}) {
    for (const auto& [key, value] : *pair.first->object) {
      const Value* other = pair.second->get(key);
      if (other == nullptr || !other->is_string() || !value.is_string() ||
          other->string != value.string) {
        std::fprintf(stderr,
                     "bench_compare: env mismatch on '%s': '%s' vs '%s'\n",
                     key.c_str(),
                     value.is_string() ? value.string.c_str() : "<absent>",
                     other != nullptr && other->is_string()
                         ? other->string.c_str()
                         : "<absent>");
        ok = false;
      }
    }
    if (!ok) break;  // both directions report the same pairs
  }
  if (!ok) return 1;

  std::printf("bench_compare: %s (%zu gated metrics)\n", base_bench.c_str(),
              base_headline->object->size());
  std::printf("%-44s %14s %14s %9s %8s  %s\n", "metric", "baseline",
              "candidate", "delta", "allowed", "verdict");
  for (const auto& [metric, base_value] : *base_headline->object) {
    if (!base_value.is_number()) {
      std::printf("%-44s baseline value is not a number  FAIL\n",
                  metric.c_str());
      ok = false;
      continue;
    }
    const Value* cand_value = cand_headline->get(metric);
    if (cand_value == nullptr || !cand_value->is_number()) {
      std::printf("%-44s %14.6g %14s %9s %8s  FAIL (missing)\n", metric.c_str(),
                  base_value.number, "-", "-", "-");
      ok = false;
      continue;
    }
    const Tolerance tolerance = tolerance_for(tolerances, metric);
    const double delta = std::fabs(cand_value->number - base_value.number);
    const double allowed =
        tolerance.abs + tolerance.rel * std::fabs(base_value.number);
    const bool pass = delta <= allowed;
    std::printf("%-44s %14.6g %14.6g %9.3g %8.3g  %s\n", metric.c_str(),
                base_value.number, cand_value->number, delta, allowed,
                pass ? "ok" : "FAIL");
    if (!pass) ok = false;
  }
  for (const auto& [metric, value] : *cand_headline->object) {
    (void)value;
    if (base_headline->get(metric) == nullptr) {
      std::printf("%-44s (candidate-only; refresh the baseline to gate it)\n",
                  metric.c_str());
    }
  }

  std::printf("bench_compare: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
