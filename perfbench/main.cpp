// perfbench — the repo's wall-clock benchmark (see README.md here).
//
//   perfbench --workload soak|crowd|fleet|table8 --seed N --seconds S
//             --trace 0|1 [--out-dir DIR]
//
// Prints the machine fingerprint, a metric table (name, value, unit,
// samples) and, as the last line, one JSON object:
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
// With --trace 0 the metrics are the end-to-end set; with --trace 1 the
// per-layer metrics of the layers the workload exercises (run.py adds the
// others as 0), measured on a separate traced run whose span log is
// written to DIR/spans-<workload>-<seed>.tsv. DIR (default
// .bench_build/perfbench) also holds the fleet's socket directory.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>

#include "harness.hpp"

namespace {

using perfbench::Metric;
using perfbench::Options;
using perfbench::Result;

/// The end-to-end metrics every workload reports (BENCHMARK.json). The
/// workloads also measure latency_p99_us, but on a host shared with other
/// tenants the fleet's tail follows their load and does not repeat within
/// the bounds; it is printed, and reported in the per-layer set as
/// traced.latency_p99_us.
constexpr const char* kEndToEnd[] = {"throughput", "latency_p50_us",
                                     "setup_s", "peak_rss_mb"};

bool parse(int argc, char** argv, Options& options, std::string& out_dir) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(options.seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      options.trace = value[0] == '1';
    } else if (flag == "--out-dir") {
      out_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !options.workload.empty();
}

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

void print_fingerprint(const Options& options, const Result& result) {
  std::string params;
  for (const auto& [key, value] : result.params) {
    if (!params.empty()) params += ", ";
    params += "\"" + json_escape(key) + "\": \"" + json_escape(value) + "\"";
  }
  std::printf(
      "fingerprint: {\"nproc\": %u, \"compiler\": \"%s\", \"build_type\": "
      "\"%s\", \"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"params\": {%s}}\n",
      std::thread::hardware_concurrency(), json_escape(kCompiler).c_str(),
      PERFBENCH_BUILD_TYPE, options.workload.c_str(),
      static_cast<unsigned long long>(options.seed),
      number(options.seconds).c_str(), options.trace ? 1 : 0, params.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string out_dir = ".bench_build/perfbench";
  if (!parse(argc, argv, options, out_dir)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload soak|crowd|fleet|table8 "
                 "--seed N --seconds S --trace 0|1 [--out-dir DIR]\n");
    return 2;
  }
  options.out_dir = out_dir;

  perfbench::Tracer tracer;
  if (options.trace) tracer.enable(1u << 18);
  Result result;
  if (options.workload == "soak") {
    perfbench::run_soak(options, tracer, result);
  } else if (options.workload == "crowd") {
    perfbench::run_crowd(options, tracer, result);
  } else if (options.workload == "fleet") {
    perfbench::run_fleet(options, tracer, result);
  } else if (options.workload == "table8") {
    perfbench::run_table8(options, tracer, result);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }
  result.e2e("peak_rss_mb", perfbench::peak_rss_mb(), "MB");

  for (const char* name : kEndToEnd) {
    if (!result.end_to_end.contains(name)) {
      std::fprintf(stderr, "internal error: %s did not report %s\n",
                   options.workload.c_str(), name);
      return 1;
    }
  }
  for (const std::string& error : result.errors) {
    std::fprintf(stderr, "perfbench: %s: %s\n", options.workload.c_str(),
                 error.c_str());
  }
  const bool correct = result.failed == 0 && result.attempted > 0;

  std::map<std::string, Metric> reported;
  if (options.trace) {
    result.layer("failed_ratio",
                 perfbench::ratio(static_cast<double>(result.failed),
                                  static_cast<double>(result.attempted)),
                 "ratio", result.attempted);
    for (const auto& [name, metric] : result.end_to_end) {
      result.per_layer["traced." + name] = metric;
    }
    reported = result.per_layer;
    const std::string path = out_dir + "/spans-" + options.workload + "-" +
                             std::to_string(options.seed) + ".tsv";
    if (!tracer.write(path)) {
      std::fprintf(stderr, "perfbench: cannot write span log %s\n",
                   path.c_str());
      return 1;
    }
    std::printf("span log: %s (%zu spans, %llu not logged)\n", path.c_str(),
                tracer.logged(),
                static_cast<unsigned long long>(tracer.dropped()));
  } else {
    for (const char* name : kEndToEnd) reported[name] = result.end_to_end[name];
  }

  std::printf("perfbench %s seed=%llu seconds=%s trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              number(options.seconds).c_str(), options.trace ? 1 : 0);
  print_fingerprint(options, result);
  std::printf("%-40s %16s %-6s %10s\n", "metric", "value", "unit", "samples");
  for (const auto& [name, metric] :
       options.trace ? reported : result.end_to_end) {
    std::printf("%-40s %16.6g %-6s %10llu\n", name.c_str(), metric.value,
                metric.unit.c_str(),
                static_cast<unsigned long long>(metric.samples));
  }
  std::printf("operations: attempted=%llu failed=%llu\n",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));

  std::string metrics;
  for (const auto& [name, metric] : reported) {
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + name + "\": {\"value\": " + number(metric.value) +
               ", \"unit\": \"" + metric.unit + "\"}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), metrics.c_str());
  return 0;
}
