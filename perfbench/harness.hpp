// Shared harness of the wall-clock benchmark: run options, the result
// record printed as the final JSON line, sample statistics, process
// counters (heap allocations, peak RSS, CPU time) and the span tracer of
// traced runs.
//
// Every workload drives the libraries through their public API and times
// each layer from outside, around the calls the benchmark makes into it.
// Untraced runs measure the end-to-end metrics only; a traced run
// (--trace 1) records one span per call into a layer and derives the
// per-layer metrics from those spans plus the counters the layers already
// publish in their obs::Registry.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the span log and the fleet's socket directory go.
  std::string out_dir;

  /// Wall-clock instant after which a workload stops with a named error
  /// instead of running on: a generous multiple of the measured time,
  /// well inside the 180 s a run may take.
  Clock::time_point deadline(Clock::time_point start) const {
    const double budget = std::min(150.0, 30.0 + 4.0 * seconds);
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(budget));
  }
};

/// Global operator new calls since process start (alloc.cpp interposes
/// operator new for the whole benchmark binary).
std::uint64_t allocations() noexcept;

/// Linear-interpolated quantile, q in [0, 1]; 0 for no samples.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Element-wise minimum over repetitions of the same work: entry i is the
/// fastest wall time any repetition took for unit i. On a host whose
/// cores' caches and memory bandwidth are shared with other tenants, one
/// repetition's timing swings by tens of percent with their load; the
/// per-unit minimum over repetitions is the uncontended cost and repeats
/// from run to run. Repetitions of another length than the first are
/// ignored.
std::vector<double> fastest_per_unit(
    const std::vector<std::vector<double>>& repetitions);

/// a / b, or 0 when b is 0 (keeps the JSON free of NaN and infinities).
inline double ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

/// Peak resident set size of this process in MiB.
double peak_rss_mb();
/// CPU time (user + system) consumed by this process, seconds.
double cpu_seconds();

struct Metric {
  double value = 0.0;
  std::string unit;
  /// Samples behind the value (1 for a single measurement or a count).
  std::uint64_t samples = 1;
};

/// What one run of one workload reports.
struct Result {
  /// Operations checked, and those that failed a check or a deadline.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Named errors behind `failed` (deduplicated, printed to stderr).
  std::vector<std::string> errors;
  /// Workload parameters, recorded with the machine fingerprint.
  std::map<std::string, std::string> params;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;

  /// Counts one failed operation under a named error.
  void fail(const std::string& error);
  /// Checks one operation: counts it, and fails it unless `ok`.
  void check(bool ok, const std::string& error) {
    ++attempted;
    if (!ok) fail(error);
  }
  void e2e(const std::string& name, double value, const char* unit,
           std::uint64_t samples = 1) {
    end_to_end[name] = {value, unit, samples};
  }
  void layer(const std::string& name, double value, const char* unit,
             std::uint64_t samples = 1) {
    per_layer[name] = {value, unit, samples};
  }
};

/// The end-to-end metrics of a workload that repeats the same units of
/// work: throughput is units per wall second and latency_p50_us /
/// latency_p99_us the wall time of one unit, all over fastest_per_unit;
/// setup_s is the median of `setups`.
void report_repeated(Result& result,
                     const std::vector<std::vector<double>>& unit_us,
                     const std::vector<double>& setups);

/// Span recorder of traced runs. A span is one call from the benchmark
/// into a layer: name, start, end, the enclosing span and the request or
/// replication it belongs to. Per-name totals (calls, wall time, heap
/// allocations, per-call durations) feed the per-layer metrics; the span
/// log itself is kept in memory, capped, and written out at exit.
/// A disabled tracer records nothing.
class Tracer {
 public:
  struct Totals {
    std::uint64_t calls = 0;
    double wall_s = 0.0;
    std::uint64_t allocs = 0;
    std::vector<double> call_us;
  };

  /// An open span, returned by open() and consumed by close().
  struct Token {
    std::uint32_t name = 0;
    std::uint32_t log_index = 0;  // 0 = not logged
    Clock::time_point start;
    std::uint64_t allocs_at_start = 0;
  };

  bool enabled() const noexcept { return enabled_; }
  void enable(std::size_t log_capacity);

  /// Opens a span under `parent` (a log index from open(); 0 = none).
  /// `group` ties the spans of one request or replication together.
  Token open(const char* name, std::uint64_t group, std::uint32_t parent);
  void close(const Token& token);

  /// Totals of every span named `name` (all zero if none was recorded).
  const Totals& totals(const char* name) const;

  std::size_t logged() const noexcept { return log_.size(); }
  std::uint64_t dropped() const noexcept { return dropped_; }

  /// Writes the span log as tab-separated lines:
  /// id, parent, group, name, start_us, end_us, allocs.
  bool write(const std::string& path) const;

  /// RAII span around one call; nests under the innermost open Scope.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::uint64_t group = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    bool active_;
    Token token_;
    std::uint32_t saved_current_ = 0;
  };

 private:
  struct Span {
    std::uint32_t name = 0;
    std::uint32_t parent = 0;
    std::uint64_t group = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint64_t allocs = 0;
  };

  std::uint32_t intern(const char* name);

  bool enabled_ = false;
  std::size_t capacity_ = 0;
  Clock::time_point epoch_ = Clock::now();
  std::vector<const char*> names_;
  std::vector<Totals> totals_;
  std::vector<Span> log_;  // log index i + 1 names log_[i]
  std::uint64_t dropped_ = 0;
  std::uint32_t current_ = 0;
};

/// The workloads; each fills `result` for one run.
void run_soak(const Options& options, Tracer& tracer, Result& result);
void run_crowd(const Options& options, Tracer& tracer, Result& result);
void run_fleet(const Options& options, Tracer& tracer, Result& result);
void run_table8(const Options& options, Tracer& tracer, Result& result);

}  // namespace perfbench
