#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

std::vector<double> fastest_per_unit(
    const std::vector<std::vector<double>>& repetitions) {
  if (repetitions.empty()) return {};
  std::vector<double> best = repetitions.front();
  for (const std::vector<double>& rep : repetitions) {
    if (rep.size() != best.size()) continue;
    for (std::size_t i = 0; i < best.size(); ++i) {
      best[i] = std::min(best[i], rep[i]);
    }
  }
  return best;
}

void report_repeated(Result& result,
                     const std::vector<std::vector<double>>& unit_us,
                     const std::vector<double>& setups) {
  const std::vector<double> fastest = fastest_per_unit(unit_us);
  double wall_s = 0.0;
  for (const double us : fastest) wall_s += us / 1e6;
  result.e2e("throughput", ratio(static_cast<double>(fastest.size()), wall_s),
             "1/s", unit_us.size());
  result.e2e("latency_p50_us", quantile(fastest, 0.50), "us", fastest.size());
  result.e2e("latency_p99_us", quantile(fastest, 0.99), "us", fastest.size());
  result.e2e("setup_s", median(setups), "s", setups.size());
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double cpu_seconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

void Result::fail(const std::string& error) {
  ++failed;
  if (std::find(errors.begin(), errors.end(), error) == errors.end()) {
    errors.push_back(error);
  }
}

// --- Tracer -----------------------------------------------------------------

void Tracer::enable(std::size_t log_capacity) {
  enabled_ = true;
  capacity_ = log_capacity;
  log_.reserve(log_capacity);
  epoch_ = Clock::now();
}

std::uint32_t Tracer::intern(const char* name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name || std::strcmp(names_[i], name) == 0) {
      return static_cast<std::uint32_t>(i);
    }
  }
  names_.push_back(name);
  totals_.emplace_back();
  return static_cast<std::uint32_t>(names_.size() - 1);
}

Tracer::Token Tracer::open(const char* name, std::uint64_t group,
                           std::uint32_t parent) {
  Token token;
  token.name = intern(name);
  if (log_.size() < capacity_) {
    log_.push_back({token.name, parent, group, 0, 0, 0});
    token.log_index = static_cast<std::uint32_t>(log_.size());
  } else {
    ++dropped_;
  }
  // Read the counters last, so the bookkeeping above is not charged to
  // the call.
  token.allocs_at_start = allocations();
  token.start = Clock::now();
  return token;
}

void Tracer::close(const Token& token) {
  const Clock::time_point end = Clock::now();
  const std::uint64_t allocs = allocations() - token.allocs_at_start;
  const double wall_s = seconds_between(token.start, end);
  Totals& totals = totals_[token.name];
  ++totals.calls;
  totals.wall_s += wall_s;
  totals.allocs += allocs;
  totals.call_us.push_back(wall_s * 1e6);
  if (token.log_index != 0) {
    Span& span = log_[token.log_index - 1];
    span.start_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(token.start - epoch_)
            .count();
    span.end_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - epoch_)
            .count();
    span.allocs = allocs;
  }
}

const Tracer::Totals& Tracer::totals(const char* name) const {
  static const Totals kNone;
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (std::strcmp(names_[i], name) == 0) return totals_[i];
  }
  return kNone;
}

bool Tracer::write(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "# id\tparent\tgroup\tname\tstart_us\tend_us\tallocs\n");
  for (std::size_t i = 0; i < log_.size(); ++i) {
    const Span& s = log_[i];
    std::fprintf(out, "%zu\t%u\t%llu\t%s\t%.3f\t%.3f\t%llu\n", i + 1, s.parent,
                 static_cast<unsigned long long>(s.group), names_[s.name],
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns) / 1e3,
                 static_cast<unsigned long long>(s.allocs));
  }
  if (dropped_ > 0) {
    std::fprintf(out, "# %llu spans not logged (log full)\n",
                 static_cast<unsigned long long>(dropped_));
  }
  return std::fclose(out) == 0;
}

Tracer::Scope::Scope(Tracer& tracer, const char* name, std::uint64_t group)
    : tracer_(tracer), active_(tracer.enabled()) {
  if (!active_) return;
  saved_current_ = tracer_.current_;
  token_ = tracer_.open(name, group, saved_current_);
  tracer_.current_ = token_.log_index;
}

Tracer::Scope::~Scope() {
  if (!active_) return;
  tracer_.close(token_);
  tracer_.current_ = saved_current_;
}

}  // namespace perfbench
