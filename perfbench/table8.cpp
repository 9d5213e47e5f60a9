// table8 — back-to-back Table-8 replications over consecutive seeds. One
// replication is the thesis' headline table for one seed: the four SNS
// columns (Facebook and HI5 on the N810 and the N95, through
// eval::run_sns_column) plus the PeerHood column (eval::run_peerhood_column).
// Each column builds and tears down a fresh small world, so this is the
// construction-heavy workload, and the only one that runs `sns`.
//
// The run makes passes over one block of consecutive seeds starting at
// --seed; every pass must reproduce the first pass's tables exactly.
// Set-up is the world and stack construction and login of the ComLab
// testbed the PeerHood column builds (eval::comlab_room on a fresh medium),
// timed on its own because the columns construct their worlds internally.
#include <algorithm>
#include <array>
#include <tuple>
#include <vector>

#include "eval/scenarios.hpp"
#include "eval/table8.hpp"
#include "harness.hpp"
#include "net/medium.hpp"
#include "sim/simulator.hpp"

namespace perfbench {
namespace {

constexpr int kSetupBuilds = 50;
constexpr std::size_t kBlock = 512;

struct Column {
  ph::sns::SiteProfile (*site)();
  ph::sns::DeviceClass (*device)();
};
const std::array<Column, 4> kSnsColumns = {{
    {ph::sns::facebook, ph::sns::nokia_n810},
    {ph::sns::facebook, ph::sns::nokia_n95},
    {ph::sns::hi5, ph::sns::nokia_n810},
    {ph::sns::hi5, ph::sns::nokia_n95},
}};

using Replication = std::array<ph::eval::Table8Cell, 5>;  // 4 SNS + PeerHood

Replication replicate(std::uint64_t seed, std::uint64_t group, Tracer& tracer) {
  const Tracer::Scope span(tracer, "table8.replication", group);
  Replication cells;
  for (std::size_t i = 0; i < kSnsColumns.size(); ++i) {
    const Tracer::Scope column(tracer, "eval.sns_column", group);
    cells[i] = ph::eval::run_sns_column(kSnsColumns[i].site(),
                                        kSnsColumns[i].device(), seed);
  }
  const Tracer::Scope column(tracer, "eval.peerhood_column", group);
  cells[4] = ph::eval::run_peerhood_column(seed);
  return cells;
}

auto cell_values(const ph::eval::Table8Cell& c) {
  return std::make_tuple(c.search_s, c.join_s, c.member_list_s, c.profile_s,
                         c.paid_bytes, c.free_bytes);
}

bool same(const Replication& a, const Replication& b) {
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (cell_values(a[i]) != cell_values(b[i])) return false;
  }
  return true;
}

/// World and stack construction plus login of the ComLab testbed.
double build_testbed(std::uint64_t seed, Tracer& tracer) {
  const Tracer::Scope span(tracer, "peerhood.stack_build", seed);
  const auto t0 = Clock::now();
  ph::sim::Simulator simulator;
  ph::net::Medium medium(simulator, ph::sim::Rng(seed));
  const std::vector<ph::eval::ScenarioDevice> devices =
      ph::eval::comlab_room(medium, /*autostart=*/false);
  return seconds_between(t0, Clock::now());
}

}  // namespace

void run_table8(const Options& options, Tracer& tracer, Result& result) {
  const auto deadline = options.deadline(Clock::now());
  result.params = {{"columns", "facebook/n810 facebook/n95 hi5/n810 "
                               "hi5/n95 peerhood"},
                   {"seeds", std::to_string(kBlock) + " consecutive from --seed"},
                   {"setup_builds", std::to_string(kSetupBuilds)}};

  std::vector<double> setups;
  for (int i = 0; i < kSetupBuilds; ++i) {
    setups.push_back(build_testbed(options.seed + i, tracer));
  }

  // Passes over one block of consecutive seeds, until the measured time is
  // spent; every pass must reproduce the first pass's tables exactly.
  std::vector<Replication> tables(kBlock);
  std::vector<std::vector<double>> pass_us;
  std::uint64_t paid_bytes = 0;
  const auto measure_start = Clock::now();
  bool stopped = false;
  while (!stopped && (pass_us.size() < 3 ||
                      seconds_between(measure_start, Clock::now()) <
                          options.seconds)) {
    const bool first_pass = pass_us.empty();
    std::vector<double> us;
    us.reserve(kBlock);
    for (std::size_t i = 0; i < kBlock; ++i) {
      if (Clock::now() > deadline) {
        result.fail("table8: wall-clock deadline exceeded");
        stopped = true;
        break;
      }
      const std::uint64_t group = pass_us.size() * kBlock + i;
      const auto t0 = Clock::now();
      const Replication cells = replicate(options.seed + i, group, tracer);
      us.push_back(seconds_between(t0, Clock::now()) * 1e6);

      // PeerHood join is exactly 0 s and its total beats the best SNS
      // column.
      double best_sns = cells[0].total_s();
      for (std::size_t c = 1; c < kSnsColumns.size(); ++c) {
        best_sns = std::min(best_sns, cells[c].total_s());
      }
      result.check(cells[4].join_s == 0.0 && cells[4].total_s() < best_sns,
                   "table8: PeerHood column lost its Table-8 shape");
      if (first_pass) {
        tables[i] = cells;
        for (std::size_t c = 0; c < kSnsColumns.size(); ++c) {
          paid_bytes += cells[c].paid_bytes;
        }
      } else {
        result.check(same(cells, tables[i]),
                     "table8: same seed gave a different table");
      }
    }
    pass_us.push_back(std::move(us));
  }

  // Replications per wall second, and the wall time of one replication.
  report_repeated(result, pass_us, setups);

  if (!tracer.enabled()) return;
  const Tracer::Totals& sns = tracer.totals("eval.sns_column");
  const Tracer::Totals& peerhood = tracer.totals("eval.peerhood_column");
  const Tracer::Totals& builds = tracer.totals("peerhood.stack_build");
  result.layer("eval.sns_column_us_p50", median(sns.call_us), "us", sns.calls);
  result.layer("eval.peerhood_column_us_p50", median(peerhood.call_us), "us",
               peerhood.calls);
  result.layer("sns.paid_bytes", static_cast<double>(paid_bytes) / kBlock,
               "bytes", kBlock);
  result.layer("peerhood.stack_build_us", median(builds.call_us) / 3.0, "us",
               builds.calls);
}

}  // namespace perfbench
