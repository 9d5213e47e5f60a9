// Shared by the two simulated-world workloads, soak and crowd. A
// repetition builds a world (set-up), then simulates a fixed virtual
// horizon in one-virtual-second steps, each timed. Repetitions of one seed
// run until the measured time is spent, and each must reproduce the first
// one's deterministic counts.
#pragma once

#include <cstdint>
#include <vector>

#include "harness.hpp"
#include "obs/metrics.hpp"

namespace ph::sim {
class Simulator;
}
namespace ph::net {
class Medium;
}
namespace ph::peerhood {
class Stack;
}
namespace ph::community {
class CommunityApp;
}

namespace perfbench {

/// The timed part of one repetition.
struct Steps {
  std::vector<double> us;  ///< wall time of each virtual second
  double wall_s = 0.0;
  std::uint64_t allocs = 0;
  bool finished = true;  ///< false when the deadline cut the horizon short
};

/// Simulates `seconds` one-virtual-second steps, each inside a
/// "sim.run_for" span, stopping early past `deadline`.
Steps run_steps(ph::sim::Simulator& simulator, int seconds, Tracer& tracer,
                std::uint64_t rep, Clock::time_point deadline);

/// The counts a world's layers publish after a repetition: the kernel's,
/// the medium's registry, and the daemon and group-engine counters summed
/// over its devices. Deterministic for a seed.
struct WorldCounts {
  std::uint64_t events = 0;
  std::uint64_t cancelled_pending = 0;
  std::uint64_t group_events = 0;
  std::uint64_t comparisons = 0;
  std::uint64_t pings = 0;
  std::uint64_t service_queries = 0;
  std::uint64_t inquiries = 0;
  ph::obs::Snapshot medium;

  WorldCounts() = default;
  WorldCounts(const ph::sim::Simulator& simulator,
              const ph::net::Medium& medium);
  void add_device(ph::peerhood::Stack& stack, ph::community::CommunityApp& app);
  bool operator==(const WorldCounts&) const = default;
};

/// Runs `once(rep)` until the measured (stepped) time reaches
/// options.seconds, at least three times so set-up time is a median of
/// three; stops after a repetition the deadline cut short.
template <typename Run, typename Once>
std::vector<Run> repeat(const Options& options, Once once) {
  std::vector<Run> runs;
  double measured_s = 0.0;
  while (runs.size() < 3 || measured_s < options.seconds) {
    runs.push_back(once(runs.size()));
    measured_s += runs.back().steps.wall_s;
    if (!runs.back().steps.finished) break;
  }
  return runs;
}

/// The sim, net, peerhood and community per-layer metrics of one world of
/// `devices` devices over `virtual_s` seconds. `events` and `busy_s` are
/// summed over all repetitions: the kernel's event rate excludes the
/// timed calls into other layers.
void report_world(Result& result, const WorldCounts& world, int devices,
                  double virtual_s, std::uint64_t events, double busy_s);

}  // namespace perfbench
