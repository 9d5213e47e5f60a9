// A real-stack crowd of any size: the construction of the perfbench
// `crowd` workload (random-waypoint walkers at the density of the
// 40-device, 60 x 60 m baseline, each running a Stack and a logged-in
// CommunityApp with two rotating interests, telemetry sampling off), for
// tests that need its behaviour at a size that runs in tier-1.
#pragma once

#include <cstddef>
#include <cstdint>
#include <ostream>

#include "sim/time.hpp"

namespace ph::testutil {

/// The deterministic counts a crowd run publishes; equal for equal seeds.
struct CrowdCounts {
  std::uint64_t events = 0;             ///< kernel events executed
  std::uint64_t datagrams_sent = 0;     ///< net.medium.datagrams_sent
  std::uint64_t datagrams_lost = 0;     ///< net.medium.datagrams_lost
  std::uint64_t signal_evals = 0;       ///< net.medium.signal_evals
  std::uint64_t signal_cache_hits = 0;  ///< net.medium.signal_cache.hits
  std::uint64_t comparisons = 0;        ///< interest comparisons, all apps
  std::uint64_t group_events = 0;       ///< groups formed + dissolved

  bool operator==(const CrowdCounts&) const = default;
};

std::ostream& operator<<(std::ostream& out, const CrowdCounts& counts);

/// The key storage of a crowd's event queue at the end of its run.
struct CrowdQueueStorage {
  std::size_t peak_stored = 0;         ///< TimerWheelQueue::peak_stored
  std::size_t block_key_capacity = 0;  ///< TimerWheelQueue::block_key_capacity
};

/// Builds a `devices`-strong crowd from `seed` and simulates `duration` of
/// virtual time in one-second steps. Fills `storage` when given.
CrowdCounts run_crowd(int devices, sim::Duration duration, std::uint64_t seed,
                      CrowdQueueStorage* storage = nullptr);

}  // namespace ph::testutil
