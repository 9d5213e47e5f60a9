// Flight-recorder guard for integration tests: record the world in a
// bounded trace ring and, if the owning test has failed by the time the
// guard leaves scope, dump the recording as Chrome trace JSON so the
// failing run can be opened in Perfetto.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <string>
#include <string_view>

#include "net/medium.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"

namespace ph::testutil {

/// The file a failing test's flight recording is dumped to, under gtest's
/// temp dir. Parameterized names carry '/' (`Backends/TransportConformance`
/// and `.../socket`), which would name a directory that does not exist, so
/// every '/' becomes '_'.
inline std::string flight_file_name(std::string_view suite,
                                    std::string_view test) {
  std::string name =
      "flight_" + std::string(suite) + "." + std::string(test) + ".json";
  std::replace(name.begin(), name.end(), '/', '_');
  return name;
}

/// Enables ring-buffer tracing on a journal for the guard's lifetime. On
/// destruction, if the current gtest test has a failure, the ring is
/// dumped to $PH_FLIGHT_JSON or — when unset — to a file named after the
/// failing test under gtest's temp dir. Works over any trace source: pass
/// a transport's trace() for substrate-agnostic tests, or a Medium for
/// legacy sim-only suites.
class FlightGuard {
 public:
  explicit FlightGuard(obs::Trace& trace, std::size_t ring_capacity = 1 << 14)
      : trace_(trace) {
    trace_.set_enabled(true);
    trace_.set_ring_capacity(ring_capacity);
  }
  explicit FlightGuard(net::Medium& medium, std::size_t ring_capacity = 1 << 14)
      : FlightGuard(medium.trace(), ring_capacity) {}
  FlightGuard(const FlightGuard&) = delete;
  FlightGuard& operator=(const FlightGuard&) = delete;

  ~FlightGuard() {
    if (!::testing::Test::HasFailure()) return;
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    const std::string name =
        info != nullptr
            ? flight_file_name(info->test_suite_name(), info->name())
            : std::string("flight_integration.json");
    obs::dump_flight_recording(trace_, "test_failure",
                               ::testing::TempDir() + name);
  }

 private:
  obs::Trace& trace_;
};

}  // namespace ph::testutil
