// Unit tests for the evaluation harness itself: scenario construction and
// the Table 8 cell plumbing (the shape assertions live in
// tests/integration/table8_scenario_test.cpp).
#include <array>
#include <cstdlib>
#include <filesystem>
#include <tuple>

#include <gtest/gtest.h>

#include "net/medium.hpp"
#include "eval/scenarios.hpp"
#include "eval/table8.hpp"

namespace ph::eval {
namespace {

TEST(ScenarioTest, ComlabRoomMatchesTheThesisTestbed) {
  sim::Simulator simulator;
  net::Medium medium(simulator, sim::Rng(1));
  auto devices = comlab_room(medium, /*autostart=*/false);
  ASSERT_EQ(devices.size(), 3u);  // laptop + two PCs
  EXPECT_EQ(devices[0].member, "tester");
  EXPECT_EQ(devices[1].member, "dave");
  EXPECT_EQ(devices[2].member, "emma");
  for (const ScenarioDevice& device : devices) {
    // Bluetooth-only, logged in, daemon not yet started (autostart=false).
    EXPECT_EQ(device.stack->daemon().plugins().size(), 1u);
    EXPECT_EQ(device.stack->daemon().plugins()[0]->technology(),
              net::Technology::bluetooth);
    EXPECT_FALSE(device.stack->daemon().running());
    EXPECT_TRUE(device.app->logged_in());
  }
  // Everyone shares the Football interest (the Table 8 group).
  for (const ScenarioDevice& device : devices) {
    const auto& interests = device.app->active()->profile().interests;
    EXPECT_NE(std::find(interests.begin(), interests.end(), "Football"),
              interests.end());
  }
  // All mutually within Bluetooth range.
  for (const auto& a : devices) {
    for (const auto& b : devices) {
      if (a.stack->id() == b.stack->id()) continue;
      EXPECT_LT(sim::distance(medium.position(a.stack->id()),
                              medium.position(b.stack->id())),
                10.0);
    }
  }
}

TEST(ScenarioTest, AutostartTrueStartsDaemons) {
  sim::Simulator simulator;
  net::Medium medium(simulator, sim::Rng(2));
  auto devices = comlab_room(medium, /*autostart=*/true);
  for (const ScenarioDevice& device : devices) {
    EXPECT_TRUE(device.stack->daemon().running());
  }
}

TEST(ScenarioTest, BuildSeatsHonoursSpecs) {
  sim::Simulator simulator;
  net::Medium medium(simulator, sim::Rng(3));
  auto devices = build_seats(medium,
                             {{"solo", {5, 7}, {"a", "b", "c"}}},
                             net::wlan_80211b(), true);
  ASSERT_EQ(devices.size(), 1u);
  EXPECT_EQ(devices[0].app->active()->profile().interests.size(), 3u);
  EXPECT_DOUBLE_EQ(medium.position(devices[0].stack->id()).x, 5.0);
  EXPECT_EQ(devices[0].stack->daemon().plugins()[0]->technology(),
            net::Technology::wlan);
}

TEST(Table8CellTest, TotalSumsTheFourTasks) {
  Table8Cell cell;
  cell.search_s = 10;
  cell.join_s = 1;
  cell.member_list_s = 2;
  cell.profile_s = 3.5;
  EXPECT_DOUBLE_EQ(cell.total_s(), 16.5);
}

TEST(Table8CellTest, SnsColumnIsDeterministicPerSeed) {
  const Table8Cell a = run_sns_column(sns::facebook(), sns::nokia_n810(), 9);
  const Table8Cell b = run_sns_column(sns::facebook(), sns::nokia_n810(), 9);
  EXPECT_DOUBLE_EQ(a.total_s(), b.total_s());
  EXPECT_EQ(a.paid_bytes, b.paid_bytes);
}

TEST(Table8CellTest, SnsColumnPaysOnlyCellularBytes) {
  const Table8Cell cell = run_sns_column(sns::hi5(), sns::nokia_n95(), 10);
  EXPECT_GT(cell.paid_bytes, 100'000u);  // heavyweight pages over GPRS
  EXPECT_EQ(cell.free_bytes, 0u);
}

TEST(Table8CellTest, PeerHoodColumnPaysNothing) {
  const Table8Cell cell = run_peerhood_column(11);
  EXPECT_EQ(cell.paid_bytes, 0u);
  EXPECT_GT(cell.free_bytes, 0u);  // Bluetooth control + session traffic
}

auto cell_values(const Table8Cell& c) {
  return std::make_tuple(c.search_s, c.join_s, c.member_list_s, c.profile_s,
                         c.paid_bytes, c.free_bytes);
}

TEST(Table8CellTest, TracingLeavesEveryCellUnchanged) {
  // A column records its span trace only when a registry (or PH_TRACE_JSON)
  // reads it; tracing must never move a cell.
  const std::array<std::pair<sns::SiteProfile, sns::DeviceClass>, 4> columns =
      {{{sns::facebook(), sns::nokia_n810()},
        {sns::facebook(), sns::nokia_n95()},
        {sns::hi5(), sns::nokia_n810()},
        {sns::hi5(), sns::nokia_n95()}}};
  obs::Registry registry;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    for (const auto& [site, device] : columns) {
      EXPECT_EQ(cell_values(run_sns_column(site, device, seed)),
                cell_values(run_sns_column(site, device, seed, &registry)))
          << site.name << " on " << device.name << ", seed " << seed;
    }
    EXPECT_EQ(cell_values(run_peerhood_column(seed)),
              cell_values(run_peerhood_column(seed, {}, &registry)))
        << "PeerHood, seed " << seed;
  }
  // The registry runs did trace: their critical path has frames in flight.
  const obs::Histogram* transfer =
      registry.find_histogram("eval.critical_path.sns.search.transfer_s");
  ASSERT_NE(transfer, nullptr);
  EXPECT_EQ(transfer->count(), 8u * columns.size());
  EXPECT_GT(transfer->sum(), 0.0);
}

TEST(Table8CellTest, TraceJsonIsWrittenWithoutARegistry) {
  const std::filesystem::path path =
      std::filesystem::path(::testing::TempDir()) / "table8_trace_test.json";
  std::filesystem::remove(path);
  ASSERT_EQ(setenv("PH_TRACE_JSON", path.c_str(), 1), 0);
  (void)run_sns_column(sns::facebook(), sns::nokia_n810(), 1);
  unsetenv("PH_TRACE_JSON");
  ASSERT_TRUE(std::filesystem::exists(path));
  EXPECT_GT(std::filesystem::file_size(path), 1000u);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace ph::eval
