// Allocation budget of the PeerHood control plane, attributed per layer.
//
// Interposes global operator new (as tests/sim/alloc_test.cpp does) and
// files every allocation under the cost center of the simulator event
// running when it happened (`Simulator::current_tag()`, the `obs::prof`
// taxonomy; 0 = outside any event, i.e. the test body itself). On a
// warmed two-daemon world it pins what the allocation-light wire path
// promises:
//
//   * a ping/pong round allocates nothing;
//   * a service query/reply exchange allocates nothing beyond the scan
//     that triggers it;
//   * an open Connection allocates at most once per message sent: the
//     unacked copy the session keeps for retransmission;
//   * opening a Connection (connect, accept, first message and its echo)
//     stays within a fixed budget.
//
// A failure prints the per-center table, so a regression names its layer.
//
// Lives in its own binary: the interposer is process-global and must not
// contaminate unrelated tests.

#include <algorithm>
#include <array>
#include <cstdlib>
#include <memory>
#include <new>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "net/medium.hpp"
#include "obs/prof.hpp"
#include "peerhood/stack.hpp"
#include "sim/simulator.hpp"
#include "tests/testutil/sim_helpers.hpp"

namespace {
const ph::sim::Simulator* g_simulator = nullptr;
std::array<std::size_t, ph::obs::prof::kCenterCount> g_by_center{};

void count_allocation() {
  const std::uint8_t tag =
      g_simulator != nullptr ? g_simulator->current_tag() : 0;
  ++g_by_center[tag < g_by_center.size() ? tag : 0];
}
}  // namespace

void* operator new(std::size_t size) {
  count_allocation();
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  count_allocation();
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align), size)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return operator new(size, align);
}
// Out of line: inlined into a caller, free() on a pointer from the
// replaced operator new trips -Wmismatched-new-delete.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::size_t,
                                       std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t,
                                         std::align_val_t) noexcept {
  std::free(p);
}

namespace ph::peerhood {
namespace {

using obs::prof::Center;

/// Allocations per cost center between construction and take().
class AllocationWindow {
 public:
  AllocationWindow() : start_(g_by_center) {}

  /// Per-center counts since construction.
  std::array<std::size_t, obs::prof::kCenterCount> take() const {
    std::array<std::size_t, obs::prof::kCenterCount> out{};
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] = g_by_center[i] - start_[i];
    }
    return out;
  }

 private:
  std::array<std::size_t, obs::prof::kCenterCount> start_;
};

std::size_t total(const std::array<std::size_t, obs::prof::kCenterCount>& c) {
  std::size_t sum = 0;
  for (std::size_t n : c) sum += n;
  return sum;
}

std::size_t at(const std::array<std::size_t, obs::prof::kCenterCount>& c,
               Center center) {
  return c[static_cast<std::size_t>(center)];
}

std::string table(const std::array<std::size_t, obs::prof::kCenterCount>& c) {
  std::ostringstream out;
  out << "allocations per center:\n";
  for (std::size_t i = 0; i < c.size(); ++i) {
    if (c[i] == 0) continue;
    out << "  " << obs::prof::center_name(static_cast<std::uint8_t>(i))
        << (i == 0 ? " (test body)" : "") << ": " << c[i] << "\n";
  }
  return out.str();
}

net::TechProfile lossless_bt() {
  net::TechProfile p = net::bluetooth_2_0();
  p.frame_loss = 0.0;
  p.inquiry_detect_prob = 1.0;
  return p;
}

// The kernel allocates too, whenever an event lands in a timer-wheel slot
// fuller than that slot has ever been. To keep those growths out of the
// windows below, every period the tests drive is a power of two and
// nothing is jittered: the event pattern is then phase-locked to the
// wheel, and after two revolutions of its level-1 window (2^26 us) every
// slot has reached its high-water mark (the argument of
// tests/sim/alloc_test.cpp). What the windows count is the layers above.
constexpr sim::Duration kWarmUp = 2 * (sim::Duration{1} << 26);
constexpr sim::Duration kRoundTripPeriod = sim::Duration{1} << 18;

/// Two daemons in range of each other; b runs an echo service. Rescans
/// are pushed far out, so after discovery the only traffic is what each
/// test drives plus the ping rounds. Range queries scan the adapters
/// instead of the spatial grid, whose per-instant rebuild allocates its
/// cell table: a net-layer cost outside this budget.
class ControlPlaneAllocation : public ::testing::Test {
 protected:
  void SetUp() override {
    DaemonConfig daemon;
    daemon.inquiry_interval = sim::minutes(30);
    daemon.ping_interval = sim::Duration{1} << 21;
    daemon.reply_timeout = sim::Duration{1} << 20;
    daemon.ping_retries = 0;
    daemon.retry_jitter = 0.0;
    const auto config = [&](const char* name) {
      return StackConfig{}
          .with_name(name)
          .with_radios({lossless_bt()})
          .with_daemon(daemon)
          .with_transport(medium_);
    };
    a_ = std::make_unique<Stack>(
        config("a"), std::make_unique<sim::StaticMobility>(sim::Vec2{0, 0}));
    b_ = std::make_unique<Stack>(
        config("b"), std::make_unique<sim::StaticMobility>(sim::Vec2{3, 0}));
    ASSERT_TRUE(b_->library()
                    .register_service("Echo", {},
                                      [this](Connection connection) {
                                        server_ = connection;
                                        server_.on_message([this](BytesView data) {
                                          server_.send(data);
                                        });
                                      })
                    .ok());
    ASSERT_TRUE(testutil::run_until(
        simulator_,
        [&] {
          return a_->daemon().known_device(b_->id()) != nullptr &&
                 b_->daemon().known_device(a_->id()) != nullptr;
        },
        sim::seconds(30)));
    g_simulator = &simulator_;
  }

  void TearDown() override { g_simulator = nullptr; }

  std::uint64_t counter(Stack& stack, const char* name) {
    return stack.daemon().stats().counter(name);
  }

  sim::Simulator simulator_;
  net::Medium medium_{simulator_, sim::Rng(11),
                      net::MediumConfig{.use_spatial_index = false}};
  std::unique_ptr<Stack> a_, b_;
  Connection server_;
};

TEST_F(ControlPlaneAllocation, PingPongRoundsAllocateNothing) {
  // Warm: the rounds grow the frame pool, the signal memo and the event
  // slots to their working size.
  simulator_.run_for(kWarmUp);
  const std::uint64_t pongs_before = counter(*a_, "pongs_received");
  const AllocationWindow window;
  simulator_.run_for(sim::seconds(20));
  const auto allocations = window.take();
  ASSERT_GE(counter(*a_, "pongs_received") - pongs_before, 9u);
  EXPECT_EQ(total(allocations), 0u) << table(allocations);
}

TEST_F(ControlPlaneAllocation, QueryReplyExchangeAllocatesNothing) {
  // Warm the query path once, then the ping rounds around it.
  a_->daemon().trigger_discovery();
  simulator_.run_for(kWarmUp);
  const std::uint64_t replies_before = counter(*a_, "service_replies");
  const AllocationWindow window;
  a_->daemon().trigger_discovery();
  simulator_.run_for(sim::seconds(20));
  const auto allocations = window.take();
  ASSERT_EQ(counter(*a_, "service_replies") - replies_before, 1u);
  // The query leaves from inside the scan's completion, and the scan
  // allocates: the continuation handed to the radio (in the test body)
  // and its two result lists, in-range and found. The query, the reply
  // and applying it add nothing, and the daemon keeps no other state.
  EXPECT_EQ(at(allocations, Center::unattributed), 1u) << table(allocations);
  EXPECT_EQ(at(allocations, Center::net_inquiry), 2u) << table(allocations);
  EXPECT_EQ(at(allocations, Center::net_delivery), 0u) << table(allocations);
  EXPECT_EQ(at(allocations, Center::peerhood_query), 0u) << table(allocations);
  EXPECT_EQ(at(allocations, Center::peerhood_ping), 0u) << table(allocations);
  EXPECT_LE(total(allocations), 3u) << table(allocations);
}

TEST_F(ControlPlaneAllocation, ConnectionRoundTripAllocatesOnlyUnackedCopies) {
  Connection client;
  ConnectOptions options;
  options.monitor_interval = sim::Duration{1} << 19;
  a_->library().connect(b_->id(), "Echo", options,
                        [&](Result<Connection> connection) {
                          ASSERT_TRUE(connection.ok());
                          client = *connection;
                        });
  ASSERT_TRUE(testutil::run_until(
      simulator_, [&] { return client.valid(); }, sim::seconds(5)));
  int echoes = 0;
  client.on_message([&](BytesView) { ++echoes; });
  const Bytes payload(64, 0x5a);
  const auto round_trips = [&](int n) {
    for (int i = 0; i < n; ++i) {
      client.send(payload);
      simulator_.run_for(kRoundTripPeriod);
    }
  };
  constexpr int kWarmRoundTrips = kWarmUp / kRoundTripPeriod;
  round_trips(kWarmRoundTrips);
  ASSERT_EQ(echoes, kWarmRoundTrips);

  constexpr int kRoundTrips = 20;
  const AllocationWindow window;
  round_trips(kRoundTrips);
  const auto allocations = window.take();
  ASSERT_EQ(echoes, kWarmRoundTrips + kRoundTrips);
  // Two messages per round trip (request and echo), each owning exactly
  // one copy until acknowledged.
  EXPECT_LE(total(allocations), 2u * kRoundTrips) << table(allocations);
  EXPECT_EQ(at(allocations, Center::unattributed),
            static_cast<std::size_t>(kRoundTrips))
      << table(allocations);
}

TEST_F(ControlPlaneAllocation, OpeningAConnectionStaysWithinBudget) {
  ConnectOptions options;
  options.monitor_interval = sim::Duration{1} << 19;
  const Bytes payload(64, 0x5a);
  // Connect, accept, then the first message and its echo.
  const auto open_and_exchange = [&](Connection& client, int& echoes) {
    a_->library().connect(b_->id(), "Echo", options,
                          [&](Result<Connection> connection) {
                            ASSERT_TRUE(connection.ok());
                            client = *connection;
                            client.on_message([&](BytesView) { ++echoes; });
                            client.send(payload);
                          });
    ASSERT_TRUE(testutil::run_until(
        simulator_, [&] { return echoes == 1; }, sim::seconds(5)));
  };
  // Warm: one connection opened, used and closed, then the ping rounds.
  {
    Connection warm;
    int echoes = 0;
    open_and_exchange(warm, echoes);
    warm.close();
    server_.close();
    simulator_.run_for(kWarmUp);
  }

  Connection client;
  int echoes = 0;
  const AllocationWindow window;
  open_and_exchange(client, echoes);
  const auto allocations = window.take();
  // Sessions, handshake and the two unacked copies cost what they cost;
  // the budget pins the channel underneath: both sides of a link share
  // one allocation, and installing a handler on a side wraps nothing.
  EXPECT_LE(total(allocations), 24u) << table(allocations);
  client.close();
  server_.close();
}

/// Heap allocations of one `build(medium)` on a fresh world, the fewest
/// over several builds, so growth of the world's own per-node arrays
/// does not count.
template <typename Build>
std::size_t fewest_build_allocations(Build build) {
  sim::Simulator simulator;
  net::Medium medium(simulator, sim::Rng(5));
  std::size_t fewest = ~std::size_t{0};
  for (int i = 0; i < 8; ++i) {
    const AllocationWindow window;
    const std::unique_ptr<Stack> stack = build(medium);
    fewest = std::min(fewest, total(window.take()));
  }
  return fewest;
}

TEST(StackBuildAllocation, MobilityFirstOverloadCostsWhatThePrimaryCosts) {
  const auto config = [] {
    return StackConfig{}.with_radios({lossless_bt()}).with_autostart(false);
  };
  const auto mobility = [] {
    return std::make_unique<sim::StaticMobility>(sim::Vec2{1, 2});
  };
  const std::size_t primary = fewest_build_allocations([&](net::Medium& m) {
    return std::make_unique<Stack>(m, config(), mobility());
  });
  const std::size_t shorthand = fewest_build_allocations([&](net::Medium& m) {
    return std::make_unique<Stack>(m, mobility(), config());
  });
  EXPECT_GT(primary, 0u);
  EXPECT_EQ(shorthand, primary);
}

}  // namespace
}  // namespace ph::peerhood
