// Trusted file transfer throughput: single-shot PS_GETCONTENT vs chunked
// PS_GETCONTENTCHUNK, across file sizes and technologies, plus the cost of
// a mid-transfer handover under each strategy.
//
// Shape to expect: chunking pays a per-chunk round trip (slightly slower on
// a healthy link) but caps what a handover retransmits at one chunk —
// single-shot re-sends the entire file after a failover.
#include <cstdio>
#include <memory>

#include "net/medium.hpp"
#include "sim/simulator.hpp"
#include "community/app.hpp"
#include "util/check.hpp"

using namespace ph;

namespace {

struct World {
  sim::Simulator simulator;
  net::Medium medium{simulator, sim::Rng(77)};
  struct Device {
    std::unique_ptr<peerhood::Stack> stack;
    std::unique_ptr<community::CommunityApp> app;
  };
  Device owner, fetcher;

  explicit World(const std::vector<net::TechProfile>& radios) {
    auto make = [&](const std::string& member, sim::Vec2 pos) {
      Device device;
      peerhood::StackConfig config;
      config.device_name = member + "-ptd";
      config.radios = radios;
      device.stack = std::make_unique<peerhood::Stack>(
          medium, std::make_unique<sim::StaticMobility>(pos), config);
      device.app = std::make_unique<community::CommunityApp>(*device.stack);
      PH_CHECK(device.app->create_account(member, "pw").ok());
      PH_CHECK(device.app->login(member, "pw").ok());
      return device;
    };
    owner = make("owner", {0, 0});
    fetcher = make("fetcher", {3, 0});
    PH_CHECK(owner.app->add_trusted("fetcher").ok());
    const sim::Time deadline = simulator.now() + sim::minutes(2);
    while (fetcher.stack->library()
               .find_service(community::kServiceName)
               .empty()) {
      simulator.run_for(sim::milliseconds(100));
      PH_CHECK(simulator.now() < deadline);
    }
  }

  struct TransferResult {
    double seconds = 0;
    std::uint64_t fallback_bt_bytes = 0;  ///< payload moved over Bluetooth
  };

  TransferResult transfer_seconds(std::size_t bytes, std::size_t chunk,
                                  bool handover_midway) {
    Bytes content(bytes, 0x42);
    PH_CHECK(owner.app->share_file("payload.bin", content).ok());
    bool done = false;
    const std::uint64_t bt_before =
        medium.traffic(net::Technology::bluetooth).link_bytes;
    const sim::Time start = simulator.now();
    auto check = [&](Result<Bytes> result) {
      PH_CHECK(result.ok());
      PH_CHECK(result->size() == bytes);
      done = true;
    };
    if (chunk == 0) {
      fetcher.app->client().fetch_content("owner", "payload.bin", check);
    } else {
      fetcher.app->client().fetch_content_chunked("owner", "payload.bin",
                                                  chunk, nullptr, check);
    }
    if (handover_midway) {
      // WLAN moves ~1.4 MB/s; interrupt while the transfer is mid-stream.
      simulator.run_for(sim::milliseconds(400));
      PH_CHECK_MSG(
          owner.stack->set_radio_powered(net::Technology::wlan, false).ok(),
          "the owner's WLAN radio could not be switched off");
    }
    const sim::Time deadline = simulator.now() + sim::minutes(30);
    while (!done) {
      simulator.run_for(sim::milliseconds(50));
      PH_CHECK_MSG(simulator.now() < deadline, "transfer never finished");
    }
    if (handover_midway) {
      PH_CHECK_MSG(
          owner.stack->set_radio_powered(net::Technology::wlan, true).ok(),
          "the owner's WLAN radio could not be switched back on");
    }
    TransferResult result;
    result.seconds = sim::to_seconds(simulator.now() - start);
    result.fallback_bt_bytes =
        medium.traffic(net::Technology::bluetooth).link_bytes - bt_before;
    return result;
  }
};

}  // namespace

int main() {
  std::printf("Trusted file transfer: single-shot vs 32 kB chunks (seconds)\n\n");
  std::printf("%-12s %12s %14s %14s\n", "size", "technology", "single-shot",
              "chunked");
  for (std::size_t kb : {64, 256, 1024}) {
    {
      World world({net::bluetooth_2_0()});
      const double single = world.transfer_seconds(kb * 1024, 0, false).seconds;
      const double chunked =
          world.transfer_seconds(kb * 1024, 32'768, false).seconds;
      std::printf("%7zu kB   %12s %14.2f %14.2f\n", kb, "Bluetooth", single,
                  chunked);
    }
    {
      World world({net::wlan_80211b()});
      const double single = world.transfer_seconds(kb * 1024, 0, false).seconds;
      const double chunked =
          world.transfer_seconds(kb * 1024, 32'768, false).seconds;
      std::printf("%7zu kB   %12s %14.2f %14.2f\n", kb, "WLAN 802.11b", single,
                  chunked);
    }
  }

  std::printf("\nMid-transfer handover (dual radio, carrying WLAN link "
              "killed at t+0.4 s), 2 MB file:\n\n");
  std::printf("%-14s %12s %22s\n", "strategy", "time (s)",
              "bytes over fallback BT");
  net::TechProfile bt = net::bluetooth_2_0();
  bt.inquiry_detect_prob = 1.0;
  {
    World world({bt, net::wlan_80211b()});
    const auto single = world.transfer_seconds(2 * 1024 * 1024, 0, true);
    World world2({bt, net::wlan_80211b()});
    const auto chunked = world2.transfer_seconds(2 * 1024 * 1024, 32'768, true);
    std::printf("%-14s %12.2f %22llu\n", "single-shot", single.seconds,
                static_cast<unsigned long long>(single.fallback_bt_bytes));
    std::printf("%-14s %12.2f %22llu\n", "chunked", chunked.seconds,
                static_cast<unsigned long long>(chunked.fallback_bt_bytes));
    std::printf(
        "\nExpected shape: single-shot retransmits the ENTIRE payload over\n"
        "the slow fallback radio; chunking keeps every chunk delivered\n"
        "before the break, moving meaningfully fewer bytes over Bluetooth.\n"
        "Total time is similar at 32 kB chunks because per-chunk round\n"
        "trips on Bluetooth offset the saved bytes — bigger chunks shift\n"
        "the balance.\n");
  }
  return 0;
}
