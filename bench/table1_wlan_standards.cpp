// Table 1 — WLAN standards and their data rates.
//
// The thesis quotes nominal rates (802.11 = 2 Mbps, a = 54, b = 11,
// g = 54). This bench measures the *achieved goodput* of a 4 MB bulk
// transfer between two devices over each simulated standard (and Bluetooth
// and GPRS for context). Ordering and ratios must match the table; achieved
// goodput sits slightly below nominal because of per-message latency and
// retransmissions.
#include <cstdio>
#include <memory>
#include <vector>

#include "sim/simulator.hpp"
#include "net/medium.hpp"
#include "util/check.hpp"

namespace {

/// Transfers `total_bytes` in chunks over one link; returns goodput (bps).
double measure_goodput(const ph::net::TechProfile& profile,
                       std::size_t total_bytes, std::uint64_t seed) {
  ph::sim::Simulator simulator;
  ph::net::Medium medium(simulator, ph::sim::Rng(seed));
  auto a = medium.add_node("sender", std::make_unique<ph::sim::StaticMobility>(
                                         ph::sim::Vec2{0, 0}));
  auto b = medium.add_node("receiver", std::make_unique<ph::sim::StaticMobility>(
                                           ph::sim::Vec2{3, 0}));
  ph::net::Adapter& tx = medium.add_adapter(a, profile);
  ph::net::Adapter& rx = medium.add_adapter(b, profile);

  std::size_t received = 0;
  rx.listen(5, [&](ph::transport::Channel link) {
    auto held = std::make_shared<ph::transport::Channel>(link);
    held->on_receive([&received, held](ph::BytesView data) {
      received += data.size();
    });
  });
  ph::transport::Channel sender;
  tx.connect(b, 5, [&](ph::Result<ph::transport::Channel> link) {
    PH_CHECK(link.ok());
    sender = *link;
  });
  simulator.run_for(ph::sim::seconds(2));
  PH_CHECK(sender.valid());

  const ph::sim::Time start = simulator.now();
  constexpr std::size_t kChunk = 32'768;
  for (std::size_t offset = 0; offset < total_bytes; offset += kChunk) {
    sender.send(ph::Bytes(std::min(kChunk, total_bytes - offset), 0x55));
  }
  while (received < total_bytes) {
    simulator.run_for(ph::sim::seconds(1));
    PH_CHECK_MSG(simulator.now() - start < ph::sim::minutes(120),
                 "transfer stalled");
  }
  const double elapsed_s = ph::sim::to_seconds(simulator.now() - start);
  return static_cast<double>(total_bytes) * 8.0 / elapsed_s;
}

}  // namespace

int main() {
  constexpr std::size_t kTransfer = 4 * 1024 * 1024;
  struct Row {
    ph::net::TechProfile profile;
    double nominal_mbps;
  };
  const std::vector<Row> rows = {
      {ph::net::wlan_80211(), 2.0},   {ph::net::wlan_80211a(), 54.0},
      {ph::net::wlan_80211b(), 11.0}, {ph::net::wlan_80211g(), 54.0},
      {ph::net::bluetooth_2_0(), 0.723}, {ph::net::gprs(), 0.040},
  };

  std::printf("Table 1: WLAN standards — nominal data rate vs achieved goodput\n");
  std::printf("(%zu MB bulk transfer between two simulated devices)\n\n",
              kTransfer / (1024 * 1024));
  std::printf("%-16s %16s %18s %12s\n", "standard", "nominal (Mbps)",
              "goodput (Mbps)", "efficiency");
  for (const Row& row : rows) {
    // GPRS at 40 kbps needs a smaller transfer to finish in reasonable
    // virtual time.
    const std::size_t bytes =
        row.profile.bandwidth_bps < 1e6 ? kTransfer / 64 : kTransfer;
    const double goodput = measure_goodput(row.profile, bytes, 42);
    std::printf("%-16s %16.3f %18.3f %11.0f%%\n", row.profile.name.c_str(),
                row.nominal_mbps, goodput / 1e6,
                100.0 * goodput / row.profile.bandwidth_bps);
  }
  std::printf("\nExpected shape (thesis Table 1): 802.11a = 802.11g > 802.11b "
              "> 802.11 >> Bluetooth > GPRS.\n");
  return 0;
}
