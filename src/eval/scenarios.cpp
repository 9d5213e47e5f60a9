#include "eval/scenarios.hpp"

#include "util/check.hpp"

namespace ph::eval {

std::vector<ScenarioDevice> build_seats(transport::Transport& transport,
                                        const std::vector<SeatSpec>& seats,
                                        const net::TechProfile& radio,
                                        bool autostart) {
  std::vector<ScenarioDevice> devices;
  devices.reserve(seats.size());
  for (const SeatSpec& seat : seats) {
    ScenarioDevice device;
    device.member = seat.member;
    peerhood::StackConfig config;
    config.device_name = seat.member + "-ptd";
    config.radios = {radio};
    config.autostart = autostart;
    device.stack = std::make_unique<peerhood::Stack>(
        transport, std::move(config),
        std::make_unique<sim::StaticMobility>(seat.position));
    device.app = std::make_unique<community::CommunityApp>(*device.stack);
    auto account = device.app->create_account(seat.member, "pw");
    PH_CHECK(account.ok());
    for (const std::string& interest : seat.interests) {
      (*account)->add_interest(interest);
    }
    PH_CHECK(device.app->login(seat.member, "pw").ok());
    devices.push_back(std::move(device));
  }
  return devices;
}

std::vector<ScenarioDevice> comlab_room(transport::Transport& transport,
                                        bool autostart) {
  // The thesis' testbed Bluetooth: 3COM class-2 dongles. Deterministic
  // detection keeps experiment columns reproducible; loss stays enabled on
  // the data path.
  net::TechProfile radio = net::bluetooth_2_0();
  radio.inquiry_detect_prob = 1.0;
  return build_seats(transport,
                     {
                         {"tester", {0.0, 0.0}, {"Football"}},
                         {"dave", {2.5, 0.0}, {"Football"}},
                         {"emma", {0.0, 2.5}, {"Football", "Movies"}},
                     },
                     radio, autostart);
}

}  // namespace ph::eval
