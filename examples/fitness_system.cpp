// Fitness system — the third §4.4 companion application: "This application
// promotes physical exercise through encouragement and motivates the users
// by providing instant analyzed feedback of the exercise. As Fitness
// System is built on top of PeerHood, this application can be offered as a
// service in Bluetooth, WLAN and GPRS network."
//
// A heart-rate belt (a tiny PeerHood device) streams beat samples over a
// session to the runner's PTD, which runs the FitnessSystem service: it
// analyses the stream and sends instant feedback ("speed up", "good pace",
// "slow down") back to the belt's display. The session rides Bluetooth and
// survives the runner's arm swinging the belt out of range momentarily —
// seamless connectivity at work in a non-social application.
#include <cstdio>
#include <memory>

#include "net/medium.hpp"
#include "sim/simulator.hpp"
#include "peerhood/stack.hpp"
#include "util/check.hpp"

using namespace ph;

int main() {
  sim::Simulator simulator;
  net::Medium medium(simulator, sim::Rng(120));

  peerhood::StackConfig config;
  config.radios = {net::bluetooth_2_0()};
  config.device_name = "runner-ptd";
  peerhood::Stack ptd(medium,
                      std::make_unique<sim::StaticMobility>(sim::Vec2{0, 0}),
                      config);
  config.device_name = "hr-belt";
  peerhood::Stack belt(medium,
                       std::make_unique<sim::StaticMobility>(sim::Vec2{1, 0}),
                       config);

  // The PTD's fitness service: analyses samples, answers with feedback.
  int samples_received = 0;
  std::shared_ptr<peerhood::Connection> service_session;
  PH_CHECK(ptd.library()
               .register_service(
                   "FitnessSystem", {{"sport", "running"}},
                   [&](peerhood::Connection connection) {
                     service_session = std::make_shared<peerhood::Connection>(
                         std::move(connection));
                     service_session->on_message([&](BytesView sample) {
                       ++samples_received;
                       const int bpm = std::stoi(to_text(sample));
                       const char* feedback = bpm < 120   ? "speed up!"
                                              : bpm <= 165 ? "good pace"
                                                           : "slow down!";
                       service_session->send(to_bytes(feedback));
                     });
                   })
               .ok());

  // The belt finds the service and streams one sample per second for a
  // two-minute interval run: warm-up, push, cool-down.
  peerhood::Connection stream;
  int feedback_count = 0;
  std::string last_feedback;
  auto on_ptd = [&](const peerhood::NeighbourEvent& event) {
    if (event.kind == peerhood::NeighbourEvent::Kind::disappeared) return;
    const peerhood::DeviceInfo& info = event.device;
    if (info.find_service("FitnessSystem") == nullptr || stream.valid()) return;
    belt.library().connect(
        info.id, "FitnessSystem", {},
        [&](Result<peerhood::Connection> result) {
          PH_CHECK(result.ok());
          stream = *result;
          stream.on_message([&](BytesView feedback) {
            ++feedback_count;
            const std::string text = to_text(feedback);
            if (text != last_feedback) {
              std::printf("[t=%5.1fs] belt display: %s\n",
                          sim::to_seconds(simulator.now()), text.c_str());
              last_feedback = text;
            }
          });
          // Self-rescheduling tick; shared_ptr keeps the closure alive
          // across virtual time.
          auto second = std::make_shared<int>(0);
          auto beat = std::make_shared<std::function<void()>>();
          *beat = [&, second, beat] {
            if (!stream.open() || *second >= 120) return;
            // Warm-up 100->140, push to 180, cool back down.
            int bpm;
            if (*second < 40) {
              bpm = 100 + *second;
            } else if (*second < 80) {
              bpm = 140 + (*second - 40);
            } else {
              bpm = 180 - (*second - 80);
            }
            stream.send(to_bytes(std::to_string(bpm)));
            ++*second;
            simulator.schedule(sim::seconds(1), *beat);
          };
          (*beat)();
        });
  };
  belt.daemon().monitor_all(std::move(on_ptd));

  // 60 s in, the belt's radio drops for two seconds (sleeve over the
  // antenna); the seamless session resumes and no sample is lost.
  simulator.schedule(sim::seconds(60), [&] {
    std::printf("[t=%5.1fs] belt radio glitch...\n",
                sim::to_seconds(simulator.now()));
    PH_CHECK_MSG(belt.set_radio_powered(net::Technology::bluetooth, false).ok(),
                 "the belt's Bluetooth radio could not be switched off");
  });
  simulator.schedule(sim::seconds(62), [&] {
    PH_CHECK_MSG(belt.set_radio_powered(net::Technology::bluetooth, true).ok(),
                 "the belt's Bluetooth radio could not be switched back on");
  });

  simulator.run_until(sim::minutes(4));
  std::printf("[t=%5.1fs] workout done: %d samples analysed, %d feedback "
              "messages, %d handover(s)\n",
              sim::to_seconds(simulator.now()), samples_received,
              feedback_count, stream.handover_count());
  PH_CHECK(samples_received == 120);  // exactly-once across the glitch
  return 0;
}
