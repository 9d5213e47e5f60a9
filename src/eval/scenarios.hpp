// Named simulation scenarios encoding the thesis' test environments.
//
// Tables 4/5 + Appendix 1 describe the physical testbed: room 6604 at
// ComLab, two desktop PCs (AMD Athlon64 / Pentium III) and an IBM ThinkPad
// T40 with 3COM Bluetooth dongles, all running PeerHood v0.2 and the
// PeerHood Community application. comlab_room() builds the simulated
// equivalent: three PeerHood Community devices within mutual Bluetooth
// range, each with a logged-in member, used by the Table 8 runner and
// available to tests.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "community/app.hpp"

namespace ph::eval {

/// One assembled testbed device: the radio stack plus its community app.
struct ScenarioDevice {
  std::string member;
  std::unique_ptr<peerhood::Stack> stack;
  std::unique_ptr<community::CommunityApp> app;
};

/// Configuration of one testbed seat.
struct SeatSpec {
  std::string member;
  sim::Vec2 position;
  std::vector<std::string> interests;
};

/// Builds PeerHood Community devices on `transport`, one per seat, each
/// with a created + logged-in account. Daemons are left stopped when
/// `autostart` is false so a measurement can start them together at t=0.
std::vector<ScenarioDevice> build_seats(transport::Transport& transport,
                                        const std::vector<SeatSpec>& seats,
                                        const net::TechProfile& radio,
                                        bool autostart);

/// The thesis' ComLab room 6604 testbed (Tables 4/5, Appendix 1): the
/// measuring laptop ("tester") plus Desktop PC1 ("dave") and the second
/// machine ("emma"), a few metres apart, Bluetooth only, all interested in
/// Football — the interest group the thesis' Table 8 tasks exercise.
std::vector<ScenarioDevice> comlab_room(transport::Transport& transport,
                                        bool autostart = false);

}  // namespace ph::eval
