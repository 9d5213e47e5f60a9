// The Table 8 experiment runner — the thesis' headline evaluation.
//
// "Various tests were performed for searching an interest group through SNS
// and reference application and joining the searched group and viewing a
// members profile from the joined members list. The time for all the tasks
// was recorded and average time was calculated."
//
// Five columns: Facebook×{N810,N95}, HI5×{N810,N95}, and PeerHood Community
// on the ComLab testbed. Each column runs the same four tasks:
//
//   1. search for an interest group ("England Football" / "Football")
//   2. join that group
//   3. view the group's member list
//   4. view one member's profile
//
// SNS columns go through the browser model over simulated GPRS; the
// PeerHood column runs the real middleware over simulated Bluetooth. The
// thesis timed humans with a stopwatch, so both sides include the same
// explicit user-interaction model (typing, menu navigation); the network
// and middleware parts are produced mechanistically by the respective
// stacks. The structural claims this reproduces: group search on PeerHood
// costs one Bluetooth inquiry (~11 s) instead of multiple GPRS page loads;
// dynamic group discovery makes join time exactly zero; totals favour
// PeerHood by 2-4x.
#pragma once

#include <cstdint>
#include <string>

#include "obs/metrics.hpp"
#include "sns/types.hpp"

namespace ph::eval {

/// One column of Table 8 (seconds, like the thesis reports), plus the data
/// volumes behind the thesis' cost argument (§5.1/§5.2.6: "The cost of
/// data transfer ... is very less than using SNS in mobile devices, as our
/// approach uses Bluetooth, which enables cost free ... data transmission").
struct Table8Cell {
  std::string network_type;   ///< "SNS (Facebook)" / "Social Networking on top of PeerHood"
  std::string accessed_through;
  double search_s = 0;
  double join_s = 0;
  double member_list_s = 0;
  double profile_s = 0;
  /// Bytes over the metered cellular link (GPRS) during the whole column.
  std::uint64_t paid_bytes = 0;
  /// Bytes over free short-range radios (Bluetooth/WLAN).
  std::uint64_t free_bytes = 0;

  double total_s() const { return search_s + join_s + member_list_s + profile_s; }
};

/// User-interaction model for the PeerHood terminal UI (the thesis' client
/// is menu-driven; its stopwatch times include the human).
struct PeerHoodUserModel {
  /// Navigating to "View Members of Group" and selecting the group.
  sim::Duration member_list_navigation = sim::seconds(12);
  /// Scrolling the member list and picking one member.
  sim::Duration profile_navigation = sim::seconds(15);
};

/// Runs one SNS column: the four tasks through the browser model.
///
/// When `metrics` is non-null, the run's whole world registry (every
/// layer's counters) is merged into it, and the four task times are
/// recorded into `eval.table8.sns.{search,join,member_list,profile}_s`
/// operation histograms — run several seeds into one registry to get
/// p50/p95/p99 across runs.
///
/// The run records a span trace only when it is read: with `metrics` (the
/// `eval.critical_path.*` attribution) or with PH_TRACE_JSON set. The cell
/// is the same either way.
Table8Cell run_sns_column(const sns::SiteProfile& site,
                          const sns::DeviceClass& device, std::uint64_t seed,
                          obs::Registry* metrics = nullptr);

/// Runs the PeerHood column: a fresh Bluetooth neighbourhood (the thesis'
/// two-machine ComLab setup plus the measuring device), dynamic group
/// discovery and the fan-out member/profile operations.
///
/// `metrics` aggregates like run_sns_column, under
/// `eval.table8.peerhood.*`.
Table8Cell run_peerhood_column(std::uint64_t seed, PeerHoodUserModel user = {},
                               obs::Registry* metrics = nullptr);

}  // namespace ph::eval
