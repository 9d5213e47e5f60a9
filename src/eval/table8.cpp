#include "net/medium.hpp"
#include "sim/simulator.hpp"
#include "eval/table8.hpp"

#include <memory>

#include "util/check.hpp"

#include "community/app.hpp"
#include "eval/scenarios.hpp"
#include "obs/critical_path.hpp"
#include "obs/export.hpp"
#include "sns/browser.hpp"
#include "sns/server.hpp"

namespace ph::eval {

namespace {

/// Records the four task times into `eval.table8.<column>.*_s` operation
/// histograms and folds the run's world registry into the caller's
/// aggregate. Called just before the local Medium dies. Also the
/// PH_TRACE_JSON hook: the run's span tree is exported here, while the
/// world still exists (with several runs the last column written wins —
/// point PH_TRACE_JSON at a single-seed run to inspect one tree).
void publish_cell(obs::Registry* metrics, const std::string& column,
                  const Table8Cell& cell, const net::Medium& medium) {
  obs::dump_trace_if_requested(medium.trace(), medium.trace_device_names());
  if (metrics == nullptr) return;
  const std::string prefix = "eval.table8." + column + ".";
  const std::vector<double> bounds = obs::operation_bounds_s();
  metrics->histogram(prefix + "search_s", bounds).observe(cell.search_s);
  metrics->histogram(prefix + "join_s", bounds).observe(cell.join_s);
  metrics->histogram(prefix + "member_list_s", bounds)
      .observe(cell.member_list_s);
  metrics->histogram(prefix + "profile_s", bounds).observe(cell.profile_s);
  metrics->merge_from(medium.registry());
}

/// Critical-path attribution of one task window [start, end) of the run's
/// trace, published as `eval.critical_path.<column>.<op>.<phase>_s`
/// histograms — mean phase seconds across seeds fall out of the aggregate
/// (sum/count). The sweep runs only when there is a registry to publish
/// into.
void publish_attribution(obs::Registry* metrics, const std::string& column,
                         const std::string& op, const obs::Trace& trace,
                         sim::Time start, sim::Time end) {
  if (metrics == nullptr) return;
  const obs::Attribution attribution =
      obs::attribute_window(trace, start, end);
  const std::vector<double> bounds = obs::operation_bounds_s();
  for (std::size_t i = 0; i < obs::kPhaseCount; ++i) {
    const auto phase = static_cast<obs::Phase>(i);
    metrics
        ->histogram("eval.critical_path." + column + "." + op + "." +
                        obs::to_string(phase) + "_s",
                    bounds)
        .observe(static_cast<double>(attribution.phase_us[i]) / 1e6);
  }
}

/// Records the run's causal span tree only when something reads it: the
/// critical-path attribution (a registry) or PH_TRACE_JSON. Tracing never
/// touches virtual time, and span ids ride in fixed-width wire fields, so
/// the measured cells are the same either way.
void trace_if_read(net::Medium& medium, const obs::Registry* metrics) {
  medium.trace().set_enabled(metrics != nullptr ||
                             obs::trace_dump_requested());
}

}  // namespace

Table8Cell run_sns_column(const sns::SiteProfile& site,
                          const sns::DeviceClass& device, std::uint64_t seed,
                          obs::Registry* metrics) {
  sim::Simulator simulator;
  net::Medium medium(simulator, sim::Rng(seed));
  trace_if_read(medium, metrics);
  sns::SnsServer server(medium, site);
  // The global site already hosts the group and its members (they joined
  // from desktops around the world; our user merely finds them).
  server.add_group("England Football");
  server.add_member("England Football", "dave");
  server.add_member("England Football", "emma");
  server.add_profile("dave", "Football fan");

  sns::BrowserClient browser(medium, device, server.node(), "tester");
  Table8Cell cell;
  cell.network_type = "SNS (" + site.name + ")";
  cell.accessed_through = device.name;

  auto run_task = [&](const std::string& op, auto&& start,
                      double& out_seconds) {
    bool done = false;
    sim::Duration elapsed = 0;
    const sim::Time window_start = simulator.now();
    // The whole task runs under one eval span, so everything the browser
    // and server do — on both tracks — hangs off it as one connected tree.
    const obs::SpanId task_span = medium.trace().begin_span(
        "eval.table8." + op, window_start, browser.node(), "operation");
    obs::Trace::Scope task_scope(medium.trace(), task_span);
    start([&](Result<sns::BrowserClient::TaskResult> result) {
      PH_CHECK(result.ok());
      elapsed = result->elapsed;
      done = true;
    });
    while (!done) simulator.run_for(sim::seconds(1));
    medium.trace().end_span(task_span, simulator.now());
    out_seconds = sim::to_seconds(elapsed);
    publish_attribution(metrics, "sns", op, medium.trace(), window_start,
                        simulator.now());
  };

  run_task("search",
           [&](auto cb) { browser.search_group("football", std::move(cb)); },
           cell.search_s);
  run_task("join",
           [&](auto cb) { browser.join_group("England Football", std::move(cb)); },
           cell.join_s);
  run_task(
      "member_list",
      [&](auto cb) { browser.view_member_list("England Football", std::move(cb)); },
      cell.member_list_s);
  run_task("profile",
           [&](auto cb) { browser.view_profile("dave", std::move(cb)); },
           cell.profile_s);
  cell.paid_bytes = medium.traffic(net::Technology::gprs).total_bytes();
  cell.free_bytes = medium.traffic(net::Technology::bluetooth).total_bytes() +
                    medium.traffic(net::Technology::wlan).total_bytes();
  publish_cell(metrics, "sns", cell, medium);
  return cell;
}

Table8Cell run_peerhood_column(std::uint64_t seed, PeerHoodUserModel user,
                               obs::Registry* metrics) {
  sim::Simulator simulator;
  net::Medium medium(simulator, sim::Rng(seed));
  trace_if_read(medium, metrics);

  // The thesis' test environment: the measuring laptop plus two PCs in
  // room 6604, all within Bluetooth range, all running PeerHood Community
  // (Tables 4/5, Appendix 1).
  std::vector<ScenarioDevice> devices =
      comlab_room(medium, /*autostart=*/false);
  ScenarioDevice& self = devices[0];  // "tester"
  const net::NodeId self_node = self.stack->daemon().self();
  // All daemons start together at t=0 — the cold-start the search task
  // measures.
  for (ScenarioDevice& device : devices) (void)device.stack->daemon().start();

  Table8Cell cell;
  cell.network_type = "Social Networking on top of PeerHood";
  cell.accessed_through = "simulated ComLab testbed";

  // Task 1 — "search an interest group": from a cold start until dynamic
  // group discovery has formed the Football group. Dominated by the
  // Bluetooth inquiry scan (10.24 s) plus service discovery and probing;
  // the thesis measured 11 s.
  const sim::Time started = simulator.now();
  {
    const obs::SpanId task_span = medium.trace().begin_span(
        "eval.table8.search", started, self_node, "operation");
    obs::Trace::Scope task_scope(medium.trace(), task_span);
    while (true) {
      auto group = self.app->groups().group("football");
      if (group.ok() && group->formed()) break;
      simulator.run_for(sim::milliseconds(250));
      PH_CHECK_MSG(simulator.now() < sim::minutes(5),
                   "discovery never completed");
    }
    medium.trace().end_span(task_span, simulator.now());
    publish_attribution(metrics, "peerhood", "search", medium.trace(),
                        started, simulator.now());
  }
  cell.search_s = sim::to_seconds(simulator.now() - started);

  // Task 2 — join: dynamic group discovery already placed the user in the
  // group ("0 Seconds (Already in the Group)").
  {
    auto group = self.app->groups().group("football");
    PH_CHECK(group.ok() && group->members.contains("tester"));
    cell.join_s = 0.0;
    // Zero-width window: the all-zero attribution keeps the four-op
    // table rectangular.
    publish_attribution(metrics, "peerhood", "join", medium.trace(),
                        simulator.now(), simulator.now());
  }

  // Task 3 — view the member list: menu navigation plus the fan-out
  // PS_GETONLINEMEMBERLIST exchange of Figure 11.
  {
    const sim::Time task_start = simulator.now();
    const obs::SpanId task_span = medium.trace().begin_span(
        "eval.table8.member_list", task_start, self_node, "operation");
    obs::Trace::Scope task_scope(medium.trace(), task_span);
    simulator.run_for(user.member_list_navigation);
    bool done = false;
    self.app->client().get_online_members(
        [&](Result<std::vector<std::string>> members) {
          PH_CHECK(members.ok() && members->size() == 2);
          done = true;
        });
    while (!done) simulator.run_for(sim::milliseconds(100));
    medium.trace().end_span(task_span, simulator.now());
    publish_attribution(metrics, "peerhood", "member_list", medium.trace(),
                        task_start, simulator.now());
    cell.member_list_s = sim::to_seconds(simulator.now() - task_start);
  }

  // Task 4 — view one member's profile: pick a member, then the Figure 13
  // PS_GETPROFILE fan-out.
  {
    const sim::Time task_start = simulator.now();
    const obs::SpanId task_span = medium.trace().begin_span(
        "eval.table8.profile", task_start, self_node, "operation");
    obs::Trace::Scope task_scope(medium.trace(), task_span);
    simulator.run_for(user.profile_navigation);
    bool done = false;
    self.app->client().view_profile(
        "dave", [&](Result<proto::ProfileData> profile) {
          PH_CHECK(profile.ok() && profile->member_id == "dave");
          done = true;
        });
    while (!done) simulator.run_for(sim::milliseconds(100));
    medium.trace().end_span(task_span, simulator.now());
    publish_attribution(metrics, "peerhood", "profile", medium.trace(),
                        task_start, simulator.now());
    cell.profile_s = sim::to_seconds(simulator.now() - task_start);
  }
  cell.paid_bytes = medium.traffic(net::Technology::gprs).total_bytes();
  cell.free_bytes = medium.traffic(net::Technology::bluetooth).total_bytes() +
                    medium.traffic(net::Technology::wlan).total_bytes();
  publish_cell(metrics, "peerhood", cell, medium);
  return cell;
}

}  // namespace ph::eval
