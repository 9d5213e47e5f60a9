#include "net/medium.hpp"
#include "sns/browser.hpp"

#include <memory>

#include "util/log.hpp"

namespace ph::sns {

struct BrowserClient::TaskState {
  transport::Channel link;
  std::vector<PageRequest> pages;
  std::size_t next = 0;
  sim::Time started = 0;
  std::vector<std::string> last_names;
  TaskCallback done;
  bool finished = false;
  /// The task's root trace span (`sns.task`); page fetches run under it.
  obs::SpanId span = 0;
};

BrowserClient::BrowserClient(net::Medium& medium, DeviceClass device,
                             net::NodeId server_node, std::string username)
    : medium_(medium),
      device_(std::move(device)),
      server_node_(server_node),
      username_(std::move(username)) {
  node_ = medium_.add_node(
      device_.name + ":" + username_,
      std::make_unique<sim::StaticMobility>(sim::Vec2{0.0, 0.0}));
  medium_.add_adapter(node_, net::gprs());
}

void BrowserClient::run_task(std::vector<PageRequest> pages,
                             sim::Duration pre_think, TaskCallback done) {
  auto state = std::make_shared<TaskState>();
  state->pages = std::move(pages);
  state->done = std::move(done);
  state->started = medium_.simulator().now();
  for (PageRequest& page : state->pages) {
    page.member = username_;
    page.weight_permille =
        static_cast<std::uint32_t>(device_.page_weight_factor * 1000.0);
  }

  // The whole task (connect, every page round-trip, rendering, think time)
  // runs under one `sns.task` span named after the final page — which is
  // what names the Table-8 operation.
  obs::Trace& trace = medium_.trace();
  state->span = trace.begin_span(
      "sns.task", state->started, node_,
      std::string(to_string(state->pages.back().kind)));
  obs::Trace::Scope task_scope(trace, state->span);

  net::Adapter* adapter = medium_.adapter(node_, net::Technology::gprs);
  adapter->connect(server_node_, kSnsPort,
                   [this, state, pre_think](Result<transport::Channel> link) {
    if (!link) {
      if (!state->finished) {
        state->finished = true;
        medium_.trace().end_span(state->span, medium_.simulator().now());
        state->done(link.error());
      }
      return;
    }
    state->link = *link;
    state->link.on_break([this, state] {
      if (state->finished) return;
      state->finished = true;
      medium_.trace().end_span(state->span, medium_.simulator().now());
      state->done(Error{Errc::connection_lost, "GPRS session dropped"});
    });
    state->link.on_receive([this, state](BytesView data) {
      if (state->finished) return;
      auto response = decode_page_response(data);
      if (!response) {
        state->finished = true;
        state->link.close();
        medium_.trace().end_span(state->span, medium_.simulator().now());
        state->done(response.error());
        return;
      }
      state->last_names = response->names;
      // Rendering the received page.
      const auto render = static_cast<sim::Duration>(
          device_.render_us_per_byte * static_cast<double>(data.size()));
      medium_.simulator().schedule(render, [this, state] {
        if (state->finished) return;
        if (state->next >= state->pages.size()) {
          state->finished = true;
          state->link.close();
          TaskResult result;
          result.elapsed = medium_.simulator().now() - state->started;
          result.names = std::move(state->last_names);
          medium_.trace().end_span(state->span, medium_.simulator().now());
          state->done(result);
          return;
        }
        // User navigates to the next page.
        medium_.simulator().schedule(device_.click_think, [this, state] {
          fetch_next(state);
        });
      });
    });
    // The user's pre-task interaction (e.g. typing the query) happens
    // while the home page is already on screen; model it up front.
    medium_.simulator().schedule(pre_think,
                                 [this, state] { fetch_next(state); });
  });
}

void BrowserClient::fetch_next(std::shared_ptr<TaskState> state) {
  if (state->finished || state->next >= state->pages.size()) return;
  const PageRequest& page = state->pages[state->next++];
  // Page sends run in the task's context so the uplink flight span (and the
  // server's page handling on the far device) parent under `sns.task`.
  obs::Trace::Scope task_scope(medium_.trace(), state->span);
  if (state->link.open()) state->link.send(encode(page));
}

void BrowserClient::search_group(const std::string& query, TaskCallback done) {
  // Home page, type the query, results page.
  std::vector<PageRequest> pages;
  pages.push_back({PageKind::home, "", "", "", 1000});
  pages.push_back({PageKind::search, query, "", "", 1000});
  run_task(std::move(pages), device_.typing, std::move(done));
}

void BrowserClient::join_group(const std::string& group, TaskCallback done) {
  std::vector<PageRequest> pages;
  pages.push_back({PageKind::group, group, "", "", 1000});
  pages.push_back({PageKind::join, group, "", "", 1000});
  run_task(std::move(pages), device_.click_think, std::move(done));
}

void BrowserClient::view_member_list(const std::string& group,
                                     TaskCallback done) {
  std::vector<PageRequest> pages;
  pages.push_back({PageKind::member_list, group, "", "", 1000});
  run_task(std::move(pages), device_.click_think, std::move(done));
}

void BrowserClient::view_profile(const std::string& member,
                                 TaskCallback done) {
  std::vector<PageRequest> pages;
  pages.push_back({PageKind::profile, member, "", "", 1000});
  run_task(std::move(pages), device_.click_think, std::move(done));
}

void BrowserClient::send_message(const std::string& receiver,
                                 const std::string& text, TaskCallback done) {
  std::vector<PageRequest> pages;
  pages.push_back({PageKind::compose, receiver, "", "", 1000});
  pages.push_back({PageKind::send_message, receiver, "", text, 1000});
  // Typing the message happens between the form and the POST; approximate
  // it with the typing think time up front (same modelling as search).
  run_task(std::move(pages), device_.typing, std::move(done));
}

void BrowserClient::post_comment(const std::string& member,
                                 const std::string& text, TaskCallback done) {
  std::vector<PageRequest> pages;
  pages.push_back({PageKind::profile, member, "", "", 1000});
  pages.push_back({PageKind::post_comment, member, "", text, 1000});
  run_task(std::move(pages), device_.typing, std::move(done));
}

void BrowserClient::read_inbox(TaskCallback done) {
  std::vector<PageRequest> pages;
  pages.push_back({PageKind::inbox, "", "", "", 1000});
  run_task(std::move(pages), device_.click_think, std::move(done));
}

}  // namespace ph::sns
