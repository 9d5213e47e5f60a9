#include "net/medium.hpp"
#include "sns/server.hpp"

#include <memory>

#include "util/log.hpp"
#include "obs/prof.hpp"
#include "util/strings.hpp"

namespace ph::sns {

namespace {

/// Page filler size for a site's base page weight and a device's variant.
std::uint32_t filler_bytes(std::uint64_t base_bytes,
                           std::uint32_t weight_permille) {
  return static_cast<std::uint32_t>(base_bytes * weight_permille / 1000);
}

}  // namespace

SnsServer::SnsServer(net::Medium& medium, SiteProfile site)
    : medium_(medium), site_(std::move(site)) {
  node_ = medium_.add_node(
      site_.name + "-datacenter",
      std::make_unique<sim::StaticMobility>(sim::Vec2{0.0, 0.0}));
  net::Adapter& adapter = medium_.add_adapter(node_, net::gprs());
  adapter.listen(kSnsPort,
                 [this](transport::Channel link) { on_accept(link); });
  metric_prefix_ = "sns.server.d" + std::to_string(node_) + ".";
  const std::string& prefix = metric_prefix_;
  c_pages_served_ = &medium_.registry().counter(prefix + "pages_served");
  c_bytes_served_ = &medium_.registry().counter(prefix + "bytes_served");
  c_joins_ = &medium_.registry().counter(prefix + "joins");
}

obs::Snapshot SnsServer::stats() const {
  return medium_.registry().snapshot(metric_prefix_);
}

void SnsServer::add_group(const std::string& name) { groups_[name]; }

void SnsServer::add_member(const std::string& group, const std::string& member) {
  groups_[group].insert(member);
}

void SnsServer::add_profile(const std::string& member, const std::string& about) {
  profiles_[member] = about;
}

std::vector<std::string> SnsServer::members_of(const std::string& group) const {
  auto it = groups_.find(group);
  if (it == groups_.end()) return {};
  return {it->second.begin(), it->second.end()};
}

std::vector<std::string> SnsServer::inbox_of(const std::string& member) const {
  auto it = inboxes_.find(member);
  return it == inboxes_.end() ? std::vector<std::string>{} : it->second;
}

std::vector<std::string> SnsServer::comments_on(const std::string& member) const {
  auto it = comments_.find(member);
  return it == comments_.end() ? std::vector<std::string>{} : it->second;
}

PageResponse SnsServer::handle(const PageRequest& request) {
  c_pages_served_->inc();
  medium_.trace().add_event("sns.page", medium_.simulator().now(), node_,
                            std::string(to_string(request.kind)));
  PageResponse response;
  response.kind = request.kind;
  switch (request.kind) {
    case PageKind::home:
      response.body_bytes =
          filler_bytes(site_.home_page_bytes, request.weight_permille);
      break;
    case PageKind::search: {
      // Case-insensitive substring search over group names.
      const std::string needle = to_lower(request.query);
      for (const auto& [name, members] : groups_) {
        (void)members;
        if (to_lower(name).find(needle) != std::string::npos) {
          response.names.push_back(name);
        }
      }
      if (response.names.empty()) response.status = PageStatus::not_found;
      response.body_bytes =
          filler_bytes(site_.search_page_bytes, request.weight_permille);
      break;
    }
    case PageKind::group: {
      if (!groups_.contains(request.query)) {
        response.status = PageStatus::not_found;
      }
      response.body_bytes =
          filler_bytes(site_.group_page_bytes, request.weight_permille);
      break;
    }
    case PageKind::join: {
      auto it = groups_.find(request.query);
      if (it == groups_.end() || request.member.empty()) {
        response.status = PageStatus::not_found;
      } else {
        it->second.insert(request.member);
        c_joins_->inc();
      }
      response.body_bytes =
          filler_bytes(site_.confirm_page_bytes, request.weight_permille);
      break;
    }
    case PageKind::member_list: {
      auto it = groups_.find(request.query);
      if (it == groups_.end()) {
        response.status = PageStatus::not_found;
      } else {
        response.names.assign(it->second.begin(), it->second.end());
      }
      response.body_bytes =
          filler_bytes(site_.member_list_page_bytes, request.weight_permille);
      break;
    }
    case PageKind::profile: {
      auto it = profiles_.find(request.query);
      if (it == profiles_.end()) {
        response.status = PageStatus::not_found;
      } else {
        response.names.push_back(it->second);
        // Profile pages show their comments too.
        auto comments = comments_.find(request.query);
        if (comments != comments_.end()) {
          response.names.insert(response.names.end(), comments->second.begin(),
                                comments->second.end());
        }
      }
      response.body_bytes =
          filler_bytes(site_.profile_page_bytes, request.weight_permille);
      break;
    }
    case PageKind::compose: {
      response.body_bytes =
          filler_bytes(site_.compose_page_bytes, request.weight_permille);
      break;
    }
    case PageKind::send_message: {
      if (request.query.empty() || !profiles_.contains(request.query)) {
        response.status = PageStatus::not_found;
      } else {
        inboxes_[request.query].push_back(request.member + ": " + request.text);
      }
      response.body_bytes =
          filler_bytes(site_.confirm_page_bytes, request.weight_permille);
      break;
    }
    case PageKind::post_comment: {
      if (request.query.empty() || !profiles_.contains(request.query)) {
        response.status = PageStatus::not_found;
      } else {
        comments_[request.query].push_back(request.member + ": " + request.text);
      }
      response.body_bytes =
          filler_bytes(site_.confirm_page_bytes, request.weight_permille);
      break;
    }
    case PageKind::inbox: {
      auto it = inboxes_.find(request.member);
      if (it != inboxes_.end()) response.names = it->second;
      response.body_bytes =
          filler_bytes(site_.inbox_page_bytes, request.weight_permille);
      break;
    }
  }
  c_bytes_served_->inc(response.body_bytes);
  return response;
}

void SnsServer::on_accept(transport::Channel link) {
  auto holder = std::make_shared<transport::Channel>(link);
  link.on_receive([this, holder](BytesView data) {
    auto request = decode_page_request(data);
    if (!request) {
      PH_LOG(warn, "sns") << site_.name << ": bad page request";
      return;
    }
    // Server-side processing time before the page starts downloading.
    PageResponse response = handle(*request);
    const obs::prof::TagScope tag(obs::prof::Center::sns_task);
    medium_.simulator().schedule(
        site_.server_processing,
        [this, holder, response = std::move(response)] {
          if (!holder->open()) return;
          send_buf_.clear();
          encode(response, send_buf_);
          holder->send(send_buf_.data());
        });
  });
  link.on_break([holder] {});  // keepalive ends with the browser's task
}

}  // namespace ph::sns
