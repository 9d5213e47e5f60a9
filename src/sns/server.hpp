// SnsServer — the centralized social networking site of the baseline.
//
// §3.2 of the thesis: "SNS needs a centralized server and a centralized
// database system. Users' registration and all other essential information
// are stored in the centralized database and users access the centralized
// server through a web page." This class is that server: one node in the
// simulated world, reached over the GPRS gateway, holding the global group
// and profile database and serving weight-accurate pages.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "net/medium.hpp"
#include "obs/metrics.hpp"
#include "sns/protocol.hpp"
#include "sns/types.hpp"

namespace ph::sns {

/// HTTP-ish well-known port of the SNS front end.
inline constexpr net::Port kSnsPort = 80;

class SnsServer {
 public:
  /// Snapshot of the registry's `sns.server.d<node>.*` counters; the
  /// medium's per-world registry is the source of truth.
  /// Creates the server's node (static, position irrelevant: GPRS routes
  /// through the gateway) and starts listening.
  SnsServer(net::Medium& medium, SiteProfile site);

  net::NodeId node() const noexcept { return node_; }
  const SiteProfile& site() const noexcept { return site_; }

  // --- database ------------------------------------------------------------
  void add_group(const std::string& name);
  void add_member(const std::string& group, const std::string& member);
  void add_profile(const std::string& member, const std::string& about);
  std::vector<std::string> members_of(const std::string& group) const;
  bool has_group(const std::string& name) const { return groups_.contains(name); }
  /// Messages delivered to `member` ("sender: body" entries).
  std::vector<std::string> inbox_of(const std::string& member) const;
  /// Comments posted on `member`'s profile ("author: text" entries).
  std::vector<std::string> comments_on(const std::string& member) const;

  /// Pure page dispatch (unit-testable): the response for one request.
  PageResponse handle(const PageRequest& request);

  /// Typed view of the registry's `sns.server.d<node>.*` counters
  /// (`pages_served`, `bytes_served`, `joins`).
  obs::Snapshot stats() const;

 private:
  void on_accept(transport::Channel link);

  net::Medium& medium_;
  SiteProfile site_;
  net::NodeId node_ = net::kInvalidNode;
  std::map<std::string, std::set<std::string>> groups_;
  std::map<std::string, std::string> profiles_;
  std::map<std::string, std::vector<std::string>> inboxes_;
  std::map<std::string, std::vector<std::string>> comments_;
  /// Send buffer reused for every response: pages are encoded into it when
  /// they are sent, and the link copies the bytes out synchronously.
  proto::Writer send_buf_;
  // Registry handles (`sns.server.d<node>.*`) into the medium's registry.
  std::string metric_prefix_;
  obs::Counter* c_pages_served_ = nullptr;
  obs::Counter* c_bytes_served_ = nullptr;
  obs::Counter* c_joins_ = nullptr;
};

}  // namespace ph::sns
