#include "community/app.hpp"

#include "community/persistence.hpp"
#include "util/log.hpp"
#include "obs/prof.hpp"
#include "util/strings.hpp"

namespace ph::community {

CommunityApp::CommunityApp(peerhood::Stack& stack, AppConfig config)
    : stack_(stack),
      config_(std::move(config)),
      server_(stack.library(), store_, dictionary_) {
  // The thesis requires the server to run continuously on every PTD.
  if (auto started = server_.start(); !started) {
    PH_LOG(error, "app") << "server failed to start: "
                         << started.error().to_string();
  }
  obs::Registry& registry = stack_.transport().registry();
  registry_ = &registry;
  metric_prefix_ =
      "community.app.d" + std::to_string(stack_.daemon().self()) + ".";
  const std::string& prefix = metric_prefix_;
  c_peers_probed_ = &registry.counter(prefix + "peers_probed");
  c_probe_failures_ = &registry.counter(prefix + "probe_failures");
  c_peers_gone_ = &registry.counter(prefix + "peers_gone");
}

obs::Snapshot CommunityApp::stats() const {
  return registry_->snapshot(metric_prefix_);
}

CommunityApp::~CommunityApp() {
  if (monitor_ != 0) stack_.daemon().unmonitor(monitor_);
}

Result<Account*> CommunityApp::create_account(const std::string& member_id,
                                              const std::string& password) {
  return store_.create_account(member_id, password);
}

Result<void> CommunityApp::login(const std::string& member_id,
                                 const std::string& password) {
  auto account = store_.login(member_id, password);
  if (!account) return account.error();

  client_ = std::make_unique<CommunityClient>(stack_.library(), member_id,
                                              config_.client);
  groups_ = std::make_unique<GroupEngine>(
      member_id, dictionary_, &stack_.transport().registry(),
      "community.groups.d" + std::to_string(stack_.daemon().self()) + ".");
  groups_->set_trace(&stack_.transport().trace(), stack_.daemon().self(),
                     [this] { return stack_.transport().scheduler().now(); });
  groups_->set_local_interests((*account)->profile().interests);
  device_members_.clear();

  // Dynamic group discovery (Figure 5): react to neighbourhood changes.
  if (monitor_ != 0) stack_.daemon().unmonitor(monitor_);
  monitor_ = stack_.daemon().monitor_all(
      [this](const peerhood::NeighbourEvent& event) {
        if (event.kind == peerhood::NeighbourEvent::Kind::disappeared) {
          on_device_gone(event.device.id);
        } else {
          on_device_appeared(event.device);
        }
      });

  // Devices already known to the daemon won't re-announce; probe them now.
  for (const peerhood::DeviceInfo& info : stack_.daemon().devices()) {
    on_device_appeared(info);
  }
  ++refresh_generation_;
  schedule_refresh();
  publish_attributes();
  PH_LOG(info, "app") << stack_.name() << ": '" << member_id << "' logged in";
  return ok();
}

void CommunityApp::logout() {
  store_.logout();
  publish_attributes();  // clears the advertised member
  if (monitor_ != 0) {
    stack_.daemon().unmonitor(monitor_);
    monitor_ = 0;
  }
  ++refresh_generation_;  // orphan the refresh timer
  client_.reset();
  groups_.reset();
  device_members_.clear();
}

Result<void> CommunityApp::add_interest(const std::string& interest) {
  Account* account = store_.active();
  if (account == nullptr) return Error{Errc::auth_failed, "not logged in"};
  account->add_interest(interest);
  if (groups_) groups_->set_local_interests(account->profile().interests);
  publish_attributes();
  return ok();
}

Result<void> CommunityApp::remove_interest(const std::string& interest) {
  Account* account = store_.active();
  if (account == nullptr) return Error{Errc::auth_failed, "not logged in"};
  if (auto removed = account->remove_interest(interest); !removed) return removed;
  if (groups_) groups_->set_local_interests(account->profile().interests);
  publish_attributes();
  return ok();
}

Result<void> CommunityApp::add_trusted(const std::string& member) {
  Account* account = store_.active();
  if (account == nullptr) return Error{Errc::auth_failed, "not logged in"};
  account->add_trusted(member);
  return ok();
}

Result<void> CommunityApp::remove_trusted(const std::string& member) {
  Account* account = store_.active();
  if (account == nullptr) return Error{Errc::auth_failed, "not logged in"};
  return account->remove_trusted(member);
}

Result<void> CommunityApp::share_file(const std::string& name, Bytes content) {
  Account* account = store_.active();
  if (account == nullptr) return Error{Errc::auth_failed, "not logged in"};
  account->share_file(name, std::move(content));
  return ok();
}

Result<void> CommunityApp::unshare_file(const std::string& name) {
  Account* account = store_.active();
  if (account == nullptr) return Error{Errc::auth_failed, "not logged in"};
  return account->unshare_file(name);
}

Result<void> CommunityApp::teach_synonym(const std::string& a,
                                         const std::string& b) {
  dictionary_.teach(a, b);
  if (groups_) groups_->rebuild();
  return ok();
}

Result<void> CommunityApp::join_group(const std::string& interest) {
  if (!groups_) return Error{Errc::auth_failed, "not logged in"};
  groups_->manual_join(interest);
  return ok();
}

Result<void> CommunityApp::leave_group(const std::string& interest) {
  if (!groups_) return Error{Errc::auth_failed, "not logged in"};
  return groups_->manual_leave(interest);
}

void CommunityApp::send_message(const std::string& receiver,
                                const std::string& subject,
                                const std::string& body,
                                std::function<void(Result<void>)> done) {
  if (!client_ || !logged_in()) {
    done(Error{Errc::auth_failed, "not logged in"});
    return;
  }
  const std::string sender = client_->self_member();
  client_->send_message(
      receiver, subject, body,
      [this, receiver, sender, subject, body,
       done = std::move(done)](Result<void> result) {
        if (result && logged_in() && active()->member_id() == sender) {
          active()->record_sent(
              {receiver, sender, subject, body,
               stack_.daemon().scheduler().now()});
        }
        done(std::move(result));
      });
}

Result<void> CommunityApp::save_accounts(const std::string& path) const {
  return save_to_file(store_, path);
}

Result<void> CommunityApp::load_accounts(const std::string& path) {
  auto loaded = load_from_file(path);
  if (!loaded) return loaded.error();
  logout();
  store_ = std::move(*loaded);
  return ok();
}

std::string CommunityApp::member_on(peerhood::DeviceId device) const {
  auto it = device_members_.find(device);
  return it == device_members_.end() ? std::string{} : it->second;
}

void CommunityApp::on_device_appeared(const peerhood::DeviceInfo& info) {
  if (!logged_in()) return;
  const peerhood::ServiceInfo* service =
      info.find_service(kServiceName);
  if (service == nullptr) return;
  if (config_.advertise_interests) {
    // Fast path: the neighbour publishes member + interests as service
    // attributes — no probe RPCs needed.
    auto member = service->attributes.find("member");
    auto interests = service->attributes.find("interests");
    if (member != service->attributes.end() && !member->second.empty() &&
        interests != service->attributes.end()) {
      record_peer(info.id, member->second, split(interests->second, ';'));
      return;
    }
    // The neighbour runs the thesis' plain mode; fall through to probing.
  }
  probe_peer(info.id);
}

void CommunityApp::record_peer(peerhood::DeviceId device,
                               const std::string& member,
                               const std::vector<std::string>& interests) {
  if (!logged_in() || !groups_) return;
  auto previous = device_members_.find(device);
  if (previous != device_members_.end() && previous->second != member) {
    groups_->remove_peer(previous->second);
    if (client_) client_->invalidate_member(previous->second);
  }
  device_members_[device] = member;
  groups_->on_peer(member, interests);
}

void CommunityApp::publish_attributes() {
  if (!config_.advertise_interests || !server_.running()) return;
  std::map<std::string, std::string> attributes = {{"type", "social"},
                                                   {"version", "0.2"}};
  if (const Account* account = store_.active()) {
    attributes["member"] = account->member_id();
    attributes["interests"] = join(account->profile().interests, ";");
  }
  (void)stack_.daemon().update_service_attributes(std::string(kServiceName),
                                                  std::move(attributes));
}

void CommunityApp::on_device_gone(peerhood::DeviceId id) {
  auto it = device_members_.find(id);
  if (it != device_members_.end()) {
    c_peers_gone_->inc();
    PH_LOG(info, "app") << stack_.name() << ": peer '" << it->second
                        << "' left the neighbourhood";
    if (groups_) groups_->remove_peer(it->second);
    device_members_.erase(it);
  }
  if (client_) client_->invalidate_device(id);
}

void CommunityApp::probe_peer(peerhood::DeviceId device) {
  if (!client_) return;
  c_peers_probed_->inc();
  // Two requests on the neighbour: who is logged in, and what are their
  // interests (Figure 6's "get nearby devices' interests" step).
  client_->call(
      device, proto::Request{proto::Opcode::ps_get_online_member_list,
                             client_->self_member(), "", "", {}},
      [this, device](Result<proto::Response> members) {
        if (!members || members->names.empty()) {
          if (!members) c_probe_failures_->inc();
          return;
        }
        const std::string member = members->names.front();
        client_->call(
            device,
            proto::Request{proto::Opcode::ps_get_interest_list,
                           client_->self_member(), "", "", {}},
            [this, device, member](Result<proto::Response> interests) {
              if (!interests) {
                c_probe_failures_->inc();
                return;
              }
              // The device may have switched to another profile since the
              // last probe; record_peer evicts the old identity.
              record_peer(device, member, interests->names);
            });
      });
}

void CommunityApp::schedule_refresh() {
  if (config_.peer_refresh_interval == 0) return;
  const std::uint64_t generation = refresh_generation_;
  std::weak_ptr<char> alive = alive_token_;
  const obs::prof::TagScope tag(obs::prof::Center::community_rpc);
  stack_.daemon().scheduler().schedule(
      config_.peer_refresh_interval, [this, generation, alive] {
        if (alive.expired()) return;
        if (generation != refresh_generation_ || !logged_in()) return;
        // Walk the daemon's full neighbourhood, not just already-probed
        // peers: a device whose initial probe failed (radio busy, frame
        // loss) gets another chance every refresh.
        for (const peerhood::DeviceInfo& info : stack_.daemon().devices()) {
          on_device_appeared(info);
        }
        schedule_refresh();
      });
}

}  // namespace ph::community
