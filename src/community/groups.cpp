#include "community/groups.hpp"

#include <algorithm>

#include "util/log.hpp"

namespace ph::community {

GroupEngine::GroupEngine(std::string local_member,
                         const SemanticDictionary& dictionary,
                         obs::Registry* registry, std::string metric_prefix)
    : local_member_(std::move(local_member)), dictionary_(dictionary) {
  if (registry == nullptr) {
    own_registry_ = std::make_unique<obs::Registry>();
    registry = own_registry_.get();
  }
  registry_ = registry;
  metric_prefix_ = metric_prefix;
  c_comparisons_ = &registry->counter(metric_prefix + "comparisons");
  c_groups_formed_ = &registry->counter(metric_prefix + "groups_formed");
  c_groups_dissolved_ = &registry->counter(metric_prefix + "groups_dissolved");
  c_member_joins_ = &registry->counter(metric_prefix + "member_joins");
  c_member_leaves_ = &registry->counter(metric_prefix + "member_leaves");
  g_formed_groups_ = &registry->gauge(metric_prefix + "formed_groups");
}

void GroupEngine::refresh_formed_gauge() {
  double formed = 0;
  for (const auto& [interest, group] : groups_) {
    if (group.formed()) ++formed;
  }
  g_formed_groups_->set(formed);
}

obs::Snapshot GroupEngine::stats() const {
  return registry_->snapshot(metric_prefix_);
}

void GroupEngine::trace_event(const char* name, const std::string& interest) {
  if (trace_ == nullptr || !trace_clock_) return;
  trace_->add_event(name, trace_clock_(), trace_device_, interest);
}

std::set<std::string> GroupEngine::canonicalize(
    const std::vector<std::string>& raw, Group*) {
  std::set<std::string> out;
  for (const std::string& label : raw) {
    std::string canonical = dictionary_.canonical(label);
    if (!canonical.empty()) out.insert(std::move(canonical));
  }
  return out;
}

void GroupEngine::ensure_groups_for_local() {
  // Tracked groups: the local user's canonical interests plus manual joins.
  std::set<std::string> tracked = canonicalize(local_raw_);
  for (const std::string& manual : manual_) {
    tracked.insert(dictionary_.canonical(manual));
  }
  // Create missing groups.
  for (const std::string& interest : tracked) {
    Group& group = groups_[interest];
    group.interest = interest;
    group.members.insert(local_member_);
    for (const std::string& label : local_raw_) {
      if (dictionary_.canonical(label) == interest) group.labels.insert(label);
    }
    if (group.labels.empty()) group.labels.insert(interest);
  }
  // Drop groups that are no longer tracked.
  for (auto it = groups_.begin(); it != groups_.end();) {
    if (tracked.contains(it->first)) {
      ++it;
      continue;
    }
    const bool was_formed = it->second.formed();
    const std::string interest = it->first;
    it = groups_.erase(it);
    if (was_formed) {
      c_groups_dissolved_->inc();
      trace_event("community.group.dissolved", interest);
      if (callbacks_.on_group_dissolved) callbacks_.on_group_dissolved(interest);
    }
  }
}

void GroupEngine::add_member(Group& group, const std::string& member) {
  if (!group.members.insert(member).second) return;
  c_member_joins_->inc();
  if (callbacks_.on_member_joined) {
    callbacks_.on_member_joined(group.interest, member);
  }
  if (group.members.size() == 2) {  // local + first remote: group forms
    c_groups_formed_->inc();
    trace_event("community.group.formed", group.interest);
    PH_LOG(info, "groups") << local_member_ << ": group '" << group.interest
                           << "' formed";
    if (callbacks_.on_group_formed) callbacks_.on_group_formed(group);
  }
}

void GroupEngine::drop_member(Group& group, const std::string& member) {
  const bool was_formed = group.formed();
  if (group.members.erase(member) == 0) return;
  c_member_leaves_->inc();
  if (callbacks_.on_member_left) {
    callbacks_.on_member_left(group.interest, member);
  }
  if (was_formed && !group.formed()) {
    c_groups_dissolved_->inc();
    trace_event("community.group.dissolved", group.interest);
    PH_LOG(info, "groups") << local_member_ << ": group '" << group.interest
                           << "' dissolved";
    if (callbacks_.on_group_dissolved) callbacks_.on_group_dissolved(group.interest);
  }
}

void GroupEngine::match_peer_against_groups(const std::string& member,
                                            PeerRecord& record) {
  for (auto& [interest, group] : groups_) {
    // One comparison per (local interest, peer interest) pair — the inner
    // loops of Figure 6.
    c_comparisons_->inc(record.raw_interests.size());
    const bool matches = record.canonical.contains(interest);
    if (matches) {
      add_member(group, member);
      for (const std::string& label : record.raw_interests) {
        if (dictionary_.canonical(label) == interest) group.labels.insert(label);
      }
    } else {
      drop_member(group, member);
    }
  }
}

void GroupEngine::set_local_interests(const std::vector<std::string>& interests) {
  local_raw_ = interests;
  ensure_groups_for_local();
  for (auto& [member, record] : peers_) {
    match_peer_against_groups(member, record);
  }
  refresh_formed_gauge();
}

void GroupEngine::on_peer(const std::string& member,
                          const std::vector<std::string>& interests) {
  if (member == local_member_) return;
  PeerRecord& record = peers_[member];
  // A refresh usually reports the same list; the canonical set is already
  // current for it (rebuild() recanonicalizes when the dictionary learns).
  if (record.raw_interests != interests) {
    record.raw_interests = interests;
    record.canonical = canonicalize(record.raw_interests);
  }
  match_peer_against_groups(member, record);
  refresh_formed_gauge();
}

void GroupEngine::remove_peer(const std::string& member) {
  if (peers_.erase(member) == 0) return;
  for (auto& [interest, group] : groups_) {
    (void)interest;
    drop_member(group, member);
  }
  refresh_formed_gauge();
}

void GroupEngine::manual_join(std::string_view interest) {
  const std::string canonical = dictionary_.canonical(interest);
  if (canonical.empty()) return;
  manual_.insert(canonical);
  ensure_groups_for_local();
  auto it = groups_.find(canonical);
  if (it == groups_.end()) return;
  it->second.labels.insert(std::string(interest));
  for (auto& [member, record] : peers_) {
    c_comparisons_->inc(record.raw_interests.size());
    if (record.canonical.contains(canonical)) add_member(it->second, member);
  }
  refresh_formed_gauge();
}

Result<void> GroupEngine::manual_leave(std::string_view interest) {
  const std::string canonical = dictionary_.canonical(interest);
  if (manual_.erase(canonical) == 0) {
    return Error{Errc::no_such_group,
                 "not manually joined: " + std::string(interest)};
  }
  ensure_groups_for_local();
  refresh_formed_gauge();
  return ok();
}

void GroupEngine::rebuild() {
  // Recanonicalize everything under the (possibly newly taught) dictionary,
  // then re-derive groups; events fire from the membership diffs the
  // add/drop helpers compute.
  for (auto& [member, record] : peers_) {
    (void)member;
    record.canonical = canonicalize(record.raw_interests);
  }
  // Remap manual joins whose class got merged into another representative.
  std::set<std::string> remapped;
  for (const std::string& manual : manual_) {
    remapped.insert(dictionary_.canonical(manual));
  }
  manual_ = std::move(remapped);

  // Merge groups whose interests now share a canonical key: move members
  // into the surviving group before ensure_groups_for_local() erases the
  // stale ones, so formed/dissolved events stay truthful.
  std::map<std::string, Group> merged;
  for (auto& [interest, group] : groups_) {
    const std::string canonical = dictionary_.canonical(interest);
    Group& target = merged[canonical];
    target.interest = canonical;
    target.labels.insert(group.labels.begin(), group.labels.end());
    target.members.insert(group.members.begin(), group.members.end());
  }
  groups_ = std::move(merged);

  ensure_groups_for_local();
  for (auto& [member, record] : peers_) {
    match_peer_against_groups(member, record);
  }
  refresh_formed_gauge();
}

void GroupEngine::rescan() {
  // The batch algorithm of Figure 6: every local interest against every
  // interest of every found neighbour.
  rebuild();
}

std::vector<Group> GroupEngine::groups() const {
  std::vector<Group> out;
  out.reserve(groups_.size());
  for (const auto& [interest, group] : groups_) out.push_back(group);
  return out;
}

std::vector<Group> GroupEngine::formed_groups() const {
  std::vector<Group> out;
  for (const auto& [interest, group] : groups_) {
    if (group.formed()) out.push_back(group);
  }
  return out;
}

Result<Group> GroupEngine::group(std::string_view interest) const {
  auto it = groups_.find(dictionary_.canonical(interest));
  if (it == groups_.end()) {
    return Error{Errc::no_such_group, std::string(interest)};
  }
  return it->second;
}

std::vector<std::string> GroupEngine::members_of(std::string_view interest) const {
  auto found = group(interest);
  if (!found) return {};
  return {found->members.begin(), found->members.end()};
}

std::vector<std::string> GroupEngine::tracked_interests() const {
  std::vector<std::string> out;
  out.reserve(groups_.size());
  for (const auto& [interest, group] : groups_) {
    (void)group;
    out.push_back(interest);
  }
  return out;
}

}  // namespace ph::community
