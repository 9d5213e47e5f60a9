#include "community/server.hpp"

#include "util/log.hpp"

namespace ph::community {

namespace {

proto::Response make(proto::Opcode op, proto::Status status) {
  proto::Response response;
  response.op = op;
  response.status = status;
  return response;
}

}  // namespace

CommunityServer::CommunityServer(peerhood::PeerHood& peerhood,
                                 ProfileStore& store,
                                 const SemanticDictionary& dictionary)
    : peerhood_(peerhood), store_(store), dictionary_(dictionary) {
  obs::Registry& registry = peerhood_.daemon().transport().registry();
  registry_ = &registry;
  trace_ = &peerhood_.daemon().transport().trace();
  metric_prefix_ =
      "community.server.d" + std::to_string(peerhood_.self()) + ".";
  const std::string& prefix = metric_prefix_;
  c_requests_handled_ = &registry.counter(prefix + "requests_handled");
  c_sessions_accepted_ = &registry.counter(prefix + "sessions_accepted");
  c_bad_requests_ = &registry.counter(prefix + "bad_requests");
}

CommunityServer::~CommunityServer() { stop(); }

obs::Snapshot CommunityServer::stats() const {
  return registry_->snapshot(metric_prefix_);
}

Result<void> CommunityServer::start() {
  if (running_) return ok();
  auto registered = peerhood_.register_service(
      std::string(kServiceName), {{"type", "social"}, {"version", "0.2"}},
      [this](peerhood::Connection connection) { on_accept(std::move(connection)); });
  if (!registered) return registered;
  running_ = true;
  return ok();
}

void CommunityServer::stop() {
  if (!running_) return;
  (void)peerhood_.unregister_service(std::string(kServiceName));
  running_ = false;
}

void CommunityServer::on_accept(peerhood::Connection connection) {
  c_sessions_accepted_->inc();
  // The connection handle is captured by its own handler and released when
  // the session ends.
  auto holder = std::make_shared<peerhood::Connection>(std::move(connection));
  holder->on_message([this, holder](BytesView data) {
    auto request = proto::decode_request(data);
    if (!request) {
      c_bad_requests_->inc();
      PH_LOG(warn, "community") << "bad request: " << request.error().to_string();
      return;
    }
    // Receive-side span, parented under the *client's* RPC span via the
    // trace_parent the request carried across the radio (falls back to
    // the delivering frame's flight span): one tree, two devices.
    const sim::Time now = peerhood_.daemon().scheduler().now();
    const obs::SpanId span = trace_->begin_span_under(
        request->trace_parent, "community.server.handle", now,
        peerhood_.self(), proto::to_string(request->op));
    obs::Trace::Scope handling(*trace_, span);  // parents the response send
    const proto::Response response = handle(*request);
    writer_.clear();
    proto::encode(response, writer_);
    holder->send(writer_.data());
    trace_->end_span(span, peerhood_.daemon().scheduler().now());
  });
  holder->on_close([holder](const Error&) {
    // Dropping the captured shared_ptr would destroy the lambda that holds
    // it while it executes; clearing handlers is deferred to destruction.
  });
}

proto::Response CommunityServer::handle(const proto::Request& request) {
  c_requests_handled_->inc();
  Account* account = active();
  const sim::Time now = peerhood_.daemon().scheduler().now();

  switch (request.op) {
    case proto::Opcode::ps_get_online_member_list: {
      // "Identifies list of online member and transmits the list" — the
      // logged-in member of this device.
      auto response = make(request.op, proto::Status::ok);
      if (account != nullptr) response.names.push_back(account->member_id());
      return response;
    }

    case proto::Opcode::ps_get_interest_list: {
      auto response = make(request.op, proto::Status::ok);
      if (account != nullptr) response.names = account->profile().interests;
      return response;
    }

    case proto::Opcode::ps_get_interested_member_list: {
      // Members on this device interested in request.argument, matched
      // through the semantic dictionary.
      auto response = make(request.op, proto::Status::ok);
      if (account != nullptr) {
        for (const std::string& interest : account->profile().interests) {
          if (dictionary_.same(interest, request.argument)) {
            response.names.push_back(account->member_id());
            break;
          }
        }
      }
      return response;
    }

    case proto::Opcode::ps_get_profile: {
      if (account == nullptr || account->member_id() != request.member_id) {
        return make(request.op, proto::Status::no_members_yet);
      }
      account->record_visitor(request.requester);
      auto response = make(request.op, proto::Status::ok);
      response.profile = account->profile();
      return response;
    }

    case proto::Opcode::ps_add_profile_comment: {
      if (account == nullptr || account->member_id() != request.member_id) {
        return make(request.op, proto::Status::no_members_yet);
      }
      if (request.argument.empty()) {
        return make(request.op, proto::Status::unsuccessful);
      }
      account->add_comment({request.requester, request.argument, now});
      return make(request.op, proto::Status::ok);
    }

    case proto::Opcode::ps_check_member_id: {
      // "Compares the received MemberID with local user's member ID and
      // returns the success or failure."
      if (account != nullptr && account->member_id() == request.member_id) {
        return make(request.op, proto::Status::ok);
      }
      return make(request.op, proto::Status::no_members_yet);
    }

    case proto::Opcode::ps_msg: {
      if (account == nullptr || account->member_id() != request.mail.receiver) {
        return make(request.op, proto::Status::no_members_yet);
      }
      if (request.mail.body.empty() && request.mail.subject.empty()) {
        return make(request.op, proto::Status::unsuccessful);
      }
      proto::MailData mail = request.mail;
      mail.sent_at_us = now;
      account->deliver_mail(std::move(mail));
      return make(request.op, proto::Status::successfully_written);
    }

    case proto::Opcode::ps_get_shared_content: {
      if (account == nullptr || account->member_id() != request.member_id) {
        return make(request.op, proto::Status::no_members_yet);
      }
      if (!account->trusts(request.requester)) {
        return make(request.op, proto::Status::not_trusted_yet);
      }
      auto response = make(request.op, proto::Status::ok);
      response.items = account->shared_items();
      return response;
    }

    case proto::Opcode::ps_get_trusted_friends: {
      if (account == nullptr || account->member_id() != request.member_id) {
        return make(request.op, proto::Status::no_members_yet);
      }
      auto response = make(request.op, proto::Status::ok);
      response.names = account->profile().trusted_friends;
      return response;
    }

    case proto::Opcode::ps_check_trusted: {
      if (account == nullptr || account->member_id() != request.member_id) {
        return make(request.op, proto::Status::no_members_yet);
      }
      return make(request.op, account->trusts(request.requester)
                                  ? proto::Status::ok
                                  : proto::Status::not_trusted_yet);
    }

    case proto::Opcode::ps_get_content: {
      if (account == nullptr || account->member_id() != request.member_id) {
        return make(request.op, proto::Status::no_members_yet);
      }
      if (!account->trusts(request.requester)) {
        return make(request.op, proto::Status::not_trusted_yet);
      }
      auto content = account->shared_file(request.argument);
      if (!content) return make(request.op, proto::Status::unsuccessful);
      auto response = make(request.op, proto::Status::ok);
      response.content_total = content->size();
      response.content = std::move(*content);
      return response;
    }

    case proto::Opcode::ps_get_content_chunk: {
      if (account == nullptr || account->member_id() != request.member_id) {
        return make(request.op, proto::Status::no_members_yet);
      }
      if (!account->trusts(request.requester)) {
        return make(request.op, proto::Status::not_trusted_yet);
      }
      auto content = account->shared_file(request.argument);
      if (!content) return make(request.op, proto::Status::unsuccessful);
      if (request.offset > content->size() || request.length == 0) {
        return make(request.op, proto::Status::unsuccessful);
      }
      auto response = make(request.op, proto::Status::ok);
      response.content_total = content->size();
      const std::size_t take =
          std::min<std::size_t>(request.length, content->size() - request.offset);
      response.content.assign(
          content->begin() + static_cast<std::ptrdiff_t>(request.offset),
          content->begin() + static_cast<std::ptrdiff_t>(request.offset + take));
      return response;
    }
  }
  c_bad_requests_->inc();
  return make(request.op, proto::Status::unsuccessful);
}

}  // namespace ph::community
