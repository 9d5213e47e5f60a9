#include "community/client.hpp"

#include <algorithm>
#include <memory>
#include <set>

#include "community/server.hpp"  // kServiceName
#include "util/log.hpp"

namespace ph::community {

CommunityClient::CommunityClient(peerhood::PeerHood& peerhood,
                                 std::string self_member, ClientConfig config)
    : peerhood_(peerhood),
      self_member_(std::move(self_member)),
      config_(std::move(config)) {
  obs::Registry& registry = peerhood_.daemon().transport().registry();
  trace_ = &peerhood_.daemon().transport().trace();
  registry_ = &registry;
  metric_prefix_ =
      "community.client.d" + std::to_string(peerhood_.self()) + ".";
  const std::string& prefix = metric_prefix_;
  c_rpcs_sent_ = &registry.counter(prefix + "rpcs_sent");
  c_rpcs_failed_ = &registry.counter(prefix + "rpcs_failed");
  c_fanouts_ = &registry.counter(prefix + "fanouts");
  c_cache_hits_ = &registry.counter(prefix + "cache_hits");
  h_rpc_us_ = &registry.histogram(prefix + "rpc_us");
}

obs::Snapshot CommunityClient::stats() const {
  return registry_->snapshot(metric_prefix_);
}

proto::Request CommunityClient::base_request(proto::Opcode op) const {
  proto::Request request;
  request.op = op;
  request.requester = self_member_;
  return request;
}

void CommunityClient::call(peerhood::DeviceId device, proto::Request request,
                           ResponseCallback done) {
  call_with_options(device, std::move(request), config_.rpc_options,
                    std::move(done));
}

void CommunityClient::call_with_options(peerhood::DeviceId device,
                                        proto::Request request,
                                        const peerhood::ConnectOptions& options,
                                        ResponseCallback done) {
  call_with_deadline(device, std::move(request), options, config_.rpc_timeout,
                     std::move(done));
}

void CommunityClient::call_with_deadline(
    peerhood::DeviceId device, proto::Request request,
    const peerhood::ConnectOptions& options, sim::Duration timeout,
    ResponseCallback done) {
  QueuedCall call{device, std::move(request), options, std::move(done)};
  call.timeout = timeout;
  if (active_calls_ >= config_.max_concurrent_rpcs) {
    // The call will sit in the admission queue: make that wait a span so
    // critical-path attribution can separate queueing from the radio.
    call.queue_span = trace_->begin_span(
        "community.queue.wait", peerhood_.daemon().scheduler().now(),
        peerhood_.self(), "queue");
  }
  queue_.push_back(std::move(call));
  drain_queue();
}

void CommunityClient::drain_queue() {
  while (active_calls_ < config_.max_concurrent_rpcs && !queue_.empty()) {
    QueuedCall next = std::move(queue_.front());
    queue_.erase(queue_.begin());
    ++active_calls_;
    trace_->end_span(next.queue_span, peerhood_.daemon().scheduler().now());
    start_call(std::move(next));
  }
}

void CommunityClient::start_call(QueuedCall call) {
  c_rpcs_sent_->inc();
  // The call itself rides along in its RPC state, so completion can
  // re-queue it on a transient radio_busy without a copy.
  auto rpc = std::make_shared<Rpc>();
  rpc->call = std::move(call);
  rpc->start = peerhood_.daemon().scheduler().now();
  rpc->span = trace_->begin_span("community.rpc", rpc->start, peerhood_.self(),
                                 proto::to_string(rpc->call.request.op));
  // The request header carries the RPC span across the radio: the server
  // parents its handling span under it (one tree spanning both devices).
  rpc->call.request.trace_parent = rpc->span;
  std::weak_ptr<char> alive = alive_token_;
  obs::Trace::Scope scope(*trace_, rpc->span);  // parents the session's net spans
  peerhood_.connect(
      rpc->call.device, kServiceName, rpc->call.options,
      [this, alive, rpc](Result<peerhood::Connection> connected) {
        if (alive.expired()) {
          if (connected) connected->close();
          return;
        }
        if (!connected) {
          c_rpcs_failed_->inc();
          finish_rpc(rpc->span, rpc->start);
          complete(rpc, connected.error());
          return;
        }
        rpc->connection = *connected;
        auto& simulator = peerhood_.daemon().scheduler();
        const sim::Duration call_timeout =
            rpc->call.timeout > 0 ? rpc->call.timeout : config_.rpc_timeout;
        rpc->timeout = simulator.schedule(call_timeout, [this, alive, rpc] {
          if (rpc->finished) return;
          rpc->finished = true;
          rpc->connection.close();
          if (alive.expired()) return;
          c_rpcs_failed_->inc();
          finish_rpc(rpc->span, rpc->start);
          complete(rpc, Error{Errc::timeout, "rpc timed out"});
        });
        rpc->connection.on_message([this, alive, rpc](BytesView data) {
          if (rpc->finished) return;
          rpc->finished = true;
          auto response = proto::decode_response(data);
          rpc->connection.close();
          if (alive.expired()) return;
          peerhood_.daemon().scheduler().cancel(rpc->timeout);
          finish_rpc(rpc->span, rpc->start);
          if (!response) c_rpcs_failed_->inc();
          complete(rpc, std::move(response));
        });
        rpc->connection.on_close([this, alive, rpc](const Error& reason) {
          if (rpc->finished) return;
          rpc->finished = true;
          if (alive.expired()) return;
          peerhood_.daemon().scheduler().cancel(rpc->timeout);
          c_rpcs_failed_->inc();
          finish_rpc(rpc->span, rpc->start);
          complete(rpc, Error{Errc::connection_lost, reason.message});
        });
        writer_.clear();
        proto::encode(rpc->call.request, writer_);
        rpc->connection.send(writer_.data());
      });
}

void CommunityClient::complete(const std::shared_ptr<Rpc>& rpc,
                               Result<proto::Response> result) {
  // Whatever the path, completion releases the slot and drains again.
  --active_calls_;
  QueuedCall& call = rpc->call;
  if (!result.ok() && result.error().code == Errc::radio_busy &&
      call.busy_retries > 0) {
    // Transient refusal (the peer's piconet is momentarily full): re-queue
    // the same call after a randomized backoff instead of failing it.
    --call.busy_retries;
    call.queue_span = 0;  // ended when the call first left the queue
    auto& simulator = peerhood_.daemon().scheduler();
    const sim::Duration backoff =
        sim::seconds(peerhood_.daemon().transport().rng().uniform(0.2, 0.8));
    // Randomized idle before the retry: a closed backoff span (the end is
    // already known) feeds critical-path attribution.
    const obs::SpanId wait = trace_->begin_span(
        "community.backoff.wait", simulator.now(), peerhood_.self(), "backoff");
    trace_->end_span(wait, simulator.now() + backoff);
    std::weak_ptr<char> alive = alive_token_;
    simulator.schedule(backoff, [this, alive, rpc] {
      if (alive.expired()) return;  // owner gone; drop the callback
      queue_.push_back(std::move(rpc->call));
      drain_queue();
    });
    drain_queue();
    return;
  }
  // Move the callback out first: it may destroy this client.
  const ResponseCallback done = std::move(call.done);
  std::weak_ptr<char> alive = alive_token_;
  done(std::move(result));
  if (!alive.expired()) drain_queue();
}

void CommunityClient::finish_rpc(obs::SpanId span, sim::Time start) {
  const sim::Time now = peerhood_.daemon().scheduler().now();
  trace_->end_span(span, now);
  h_rpc_us_->observe(static_cast<double>(now - start));
}

void CommunityClient::fanout(
    proto::Request request, std::function<void(std::vector<FanoutEntry>)> done) {
  c_fanouts_->inc();
  auto targets = peerhood_.find_service(kServiceName);
  if (targets.empty()) {
    done({});
    return;
  }
  struct FanoutState {
    std::vector<FanoutEntry> entries;
    std::size_t pending = 0;
    std::function<void(std::vector<FanoutEntry>)> done;
  };
  auto state = std::make_shared<FanoutState>();
  state->pending = targets.size();
  state->done = std::move(done);
  // "Sends the message to all the connected servers simultaneously."
  for (const auto& [device, service] : targets) {
    (void)service;
    const peerhood::DeviceId id = device.id;
    call(id, request, [state, id](Result<proto::Response> response) {
      if (response) state->entries.push_back({id, std::move(*response)});
      if (--state->pending == 0) {
        std::sort(state->entries.begin(), state->entries.end(),
                  [](const FanoutEntry& a, const FanoutEntry& b) {
                    return a.device < b.device;
                  });
        state->done(std::move(state->entries));
      }
    });
  }
}

void CommunityClient::resolve_member(const std::string& member,
                                     DeviceCallback done) {
  auto cached = member_locations_.find(member);
  if (cached != member_locations_.end()) {
    // Trust the cache only while the daemon still lists the device.
    if (peerhood_.daemon().known_device(cached->second) != nullptr) {
      c_cache_hits_->inc();
      done(cached->second);
      return;
    }
    member_locations_.erase(cached);
  }
  auto request = base_request(proto::Opcode::ps_check_member_id);
  request.member_id = member;
  fanout(request, [this, member, done = std::move(done)](
                      std::vector<FanoutEntry> entries) {
    for (const FanoutEntry& entry : entries) {
      if (entry.response.status == proto::Status::ok) {
        member_locations_[member] = entry.device;
        done(entry.device);
        return;
      }
    }
    done(Error{Errc::no_such_member, member});
  });
}

void CommunityClient::invalidate_member(const std::string& member) {
  member_locations_.erase(member);
}

void CommunityClient::invalidate_device(peerhood::DeviceId device) {
  for (auto it = member_locations_.begin(); it != member_locations_.end();) {
    if (it->second == device) {
      it = member_locations_.erase(it);
    } else {
      ++it;
    }
  }
}

void CommunityClient::get_online_members(NamesCallback done) {
  fanout(base_request(proto::Opcode::ps_get_online_member_list),
         [done = std::move(done)](std::vector<FanoutEntry> entries) {
           std::set<std::string> unique;
           for (const FanoutEntry& entry : entries) {
             unique.insert(entry.response.names.begin(),
                           entry.response.names.end());
           }
           done(std::vector<std::string>(unique.begin(), unique.end()));
         });
}

void CommunityClient::get_interest_list(NamesCallback done) {
  // Figure 12: "compares the newly received interests with the interests
  // stored in a list and stores it to that list if it doesn't exist".
  fanout(base_request(proto::Opcode::ps_get_interest_list),
         [done = std::move(done)](std::vector<FanoutEntry> entries) {
           std::set<std::string> unique;
           for (const FanoutEntry& entry : entries) {
             unique.insert(entry.response.names.begin(),
                           entry.response.names.end());
           }
           done(std::vector<std::string>(unique.begin(), unique.end()));
         });
}

void CommunityClient::get_interested_members(const std::string& interest,
                                             NamesCallback done) {
  auto request = base_request(proto::Opcode::ps_get_interested_member_list);
  request.argument = interest;
  fanout(request, [done = std::move(done)](std::vector<FanoutEntry> entries) {
    std::set<std::string> unique;
    for (const FanoutEntry& entry : entries) {
      unique.insert(entry.response.names.begin(), entry.response.names.end());
    }
    done(std::vector<std::string>(unique.begin(), unique.end()));
  });
}

void CommunityClient::view_profile(const std::string& member,
                                   ProfileCallback done) {
  // Figure 13: fan out PS_GETPROFILE; the hosting device answers with the
  // profile, everyone else with NO_MEMBERS_YET.
  auto request = base_request(proto::Opcode::ps_get_profile);
  request.member_id = member;
  fanout(request,
         [member, done = std::move(done)](std::vector<FanoutEntry> entries) {
           for (FanoutEntry& entry : entries) {
             if (entry.response.status == proto::Status::ok) {
               done(std::move(entry.response.profile));
               return;
             }
           }
           done(Error{Errc::no_such_member, member});
         });
}

void CommunityClient::put_profile_comment(const std::string& member,
                                          const std::string& text,
                                          VoidCallback done) {
  auto request = base_request(proto::Opcode::ps_add_profile_comment);
  request.member_id = member;
  request.argument = text;
  fanout(request,
         [member, done = std::move(done)](std::vector<FanoutEntry> entries) {
           for (const FanoutEntry& entry : entries) {
             if (entry.response.status == proto::Status::ok) {
               done(ph::ok());
               return;
             }
           }
           done(Error{Errc::no_such_member, member});
         });
}

void CommunityClient::view_trusted_friends(const std::string& member,
                                           NamesCallback done) {
  auto request = base_request(proto::Opcode::ps_get_trusted_friends);
  request.member_id = member;
  fanout(request,
         [member, done = std::move(done)](std::vector<FanoutEntry> entries) {
           for (FanoutEntry& entry : entries) {
             if (entry.response.status == proto::Status::ok) {
               done(std::move(entry.response.names));
               return;
             }
           }
           done(Error{Errc::no_such_member, member});
         });
}

void CommunityClient::view_shared_content(const std::string& member,
                                          ItemsCallback done) {
  // Figure 16 is two-phase: PS_CHECKTRUSTED first, PS_GETSHAREDCONTENT only
  // when trusted.
  resolve_member(member, [this, member, done = std::move(done)](
                             Result<peerhood::DeviceId> device) mutable {
    if (!device) {
      done(device.error());
      return;
    }
    auto check = base_request(proto::Opcode::ps_check_trusted);
    check.member_id = member;
    const peerhood::DeviceId target = *device;
    call(target, check,
         [this, member, target, done = std::move(done)](
             Result<proto::Response> response) mutable {
           if (!response) {
             done(response.error());
             return;
           }
           if (response->status == proto::Status::not_trusted_yet) {
             done(Error{Errc::not_trusted, member});
             return;
           }
           if (response->status != proto::Status::ok) {
             done(Error{Errc::no_such_member, member});
             return;
           }
           auto list = base_request(proto::Opcode::ps_get_shared_content);
           list.member_id = member;
           call(target, list,
                [member, done = std::move(done)](Result<proto::Response> reply) {
                  if (!reply) {
                    done(reply.error());
                    return;
                  }
                  if (reply->status != proto::Status::ok) {
                    done(Error{Errc::not_trusted, member});
                    return;
                  }
                  done(std::move(reply->items));
                });
         });
  });
}

void CommunityClient::send_message(const std::string& receiver,
                                   const std::string& subject,
                                   const std::string& body, VoidCallback done) {
  resolve_member(receiver, [this, receiver, subject, body,
                            done = std::move(done)](
                               Result<peerhood::DeviceId> device) mutable {
    if (!device) {
      done(device.error());
      return;
    }
    auto request = base_request(proto::Opcode::ps_msg);
    request.mail.receiver = receiver;
    request.mail.sender = self_member_;
    request.mail.subject = subject;
    request.mail.body = body;
    call(*device, request,
         [done = std::move(done)](Result<proto::Response> response) {
           if (!response) {
             done(response.error());
             return;
           }
           if (response->status == proto::Status::successfully_written) {
             done(ph::ok());
           } else {
             done(Error{Errc::state_error,
                        std::string(proto::to_string(response->status))});
           }
         });
  });
}

void CommunityClient::fetch_content_chunked(
    const std::string& member, const std::string& name, std::size_t chunk_size,
    std::function<void(std::uint64_t, std::uint64_t)> progress,
    ContentCallback done) {
  if (chunk_size == 0) {
    done(Error{Errc::invalid_argument, "chunk size must be positive"});
    return;
  }
  std::weak_ptr<char> alive = alive_token_;
  resolve_member(member, [this, alive, member, name, chunk_size,
                          progress = std::move(progress),
                          done = std::move(done)](
                             Result<peerhood::DeviceId> device) mutable {
    if (alive.expired()) return;
    if (!device) {
      done(device.error());
      return;
    }
    struct ChunkState {
      peerhood::Connection connection;
      Bytes data;
      std::uint64_t total = 0;
      bool total_known = false;
      bool finished = false;
      sim::EventId timeout = 0;
    };
    auto state = std::make_shared<ChunkState>();
    peerhood_.connect(
        *device, kServiceName, config_.transfer_options,
        [this, alive, state, member, name, chunk_size,
         progress = std::move(progress), done = std::move(done)](
            Result<peerhood::Connection> connected) mutable {
          if (alive.expired()) {
            if (connected) connected->close();
            return;
          }
          if (!connected) {
            done(connected.error());
            return;
          }
          state->connection = *connected;
          c_rpcs_sent_->inc();  // one logical transfer

          auto finish = [this, alive, state](auto&& invoke_done) {
            if (state->finished) return;
            state->finished = true;
            if (!alive.expired()) {
              peerhood_.daemon().scheduler().cancel(state->timeout);
            }
            state->connection.close();
            invoke_done();
          };

          // Pulls the next range; re-arms the per-chunk timeout.
          auto request_next = [this, alive, state, member, name, chunk_size,
                               done] {
            if (alive.expired() || state->finished) return;
            proto::Request request = base_request(proto::Opcode::ps_get_content_chunk);
            request.member_id = member;
            request.argument = name;
            request.offset = state->data.size();
            request.length = chunk_size;
            auto& simulator = peerhood_.daemon().scheduler();
            simulator.cancel(state->timeout);
            // The chunk may be retransmitted across a handover; give it the
            // session's resume window on top of the RPC budget.
            state->timeout = simulator.schedule(
                config_.rpc_timeout + config_.transfer_options.resume_deadline,
                [state, done] {
                  if (state->finished) return;
                  state->finished = true;
                  state->connection.close();
                  done(Error{Errc::timeout, "chunk transfer stalled"});
                });
            state->connection.send(proto::encode(request));
          };

          state->connection.on_close([state, done](const Error&) {
            if (state->finished) return;
            state->finished = true;
            done(Error{Errc::connection_lost, "transfer session ended early"});
          });
          state->connection.on_message(
              [this, alive, state, name, progress, done, finish,
               request_next](BytesView payload) mutable {
                if (state->finished || alive.expired()) return;
                auto response = proto::decode_response(payload);
                if (!response) {
                  Error error = std::move(response).error();
                  finish([&] { done(std::move(error)); });
                  return;
                }
                if (response->status != proto::Status::ok) {
                  const Errc code =
                      response->status == proto::Status::not_trusted_yet
                          ? Errc::not_trusted
                      : response->status == proto::Status::no_members_yet
                          ? Errc::no_such_member
                          : Errc::content_not_found;
                  finish([&] { done(Error{code, name}); });
                  return;
                }
                state->total = response->content_total;
                state->total_known = true;
                state->data.insert(state->data.end(),
                                   response->content.begin(),
                                   response->content.end());
                if (progress) progress(state->data.size(), state->total);
                if (state->data.size() >= state->total) {
                  finish([&] { done(std::move(state->data)); });
                  return;
                }
                if (response->content.empty()) {
                  // Defensive: a short read that makes no progress would
                  // loop forever.
                  finish([&] {
                    done(Error{Errc::protocol_error, "empty chunk"});
                  });
                  return;
                }
                request_next();
              });
          request_next();
        });
  });
}

void CommunityClient::fetch_content(const std::string& member,
                                    const std::string& name,
                                    ContentCallback done) {
  resolve_member(member, [this, member, name, done = std::move(done)](
                             Result<peerhood::DeviceId> device) mutable {
    if (!device) {
      done(device.error());
      return;
    }
    auto request = base_request(proto::Opcode::ps_get_content);
    request.member_id = member;
    request.argument = name;
    call_with_deadline(
        *device, request, config_.transfer_options, config_.transfer_timeout,
        [member, name, done = std::move(done)](Result<proto::Response> response) {
          if (!response) {
            done(response.error());
            return;
          }
          switch (response->status) {
            case proto::Status::ok:
              done(std::move(response->content));
              return;
            case proto::Status::not_trusted_yet:
              done(Error{Errc::not_trusted, member});
              return;
            case proto::Status::no_members_yet:
              done(Error{Errc::no_such_member, member});
              return;
            default:
              done(Error{Errc::content_not_found, name});
              return;
          }
        });
  });
}

}  // namespace ph::community
