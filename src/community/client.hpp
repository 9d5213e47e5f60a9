// CommunityClient — the client half of PeerHood Community (thesis §5.2.3.2).
//
// "The main functionality of the client is to connect to remote application
// servers on remote PTDs and send requests and receive the desired
// information from servers."
//
// Every MSC in the thesis (Figures 11–17) opens with the client sending the
// request "to all the connected servers simultaneously"; fanout() is that
// primitive. Operations addressed to one member (profile view, messaging,
// trusted content) locate the member's device first — a PS_CHECKMEMBERID
// sweep whose answer is cached — then talk to that device only, which is
// how the thesis' MSCs show every non-target server answering
// NO_MEMBERS_YET.
//
// All operations are asynchronous: they take a completion callback and run
// on the simulator's virtual time. The client must outlive its pending
// operations (in practice: the client lives as long as the app).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "peerhood/library.hpp"
#include "proto/messages.hpp"
#include "util/result.hpp"

namespace ph::community {

/// Session options for short request/response exchanges: plain connections,
/// matching the thesis implementation (a dropped link fails the RPC).
inline peerhood::ConnectOptions plain_rpc_options() {
  peerhood::ConnectOptions options;
  options.seamless = false;
  return options;
}

struct ClientConfig {
  /// Abandon an RPC (and close its session) after this long.
  sim::Duration rpc_timeout = sim::seconds(8);
  /// Content transfers get a far larger budget: a megabyte over Bluetooth
  /// alone takes ~12 s, plus possible handovers.
  sim::Duration transfer_timeout = sim::minutes(5);
  peerhood::ConnectOptions rpc_options = plain_rpc_options();
  /// Session options for content transfers: seamless (default), so a
  /// download survives walking from Bluetooth range into WLAN-only range.
  peerhood::ConnectOptions transfer_options;
  /// At most this many RPC sessions in flight; the rest queue. Keeps
  /// large fan-outs within the radio's link capacity (a Bluetooth piconet
  /// carries at most 7 links), trading a little latency for never
  /// tripping "radio at link capacity" failures.
  int max_concurrent_rpcs = 5;
};

class CommunityClient {
 public:
  /// Snapshot of the registry's `community.client.d<self>.*` counters; the
  /// medium's per-world registry is the source of truth.
  using VoidCallback = std::function<void(Result<void>)>;
  using NamesCallback = std::function<void(Result<std::vector<std::string>>)>;
  using ProfileCallback = std::function<void(Result<proto::ProfileData>)>;
  using ItemsCallback =
      std::function<void(Result<std::vector<proto::SharedItemData>>)>;
  using ContentCallback = std::function<void(Result<Bytes>)>;
  using ResponseCallback = std::function<void(Result<proto::Response>)>;
  using DeviceCallback = std::function<void(Result<peerhood::DeviceId>)>;

  CommunityClient(peerhood::PeerHood& peerhood, std::string self_member,
                  ClientConfig config = {});

  const std::string& self_member() const noexcept { return self_member_; }
  void set_self_member(std::string member) { self_member_ = std::move(member); }

  // --- raw RPC primitives ---------------------------------------------------
  /// One request/response exchange with one device.
  void call(peerhood::DeviceId device, proto::Request request,
            ResponseCallback done);
  /// Same, with explicit session options (content transfers).
  void call_with_options(peerhood::DeviceId device, proto::Request request,
                         const peerhood::ConnectOptions& options,
                         ResponseCallback done);
  /// Same, with an explicit completion deadline (large transfers need far
  /// more than the control-RPC timeout).
  void call_with_deadline(peerhood::DeviceId device, proto::Request request,
                          const peerhood::ConnectOptions& options,
                          sim::Duration timeout, ResponseCallback done);

  struct FanoutEntry {
    peerhood::DeviceId device;
    proto::Response response;
  };
  /// Sends `request` to every neighbourhood device advertising
  /// PeerHoodCommunity; collects the successful responses (devices that
  /// fail to connect or time out are skipped, like the thesis' client
  /// skipping unreachable servers).
  void fanout(proto::Request request,
              std::function<void(std::vector<FanoutEntry>)> done);

  /// Finds which device hosts `member` (PS_CHECKMEMBERID sweep, cached).
  void resolve_member(const std::string& member, DeviceCallback done);
  /// Drops a cache entry (App calls this when a device disappears).
  void invalidate_member(const std::string& member);
  void invalidate_device(peerhood::DeviceId device);

  // --- MSC operations ----------------------------------------------------------
  void get_online_members(NamesCallback done);             ///< Figure 11
  void get_interest_list(NamesCallback done);              ///< Figure 12
  void get_interested_members(const std::string& interest,
                              NamesCallback done);
  void view_profile(const std::string& member, ProfileCallback done);  ///< Fig 13
  void put_profile_comment(const std::string& member, const std::string& text,
                           VoidCallback done);             ///< Figure 14
  void view_trusted_friends(const std::string& member, NamesCallback done);  ///< Fig 15
  void view_shared_content(const std::string& member, ItemsCallback done);   ///< Fig 16
  void send_message(const std::string& receiver, const std::string& subject,
                    const std::string& body, VoidCallback done);  ///< Figure 17
  /// Downloads one shared file over a seamless session (whole file in one
  /// response — fine for small content).
  void fetch_content(const std::string& member, const std::string& name,
                     ContentCallback done);

  /// Chunked download over ONE seamless session: pulls `chunk_size`-byte
  /// ranges sequentially, invoking `progress(received, total)` after each.
  /// A mid-transfer handover retransmits at most one chunk instead of the
  /// whole file. `progress` may be null.
  void fetch_content_chunked(
      const std::string& member, const std::string& name,
      std::size_t chunk_size,
      std::function<void(std::uint64_t received, std::uint64_t total)> progress,
      ContentCallback done);

  /// Typed view of the client's registry instruments (`rpcs_sent`,
  /// `rpcs_failed`, `fanouts`, `cache_hits`, `rpc_us`).
  obs::Snapshot stats() const;

 private:
  proto::Request base_request(proto::Opcode op) const;

  struct QueuedCall {
    peerhood::DeviceId device;
    proto::Request request;
    peerhood::ConnectOptions options;
    ResponseCallback done;
    /// Remaining retries for transient radio_busy refusals (piconet full).
    int busy_retries = 4;
    /// Per-call completion deadline (rpc_timeout for control RPCs,
    /// transfer_timeout for content downloads).
    sim::Duration timeout = 0;
    /// Open while the call waits for a concurrency slot (admission queue).
    obs::SpanId queue_span = 0;
  };
  /// One call in flight: the call as queued (kept for a radio_busy
  /// retry), its trace span and its session.
  struct Rpc {
    QueuedCall call;
    obs::SpanId span = 0;
    sim::Time start = 0;
    peerhood::Connection connection;
    sim::EventId timeout = 0;
    bool finished = false;
  };
  /// Starts queued calls while below the concurrency limit.
  void drain_queue();
  void start_call(QueuedCall call);
  /// Ends a call: re-queues it after a backoff on a transient radio_busy,
  /// otherwise frees its slot and hands `result` to the caller.
  void complete(const std::shared_ptr<Rpc>& rpc,
                Result<proto::Response> result);
  /// Closes the RPC's trace span and records its virtual-time latency.
  void finish_rpc(obs::SpanId span, sim::Time start);

  peerhood::PeerHood& peerhood_;
  std::string self_member_;
  ClientConfig config_;
  std::map<std::string, peerhood::DeviceId> member_locations_;
  std::vector<QueuedCall> queue_;
  int active_calls_ = 0;
  /// Requests are encoded here, then copied by Connection::send.
  proto::Writer writer_;
  /// Expires when the client is destroyed; in-flight completions captured
  /// by live sessions check it before touching `this` (a client may be torn
  /// down at logout while RPCs are still in the air).
  std::shared_ptr<char> alive_token_ = std::make_shared<char>();

  // Registry handles (`community.client.d<self>.*`) into the medium's
  // per-world registry; the trace journal is shared the same way.
  obs::Trace* trace_ = nullptr;
  obs::Registry* registry_ = nullptr;
  std::string metric_prefix_;
  obs::Counter* c_rpcs_sent_ = nullptr;
  obs::Counter* c_rpcs_failed_ = nullptr;
  obs::Counter* c_fanouts_ = nullptr;
  obs::Counter* c_cache_hits_ = nullptr;
  obs::Histogram* h_rpc_us_ = nullptr;  ///< virtual-time RPC latency
};

}  // namespace ph::community
