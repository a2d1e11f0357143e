#ifndef LBTRUST_NET_LINK_H_
#define LBTRUST_NET_LINK_H_

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>

#include "net/frame.h"
#include "obs/metrics.h"
#include "util/status.h"

namespace lbtrust::net {

/// A node's wire counters, as handles (WireCounters) or values.
template <typename T>
struct WireFields {
  T bytes_out{}, bytes_in{};    ///< raw socket bytes
  T frames_out{}, frames_in{};  ///< all frame kinds
  T data_frames_out{}, data_frames_in{};
  T tuple_bytes_out{}, tuple_bytes_in{};  ///< kData payloads
  T credential_bytes_out{}, credential_bytes_in{};
  T acks_out{}, acks_in{};
  /// Reliable frames re-enqueued after a reconnect (at-least-once resend).
  T retries{};
  /// Successful connection re-establishments (beyond each peer's first).
  T reconnects{};
  /// Reliable frames received more than once (same peer, same seq) —
  /// harmless by construction: the engine's per-tuple cross-round dedup
  /// and the content-addressed credential store are idempotent.
  T duplicate_frames_in{};
  T oversize_rejects{};  ///< connections dropped for oversize frames
  T deadline_closes{};   ///< connections dropped for read stalls
};

/// A by-value view of the wire counters, exposed through RunStats so
/// benches can report wire efficiency (bytes/tuple etc.).
using TransportStats = WireFields<uint64_t>;

/// The wire counters, resolved once in a node's registry: the node owns the
/// block and its transport counts into it. Both transports count frames
/// through Queued/Sent/Received, so which frame counts as what is decided
/// once; socket-only counters are added to directly.
struct WireCounters : WireFields<obs::Counter*> {
  explicit WireCounters(obs::MetricsRegistry* metrics);

  /// A reliable frame was queued: its payload counts once.
  void Queued(const Frame& frame);
  /// A frame was handed to the wire; a retransmission counts again.
  void Sent(Frame::Kind kind);
  /// A frame arrived; `repeat`: a reliable frame already received.
  void Received(const Frame& frame, bool repeat);
  TransportStats Read() const;
};

/// The sending half of one at-least-once channel: the reliable frames a
/// node sent one peer, numbered from 1 and retained in sequence order until
/// the peer acks them.
class Link {
 public:
  /// Gives `frame` the next sequence number and retains it, unsent;
  /// `bytes` is what it adds to unsent_bytes() (backpressure).
  void Queue(Frame frame, size_t bytes);
  /// Hands every unsent frame to `ship`, in sequence order, as sent.
  template <typename Ship>
  void Flush(Ship ship) {
    for (auto& [seq, entry] : frames_) {
      if (!entry.sent) ship(entry.frame);
      entry.sent = true;
    }
    unsent_bytes_ = 0;
  }
  /// Releases the frame `seq` names; an unknown or repeated ack is a no-op.
  void Ack(uint64_t seq);
  /// The connection carrying this link was replaced, losing whatever it had
  /// not delivered or acked: every retained frame is unsent again. Returns
  /// how many had been sent, i.e. the retransmissions this reset causes.
  size_t Reset();

  size_t unacked() const { return frames_.size(); }
  size_t unsent_bytes() const { return unsent_bytes_; }

 private:
  struct Entry {
    Frame frame;
    size_t bytes = 0;
    bool sent = false;
  };
  uint64_t next_seq_ = 1;
  std::map<uint64_t, Entry> frames_;  ///< unacked, by sequence number
  size_t unsent_bytes_ = 0;
};

/// The receiving half: which sequence numbers one sender's reliable frames
/// have carried. Every number up to a high-water mark has arrived, so only
/// the numbers above it are kept, and in-order arrival keeps none.
class Window {
 public:
  /// Records `seq` (>= 1); true if it had arrived before.
  bool Repeat(uint64_t seq);
  size_t above_mark() const { return above_.size(); }

 private:
  uint64_t mark_ = 0;
  std::set<uint64_t> above_;
};

/// The network the cluster protocol (DistributedCluster) runs on, and the
/// at-least-once core under it. Transport (TCP sockets, net/transport.h)
/// and SimTransport (SimCluster's in-memory lanes, net/cluster.h) only move
/// frames; every reliable-delivery decision is made here, once:
///
///  - Reliable frames (kData/kCredential) are numbered per peer and kept in
///    the peer's Link until acked; the other kinds are best-effort.
///  - The receive step counts each frame, classifies a reliable frame seen
///    before as a repeat (one Window per sender), consumes acks and hands
///    every other frame to the handler. A reliable frame is acked only
///    after the handler returned OK, so an ack implies the payload was
///    staged. Repeats are handed over and acked too: a restarted sender's
///    numbering starts again at 1, so a repeat is not proof of a copy.
///  - A (re)established connection sends a hello, resets the peer's link,
///    so every unacked frame is sent again, and runs the connect hook.
class Network {
 public:
  /// Handler for inbound frames (all kinds but kAck). Returning non-OK is
  /// fatal for the node, and the frame is not acked.
  using FrameHandler = std::function<util::Status(const Frame& frame)>;
  /// Fired when a connection to `peer` (re)establishes, after its unacked
  /// frames were re-queued: the runtime resends its protocol status.
  using ConnectHandler = std::function<void(const std::string& peer)>;

  void set_handler(FrameHandler handler) { handler_ = std::move(handler); }
  void set_on_connect(ConnectHandler handler) {
    on_connect_ = std::move(handler);
  }
  /// Queues `frame` for `peer`. Returns false for an unknown peer, or for a
  /// reliable frame the peer's send queue cannot take now (backpressure:
  /// the caller retries later).
  virtual bool Send(const std::string& peer, Frame frame) = 0;
  /// Best-effort send of an unreliable frame to every peer.
  void Broadcast(const Frame& frame);
  /// True when every reliable frame ever sent has been acked.
  bool AllAcked() const;
  /// True when no queued bytes remain unflushed (all peers).
  virtual bool SendQueuesEmpty() const = 0;

 protected:
  /// Counts into `wire`, which must outlive the network.
  Network(std::string self, WireCounters* wire)
      : self_(std::move(self)), wire_(wire) {}
  ~Network() = default;  // owners hold the concrete transport

  /// Numbers and retains a reliable frame for `peer`'s link.
  void Queue(const std::string& peer, Frame frame, size_t bytes);
  /// A connection to `peer` came up (`again`: not the first one). Sends the
  /// hello, resets the link and runs the connect hook; the caller then
  /// flushes the link.
  void Connected(const std::string& peer, bool again);
  /// The receive step. Returns true when `frame` is owed AckFor(frame).
  util::Result<bool> Receive(const Frame& frame);
  Frame AckFor(const Frame& frame) const;

  const std::string self_;
  WireCounters* const wire_;
  std::map<std::string, Link> links_;  ///< one per peer, made by the owner

 private:
  FrameHandler handler_;
  ConnectHandler on_connect_;
  std::map<std::string, Window> windows_;  ///< one per sender name
};

}  // namespace lbtrust::net

#endif  // LBTRUST_NET_LINK_H_
