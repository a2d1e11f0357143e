#ifndef LBTRUST_NET_TRANSPORT_H_
#define LBTRUST_NET_TRANSPORT_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "net/event_loop.h"
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

/// The network calls the cluster protocol (DistributedCluster) makes.
/// Transport implements them over TCP sockets, SimTransport in memory, so
/// the exchange loop and its termination protocol run unchanged on both.
class Network {
 public:
  /// Handler for inbound frames. Returning non-OK is fatal for the node;
  /// reliable frames are acked only after an OK return.
  using FrameHandler = std::function<util::Status(const Frame& frame)>;

  virtual void set_handler(FrameHandler handler) = 0;
  /// Queues `frame` for `peer`. Reliable frames get a sequence number and
  /// at-least-once retention; unreliable frames (status/confirm/hello) are
  /// best-effort. Returns false only for a reliable frame the peer's send
  /// queue cannot take now (backpressure: the caller retries later).
  virtual bool Send(const std::string& peer, Frame frame) = 0;
  /// Best-effort send of an unreliable frame to every peer.
  virtual void Broadcast(const Frame& frame) = 0;
  /// True when every reliable frame ever sent has been acked.
  virtual bool AllAcked() const = 0;
  /// True when no queued bytes remain unflushed (all peers).
  virtual bool SendQueuesEmpty() const = 0;

 protected:
  ~Network() = default;  // owners hold the concrete transport
};

/// Async socket transport for one node: a non-blocking TCP listener plus
/// one outbound connection per peer, multiplexed on an epoll EventLoop and
/// driven by the owner's thread via Poll().
///
///  - Outbound frames batch per peer into one contiguous write buffer, so
///    a round's worth of frames for a peer flushes in O(1) syscalls.
///  - Send queues are bounded (`send_queue_limit_bytes`); a full queue
///    makes Send() return false — backpressure the caller absorbs by
///    retrying after the next Poll().
///  - Reliable frames (kData/kCredential) carry per-peer sequence numbers,
///    are retained until the peer acks them, and are retransmitted after a
///    reconnect: at-least-once delivery. Receivers ack AFTER the handler
///    accepts the frame, so an ack implies the payload was staged.
///  - Outbound connections reconnect with exponential backoff.
///  - Inbound hardening: the declared frame length is checked against
///    `max_frame_bytes` before body bytes are buffered, and a connection
///    stalled mid-frame longer than `read_deadline_ms` is closed
///    (slow-loris defense).
///
/// Single-threaded: every method (including handler callbacks, which fire
/// inside Poll()) runs on the owner's thread.
class Transport final : public Network {
 public:
  struct Options {
    size_t max_frame_bytes = 16u << 20;
    size_t send_queue_limit_bytes = 4u << 20;  ///< per peer
    int read_deadline_ms = 5000;
    int reconnect_backoff_min_ms = 10;
    int reconnect_backoff_max_ms = 1000;
    /// Fault injection (tests only): after this many reliable frames have
    /// been queued, drop the carrying connection once (unflushed bytes are
    /// lost) to force a reconnect and at-least-once resend. 0 = never.
    uint64_t drop_connection_after_data_frames = 0;
  };

  /// Fired when an outbound connection (re)establishes, after unacked
  /// frames were re-queued — the runtime rebroadcasts its protocol status.
  using ConnectHandler = std::function<void(const std::string& peer)>;

  /// Counts into `wire`, which must outlive the transport.
  Transport(std::string self, Options options, WireCounters* wire);
  ~Transport();

  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  /// Inbound kHello/kData/kCredential/kStatus/kConfirm frames go to
  /// `handler`; its errors are surfaced from Poll().
  void set_handler(FrameHandler handler) override {
    handler_ = std::move(handler);
  }
  void set_on_connect(ConnectHandler handler) {
    on_connect_ = std::move(handler);
  }

  /// Binds and listens (port 0 picks an ephemeral port; see listen_port()).
  util::Status Listen(const std::string& host, uint16_t port);
  uint16_t listen_port() const { return listen_port_; }

  /// Registers a peer; the first Poll() starts connecting.
  void AddPeer(const std::string& name, const std::string& host,
               uint16_t port);
  std::vector<std::string> peer_names() const;

  /// Point-in-time connection state per registered peer (for /statusz).
  struct PeerState {
    std::string name;
    std::string host;
    uint16_t port = 0;
    bool connected = false;       ///< outbound link currently up
    bool ever_connected = false;  ///< handshake completed at least once
    size_t unacked = 0;           ///< reliable frames awaiting ack
  };
  std::vector<PeerState> peer_states() const;

  /// The epoll loop every transport fd is registered on. Exposed so
  /// same-thread companions (the HTTP exporter) can share the one
  /// Poll() call instead of running a second loop.
  EventLoop* loop() { return &loop_; }

  /// Unreliable frames are dropped while the peer is disconnected.
  bool Send(const std::string& peer, Frame frame) override;
  void Broadcast(const Frame& frame) override;
  bool AllAcked() const override;
  bool SendQueuesEmpty() const override;

  /// Clears the reconnect backoff of every disconnected peer so the next
  /// Poll() retries immediately. Used by the termination protocol: a node
  /// about to exit must get its final status/confirm onto links that were
  /// still backing off, or peers wait for a resend that never comes.
  void KickReconnects();

  /// Runs connection housekeeping (reconnects, deadlines, fault knobs),
  /// polls the event loop once for up to `timeout_ms`, and dispatches
  /// inbound frames to the handler. Returns the first fatal error a
  /// handler reported, or a socket-layer internal error.
  util::Status Poll(int timeout_ms);

  /// Closes every connection and the listener (idempotent).
  void Shutdown();

 private:
  struct Conn {
    int fd = -1;
    std::string peer;  ///< outbound: target; inbound: set by kHello
    bool outbound = false;
    bool connected = false;  ///< outbound: TCP handshake completed
    std::string out;         ///< flush buffer (encoded frames)
    std::unique_ptr<FrameParser> parser;
    int64_t stalled_since_ms = -1;  ///< mid-frame since (read deadline)
    uint32_t mask = 0;              ///< current epoll interest
  };

  struct Unacked {
    std::string bytes;        ///< encoded frame
    bool transmitted = false; ///< handed to the socket at least once
  };

  struct Peer {
    std::string host;
    uint16_t port = 0;
    int fd = -1;  ///< current outbound connection (-1 = down)
    uint64_t next_seq = 1;
    /// Reliable frames retained until acked (seq order). Untransmitted
    /// entries are the outbound batch the next flush ships; a reconnect
    /// marks every entry untransmitted again (at-least-once resend).
    std::map<uint64_t, Unacked> unacked;
    size_t pending_bytes = 0;  ///< bytes of untransmitted unacked frames
    int backoff_ms = 0;
    int64_t next_connect_ms = 0;
    bool ever_connected = false;
  };

  void StartConnect(const std::string& name, Peer* peer);
  void OnConnectWritable(int fd);
  void OnListenerReadable();
  void OnConnReadable(int fd);
  void FlushConn(int fd);
  void CloseConn(int fd, bool schedule_reconnect);
  void UpdateMask(Conn* conn, uint32_t mask);
  void FlushStaged(Peer* peer);
  void HousekeepConnections();
  util::Status HandleFrame(int fd, Frame frame);
  Conn* FindConn(int fd);

  std::string self_;
  Options options_;
  EventLoop loop_;
  FrameHandler handler_;
  ConnectHandler on_connect_;
  int listen_fd_ = -1;
  uint16_t listen_port_ = 0;
  std::map<std::string, Peer> peers_;
  std::map<int, Conn> conns_;
  /// Sequence numbers already delivered per sending peer (duplicate
  /// detection for stats; duplicates are still delivered to the handler to
  /// exercise end-to-end idempotency).
  std::map<std::string, std::unordered_set<uint64_t>> delivered_in_;
  WireCounters* wire_;
  util::Status deferred_error_;
  uint64_t reliable_frames_queued_ = 0;  ///< for the forced-drop knob
  std::string drop_pending_peer_;        ///< armed forced drop (knob)
  bool drop_done_ = false;
};

}  // namespace lbtrust::net

#endif  // LBTRUST_NET_TRANSPORT_H_
