#ifndef LBTRUST_NET_TRANSPORT_H_
#define LBTRUST_NET_TRANSPORT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/event_loop.h"
#include "net/link.h"
#include "util/status.h"

namespace lbtrust::net {

/// The socket transport of one node: byte I/O for the at-least-once core
/// (Network) over a non-blocking TCP listener plus one outbound connection
/// per peer, multiplexed on an epoll EventLoop and driven by the owner's
/// thread via Poll(). A node's frames to a peer travel on its outbound
/// connection; the peer's acks come back on that same connection, so a
/// dropped connection loses both and the reconnect resends.
///
///  - Outbound frames batch per peer into one contiguous write buffer, so
///    a round's worth of frames for a peer flushes in O(1) syscalls.
///  - Send queues are bounded (`send_queue_limit_bytes`); a full queue
///    makes Send() return false — backpressure the caller absorbs by
///    retrying after the next Poll().
///  - Outbound connections reconnect with exponential backoff.
///  - Inbound hardening: the declared frame length is checked against
///    `max_frame_bytes` before body bytes are buffered, and a connection
///    stalled mid-frame longer than `read_deadline_ms` is closed
///    (slow-loris defense).
///
/// Single-threaded: every method (including handler callbacks, which fire
/// inside Poll()) runs on the owner's thread; handler errors are surfaced
/// from Poll().
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

  /// Counts into `wire`, which must outlive the transport.
  Transport(std::string self, Options options, WireCounters* wire);
  ~Transport();

  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  /// Binds and listens (port 0 picks an ephemeral port; see listen_port()).
  util::Status Listen(const std::string& host, uint16_t port);
  uint16_t listen_port() const { return listen_port_; }

  /// Registers a peer; the first Poll() starts connecting.
  void AddPeer(const std::string& name, const std::string& host,
               uint16_t port);

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
    std::string peer;  ///< outbound only: the target
    bool outbound = false;
    bool connected = false;  ///< outbound: TCP handshake completed
    std::string out;         ///< flush buffer (encoded frames)
    std::unique_ptr<FrameParser> parser;
    int64_t stalled_since_ms = -1;  ///< mid-frame since (read deadline)
    uint32_t mask = 0;              ///< current epoll interest
  };

  struct Peer {
    std::string host;
    uint16_t port = 0;
    int fd = -1;  ///< current outbound connection (-1 = down)
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
  /// Ships `name`'s unsent reliable frames onto its connection, if up.
  void FlushStaged(const std::string& name, const Peer& peer);
  void HousekeepConnections();
  util::Status HandleFrame(int fd, const Frame& frame);
  Conn* FindConn(int fd);
  /// The outbound connection to `peer`, or nullptr while it is down.
  Conn* Connection(const Peer& peer);

  Options options_;
  EventLoop loop_;
  int listen_fd_ = -1;
  uint16_t listen_port_ = 0;
  std::map<std::string, Peer> peers_;
  std::map<int, Conn> conns_;
  util::Status deferred_error_;
  uint64_t reliable_frames_queued_ = 0;  ///< for the forced-drop knob
  std::string drop_pending_peer_;        ///< armed forced drop (knob)
  bool drop_done_ = false;
};

}  // namespace lbtrust::net

#endif  // LBTRUST_NET_TRANSPORT_H_
