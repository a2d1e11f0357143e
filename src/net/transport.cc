#include "net/transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "util/log.h"
#include "util/strings.h"

namespace lbtrust::net {

using util::LogLevel;
using util::Status;

namespace {

Status Errno(const char* what) {
  return util::Internal(util::StrCat(what, ": ", std::strerror(errno)));
}

bool FillAddr(const std::string& host, uint16_t port, sockaddr_in* addr) {
  std::memset(addr, 0, sizeof(*addr));
  addr->sin_family = AF_INET;
  addr->sin_port = htons(port);
  return inet_pton(AF_INET, host.c_str(), &addr->sin_addr) == 1;
}

}  // namespace

Transport::Transport(std::string self, Options options, WireCounters* wire)
    : Network(std::move(self), wire), options_(std::move(options)) {}

Transport::~Transport() { Shutdown(); }

void Transport::Shutdown() {
  while (!conns_.empty()) {
    int fd = conns_.begin()->first;
    loop_.Remove(fd);
    close(fd);
    conns_.erase(fd);
  }
  for (auto& [name, peer] : peers_) peer.fd = -1;
  if (listen_fd_ >= 0) {
    loop_.Remove(listen_fd_);
    close(listen_fd_);
    listen_fd_ = -1;
  }
}

Status Transport::Listen(const std::string& host, uint16_t port) {
  if (listen_fd_ >= 0) return util::FailedPrecondition("already listening");
  sockaddr_in addr;
  if (!FillAddr(host, port, &addr)) {
    return util::InvalidArgument(util::StrCat("bad listen host '", host, "'"));
  }
  int fd = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return Errno("socket");
  int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return Errno("bind");
  }
  if (listen(fd, 64) != 0) {
    close(fd);
    return Errno("listen");
  }
  socklen_t len = sizeof(addr);
  if (getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    close(fd);
    return Errno("getsockname");
  }
  listen_port_ = ntohs(addr.sin_port);
  listen_fd_ = fd;
  return loop_.Add(fd, EPOLLIN, [this](uint32_t) { OnListenerReadable(); });
}

void Transport::AddPeer(const std::string& name, const std::string& host,
                        uint16_t port) {
  Peer& peer = peers_[name];
  peer.host = host;
  peer.port = port;
  peer.backoff_ms = options_.reconnect_backoff_min_ms;
  peer.next_connect_ms = 0;  // connect on the next Poll
  links_[name];
}

std::vector<Transport::PeerState> Transport::peer_states() const {
  std::vector<PeerState> out;
  out.reserve(peers_.size());
  for (const auto& [name, peer] : peers_) {
    PeerState state;
    state.name = name;
    state.host = peer.host;
    state.port = peer.port;
    if (peer.fd != -1) {
      auto it = conns_.find(peer.fd);
      state.connected = it != conns_.end() && it->second.connected;
    }
    state.ever_connected = peer.ever_connected;
    state.unacked = links_.at(name).unacked();
    out.push_back(std::move(state));
  }
  return out;
}

Transport::Conn* Transport::FindConn(int fd) {
  auto it = conns_.find(fd);
  return it == conns_.end() ? nullptr : &it->second;
}

Transport::Conn* Transport::Connection(const Peer& peer) {
  Conn* conn = peer.fd >= 0 ? FindConn(peer.fd) : nullptr;
  return conn != nullptr && conn->connected ? conn : nullptr;
}

void Transport::UpdateMask(Conn* conn, uint32_t mask) {
  if (conn->mask == mask) return;
  conn->mask = mask;
  loop_.Modify(conn->fd, mask).ok();  // fd may be racing a close; best-effort
}

void Transport::StartConnect(const std::string& name, Peer* peer) {
  sockaddr_in addr;
  if (!FillAddr(peer->host, peer->port, &addr)) {
    deferred_error_ = util::InvalidArgument(
        util::StrCat("bad peer host '", peer->host, "'"));
    return;
  }
  int fd = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return;  // fd exhaustion: retry after backoff
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  int rc = connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    close(fd);
    peer->next_connect_ms = EventLoop::NowMs() + peer->backoff_ms;
    peer->backoff_ms = std::min(peer->backoff_ms * 2,
                                options_.reconnect_backoff_max_ms);
    return;
  }
  Conn conn;
  conn.fd = fd;
  conn.peer = name;
  conn.outbound = true;
  conn.connected = (rc == 0);
  conn.parser = std::make_unique<FrameParser>(options_.max_frame_bytes);
  conn.mask = conn.connected ? EPOLLIN : (EPOLLIN | EPOLLOUT);
  conns_.emplace(fd, std::move(conn));
  peer->fd = fd;
  Status st = loop_.Add(fd, conns_[fd].mask, [this, fd](uint32_t events) {
    Conn* c = FindConn(fd);
    if (c == nullptr) return;
    if (!c->connected) {
      OnConnectWritable(fd);
      return;
    }
    if (events & (EPOLLHUP | EPOLLERR)) {
      CloseConn(fd, /*schedule_reconnect=*/true);
      return;
    }
    if (events & EPOLLIN) OnConnReadable(fd);
    if (FindConn(fd) != nullptr && (events & EPOLLOUT)) FlushConn(fd);
  });
  if (!st.ok()) {
    conns_.erase(fd);
    close(fd);
    peer->fd = -1;
    return;
  }
  if (conns_[fd].connected) OnConnectWritable(fd);
}

void Transport::OnConnectWritable(int fd) {
  Conn* conn = FindConn(fd);
  if (conn == nullptr) return;
  Peer& peer = peers_[conn->peer];
  if (!conn->connected) {
    int err = 0;
    socklen_t len = sizeof(err);
    getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
    if (err != 0) {
      CloseConn(fd, /*schedule_reconnect=*/true);
      return;
    }
    conn->connected = true;
    UpdateMask(conn, EPOLLIN);
  }
  peer.backoff_ms = options_.reconnect_backoff_min_ms;
  // Hello first, then every unacked frame again: the resend path.
  Connected(conn->peer, peer.ever_connected);
  peer.ever_connected = true;
  FlushStaged(conn->peer, peer);
  FlushConn(fd);
}

void Transport::OnListenerReadable() {
  for (;;) {
    int fd = accept4(listen_fd_, nullptr, nullptr,
                     SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN or transient error: wait for next event
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    Conn conn;
    conn.fd = fd;
    conn.outbound = false;
    conn.connected = true;
    conn.parser = std::make_unique<FrameParser>(options_.max_frame_bytes);
    conn.mask = EPOLLIN;
    conns_.emplace(fd, std::move(conn));
    Status st = loop_.Add(fd, EPOLLIN, [this, fd](uint32_t events) {
      if (events & (EPOLLHUP | EPOLLERR)) {
        CloseConn(fd, /*schedule_reconnect=*/false);
        return;
      }
      if (events & EPOLLIN) OnConnReadable(fd);
      if (FindConn(fd) != nullptr && (events & EPOLLOUT)) FlushConn(fd);
    });
    if (!st.ok()) {
      conns_.erase(fd);
      close(fd);
    }
  }
}

void Transport::CloseConn(int fd, bool schedule_reconnect) {
  Conn* conn = FindConn(fd);
  if (conn == nullptr) return;
  std::string peer_name = conn->peer;
  bool outbound = conn->outbound;
  loop_.Remove(fd);
  close(fd);
  conns_.erase(fd);
  if (outbound) {
    auto it = peers_.find(peer_name);
    if (it != peers_.end()) {
      it->second.fd = -1;
      if (schedule_reconnect) {
        it->second.next_connect_ms =
            EventLoop::NowMs() + it->second.backoff_ms;
        it->second.backoff_ms = std::min(
            it->second.backoff_ms * 2, options_.reconnect_backoff_max_ms);
      }
    }
  }
}

bool Transport::Send(const std::string& peer_name, Frame frame) {
  auto it = peers_.find(peer_name);
  if (it == peers_.end()) return false;
  frame.from = self_;
  Conn* conn = Connection(it->second);
  if (!frame.reliable()) {
    // Best-effort control traffic: drop while disconnected.
    if (conn == nullptr) {
      LBTRUST_LOG(LogLevel::kDebug, "[%s] drop kind=%c to %s (disconnected)",
                  self_.c_str(), static_cast<char>(frame.kind),
                  peer_name.c_str());
      return true;
    }
    conn->out += EncodeFrame(frame);
    wire_->Sent(frame.kind);
    return true;
  }
  const size_t bytes = EncodeFrame(frame).size();  // seq 0 sizing probe
  size_t queued = links_.at(peer_name).unsent_bytes();
  if (conn != nullptr) queued += conn->out.size();
  if (queued + bytes > options_.send_queue_limit_bytes) {
    return false;  // backpressure: caller retries after the next Poll
  }
  Queue(peer_name, std::move(frame), bytes);
  ++reliable_frames_queued_;
  if (!drop_done_ && options_.drop_connection_after_data_frames != 0 &&
      reliable_frames_queued_ >= options_.drop_connection_after_data_frames &&
      drop_pending_peer_.empty()) {
    // Arm the forced drop: the connection carrying this frame is closed
    // once its buffer has flushed, losing any acks in flight — the
    // reconnect must resend every unacked frame.
    drop_pending_peer_ = peer_name;
  }
  return true;
}

void Transport::KickReconnects() {
  for (auto& [name, peer] : peers_) {
    if (peer.fd < 0) {
      peer.next_connect_ms = 0;
      peer.backoff_ms = options_.reconnect_backoff_min_ms;
    }
  }
}

bool Transport::SendQueuesEmpty() const {
  for (const auto& [fd, conn] : conns_) {
    if (!conn.out.empty()) return false;
  }
  for (const auto& [name, link] : links_) {
    if (link.unsent_bytes() != 0) return false;
  }
  return true;
}

void Transport::FlushStaged(const std::string& name, const Peer& peer) {
  Conn* conn = Connection(peer);
  if (conn == nullptr) return;
  links_.at(name).Flush([&](const Frame& frame) {
    conn->out += EncodeFrame(frame);
    wire_->Sent(frame.kind);
  });
}

void Transport::FlushConn(int fd) {
  Conn* conn = FindConn(fd);
  if (conn == nullptr || !conn->connected) return;
  while (!conn->out.empty()) {
    ssize_t n = send(fd, conn->out.data(), conn->out.size(), MSG_NOSIGNAL);
    if (n > 0) {
      wire_->bytes_out->Add(static_cast<uint64_t>(n));
      conn->out.erase(0, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    CloseConn(fd, /*schedule_reconnect=*/conn->outbound);
    return;
  }
  UpdateMask(conn, conn->out.empty() ? EPOLLIN : (EPOLLIN | EPOLLOUT));
}

void Transport::OnConnReadable(int fd) {
  Conn* conn = FindConn(fd);
  if (conn == nullptr) return;
  char chunk[65536];
  for (;;) {
    ssize_t n = read(fd, chunk, sizeof(chunk));
    if (n > 0) {
      wire_->bytes_in->Add(static_cast<uint64_t>(n));
      if (!conn->parser->Append(std::string_view(chunk,
                                                 static_cast<size_t>(n)))) {
        // Oversize or malformed header: cut the peer off before any body
        // allocation happened.
        if (conn->parser->error().find("exceeds cap") != std::string::npos) {
          wire_->oversize_rejects->Add();
        }
        CloseConn(fd, /*schedule_reconnect=*/conn->outbound);
        return;
      }
      continue;
    }
    if (n == 0) {  // EOF
      CloseConn(fd, /*schedule_reconnect=*/conn->outbound);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    CloseConn(fd, /*schedule_reconnect=*/conn->outbound);
    return;
  }
  for (;;) {
    util::Result<std::optional<Frame>> next = conn->parser->Next();
    if (!next.ok()) {
      CloseConn(fd, /*schedule_reconnect=*/conn->outbound);
      return;
    }
    if (!next->has_value()) break;
    Status st = HandleFrame(fd, **next);
    if (!st.ok()) {
      // Fatal for the node (e.g. a rejected credential bundle): stop
      // delivering and surface the error from Poll().
      if (deferred_error_.ok()) deferred_error_ = st;
      return;
    }
    conn = FindConn(fd);  // the handler may have torn the connection down
    if (conn == nullptr) return;
  }
  if (conn->parser->mid_frame()) {
    if (conn->stalled_since_ms < 0) {
      conn->stalled_since_ms = EventLoop::NowMs();
    }
  } else {
    conn->stalled_since_ms = -1;
  }
}

util::Status Transport::HandleFrame(int fd, const Frame& frame) {
  LB_ASSIGN_OR_RETURN(const bool ack_owed, Receive(frame));
  // The ack goes back on the connection the frame came in on; the handler
  // may have torn that down.
  Conn* conn = FindConn(fd);
  if (ack_owed && conn != nullptr) {
    conn->out += EncodeFrame(AckFor(frame));
    wire_->Sent(Frame::Kind::kAck);
    FlushConn(fd);
  }
  return util::OkStatus();
}

void Transport::HousekeepConnections() {
  int64_t now = EventLoop::NowMs();
  // (Re)connect peers whose backoff expired.
  for (auto& [name, peer] : peers_) {
    if (peer.fd < 0 && now >= peer.next_connect_ms) {
      StartConnect(name, &peer);
    }
  }
  // Ship any untransmitted reliable frames and drain buffers.
  for (auto& [name, peer] : peers_) {
    FlushStaged(name, peer);
    if (peer.fd >= 0) FlushConn(peer.fd);
  }
  // Forced-drop knob: once the armed connection has fully flushed, close
  // it (acks in flight are lost; the reconnect resends unacked frames).
  if (!drop_pending_peer_.empty()) {
    Peer& peer = peers_.at(drop_pending_peer_);
    Conn* conn = Connection(peer);
    if (conn != nullptr && conn->out.empty() &&
        links_.at(drop_pending_peer_).unsent_bytes() == 0) {
      CloseConn(peer.fd, /*schedule_reconnect=*/true);
      drop_pending_peer_.clear();
      drop_done_ = true;
    }
  }
  // Slow-loris defense: connections stalled mid-frame past the deadline.
  std::vector<int> stalled;
  for (auto& [fd, conn] : conns_) {
    if (conn.stalled_since_ms >= 0 &&
        now - conn.stalled_since_ms > options_.read_deadline_ms) {
      stalled.push_back(fd);
    }
  }
  for (int fd : stalled) {
    wire_->deadline_closes->Add();
    Conn* conn = FindConn(fd);
    CloseConn(fd, /*schedule_reconnect=*/conn != nullptr && conn->outbound);
  }
}

Status Transport::Poll(int timeout_ms) {
  HousekeepConnections();
  LB_RETURN_IF_ERROR(loop_.PollOnce(timeout_ms).status());
  HousekeepConnections();
  if (!deferred_error_.ok()) {
    Status st = deferred_error_;
    deferred_error_ = util::OkStatus();
    return st;
  }
  return util::OkStatus();
}

}  // namespace lbtrust::net
