#include "net/transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "net/event_loop.h"

namespace lbtrust::net {
namespace {

/// Polls every transport round-robin until `done` or the budget expires.
/// Single-threaded on purpose: transports are poll-driven, so one thread
/// can host both ends of a connection.
bool Pump(std::vector<Transport*> transports, std::function<bool()> done,
          int budget_ms = 5000) {
  int64_t deadline = EventLoop::NowMs() + budget_ms;
  while (EventLoop::NowMs() < deadline) {
    if (done()) return true;
    for (Transport* t : transports) {
      util::Status st = t->Poll(2);
      if (!st.ok()) {
        ADD_FAILURE() << st.ToString();
        return false;
      }
    }
  }
  return done();
}

Frame DataFrame(const std::string& relation, const std::string& payload) {
  Frame frame;
  frame.kind = Frame::Kind::kData;
  frame.relation = relation;
  frame.payload = payload;
  return frame;
}

struct Endpoint {
  explicit Endpoint(const std::string& name,
                    Transport::Options options = {})
      : transport(name, options, &wire) {
    transport.set_handler([this](const Frame& frame) {
      if (frame.kind == Frame::Kind::kData ||
          frame.kind == Frame::Kind::kCredential) {
        received.push_back(frame);
      }
      return util::OkStatus();
    });
    EXPECT_TRUE(transport.Listen("127.0.0.1", 0).ok());
  }

  TransportStats stats() const { return wire.Read(); }

  obs::MetricsRegistry metrics;  ///< declared first: outlives `transport`
  WireCounters wire{&metrics};   ///< the handles `transport` counts into
  Transport transport;
  std::vector<Frame> received;
};

TEST(TransportTest, DeliversBatchedFramesAndAcks) {
  Endpoint a("a"), b("b");
  a.transport.AddPeer("b", "127.0.0.1", b.transport.listen_port());
  b.transport.AddPeer("a", "127.0.0.1", a.transport.listen_port());

  ASSERT_TRUE(a.transport.Send("b", DataFrame("export", "payload-1")));
  ASSERT_TRUE(a.transport.Send("b", DataFrame("export", "payload-22")));
  ASSERT_TRUE(Pump({&a.transport, &b.transport}, [&] {
    return b.received.size() == 2 && a.transport.AllAcked();
  }));

  EXPECT_EQ(b.received[0].seq, 1u);
  EXPECT_EQ(b.received[0].from, "a");
  EXPECT_EQ(b.received[0].relation, "export");
  EXPECT_EQ(b.received[0].payload, "payload-1");
  EXPECT_EQ(b.received[1].seq, 2u);

  const TransportStats out = a.stats();
  EXPECT_EQ(out.data_frames_out, 2u);
  EXPECT_EQ(out.tuple_bytes_out, std::strlen("payload-1payload-22"));
  EXPECT_EQ(out.acks_in, 2u);
  EXPECT_EQ(out.retries, 0u);
  EXPECT_EQ(out.reconnects, 0u);
  const TransportStats in = b.stats();
  EXPECT_EQ(in.data_frames_in, 2u);
  EXPECT_EQ(in.tuple_bytes_in, std::strlen("payload-1payload-22"));
  EXPECT_EQ(in.acks_out, 2u);
  EXPECT_EQ(in.duplicate_frames_in, 0u);
  EXPECT_GT(in.bytes_in, 0u);
}

TEST(TransportTest, CredentialBytesAccountedSeparately) {
  Endpoint a("a"), b("b");
  a.transport.AddPeer("b", "127.0.0.1", b.transport.listen_port());

  Frame cred;
  cred.kind = Frame::Kind::kCredential;
  cred.payload = "LBCB2-bundle-bytes";
  ASSERT_TRUE(a.transport.Send("b", std::move(cred)));
  ASSERT_TRUE(Pump({&a.transport, &b.transport},
                   [&] { return a.transport.AllAcked(); }));

  EXPECT_EQ(a.stats().credential_bytes_out,
            std::strlen("LBCB2-bundle-bytes"));
  EXPECT_EQ(a.stats().tuple_bytes_out, 0u);
  EXPECT_EQ(b.stats().credential_bytes_in,
            std::strlen("LBCB2-bundle-bytes"));
}

TEST(TransportTest, ForcedDropTriggersReconnectAndResend) {
  // The armed drop closes the carrying connection right after its bytes
  // flush — before any ack can arrive — so the reconnect must retransmit
  // and the receiver may see the frame twice. End state: acked.
  Transport::Options drop;
  drop.drop_connection_after_data_frames = 1;
  drop.reconnect_backoff_min_ms = 1;
  Endpoint a("a", drop), b("b");
  a.transport.AddPeer("b", "127.0.0.1", b.transport.listen_port());

  ASSERT_TRUE(a.transport.Send("b", DataFrame("export", "survives")));
  ASSERT_TRUE(Pump({&a.transport, &b.transport}, [&] {
    return a.transport.AllAcked() && !b.received.empty();
  }));

  EXPECT_GE(a.stats().reconnects, 1u);
  EXPECT_GE(a.stats().retries, 1u);
  EXPECT_EQ(b.received.front().payload, "survives");
  // Every copy that arrived carried the same sequence number.
  for (const Frame& frame : b.received) EXPECT_EQ(frame.seq, 1u);
}

TEST(TransportTest, ReconnectStatsReconcileAcrossRegistry) {
  // After a forced mid-run reconnect, the sender's and receiver's
  // counters must reconcile with each other, read straight from the
  // registry each transport counts into. Fixed-size payloads make the
  // byte equations exact: tuple_bytes_out counts each frame once (at
  // Send), tuple_bytes_in counts every delivery (duplicates included).
  Transport::Options drop;
  drop.drop_connection_after_data_frames = 3;
  drop.reconnect_backoff_min_ms = 1;
  Endpoint a("a", drop), b("b");
  a.transport.AddPeer("b", "127.0.0.1", b.transport.listen_port());
  b.transport.AddPeer("a", "127.0.0.1", a.transport.listen_port());

  constexpr uint64_t kFrames = 6;
  const std::string payload = "0123456789";  // 10 bytes, all frames
  for (uint64_t i = 0; i < kFrames; ++i) {
    ASSERT_TRUE(a.transport.Send("b", DataFrame("export", payload)));
  }
  ASSERT_TRUE(Pump({&a.transport, &b.transport}, [&] {
    return a.transport.AllAcked() && b.received.size() >= kFrames;
  }));

  const TransportStats out = a.stats();
  const TransportStats in = b.stats();
  // The forced drop happened mid-run and the mesh recovered from it.
  EXPECT_GE(out.reconnects, 1u);
  EXPECT_GE(out.retries, 1u);

  // Sender-side: each unique frame's payload counted exactly once, every
  // transmission (first sends + post-reconnect resends) counted in
  // data_frames_out.
  EXPECT_EQ(out.tuple_bytes_out, kFrames * payload.size());
  EXPECT_GE(out.data_frames_out, kFrames);

  // Receiver-side: every delivery (duplicates included) counted in both
  // data_frames_in and tuple_bytes_in; duplicates are exactly the
  // deliveries beyond the unique kFrames.
  EXPECT_EQ(in.data_frames_in, static_cast<uint64_t>(b.received.size()));
  EXPECT_EQ(in.tuple_bytes_in, in.data_frames_in * payload.size());
  EXPECT_EQ(in.duplicate_frames_in, in.data_frames_in - kFrames);
  // Cross-side reconciliation: the inbound byte surplus is exactly the
  // duplicated payload bytes.
  EXPECT_EQ(in.tuple_bytes_in - out.tuple_bytes_out,
            in.duplicate_frames_in * payload.size());
  // Acks: the drop may lose acks in flight toward the sender, never the
  // other direction.
  EXPECT_GE(in.acks_out, out.acks_in);

  // Every view field is the series of its lbtrust_transport_* name.
  obs::MetricsRegistry& sender_reg = a.metrics;
  obs::MetricsRegistry& receiver_reg = b.metrics;
  EXPECT_EQ(sender_reg
                .GetCounter("lbtrust_transport_tuple_bytes_total",
                            "direction=\"out\"")
                ->value(),
            out.tuple_bytes_out);
  EXPECT_EQ(sender_reg.GetCounter("lbtrust_transport_retries_total")->value(),
            out.retries);
  EXPECT_EQ(
      sender_reg.GetCounter("lbtrust_transport_reconnects_total")->value(),
      out.reconnects);
  EXPECT_EQ(receiver_reg
                .GetCounter("lbtrust_transport_tuple_bytes_total",
                            "direction=\"in\"")
                ->value(),
            in.tuple_bytes_in);
  EXPECT_EQ(receiver_reg
                .GetCounter("lbtrust_transport_duplicate_frames_in_total")
                ->value(),
            in.duplicate_frames_in);
  std::string text = sender_reg.RenderText();
  EXPECT_NE(text.find("lbtrust_transport_tuple_bytes_total{direction=\"out\"} "),
            std::string::npos);
  EXPECT_NE(text.find("lbtrust_transport_retries_total "), std::string::npos);
}

TEST(TransportTest, BoundedSendQueueBackpressure) {
  Transport::Options tiny;
  tiny.send_queue_limit_bytes = 220;
  Endpoint a("a", tiny), b("b");
  a.transport.AddPeer("b", "127.0.0.1", b.transport.listen_port());

  // Peer never polled yet: frames pile up until the bound refuses more.
  int accepted = 0;
  while (a.transport.Send("b", DataFrame("r", "0123456789")) &&
         accepted < 100) {
    ++accepted;
  }
  ASSERT_GT(accepted, 0);
  ASSERT_LT(accepted, 10);  // ~50 encoded bytes each against a 220-byte cap
  EXPECT_FALSE(a.transport.SendQueuesEmpty());

  // Draining the queue (connect + flush + acks) lifts the backpressure.
  ASSERT_TRUE(Pump({&a.transport, &b.transport},
                   [&] { return a.transport.AllAcked(); }));
  EXPECT_TRUE(a.transport.Send("b", DataFrame("r", "0123456789")));
  ASSERT_TRUE(Pump({&a.transport, &b.transport},
                   [&] { return a.transport.AllAcked(); }));
  EXPECT_EQ(b.received.size(), static_cast<size_t>(accepted) + 1);
}

TEST(TransportTest, SendToUnknownPeerFails) {
  Endpoint a("a");
  EXPECT_FALSE(a.transport.Send("nobody", DataFrame("r", "x")));
}

TEST(TransportTest, UnreliableFramesDropWhileDisconnected) {
  Endpoint a("a");
  a.transport.AddPeer("b", "127.0.0.1", 1);  // nothing listens there
  Frame status;
  status.kind = Frame::Kind::kStatus;
  status.payload = "0:0";
  EXPECT_TRUE(a.transport.Send("b", std::move(status)));  // dropped, not queued
  EXPECT_TRUE(a.transport.SendQueuesEmpty());
  EXPECT_TRUE(a.transport.AllAcked());
}

/// Blocking client socket for adversarial wire-level tests.
class RawClient {
 public:
  explicit RawClient(uint16_t port) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ =
        connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  }
  ~RawClient() {
    if (fd_ >= 0) close(fd_);
  }
  bool connected() const { return connected_; }
  void Write(const std::string& bytes) {
    ASSERT_EQ(send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
  }
  /// True once the server closed its end (EOF or reset).
  bool ServerClosed() {
    char byte;
    ssize_t n = recv(fd_, &byte, 1, MSG_DONTWAIT);
    if (n == 0) return true;
    return n < 0 && errno != EAGAIN && errno != EWOULDBLOCK;
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
};

TEST(TransportHardeningTest, MidFrameStallClosesConnection) {
  Transport::Options strict;
  strict.read_deadline_ms = 50;
  Endpoint a("a", strict);
  RawClient client(a.transport.listen_port());
  ASSERT_TRUE(client.connected());

  // A complete header declaring 999 bytes, then silence: the slow-loris
  // pattern. The server must cut the connection after the deadline.
  client.Write("999:D:1");
  ASSERT_TRUE(Pump({&a.transport}, [&] {
    return a.stats().deadline_closes >= 1;
  }));
  ASSERT_TRUE(Pump({&a.transport}, [&] { return client.ServerClosed(); }));
}

TEST(TransportHardeningTest, OversizeFrameClosedBeforeAllocation) {
  Transport::Options strict;
  strict.max_frame_bytes = 1024;
  Endpoint a("a", strict);
  RawClient client(a.transport.listen_port());
  ASSERT_TRUE(client.connected());

  // Declares a 64 MiB body; the 1 KiB cap rejects it from the header
  // alone, before any body byte is buffered.
  client.Write("67108864:");
  ASSERT_TRUE(Pump({&a.transport}, [&] {
    return a.stats().oversize_rejects >= 1;
  }));
  ASSERT_TRUE(Pump({&a.transport}, [&] { return client.ServerClosed(); }));
}

TEST(TransportHardeningTest, MalformedFrameClosesConnection) {
  Endpoint a("a");
  RawClient client(a.transport.listen_port());
  ASSERT_TRUE(client.connected());
  client.Write("complete garbage, no length prefix anywhere");
  ASSERT_TRUE(Pump({&a.transport}, [&] { return client.ServerClosed(); }));
  EXPECT_TRUE(a.received.empty());
}

}  // namespace
}  // namespace lbtrust::net
