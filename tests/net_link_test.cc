#include "net/link.h"

#include <algorithm>
#include <random>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace lbtrust::net {
namespace {

Frame DataFrame(const std::string& payload) {
  Frame frame;
  frame.kind = Frame::Kind::kData;
  frame.relation = "export";
  frame.payload = payload;
  return frame;
}

/// The sequence numbers `link` ships on its next flush, in order.
std::vector<uint64_t> Flushed(Link* link) {
  std::vector<uint64_t> seqs;
  link->Flush([&](const Frame& frame) { seqs.push_back(frame.seq); });
  return seqs;
}

TEST(WindowTest, InOrderArrivalKeepsNothingAboveTheMark) {
  Window window;
  for (uint64_t seq = 1; seq <= 100000; ++seq) {
    ASSERT_FALSE(window.Repeat(seq)) << seq;
  }
  EXPECT_EQ(window.above_mark(), 0u);
  EXPECT_TRUE(window.Repeat(1));
  EXPECT_TRUE(window.Repeat(100000));
  EXPECT_FALSE(window.Repeat(100001));
  EXPECT_EQ(window.above_mark(), 0u);
}

TEST(WindowTest, ShuffledRepeatsClassifyAsASetDoes) {
  for (uint32_t seed = 1; seed <= 20; ++seed) {
    std::mt19937 rng(seed);
    // 1..500, a third of them twice or three times, in random order.
    std::vector<uint64_t> arrivals;
    for (uint64_t seq = 1; seq <= 500; ++seq) {
      arrivals.push_back(seq);
      if (rng() % 3 == 0) arrivals.push_back(seq);
      if (rng() % 9 == 0) arrivals.push_back(seq);
    }
    std::shuffle(arrivals.begin(), arrivals.end(), rng);
    Window window;
    std::set<uint64_t> oracle;
    for (uint64_t seq : arrivals) {
      ASSERT_EQ(window.Repeat(seq), !oracle.insert(seq).second)
          << "seed " << seed << " seq " << seq;
    }
    // Every number arrived, so the mark covers them all.
    EXPECT_EQ(window.above_mark(), 0u) << "seed " << seed;
  }
}

TEST(LinkTest, QueueNumbersFromOneAndFlushShipsOnce) {
  Link link;
  for (int i = 0; i < 3; ++i) link.Queue(DataFrame("x"), 10);
  EXPECT_EQ(link.unacked(), 3u);
  EXPECT_EQ(link.unsent_bytes(), 30u);
  EXPECT_EQ(Flushed(&link), (std::vector<uint64_t>{1, 2, 3}));
  EXPECT_EQ(link.unsent_bytes(), 0u);
  EXPECT_TRUE(Flushed(&link).empty());
  link.Ack(2);
  EXPECT_EQ(link.unacked(), 2u);
}

TEST(LinkTest, ResetRequeuesUnackedInOrderAndCountsTheSent) {
  Link link;
  for (int i = 0; i < 5; ++i) link.Queue(DataFrame("x"), 10);
  ASSERT_EQ(Flushed(&link).size(), 5u);
  link.Queue(DataFrame("y"), 7);  // 6, never sent
  link.Ack(2);
  link.Ack(4);
  // 1, 3 and 5 were sent and are unacked; 6 was never sent.
  EXPECT_EQ(link.Reset(), 3u);
  EXPECT_EQ(link.unacked(), 4u);
  EXPECT_EQ(link.unsent_bytes(), 37u);
  EXPECT_EQ(Flushed(&link), (std::vector<uint64_t>{1, 3, 5, 6}));
  // A reset before anything was sent again re-queues the same frames.
  EXPECT_EQ(link.Reset(), 4u);
  EXPECT_EQ(link.Reset(), 0u);
  EXPECT_EQ(Flushed(&link), (std::vector<uint64_t>{1, 3, 5, 6}));
}

TEST(LinkTest, UnknownOrRepeatedAckChangesNothing) {
  Link link;
  link.Queue(DataFrame("x"), 10);
  link.Queue(DataFrame("y"), 20);
  ASSERT_EQ(Flushed(&link).size(), 2u);
  link.Queue(DataFrame("z"), 30);  // 3, unsent
  link.Ack(1);
  ASSERT_EQ(link.unacked(), 2u);
  ASSERT_EQ(link.unsent_bytes(), 30u);
  for (uint64_t seq : {1, 1, 0, 4, 99}) {
    link.Ack(seq);
    EXPECT_EQ(link.unacked(), 2u) << seq;
    EXPECT_EQ(link.unsent_bytes(), 30u) << seq;
  }
  link.Ack(3);  // acked before it was sent: its bytes leave the queue
  EXPECT_EQ(link.unsent_bytes(), 0u);
  EXPECT_EQ(Flushed(&link), std::vector<uint64_t>{});
  link.Ack(2);
  EXPECT_EQ(link.unacked(), 0u);
}

/// A network whose frames go nowhere: exposes the receive step.
class LoopbackNetwork final : public Network {
 public:
  explicit LoopbackNetwork(WireCounters* wire) : Network("b", wire) {
    links_["a"];
  }
  bool Send(const std::string& peer, Frame frame) override {
    if (!frame.reliable()) return true;
    Queue(peer, std::move(frame), 0);
    links_.at(peer).Flush([](const Frame&) {});
    return true;
  }
  bool SendQueuesEmpty() const override { return true; }
  using Network::AckFor;
  using Network::Receive;
};

TEST(NetworkTest, ReceiveStepAcksOnlyWhatTheHandlerAccepted) {
  obs::MetricsRegistry metrics;
  WireCounters wire(&metrics);
  LoopbackNetwork net(&wire);
  std::vector<uint64_t> handled;
  bool accept = false;
  net.set_handler([&](const Frame& frame) {
    handled.push_back(frame.seq);
    return accept ? util::OkStatus() : util::InvalidArgument("rejected");
  });
  Frame frame = DataFrame("x");
  frame.from = "a";
  frame.seq = 1;
  EXPECT_FALSE(net.Receive(frame).ok());  // rejected: no ack owed
  accept = true;
  auto owed = net.Receive(frame);
  ASSERT_TRUE(owed.ok());
  EXPECT_TRUE(*owed);
  EXPECT_EQ(net.AckFor(frame).seq, 1u);
  EXPECT_EQ(net.AckFor(frame).from, "b");
  EXPECT_EQ(handled, (std::vector<uint64_t>{1, 1}));
  EXPECT_EQ(wire.Read().duplicate_frames_in, 1u);  // the second copy

  // An ack releases the link's frame and never reaches the handler.
  ASSERT_TRUE(net.Send("a", DataFrame("y")));
  EXPECT_FALSE(net.AllAcked());
  Frame ack = net.AckFor(frame);
  ack.from = "a";
  owed = net.Receive(ack);
  ASSERT_TRUE(owed.ok());
  EXPECT_FALSE(*owed);
  EXPECT_TRUE(net.AllAcked());
  EXPECT_EQ(handled.size(), 2u);
}

}  // namespace
}  // namespace lbtrust::net
