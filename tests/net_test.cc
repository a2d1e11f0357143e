#include "net/cluster.h"

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "datalog/parser.h"
#include "net/wire.h"

namespace lbtrust::net {
namespace {

using datalog::Tuple;
using datalog::Value;
using datalog::ValueKind;

/// An in-process mesh of `nodes` with 512-bit keys (nullptr on failure).
std::unique_ptr<SimCluster> Mesh(std::vector<std::string> nodes,
                                 const std::string& scheme,
                                 bool default_placement = true) {
  DistributedCluster::Options opts;
  opts.nodes = std::move(nodes);
  opts.scheme = scheme;
  opts.default_placement = default_placement;
  opts.runtime.rsa_bits = 512;
  auto cluster = SimCluster::Create(std::move(opts));
  EXPECT_TRUE(cluster.ok()) << cluster.status().ToString();
  return cluster.ok() ? std::move(*cluster) : nullptr;
}

/// One tuple through the block codec.
util::Result<Tuple> RoundTrip(const Tuple& t) {
  LB_ASSIGN_OR_RETURN(std::vector<Tuple> back,
                      DeserializeTupleBlock(SerializeTupleBlock({t})));
  if (back.size() != 1) return util::Internal("expected one row");
  return back[0];
}

TEST(WireTest, ScalarRoundTrip) {
  Tuple t = {Value::Int(-42),       Value::Str("a:b|c"),
             Value::Sym("alice"),   Value::Bool(true),
             Value::Double(2.5),    Value()};
  auto back = RoundTrip(t);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(*back, t);
}

TEST(WireTest, CodeRoundTrip) {
  auto term = datalog::ParseTermText(
      "[| says(alice,bob,[| access(P,O,read). |]) <- grant(P,O). |]");
  ASSERT_TRUE(term.ok());
  Tuple t = {term->value};
  auto back = RoundTrip(t);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(*back, t);
  EXPECT_EQ((*back)[0].AsCode().canon, term->value.AsCode().canon);
}

TEST(WireTest, PartRefRoundTrip) {
  Tuple t = {Value::Part("export", Value::Sym("alice"))};
  auto back = RoundTrip(t);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, t);
  EXPECT_EQ((*back)[0].AsPart().predicate, "export");
}

TEST(WireTest, MalformedInputsReturnStatusNotCrash) {
  // Table-driven adversarial values, each the only dictionary entry of an
  // otherwise well-formed one-row block: every case must produce a non-OK
  // status — never a crash, over-read or runaway allocation.
  auto block = [](const std::string& value) {
    return "B:1:" + value + "1:1:0:";
  };
  ASSERT_TRUE(DeserializeTupleBlock(block("i:1:5")).ok());  // the frame
  struct Case {
    const char* name;
    const char* value;
  };
  const Case kCases[] = {
      {"empty", ""},
      {"truncated value header", "i"},
      {"missing value length delimiter", "i:5"},
      {"empty value length", "i::x"},
      {"non-numeric value length", "i:zz:x"},
      {"value length overflows size_t", "s:99999999999999999999999:x"},
      {"value length past end", "s:100:abc"},
      {"huge value length (wraparound)", "s:18446744073709551615:x"},
      {"bad length", "i:999:5"},
      {"bad int payload", "i:3:abc"},
      {"int payload with trailing junk", "i:4:5abc"},
      {"empty double payload", "d:0:"},
      {"bad double payload", "d:3:abc"},
      {"double payload trailing junk", "d:5:1.5xy"},
      {"double overflow", "d:6:1e9999"},
      {"bad bool payload", "b:1:7"},
      {"nil with payload", "n:1:x"},
      {"unknown kind tag", "z:1:x"},
      {"unknown kind", "q:1:x"},
      {"part without separator", "p:3:abc"},
      {"part with truncated key", "p:6:ex:i:9"},
      {"part with trailing bytes", "p:10:ex:i:1:5xx"},
      {"code payload without tag", "c:1:R"},
      {"code payload bad tag", "c:4:Z:p()"},
      {"code payload unparsable", "c:6:R:(((("},
      {"trailing bytes after value", "i:1:5xxx"},
  };
  for (const Case& c : kCases) {
    auto result = DeserializeTupleBlock(block(c.value));
    EXPECT_FALSE(result.ok()) << "case '" << c.name << "' should reject";
  }
  // Deeply nested part values (built inside-out with correct lengths) must
  // hit the depth limit, not the stack.
  std::string nested = "i:1:5";
  for (int i = 0; i < 2000; ++i) {
    std::string body = "x:" + nested;
    nested = "p:" + std::to_string(body.size()) + ":" + body;
  }
  EXPECT_FALSE(DeserializeTupleBlock(block(nested)).ok());
}

TEST(WireBlockTest, RoundTripWithDictionarySharing) {
  auto term = datalog::ParseTermText("[| ping(1). |]");
  ASSERT_TRUE(term.ok());
  std::vector<Tuple> tuples = {
      {Value::Sym("alice"), Value::Sym("bob"), Value::Int(1)},
      {Value::Sym("alice"), Value::Sym("bob"), Value::Int(2)},
      {Value::Sym("alice"), Value::Sym("carol"), term->value},
      {Value::Sym("alice"), Value::Sym("bob"), Value::Int(1)},  // repeat row
  };
  std::string block = SerializeTupleBlock(tuples);
  auto back = DeserializeTupleBlock(block);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(*back, tuples);
  // The dictionary dedups: the block must be smaller than one block per
  // tuple.
  size_t naive = 0;
  for (const Tuple& t : tuples) naive += SerializeTupleBlock({t}).size();
  EXPECT_LT(block.size(), naive);
  // "alice" is serialized exactly once in the whole message.
  size_t first = block.find("alice");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(block.find("alice", first + 1), std::string::npos);
}

TEST(WireBlockTest, EmptyBlockRoundTrips) {
  auto back = DeserializeTupleBlock(SerializeTupleBlock({}));
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->empty());
}

TEST(WireBlockTest, MalformedBlocksReturnStatusNotCrash) {
  const char* kCases[] = {
      "",
      "X:1:",                      // wrong magic
      "B:",                        // missing dictionary count
      "B:zz:",                     // bad dictionary count
      "B:99999999:i:1:5",          // dictionary count exceeds input
      "B:99999999999999999999999:i:1:5",  // dictionary count overflows
      "B:2:i:1:51:1:0:",           // two values claimed, one present
      "B:1:i:1:5",                 // missing row count
      "B:1:i:1:5zz:",              // bad row count
      "B:1:i:1:51:",               // missing row arity
      "B:1:i:1:51:1:",             // missing index
      "B:1:i:1:51:1:9:",           // index out of range
      "B:1:i:1:51:1:0:xx",         // trailing bytes
      "B:0:1:1:0:",                // index into empty dictionary
      "B:1:i:1:51:99:0:",          // oversized arity
  };
  for (const char* c : kCases) {
    EXPECT_FALSE(DeserializeTupleBlock(c).ok()) << "input: " << c;
  }
}

class SchemeExchangeTest : public ::testing::TestWithParam<const char*> {};

TEST_P(SchemeExchangeTest, TwoPrincipalExchange) {
  // The Figure 2 micro-workload at unit scale: alice exports authenticated
  // facts to bob through says; bob imports, verifies and activates them.
  auto cluster = Mesh({"alice", "bob"}, GetParam());
  ASSERT_NE(cluster, nullptr);

  auto* alice = cluster->node("alice");
  ASSERT_TRUE(
      alice->Load("says(me,bob,[| ping(N). |]) <- msg(N).").ok());
  ASSERT_TRUE(alice->workspace()->AddFactText("msg(1). msg(2). msg(3).").ok());

  auto stats = cluster->RunToConvergence();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  // All three exported tuples for bob batch into one dictionary-framed
  // block message (repeated principals ship once per message).
  EXPECT_EQ(stats->messages, 1u);

  auto* bob = cluster->node("bob");
  EXPECT_EQ(*bob->workspace()->Count("ping(N)"), 3u);
  EXPECT_EQ(*bob->workspace()->Count("says(alice,bob,R)"), 3u);
}

INSTANTIATE_TEST_SUITE_P(Schemes, SchemeExchangeTest,
                         ::testing::Values("plaintext", "hmac", "rsa"));

class TamperTest : public ::testing::TestWithParam<const char*> {};

TEST_P(TamperTest, AuthenticatedSchemesRejectTampering) {
  auto cluster = Mesh({"alice", "bob"}, GetParam());
  ASSERT_NE(cluster, nullptr);
  ASSERT_TRUE(cluster->node("alice")
                  ->Load("says(me,bob,[| balance(100). |]) <- go().")
                  .ok());
  ASSERT_TRUE(cluster->node("alice")->workspace()->AddFactText("go().").ok());

  // Flip a digit inside the payload: 100 -> 900 (the signature text stays).
  cluster->InjectTamper("export", [](std::string* payload) {
    size_t pos = payload->find("balance(100)");
    ASSERT_NE(pos, std::string::npos);
    (*payload)[pos + 8] = '9';
  });

  auto stats = cluster->RunToConvergence();
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), util::StatusCode::kConstraintViolation);
  EXPECT_NE(stats.status().message().find("bob"), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(AuthSchemes, TamperTest,
                         ::testing::Values("hmac", "rsa"));

TEST(TamperTest, PlaintextAcceptsTampering) {
  // The flip side of the security/efficiency tradeoff (§2.2): plaintext
  // "says" happily accepts the forged fact.
  auto cluster = Mesh({"alice", "bob"}, "plaintext");
  ASSERT_NE(cluster, nullptr);
  ASSERT_TRUE(cluster->node("alice")
                  ->Load("says(me,bob,[| balance(100). |]) <- go().")
                  .ok());
  ASSERT_TRUE(cluster->node("alice")->workspace()->AddFactText("go().").ok());
  cluster->InjectTamper("export", [](std::string* payload) {
    size_t pos = payload->find("balance(100)");
    ASSERT_NE(pos, std::string::npos);
    (*payload)[pos + 8] = '9';
  });
  auto stats = cluster->RunToConvergence();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(*cluster->node("bob")->workspace()->Count("balance(900)"), 1u);
}

TEST(ClusterTest, MessagesAreDedupedAcrossRounds) {
  auto cluster = Mesh({"alice", "bob"}, "plaintext");
  ASSERT_NE(cluster, nullptr);
  ASSERT_TRUE(cluster->node("alice")
                  ->Load("says(me,bob,[| ping(1). |]) <- go().")
                  .ok());
  ASSERT_TRUE(cluster->node("alice")->workspace()->AddFactText("go().").ok());
  auto first = cluster->RunToConvergence();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->messages, 1u);
  // A second run with new local facts at alice re-derives the same export
  // but must not re-ship it.
  ASSERT_TRUE(
      cluster->node("alice")->workspace()->AddFactText("unrelated(9).").ok());
  auto second = cluster->RunToConvergence();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->messages, 0u);
}

TEST(ClusterTest, ThreeHopRelay) {
  // a says to b; a rule at b forwards to c.
  auto cluster = Mesh({"a", "b", "c"}, "hmac");
  ASSERT_NE(cluster, nullptr);
  ASSERT_TRUE(cluster->node("a")
                  ->Load("says(me,b,[| token(1). |]) <- go().")
                  .ok());
  ASSERT_TRUE(cluster->node("a")->workspace()->AddFactText("go().").ok());
  ASSERT_TRUE(cluster->node("b")
                  ->Load("says(me,c,[| token(N). |]) <- token(N).")
                  .ok());
  auto stats = cluster->RunToConvergence();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(*cluster->node("c")->workspace()->Count("token(1)"), 1u);
  EXPECT_GE(stats->rounds, 2u);
}

TEST(ClusterTest, CustomPlacementMovesPartitions) {
  // Placement is ordinary data (§3.5): pointing loc(bob) at node "a" keeps
  // bob's export partition on a — nothing is shipped.
  auto cluster = Mesh({"a", "bob"}, "plaintext", /*default_placement=*/false);
  ASSERT_NE(cluster, nullptr);
  auto* a = cluster->node("a");
  ASSERT_TRUE(a->Load("ld2: predNode(export[P],N) <- loc(P,N).").ok());
  ASSERT_TRUE(a->workspace()->AddFactText("loc(bob,a).").ok());
  ASSERT_TRUE(a->Load("says(me,bob,[| ping(1). |]) <- go(). go().").ok());
  auto stats = cluster->RunToConvergence();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->messages, 0u);
  // Re-point bob's partition at node bob and re-run: now it ships.
  ASSERT_TRUE(a->workspace()->RemoveFact(
                   "loc", {Value::Sym("bob"), Value::Sym("a")})
                  .ok());
  ASSERT_TRUE(a->workspace()->AddFactText("loc(bob,bob).").ok());
  auto stats2 = cluster->RunToConvergence();
  ASSERT_TRUE(stats2.ok());
  EXPECT_EQ(stats2->messages, 1u);
}

}  // namespace
}  // namespace lbtrust::net
