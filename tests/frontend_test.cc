#include <map>
#include <memory>
#include <queue>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "binder/binder.h"
#include "crypto/secure_random.h"
#include "net/cluster.h"
#include "sendlog/sendlog.h"
#include "util/strings.h"

namespace lbtrust {
namespace {

using datalog::Value;

/// An in-process mesh of `nodes` with 512-bit keys (nullptr on failure).
std::unique_ptr<net::SimCluster> Mesh(std::vector<std::string> nodes,
                                      const std::string& scheme) {
  net::DistributedCluster::Options opts;
  opts.nodes = std::move(nodes);
  opts.scheme = scheme;
  opts.runtime.rsa_bits = 512;
  auto cluster = net::SimCluster::Create(std::move(opts));
  EXPECT_TRUE(cluster.ok()) << cluster.status().ToString();
  return cluster.ok() ? std::move(*cluster) : nullptr;
}

TEST(BinderCompileTest, SaysLowering) {
  auto core = binder::CompileBinder(
      "b1: access(P,O,read) :- good(P).\n"
      "b2: access(P,O,read) :- bob says access(P,O,read).");
  ASSERT_TRUE(core.ok()) << core.status().ToString();
  EXPECT_NE(core->find("says(bob,me,[| access(P,O,read). |])"),
            std::string::npos)
      << *core;
}

TEST(BinderCompileTest, VariablePrincipal) {
  auto core = binder::CompileBinder("t(X,S) :- X says s(S), trusted(X).");
  ASSERT_TRUE(core.ok());
  EXPECT_NE(core->find("says(X,me,[| s(S). |])"), std::string::npos);
}

TEST(BinderCompileTest, RejectsContexts) {
  EXPECT_FALSE(binder::CompileBinder("At S:\np(X) :- q(X).").ok());
}

TEST(BinderTest, Section22PolicyOverCluster) {
  // The paper's b1/b2: alice accepts access facts that bob says.
  auto cluster = Mesh({"alice", "bob"}, "rsa");
  ASSERT_NE(cluster, nullptr);

  // The paper's b1 ranges over "any object O"; range-restriction requires
  // the object relation to make that safe.
  auto st = binder::LoadBinder(
      cluster->node("alice"),
      "b1: access(P,O,read) :- good(P), object(O).\n"
      "b2: access(P,O,read) :- bob says access(P,O,read).");
  ASSERT_TRUE(st.ok()) << st.ToString();
  ASSERT_TRUE(cluster->node("alice")->workspace()
                  ->AddFactText("good(carol). object(f).")
                  .ok());
  // bob exports an access statement.
  ASSERT_TRUE(cluster->node("bob")
                  ->Load("says(me,alice,[| access(dave,f,read). |]) <- "
                         "grant(dave).")
                  .ok());
  ASSERT_TRUE(cluster->node("bob")->workspace()
                  ->AddFactText("grant(dave).")
                  .ok());
  auto stats = cluster->RunToConvergence();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  auto* alice = cluster->node("alice")->workspace();
  EXPECT_EQ(*alice->Count("access(carol,f,read)"), 1u);  // via b1
  EXPECT_EQ(*alice->Count("access(dave,f,read)"), 1u);   // via b2
}

TEST(BinderTest, PullRewriteAnswersRequests) {
  // §5.1 top-down evaluation: alice's import rule triggers a request to
  // bob; bob answers with his matching facts; alice derives access.
  auto cluster = Mesh({"alice", "bob"}, "hmac");
  ASSERT_NE(cluster, nullptr);

  ASSERT_TRUE(binder::LoadBinder(
                  cluster->node("alice"),
                  "access(P,O,read) :- bob says access(P,O,read).")
                  .ok());
  ASSERT_TRUE(
      binder::InstallPullRequester(cluster->node("alice")->workspace()).ok());
  ASSERT_TRUE(binder::InstallPullResponder(cluster->node("bob")->workspace(),
                                           "access", 3)
                  .ok());
  // bob holds the data but never proactively exports it.
  ASSERT_TRUE(cluster->node("bob")->workspace()
                  ->AddFactText("access(carol,f1,read). "
                                "access(dave,f2,read). "
                                "access(erin,f3,write).")
                  .ok());
  auto stats = cluster->RunToConvergence();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  auto* alice = cluster->node("alice")->workspace();
  // The request pattern fixes mode=read: both read facts arrive, the
  // write fact does not.
  EXPECT_EQ(*alice->Count("access(carol,f1,read)"), 1u);
  EXPECT_EQ(*alice->Count("access(dave,f2,read)"), 1u);
  EXPECT_EQ(*alice->Count("access(erin,X,Y)"), 0u);
}

TEST(SendlogCompileTest, PaperTranslation) {
  // s1/s2 of §5.2 compile to the paper's ls1/ls2.
  auto core = sendlog::CompileSendlog(
      "At S:\n"
      "s1: reachable(S,D) :- neighbor(S,D).\n"
      "s2: reachable(Z,D)@Z :- neighbor(S,Z), W says reachable(S,D).");
  ASSERT_TRUE(core.ok()) << core.status().ToString();
  EXPECT_NE(core->find("reachable(me,D) <- neighbor(me,D)."),
            std::string::npos)
      << *core;
  EXPECT_NE(core->find("says(me,Z,[| reachable(Z,D). |]) <- neighbor(me,Z), "
                       "says(W,me,[| reachable(me,D). |])."),
            std::string::npos)
      << *core;
}

TEST(SendlogCompileTest, ConstantContextNeedsCluster) {
  EXPECT_FALSE(sendlog::CompileSendlog("At alice:\np(X) :- q(X).").ok());
}

// Reference reachability: BFS over the (directed) edge set.
std::set<std::pair<std::string, std::string>> BfsReachability(
    const std::map<std::string, std::set<std::string>>& adj) {
  std::set<std::pair<std::string, std::string>> out;
  for (const auto& [src, next] : adj) {
    std::queue<std::string> frontier;
    std::set<std::string> seen;
    frontier.push(src);
    seen.insert(src);
    while (!frontier.empty()) {
      std::string cur = frontier.front();
      frontier.pop();
      auto it = adj.find(cur);
      if (it == adj.end()) continue;
      for (const std::string& nxt : it->second) {
        if (seen.insert(nxt).second) frontier.push(nxt);
        out.insert({src, nxt});
      }
    }
  }
  return out;
}

// The SeNDlog reachability program used across tests/benches: the paper's
// s1/s2 plus the bootstrap export s0 (see DESIGN.md deviations).
const char kReachabilityProgram[] =
    "At S:\n"
    "s1: reachable(S,D) :- neighbor(S,D).\n"
    "s0: reachable(Z,D)@Z :- neighbor(S,Z), reachable(S,D).\n"
    "s2: reachable(Z,D)@Z :- neighbor(S,Z), W says reachable(S,D).";

class SendlogReachabilityTest : public ::testing::TestWithParam<int> {};

TEST_P(SendlogReachabilityTest, MatchesBfsOnRandomGraphs) {
  int n = 5;
  crypto::SecureRandom rng(static_cast<uint64_t>(GetParam()));
  // Random *undirected* graph over n nodes (~2 incident edges per node):
  // the paper's s2 propagates claims from a node to its neighbors, which is
  // sound when links are symmetric (the declarative-networking setting).
  std::map<std::string, std::set<std::string>> adj;
  std::vector<std::string> names;
  for (int i = 0; i < n; ++i) names.push_back(util::StrCat("n", i));
  for (int i = 0; i < n; ++i) {
    for (int k = 0; k < 2; ++k) {
      int j = static_cast<int>(rng.Uniform(static_cast<uint64_t>(n)));
      if (j != i) {
        adj[names[static_cast<size_t>(i)]].insert(
            names[static_cast<size_t>(j)]);
        adj[names[static_cast<size_t>(j)]].insert(
            names[static_cast<size_t>(i)]);
      }
    }
  }

  auto cluster = Mesh(names, "hmac");
  ASSERT_NE(cluster, nullptr);
  ASSERT_TRUE(
      sendlog::LoadSendlogOnCluster(cluster.get(), kReachabilityProgram).ok());
  for (const auto& [src, next] : adj) {
    for (const std::string& dst : next) {
      ASSERT_TRUE(cluster->node(src)->workspace()
                      ->AddFact("neighbor",
                                {Value::Sym(src), Value::Sym(dst)})
                      .ok());
    }
  }
  auto stats = cluster->RunToConvergence();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();

  // Collect reachable(me,D) per node and compare against BFS.
  std::set<std::pair<std::string, std::string>> got;
  for (const std::string& name : names) {
    auto rows = cluster->node(name)->workspace()->Query("reachable(S,D)");
    ASSERT_TRUE(rows.ok());
    for (const auto& t : *rows) {
      if (t[0].AsText() == name) got.insert({name, t[1].AsText()});
    }
  }
  std::set<std::pair<std::string, std::string>> expected =
      BfsReachability(adj);
  // Self-reachability via cycles is included by BFS when a cycle returns
  // to the source; s0/s2 propagate the same claims.
  EXPECT_EQ(got, expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SendlogReachabilityTest,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(SendlogTest, ConstantContextInstallsOnOneNode) {
  auto cluster = Mesh({"alice", "bob"}, "plaintext");
  ASSERT_NE(cluster, nullptr);
  ASSERT_TRUE(sendlog::LoadSendlogOnCluster(cluster.get(),
                                            "At alice:\n"
                                            "p(X) :- q(X).\n"
                                            "At bob:\n"
                                            "r(X) :- q(X).")
                  .ok());
  for (const char* n : {"alice", "bob"}) {
    ASSERT_TRUE(cluster->node(n)->workspace()->AddFactText("q(1).").ok());
  }
  ASSERT_TRUE(cluster->RunToConvergence().ok());
  EXPECT_EQ(*cluster->node("alice")->workspace()->Count("p(X)"), 1u);
  EXPECT_EQ(*cluster->node("bob")->workspace()->Count("p(X)"), 0u);
  EXPECT_EQ(*cluster->node("bob")->workspace()->Count("r(X)"), 1u);
}

}  // namespace
}  // namespace lbtrust
