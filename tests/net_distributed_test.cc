#include "net/distributed.h"

#include <atomic>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "datalog/dump.h"
#include "golden_mesh_dumps.inc"
#include "net/cluster.h"
#include "util/strings.h"

namespace lbtrust::net {
namespace {

using trust::TrustRuntime;

/// Per-node scenario setup, shared verbatim between the in-process and the
/// socket deployment so any divergence in the converged dumps is the
/// transport's or the schedule's fault, not the scenario's.
using NodeSetup =
    std::function<util::Status(const std::string& name, TrustRuntime* rt)>;

util::Status SetupDelegation(const std::string& name, TrustRuntime* rt) {
  if (name == "a") {
    LB_RETURN_IF_ERROR(rt->Load("says(me,b,[| token(N). |]) <- go(N)."));
    return rt->workspace()->AddFactText("go(1). go(2).");
  }
  if (name == "b") {
    // Delegation hop: b re-exports every token it learns to c.
    return rt->Load("says(me,c,[| token(N). |]) <- token(N).");
  }
  return util::OkStatus();
}

util::Status SetupLinkedRelay(const std::string& name, TrustRuntime* rt) {
  if (name == "b") {
    // b derives canread from the imported linked credentials, then
    // re-exports the conclusion to c.
    return rt->Load("says(me,c,[| holds(P,F). |]) <- canread(P,F).");
  }
  return util::OkStatus();
}

/// Node a owes peer b a fat token block on top of the linked credential
/// bundle (BackpressureDefersAndRecovers).
util::Status SetupFanout(const std::string& name, TrustRuntime* rt) {
  if (name != "a") return util::OkStatus();
  LB_RETURN_IF_ERROR(rt->Load("says(me,b,[| token(N). |]) <- go(N)."));
  std::string facts;
  for (int i = 1; i <= 40; ++i) {
    facts += "go(" + std::to_string(i) + "). ";
  }
  return rt->workspace()->AddFactText(facts);
}

/// Issues the linked-credential pair on a and returns the root hash to
/// ship: grant fact <- policy rule, link-closed.
util::Result<std::string> IssueLinked(TrustRuntime* a) {
  LB_ASSIGN_OR_RETURN(std::string base,
                      a->Issue("grant(carol,file1,read)."));
  return a->Issue("canread(P,F) <- grant(P,F,read).", {base});
}

constexpr const char* kNodes[] = {"a", "b", "c"};

/// The pinned dumps of `scenario`, per node (golden_mesh_dumps.inc).
std::map<std::string, std::string> PinnedDumps(const std::string& scenario) {
  std::map<std::string, std::string> dumps;
  for (const GoldenMeshDump& golden : kGoldenMeshDumps) {
    if (golden.scenario == scenario) dumps[golden.node] = golden.dump;
  }
  return dumps;
}

struct SimResult {
  std::map<std::string, std::string> dumps;
  std::map<std::string, size_t> tuples_out;
  SimCluster::RunStats stats;
  /// The resend path's counters, summed over the nodes.
  uint64_t retries = 0, reconnects = 0, duplicates = 0;
};

/// Runs the scenario in process on a SimCluster scheduled by `seed` and
/// returns per-node dumps and shipped-tuple counts. Credential scenarios
/// run under "plaintext": the rsa/hmac import constraints demand a signed
/// export tuple for every says fact, which credential-imported says facts
/// (verified by the bundle signature instead) do not have.
util::Result<SimResult> RunSimulated(const NodeSetup& setup,
                                     bool linked_credential,
                                     const std::string& scheme,
                                     uint64_t seed = 0) {
  DistributedCluster::Options opts;
  opts.nodes = {"a", "b", "c"};
  opts.scheme = scheme;
  opts.runtime.rsa_bits = 512;
  LB_ASSIGN_OR_RETURN(std::unique_ptr<SimCluster> cluster,
                      SimCluster::Create(std::move(opts), seed));
  for (const char* n : kNodes) {
    LB_RETURN_IF_ERROR(setup(n, cluster->node(n)));
  }
  if (linked_credential) {
    LB_ASSIGN_OR_RETURN(std::string hash, IssueLinked(cluster->node("a")));
    LB_RETURN_IF_ERROR(cluster->ShipCredential("a", "b", hash));
  }
  SimResult result;
  LB_ASSIGN_OR_RETURN(result.stats, cluster->RunToConvergence());
  for (const char* n : kNodes) {
    result.dumps[n] = datalog::DumpWorkspace(*cluster->node(n)->workspace(),
                                             /*max_rows=*/0,
                                             /*sort_rules=*/true);
    const DistributedCluster::RunStats stats = cluster->member(n)->stats();
    result.tuples_out[n] = stats.tuples_out;
    result.retries += stats.transport.retries;
    result.reconnects += stats.transport.reconnects;
    result.duplicates += stats.transport.duplicate_frames_in;
  }
  return result;
}

struct DistResult {
  std::map<std::string, std::string> dumps;
  std::map<std::string, DistributedCluster::RunStats> stats;
};

using Nodes = std::vector<std::unique_ptr<DistributedCluster>>;

/// A full mesh of socket nodes over localhost (ephemeral ports), with
/// test-speed timers; `tweak` adjusts each node's options.
Nodes SocketMesh(
    const std::vector<std::string>& names, const std::string& scheme,
    const std::function<void(DistributedCluster::Options*)>& tweak = nullptr) {
  Nodes nodes;
  for (const std::string& n : names) {
    DistributedCluster::Options opts;
    opts.self = n;
    opts.nodes = names;
    opts.listen_port = 0;  // ephemeral
    opts.scheme = scheme;
    opts.runtime.rsa_bits = 512;
    opts.convergence_timeout_ms = 20000;
    opts.poll_interval_ms = 2;
    opts.status_heartbeat_ms = 20;
    opts.transport.reconnect_backoff_min_ms = 1;
    if (tweak) tweak(&opts);
    auto node = DistributedCluster::Create(std::move(opts));
    EXPECT_TRUE(node.ok()) << node.status().ToString();
    if (!node.ok()) return {};
    nodes.push_back(std::move(*node));
  }
  for (size_t i = 0; i < nodes.size(); ++i) {
    for (size_t j = 0; j < nodes.size(); ++j) {
      if (i == j) continue;
      EXPECT_TRUE(
          nodes[i]->AddPeer(names[j], "127.0.0.1", nodes[j]->listen_port())
              .ok());
    }
  }
  return nodes;
}

struct RunOutcome {
  util::Status status;
  DistributedCluster::RunStats stats;
};

/// One RunToConvergence per node, each on its own thread (the transports
/// are single-threaded per node).
std::vector<RunOutcome> RunAll(const Nodes& nodes) {
  std::vector<RunOutcome> outcomes(nodes.size());
  std::vector<std::thread> threads;
  for (size_t i = 0; i < nodes.size(); ++i) {
    threads.emplace_back([&, i] {
      auto r = nodes[i]->RunToConvergence();
      outcomes[i].status = r.status();
      if (r.ok()) outcomes[i].stats = *r;
    });
  }
  for (std::thread& t : threads) t.join();
  return outcomes;
}

/// Runs the same scenario over real localhost sockets: three
/// DistributedCluster nodes in one process, one thread each.
DistResult RunDistributed(
    const NodeSetup& setup, bool linked_credential, const std::string& scheme,
    std::function<Transport::Options(const std::string&)> transport_opts =
        nullptr,
    size_t send_queue_limit_for_a = 0) {
  DistResult result;
  Nodes nodes = SocketMesh(
      {"a", "b", "c"}, scheme, [&](DistributedCluster::Options* opts) {
        if (transport_opts) {
          opts->transport = transport_opts(opts->self);
          opts->transport.reconnect_backoff_min_ms = 1;
        }
        if (send_queue_limit_for_a != 0 && opts->self == "a") {
          opts->transport.send_queue_limit_bytes = send_queue_limit_for_a;
        }
      });
  if (nodes.size() != 3) return result;
  for (size_t i = 0; i < nodes.size(); ++i) {
    EXPECT_TRUE(setup(kNodes[i], nodes[i]->runtime()).ok());
  }
  if (linked_credential) {
    auto hash = IssueLinked(nodes[0]->runtime());
    EXPECT_TRUE(hash.ok()) << hash.status().ToString();
    EXPECT_TRUE(nodes[0]->ShipCredential("b", *hash).ok());
  }
  std::vector<RunOutcome> outcomes = RunAll(nodes);
  for (size_t i = 0; i < nodes.size(); ++i) {
    EXPECT_TRUE(outcomes[i].status.ok())
        << "node " << kNodes[i] << ": " << outcomes[i].status.ToString();
    result.stats[kNodes[i]] = outcomes[i].stats;
    result.dumps[kNodes[i]] =
        datalog::DumpWorkspace(*nodes[i]->runtime()->workspace(),
                               /*max_rows=*/0, /*sort_rules=*/true);
  }
  return result;
}

void ExpectDumpsIdentical(const std::map<std::string, std::string>& sim,
                          const std::map<std::string, std::string>& dist) {
  ASSERT_EQ(sim.size(), dist.size());
  for (const auto& [name, dump] : sim) {
    auto it = dist.find(name);
    ASSERT_NE(it, dist.end()) << "missing node " << name;
    EXPECT_EQ(dump, it->second)
        << "node '" << name
        << "': socket convergence diverged from in-process";
  }
}

TEST(DistributedClusterTest, DelegationConvergesIdenticalToSimulated) {
  auto sim = PinnedDumps("delegation");
  auto dist =
      RunDistributed(SetupDelegation, /*linked_credential=*/false, "rsa");
  ExpectDumpsIdentical(sim, dist.dumps);
  // c holds the relayed tokens, proving the two-hop exchange ran.
  EXPECT_NE(sim["c"].find("token"), std::string::npos);
  // Wire accounting flowed through: a shipped data bytes, c received some.
  EXPECT_GT(dist.stats["a"].transport.tuple_bytes_out, 0u);
  EXPECT_GT(dist.stats["a"].tuples_out, 0u);
  EXPECT_GT(dist.stats["c"].tuples_in, 0u);
  EXPECT_GT(dist.stats["c"].transport.bytes_in, 0u);
}

TEST(DistributedClusterTest, LinkedCredentialConvergesIdenticalToSimulated) {
  auto sim = PinnedDumps("linked");
  auto dist = RunDistributed(SetupLinkedRelay, /*linked_credential=*/true,
                             "plaintext");
  ExpectDumpsIdentical(sim, dist.dumps);
  // The linked pair imported at b and the conclusion relayed to c.
  EXPECT_NE(sim["b"].find("canread"), std::string::npos);
  EXPECT_NE(sim["c"].find("holds"), std::string::npos);
  EXPECT_EQ(dist.stats["b"].credential_imports, 1u);
  EXPECT_GT(dist.stats["a"].transport.credential_bytes_out, 0u);
  EXPECT_GT(dist.stats["b"].transport.credential_bytes_in, 0u);
}

TEST(DistributedClusterTest, ForcedReconnectConvergesIdentical) {
  // Node a's first reliable frame tears its connection down right after
  // flushing, losing the ack in flight: the reconnect must resend, the
  // receiver sees a duplicate, and convergence is unaffected.
  auto drop = [](const std::string& name) {
    Transport::Options t;
    if (name == "a") t.drop_connection_after_data_frames = 1;
    return t;
  };
  auto dist = RunDistributed(SetupDelegation, /*linked_credential=*/false,
                             "rsa", drop);
  ExpectDumpsIdentical(PinnedDumps("delegation"), dist.dumps);
  EXPECT_GE(dist.stats["a"].transport.reconnects, 1u);
  EXPECT_GE(dist.stats["a"].transport.retries, 1u);
}

TEST(DistributedClusterTest, BackpressureDefersAndRecovers) {
  // Node a owes peer b two reliable frames at startup: the pre-queued
  // credential bundle and one fat token block. Size a's per-peer send
  // queue from the in-process run's own byte accounting so either frame
  // fits alone but not both at once — the data send hits the bounded
  // queue, defers, and is retried once the credential frame is acked.
  auto probe = RunSimulated(SetupFanout, /*linked_credential=*/true,
                            "plaintext");
  ASSERT_TRUE(probe.ok()) << probe.status().ToString();
  ASSERT_EQ(probe->stats.messages, 2u);
  // ~85% of the combined payload holds either single frame but not both.
  size_t limit = probe->stats.bytes * 17 / 20;

  auto dist = RunDistributed(SetupFanout, /*linked_credential=*/true,
                             "plaintext", nullptr,
                             /*send_queue_limit_for_a=*/limit);
  ExpectDumpsIdentical(PinnedDumps("fanout"), dist.dumps);
  EXPECT_GE(dist.stats["a"].deferred_sends, 1u);
}

TEST(DistributedClusterTest, RejectedBundleIsDroppedAndNextRunConverges) {
  // b rejects a bundle that is not valid yet at its credential_now. The
  // frame was acked when b staged it, so dropping it at import leaves a
  // with nothing unacked: the failed run must not wedge the next one.
  Nodes nodes = SocketMesh({"a", "b"}, "plaintext",
                           [](DistributedCluster::Options* opts) {
                             opts->convergence_timeout_ms = 2000;
                           });
  ASSERT_EQ(nodes.size(), 2u);
  auto hash = nodes[0]->runtime()->Issue("early(1).", {}, /*not_before=*/100);
  ASSERT_TRUE(hash.ok()) << hash.status().ToString();
  ASSERT_TRUE(nodes[0]->ShipCredential("b", *hash).ok());

  std::vector<RunOutcome> first = RunAll(nodes);
  EXPECT_EQ(first[1].status.code(), util::StatusCode::kFailedPrecondition)
      << first[1].status.ToString();
  EXPECT_NE(first[1].status.message().find("node 'b'"), std::string::npos)
      << first[1].status.ToString();

  std::vector<RunOutcome> second = RunAll(nodes);
  for (size_t i = 0; i < second.size(); ++i) {
    EXPECT_TRUE(second[i].status.ok())
        << "node " << kNodes[i] << ": " << second[i].status.ToString();
  }
  EXPECT_EQ(*nodes[1]->runtime()->workspace()->Count("early(N)"), 0u);
}

TEST(SimClusterTest, DefaultScheduleReproducesPinnedDumps) {
  auto delegation =
      RunSimulated(SetupDelegation, /*linked_credential=*/false, "rsa");
  auto linked =
      RunSimulated(SetupLinkedRelay, /*linked_credential=*/true, "plaintext");
  auto fanout =
      RunSimulated(SetupFanout, /*linked_credential=*/true, "plaintext");
  ASSERT_TRUE(delegation.ok() && linked.ok() && fanout.ok());
  EXPECT_EQ(delegation->dumps, PinnedDumps("delegation"));
  EXPECT_EQ(linked->dumps, PinnedDumps("linked"));
  EXPECT_EQ(fanout->dumps, PinnedDumps("fanout"));
}

/// Every seed in [1, seeds] must converge to the pinned dumps and ship
/// exactly what the bulk-synchronous schedule ships, node by node, and the
/// sweep as a whole must have run the resend path: connection resets made
/// links resend (retries, reconnects) and receivers see repeats. Seeds
/// are independent meshes, swept on a few threads; each thread reports
/// its first failing seed, which replays exactly through RunSimulated.
void SweepSeeds(const std::string& scenario, const NodeSetup& setup,
                bool linked_credential, const std::string& scheme,
                uint64_t seeds) {
  auto base = RunSimulated(setup, linked_credential, scheme);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  ASSERT_EQ(base->dumps, PinnedDumps(scenario));
  constexpr uint64_t kThreads = 4;
  std::vector<std::string> failures(kThreads);
  std::atomic<uint64_t> retries{0}, reconnects{0}, duplicates{0};
  std::vector<std::thread> threads;
  for (uint64_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (uint64_t seed = 1 + t; seed <= seeds; seed += kThreads) {
        auto run = RunSimulated(setup, linked_credential, scheme, seed);
        if (run.ok()) {
          retries += run->retries;
          reconnects += run->reconnects;
          duplicates += run->duplicates;
        }
        std::string failure =
            !run.ok()                             ? run.status().ToString()
            : run->dumps != base->dumps           ? "dumps differ from seed 0"
            : run->tuples_out != base->tuples_out ? "tuples_out differ"
                                                  : "";
        if (!failure.empty()) {
          failures[t] = util::StrCat(scenario, " seed ", seed, ": ", failure);
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::string& failure : failures) {
    EXPECT_TRUE(failure.empty()) << failure;
  }
  std::cout << "[ resends  ] " << scenario << ": retries=" << retries
            << " reconnects=" << reconnects
            << " duplicate_frames_in=" << duplicates << "\n";
  EXPECT_GT(retries.load(), 0u);
  EXPECT_GT(reconnects.load(), 0u);
  EXPECT_GT(duplicates.load(), 0u);
  // A seed's schedule replays exactly.
  auto again = RunSimulated(setup, linked_credential, scheme, seeds);
  auto replay = RunSimulated(setup, linked_credential, scheme, seeds);
  ASSERT_TRUE(again.ok() && replay.ok());
  EXPECT_EQ(again->stats.rounds, replay->stats.rounds);
  EXPECT_EQ(again->stats.messages, replay->stats.messages);
}

TEST(SimClusterTest, LaterRunRelaysNewFacts) {
  // A run starts from the previous run's unanimous confirmation: only the
  // version each commit bumps keeps those stale confirms from ending the
  // new run before its deltas have crossed the mesh.
  for (uint64_t seed = 0; seed <= 100; ++seed) {
    DistributedCluster::Options opts;
    opts.nodes = {"a", "b", "c"};
    opts.runtime.rsa_bits = 512;
    auto cluster = SimCluster::Create(std::move(opts), seed);
    ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
    for (const char* n : kNodes) {
      ASSERT_TRUE(SetupDelegation(n, (*cluster)->node(n)).ok());
    }
    ASSERT_TRUE((*cluster)->RunToConvergence().ok()) << "seed " << seed;
    ASSERT_TRUE((*cluster)->node("a")->workspace()->AddFactText("go(3).").ok());
    auto second = (*cluster)->RunToConvergence();
    ASSERT_TRUE(second.ok()) << "seed " << seed << ": "
                             << second.status().ToString();
    EXPECT_EQ(*(*cluster)->node("c")->workspace()->Count("token(N)"), 3u)
        << "seed " << seed;
  }
}

/// Checks every field of `node`'s stats() view, transport counters
/// included, against its series read straight from the node's registry.
void ExpectStatsAreRegistrySeries(DistributedCluster* node) {
  obs::MetricsRegistry* reg = node->runtime()->workspace()->metrics();
  auto series = [reg](const char* name, const char* labels = "") {
    return static_cast<size_t>(reg->GetCounter(name, labels)->value());
  };
  const DistributedCluster::RunStats s = node->stats();
  EXPECT_EQ(s.fixpoints, series("lbtrust_node_fixpoints_total"));
  EXPECT_EQ(s.tuples_in, series("lbtrust_node_tuples_in_total"));
  EXPECT_EQ(s.tuples_out, series("lbtrust_node_tuples_out_total"));
  EXPECT_EQ(s.credential_imports,
            series("lbtrust_node_credential_imports_total"));
  EXPECT_EQ(s.deferred_sends, series("lbtrust_node_deferred_sends_total"));
  const TransportStats& t = s.transport;
  const char* out = "direction=\"out\"";
  const char* in = "direction=\"in\"";
  EXPECT_EQ(t.bytes_out, series("lbtrust_transport_bytes_total", out));
  EXPECT_EQ(t.bytes_in, series("lbtrust_transport_bytes_total", in));
  EXPECT_EQ(t.frames_out, series("lbtrust_transport_frames_total", out));
  EXPECT_EQ(t.frames_in, series("lbtrust_transport_frames_total", in));
  EXPECT_EQ(t.data_frames_out,
            series("lbtrust_transport_data_frames_total", out));
  EXPECT_EQ(t.data_frames_in,
            series("lbtrust_transport_data_frames_total", in));
  EXPECT_EQ(t.tuple_bytes_out,
            series("lbtrust_transport_tuple_bytes_total", out));
  EXPECT_EQ(t.tuple_bytes_in,
            series("lbtrust_transport_tuple_bytes_total", in));
  EXPECT_EQ(t.credential_bytes_out,
            series("lbtrust_transport_credential_bytes_total", out));
  EXPECT_EQ(t.credential_bytes_in,
            series("lbtrust_transport_credential_bytes_total", in));
  EXPECT_EQ(t.acks_out, series("lbtrust_transport_acks_total", out));
  EXPECT_EQ(t.acks_in, series("lbtrust_transport_acks_total", in));
  EXPECT_EQ(t.retries, series("lbtrust_transport_retries_total"));
  EXPECT_EQ(t.reconnects, series("lbtrust_transport_reconnects_total"));
  EXPECT_EQ(t.duplicate_frames_in,
            series("lbtrust_transport_duplicate_frames_in_total"));
  EXPECT_EQ(t.oversize_rejects,
            series("lbtrust_transport_oversize_rejects_total"));
  EXPECT_EQ(t.deadline_closes,
            series("lbtrust_transport_deadline_closes_total"));
}

TEST(SimClusterTest, StatsAreTheRegistrySeriesBetweenRuns) {
  // No dump in between: the registry is the counters' storage, so it is
  // current after every run.
  DistributedCluster::Options opts;
  opts.nodes = {"a", "b", "c"};
  opts.runtime.rsa_bits = 512;
  auto cluster = SimCluster::Create(std::move(opts), /*seed=*/7);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  for (const char* n : kNodes) {
    ASSERT_TRUE(SetupDelegation(n, (*cluster)->node(n)).ok());
  }
  for (int run = 0; run < 2; ++run) {
    if (run == 1) {
      ASSERT_TRUE(
          (*cluster)->node("a")->workspace()->AddFactText("go(3).").ok());
    }
    ASSERT_TRUE((*cluster)->RunToConvergence().ok()) << "run " << run;
    for (const char* n : kNodes) {
      SCOPED_TRACE(util::StrCat("run ", run, " node ", n));
      ExpectStatsAreRegistrySeries((*cluster)->member(n));
    }
    EXPECT_EQ((*cluster)->member("a")->stats().tuples_out,
              static_cast<size_t>(2 + run));
    EXPECT_GT((*cluster)->member("c")->stats().transport.data_frames_in, 0u);
  }
}

TEST(SimClusterTest, DelegationSeedSweep) {
  SweepSeeds("delegation", SetupDelegation, /*linked_credential=*/false,
             "rsa", 1000);
}

TEST(SimClusterTest, LinkedSeedSweep) {
  SweepSeeds("linked", SetupLinkedRelay, /*linked_credential=*/true,
             "plaintext", 1000);
}

TEST(SimClusterTest, FanoutSeedSweep) {
  // The one scenario with two reliable frames on a link (a's bundle and
  // token block to b), so seeds also reorder within a link.
  SweepSeeds("fanout", SetupFanout, /*linked_credential=*/true, "plaintext",
             250);
}

TEST(DistributedClusterTest, RejectsUnknownMeshMembers) {
  DistributedCluster::Options opts;
  opts.self = "a";
  opts.nodes = {"a", "b"};
  opts.runtime.rsa_bits = 512;
  auto node = DistributedCluster::Create(std::move(opts));
  ASSERT_TRUE(node.ok()) << node.status().ToString();
  EXPECT_FALSE((*node)->AddPeer("zebra", "127.0.0.1", 1).ok());
  EXPECT_FALSE((*node)->AddPeer("a", "127.0.0.1", 1).ok());
  EXPECT_FALSE((*node)->ShipCredential("zebra", "deadbeef").ok());

  DistributedCluster::Options bad;
  bad.self = "x";
  bad.nodes = {"a", "b"};
  EXPECT_FALSE(DistributedCluster::Create(std::move(bad)).ok());
}

}  // namespace
}  // namespace lbtrust::net
