#ifndef LBTRUST_NET_CLUSTER_H_
#define LBTRUST_NET_CLUSTER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "crypto/secure_random.h"
#include "net/distributed.h"
#include "net/link.h"
#include "trust/trust_runtime.h"
#include "util/status.h"

namespace lbtrust::net {

/// Configures one node of a full mesh: for every node (sorted by name,
/// self included) register peer public keys and pairwise HMAC secrets, add
/// `node`/`loc` placement facts when requested, then install the ld2
/// placement rule and the authentication scheme. Every DistributedCluster
/// node goes through it, so per-node state — and therefore converged
/// dumps — do not depend on the transport.
util::Status ConfigureMeshNode(
    trust::TrustRuntime* runtime,
    const std::vector<std::pair<std::string, crypto::RsaPublicKey>>&
        nodes_sorted,
    const std::string& scheme, bool default_placement);

/// One (destination, relation) batch of placed tuples ready to ship.
struct PlacedBatch {
  std::string dest;
  std::string relation;
  std::vector<datalog::Tuple> tuples;
};

/// Scans the node's partitioned relations against its own predNode
/// placement map and returns the not-yet-shipped tuples batched per
/// (destination, relation), in sorted order. Shipped tuples are recorded
/// in `sent` (keyed on interned row ids) — the engine-level cross-round
/// dedup that makes at-least-once delivery idempotent end-to-end.
std::vector<PlacedBatch> CollectPlacedBatches(datalog::Workspace* workspace,
                                              const std::string& self,
                                              std::set<std::string>* sent);

class SimCluster;

/// One node's endpoint on a SimCluster's in-memory network: byte I/O for
/// the at-least-once core (Network), as Transport is for sockets. Frames
/// leave the endpoint as soon as they are sent, so send queues are always
/// empty and Send() never refuses a mesh peer; SimCluster decides when
/// each one arrives, and whether a connection reset loses it first.
class SimTransport final : public Network {
 public:
  SimTransport(std::string self, const std::vector<std::string>& peers,
               SimCluster* network, WireCounters* wire)
      : Network(std::move(self), wire), network_(network) {
    for (const std::string& peer : peers) links_[peer];
  }

  bool Send(const std::string& peer, Frame frame) override;
  bool SendQueuesEmpty() const override { return true; }

 private:
  friend class SimCluster;

  /// Runs the receive step on an arriving frame and sends the ack it owes.
  util::Status Arrive(const Frame& frame);
  /// Hands `peer`'s unsent reliable frames to the network.
  void Flush(const std::string& peer);

  SimCluster* network_;
};

/// An in-process mesh (§3.5): one DistributedCluster per node, each
/// hosting one principal's TrustRuntime on a SimTransport, all stepped by
/// the calling thread in virtual time — no sockets, threads or sleeps. The
/// nodes run the socket deployment's exchange loop and termination
/// protocol unchanged, so a converged node's dump is byte-identical to a
/// socket node's.
///
/// The network gives every directed link three lanes: reliable frames
/// (data, credential), status and confirm frames, and acks. The status and
/// ack lanes are FIFO: TCP keeps each in order, but carries them on
/// different connections, so they are not ordered with each other.
///
/// Seed 0 is the bulk-synchronous schedule: each sweep delivers every
/// frame sent in the previous one, then each node (in name order) commits
/// what arrived, runs one fixpoint and ships. Any other seed interleaves
/// single node steps with single deliveries of a frame from a random lane,
/// so reliable frames are delayed and reordered within and across links.
/// It also resets connections: one in eight picks of a reliable or ack
/// lane resets the connection that lane travels on instead. Resetting a's
/// connection to b loses what TCP would lose with it — lanes (a,b,reliable)
/// and (a,b,control), and (b,a,ack), since acks travel back on the
/// connection that carried the frame — and a reconnects as Transport does:
/// hello, link reset (every unacked frame is sent again), connect hook. A
/// frame whose ack was lost thus arrives twice. A mesh must converge to
/// the same dumps under every seed; a seed's schedule replays exactly.
class SimCluster {
 public:
  /// Builds one node per name in `options.nodes` (`options.self` is set
  /// per node) from the options socket nodes use, on a network scheduled
  /// by `seed`.
  static util::Result<std::unique_ptr<SimCluster>> Create(
      DistributedCluster::Options options, uint64_t seed = 0);

  SimCluster(const SimCluster&) = delete;
  SimCluster& operator=(const SimCluster&) = delete;

  /// The runtime of node `name`, or nullptr.
  trust::TrustRuntime* node(const std::string& name);
  /// Node `name` itself (its counters and metrics page), or nullptr.
  DistributedCluster* member(const std::string& name);
  std::vector<std::string> node_names() const;

  /// Sends credential `hash` (and its link closure) from node `from`'s
  /// store to node `to`; the next run delivers and imports it.
  util::Status ShipCredential(const std::string& from, const std::string& to,
                              const std::string& hash);

  /// Test hook: `mutate` rewrites the payload of the next delivered frame
  /// for `relation` ("credential" for bundles).
  void InjectTamper(const std::string& relation,
                    std::function<void(std::string*)> mutate) {
    tamper_relation_ = relation;
    tamper_ = std::move(mutate);
  }

  /// What one run moved; frames sent since the last completed run (for
  /// instance by ShipCredential) count in this one.
  struct RunStats {
    size_t rounds = 0;    ///< sweeps (seed 0) or scheduler events
    size_t messages = 0;  ///< reliable frames sent, resends included
    size_t tuples = 0;    ///< tuples shipped
    size_t bytes = 0;     ///< payload bytes queued, each frame once
  };

  /// Steps the nodes until every one has decided that the mesh
  /// terminated. Returns the first error, attributed to its node, or a
  /// timeout after `convergence_timeout_ms` of virtual time.
  util::Result<RunStats> RunToConvergence();

 private:
  friend class SimTransport;

  enum Lane { kReliable, kControl, kAck };
  /// (from, to, lane).
  using LaneKey = std::tuple<std::string, std::string, int>;

  SimCluster(const DistributedCluster::Options& options, uint64_t seed)
      : seed_(seed),
        timeout_ms_(options.convergence_timeout_ms),
        poll_interval_ms_(options.poll_interval_ms),
        rng_(seed) {}

  void Enqueue(const std::string& to, Frame frame);
  /// Delivers frame `index` of lane `key`. A handler error names the
  /// receiving node.
  util::Status Deliver(LaneKey key, size_t index);
  /// Resets `from`'s connection to `to` (see the class comment).
  void Reset(const std::string& from, const std::string& to);

  const uint64_t seed_;
  const int64_t timeout_ms_;
  const int poll_interval_ms_;
  crypto::SecureRandom rng_;
  /// Frames in flight per lane, oldest first; empty lanes are erased.
  std::map<LaneKey, std::deque<Frame>> lanes_;
  std::string tamper_relation_;
  std::function<void(std::string*)> tamper_;
  /// Declared before nodes_, so the nodes, which hold pointers to their
  /// endpoints, are destroyed first. An endpoint counts into its node's
  /// wire counters, but only while a run steps it.
  std::map<std::string, std::unique_ptr<SimTransport>> endpoints_;
  std::map<std::string, std::unique_ptr<DistributedCluster>> nodes_;
  int64_t now_ms_ = 0;  ///< virtual time
  RunStats counted_;  ///< counters summed at the end of the last run
};

}  // namespace lbtrust::net

#endif  // LBTRUST_NET_CLUSTER_H_
