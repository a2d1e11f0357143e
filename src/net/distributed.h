#ifndef LBTRUST_NET_DISTRIBUTED_H_
#define LBTRUST_NET_DISTRIBUTED_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "net/transport.h"
#include "obs/http_exporter.h"
#include "trust/trust_runtime.h"
#include "util/status.h"

namespace lbtrust::net {

/// One node of a distributed deployment: hosts a single TrustRuntime and
/// drives the semi-naive exchange loop — local fixpoints, delta shipping
/// per the node's own predNode placement relation, and coordinator-free
/// termination detection. This is the only implementation of the
/// cross-node protocol. Create() puts a node on real TCP sockets;
/// SimCluster (net/cluster.h) runs the same nodes in one process over an
/// in-memory SimTransport, stepped in virtual time.
///
/// Mesh setup is ConfigureMeshNode with peer public keys derived
/// deterministically from peer names (TrustRuntime::DeriveKeyPair), so no
/// key exchange is needed and a converged node's Workspace dump is
/// byte-identical whichever transport carried its frames (compare with
/// DumpWorkspace(..., sort_rules=true); rule arrival order differs across
/// schedules, tuples are sorted by the dump itself).
///
/// Delivery is at-least-once: both transports run the one core in
/// net/link.h (per-peer sequence numbers, acks after staging, resend of
/// every unacked frame on reconnect), and SimCluster's seeded connection
/// resets drive that resend path as dropped sockets do. The engine makes
/// it idempotent: tuple facts are sets and the per-node `sent` dedup never
/// re-ships, credential bundles are content-addressed. Repeated or
/// reordered frames therefore converge to the same store as single,
/// in-order delivery.
///
/// Termination (GEM-style, no coordinator): a node is *quiet* when it has
/// no dirty work, no staged tuples or credential bundles, no deferred
/// sends, empty transport
/// queues, and every reliable frame it ever sent is acked. Nodes broadcast
/// STATUS(version, quiet); when a node sees every node quiet it broadcasts
/// CONFIRM(hash of the full status snapshot). Unanimous confirmation of an
/// identical snapshot hash terminates the run: an in-flight frame keeps
/// its sender non-quiet (unacked), and an acked frame was staged at the
/// receiver, keeping the receiver non-quiet until the commit bumps its
/// version — which changes the snapshot hash and voids stale confirms.
class DistributedCluster {
 public:
  struct Options {
    /// This node's principal name; must appear in `nodes`.
    std::string self;
    /// Every node of the mesh (self included), in any order. Placement
    /// facts, peer keys, and shared secrets are configured for all of
    /// them (ConfigureMeshNode).
    std::vector<std::string> nodes;
    std::string listen_host = "127.0.0.1";
    /// 0 picks an ephemeral port (see listen_port()); peers then need
    /// AddPeer() calls with the actual ports.
    uint16_t listen_port = 0;
    /// Port for the live-introspection HTTP server (/metrics, /statusz,
    /// /explainz, /trace), bound on `listen_host`. -1 disables it; 0 picks
    /// an ephemeral port (see http_port()). The server shares the
    /// transport's epoll loop, so pages render on the fixpoint thread
    /// between waves — no locking against the engine.
    int http_port = -1;
    /// Authentication scheme installed on every node ("plaintext", "rsa",
    /// "hmac", or "" to skip).
    std::string scheme = "rsa";
    bool default_placement = true;
    /// Wall-clock seconds for credential validity checks at import.
    int64_t credential_now = 0;
    /// Abort RunToConvergence() after this much wall time (virtual time
    /// under SimCluster).
    int64_t convergence_timeout_ms = 30000;
    /// Event-loop poll granularity inside RunToConvergence(); SimCluster's
    /// bulk-synchronous schedule advances virtual time by this per sweep.
    int poll_interval_ms = 10;
    /// Re-broadcast the node's status at least this often (covers status
    /// frames dropped while a connection was down).
    int status_heartbeat_ms = 100;
    /// How long a terminating node keeps polling after its own decision.
    /// Status/confirm frames are best-effort: a peer whose link was down
    /// when we broadcast the final CONFIRM only gets it via the
    /// resend-on-reconnect path, which needs this window to run.
    int linger_ms = 300;
    trust::TrustRuntime::Options runtime;
    Transport::Options transport;
  };

  /// The node's own counters, as handles or values.
  template <typename T>
  struct NodeCounts {
    T fixpoints{};
    T tuples_in{};   ///< tuples delivered to this node
    T tuples_out{};  ///< tuples shipped from this node
    T credential_imports{};
    /// Reliable sends refused by the bounded queue and retried later.
    T deferred_sends{};
  };
  /// A by-value view of the node's counters in its registry.
  struct RunStats : NodeCounts<size_t> {
    /// Wire-level counters (bytes/frames in+out, retries, reconnects,
    /// duplicates).
    TransportStats transport;
  };

  /// Creates a socket node: builds the runtime, configures the full mesh
  /// with deterministically derived peer keys, and starts listening.
  static util::Result<std::unique_ptr<DistributedCluster>> Create(
      Options options);

  ~DistributedCluster() {
    if (socket_ != nullptr) socket_->Shutdown();
  }

  trust::TrustRuntime* runtime() { return runtime_.get(); }
  /// The socket transport; nullptr for a node of a SimCluster.
  Transport* transport() { return socket_.get(); }
  uint16_t listen_port() const {
    return socket_ != nullptr ? socket_->listen_port() : 0;
  }

  /// The introspection server, or nullptr when Options::http_port is -1.
  obs::HttpExporter* http() { return http_.get(); }
  uint16_t http_port() const {
    return http_ != nullptr ? http_->listen_port() : 0;
  }

  /// The /statusz JSON document (node id, uptime, build info, rounds,
  /// peers + connection states, per-relation row counts). Public so tools
  /// can dump it without going through a socket.
  std::string StatusJson();

  /// Installs a callback invoked once per RunToConvergence() loop
  /// iteration, on the driving thread. tools/lbtrust_node uses it to honor
  /// SIGUSR1 metric dumps while a run is in flight.
  void set_on_tick(std::function<void()> cb) { on_tick_ = std::move(cb); }

  /// Registers a peer's transport address (`name` must be in the mesh).
  util::Status AddPeer(const std::string& name, const std::string& host,
                       uint16_t port);

  /// Queues credential `hash` (and its link closure) from this node's
  /// store as a reliable frame to `to_node`; shipped by the next
  /// RunToConvergence() (or retried under backpressure).
  util::Status ShipCredential(const std::string& to_node,
                              const std::string& hash);

  /// Drives a socket node until the whole mesh terminates: alternates
  /// Step() with transport polling, then lingers so peers still deciding
  /// receive the final confirmation. Every node of the mesh must be inside
  /// RunToConvergence() concurrently for the run to terminate.
  util::Result<RunStats> RunToConvergence();

  RunStats stats() const;

  /// The per-node metrics page a scraper (or SIGUSR1 dump) sees. Socket
  /// and SimCluster nodes register the same series, apart from the HTTP
  /// server's `lbtrust_http_*`; dist_smoke.sh checks it.
  std::string DumpMetrics();

 private:
  friend class SimCluster;

  /// `runtime`'s registry holds the node's counters.
  DistributedCluster(Options options,
                     std::unique_ptr<trust::TrustRuntime> runtime);

  /// Validates the options and builds the runtime (no mesh, no network).
  static util::Result<std::unique_ptr<DistributedCluster>> NewNode(
      Options options);
  /// Configures the full mesh from `mesh` (every node's public key, in
  /// name order), routes `network`'s inbound frames to OnFrame() and
  /// resends status and confirm on every (re)connect.
  util::Status Attach(
      const std::vector<std::pair<std::string, crypto::RsaPublicKey>>& mesh,
      Network* network);

  /// Starts a run: local changes since the last run get a first fixpoint,
  /// and the first Step() broadcasts this node's status.
  void StartRun();
  /// One pass of the exchange loop at `now_ms` (wall or virtual time):
  /// retries deferred sends, commits what was staged (or runs a fixpoint),
  /// ships placed deltas, and does the status/confirm bookkeeping. Returns
  /// true once this node has decided that the mesh terminated.
  util::Result<bool> Step(int64_t now_ms);
  /// Imports staged credential bundles in arrival order, then commits the
  /// tuple inbox (or runs a fixpoint). A bundle whose import fails is
  /// dropped; bundles staged after it wait for the next run.
  util::Status Commit();

  /// Stages data and credential frames for the next Step(); the network
  /// acks a frame once this returns OK.
  util::Status OnFrame(const Frame& frame);
  /// Ships not-yet-sent placed tuples as kData frames (deferred under
  /// backpressure).
  void ShipPlaced();
  void SendReliable(const std::string& dest, Frame frame);
  void RetryDeferred();
  bool IsQuiet() const;
  /// Hash of the full sorted (node, version, quiet) status table; the
  /// termination protocol's confirmation subject.
  std::string SnapshotHash() const;
  void SendStatus(const std::string& peer_or_empty);
  /// Resends this node's latest CONFIRM (no-op before the first one).
  /// Confirms are best-effort frames, so every path that revives a link
  /// (reconnect, hello, heartbeat) pushes the current one again.
  void SendConfirm(const std::string& peer_or_empty);

  /// Registers the /metrics, /statusz, /explainz and /trace handlers and
  /// starts listening on options_.http_port (no-op when -1).
  util::Status StartHttp();

  Options options_;
  std::function<void()> on_tick_;
  std::unique_ptr<trust::TrustRuntime> runtime_;
  /// The node's wire counters: net_ counts into them, RunStats reads them.
  /// Declared before socket_, which holds a pointer to them.
  WireCounters wire_;
  std::unique_ptr<Transport> socket_;  ///< null under SimCluster
  Network* net_ = nullptr;             ///< socket_ or a SimTransport
  /// Declared after socket_: the exporter's fds live on the transport's
  /// loop, so it must shut down first.
  std::unique_ptr<obs::HttpExporter> http_;
  int64_t start_ms_ = 0;  ///< construction time (uptime base)
  NodeCounts<obs::Counter*> counters_;
  obs::Gauge* uptime_ = nullptr;
  /// Per-node sequence for trace-correlation ids ("self:wave:seq").
  uint64_t flow_seq_ = 0;
  /// Cross-round dedup of shipped tuples (interned row ids), kept by
  /// CollectPlacedBatches.
  std::set<std::string> sent_;
  /// Reliable frames that hit send-queue backpressure, retried each loop.
  std::vector<std::pair<std::string, Frame>> deferred_;
  /// Credential bundles staged by OnFrame(), as (sender, payload).
  std::deque<std::pair<std::string, std::string>> staged_credentials_;
  bool dirty_ = true;
  /// Bumped on every commit that may have changed node state; part of the
  /// broadcast status, so stale CONFIRMs never match a changed snapshot.
  uint64_t version_ = 0;
  /// Last known (version, quiet) per node, self included.
  std::map<std::string, std::pair<uint64_t, bool>> node_status_;
  /// Latest CONFIRM hash per node, self included.
  std::map<std::string, std::string> confirms_;
  /// The last status broadcast and when it went out (heartbeat).
  std::string last_status_payload_;
  int64_t last_status_ms_ = 0;
};

}  // namespace lbtrust::net

#endif  // LBTRUST_NET_DISTRIBUTED_H_
