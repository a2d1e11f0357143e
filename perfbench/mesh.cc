// Workload mesh_relay: three DistributedCluster nodes in one process over
// loopback TCP, HMAC scheme, shipped timer defaults. Node a relays seeded
// token batches to b, and b relays them to c:
//
//   a: says(me,b,[| token(N). |]) <- go(N).
//   b: says(me,c,[| token(N). |]) <- token(N).
//
// The mesh lives for the whole run and is driven only through
// DistributedCluster's public API (Create, AddPeer, RunToConvergence,
// set_on_tick, stats). One operation is one convergence: the batch's go(N)
// facts are staged at a (TrustRuntime::StageTuples) while the mesh is idle,
// then all three nodes run RunToConvergence, each on its own pinned thread
// that lives as long as the mesh.
// c's tick timestamps the moment c holds the batch (the update); the mesh
// then ends the run with the GEM-style termination protocol, whose time
// counts in ops_per_s. Batches are injected between convergences because
// the protocol assumes no input arrives while a node is inside
// RunToConvergence. After each convergence c answers a prepared decision on
// every token of the batch (must hold) and on one token never injected
// (must not).
#include <algorithm>
#include <array>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "harness.h"
#include "net/distributed.h"
#include "util/strings.h"

namespace perfbench {
namespace {

namespace datalog = lbtrust::datalog;
using lbtrust::net::DistributedCluster;
using lbtrust::util::StrCat;

constexpr const char* kNodes[] = {"a", "b", "c"};
constexpr size_t kBatchTokens = 64;
constexpr size_t kHistoryBatches = 3;  ///< convergences in each set-up
constexpr size_t kBatchesPerSecond = 9;  ///< timed convergences per --seconds

uint64_t Micros(Clock::time_point t) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          t.time_since_epoch())
          .count());
}

class Mesh {
 public:
  Mesh(Layers* layers, ThreadWatch* threads, std::vector<int> cpus)
      : layers_(layers), threads_(threads), cpus_(std::move(cpus)) {}
  // The nodes' tick callbacks and the node threads hold `this`.
  Mesh(const Mesh&) = delete;
  Mesh& operator=(const Mesh&) = delete;
  ~Mesh() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    wake_.notify_all();
    for (std::thread& t : node_threads_) t.join();
  }

  bool Init(std::string* error) {
    for (const char* name : kNodes) {
      DistributedCluster::Options options;
      options.self = name;
      options.nodes = {"a", "b", "c"};
      options.scheme = "hmac";
      options.runtime.rsa_bits = 1024;
      options.runtime.workspace.threads = 1;
      auto node = DistributedCluster::Create(std::move(options));
      if (!node.ok()) {
        *error = node.status().ToString();
        return false;
      }
      nodes_.push_back(std::move(*node));
    }
    for (size_t i = 0; i < 3; ++i) {
      for (size_t j = 0; j < 3; ++j) {
        if (i == j) continue;
        auto st = nodes_[i]->AddPeer(kNodes[j], "127.0.0.1",
                                     nodes_[j]->listen_port());
        if (!st.ok()) {
          *error = st.ToString();
          return false;
        }
      }
    }
    auto st = nodes_[0]->runtime()->Load(
        "says(me,b,[| token(N). |]) <- go(N).");
    if (st.ok()) {
      st = nodes_[1]->runtime()->Load(
          "says(me,c,[| token(N). |]) <- token(N).");
    }
    if (!st.ok()) {
      *error = st.ToString();
      return false;
    }
    nodes_[0]->set_on_tick([this] { ticks_.fetch_add(1); });
    nodes_[1]->set_on_tick([this] { ticks_.fetch_add(1); });
    nodes_[2]->set_on_tick([this] { TickC(); });
    for (size_t i = 0; i < 3; ++i) {
      node_threads_.emplace_back([this, i] { NodeLoop(i); });
    }
    return true;
  }

  bool PrepareDecision(int64_t token, std::string* error) {
    auto query = nodes_[2]->runtime()->Prepare(StrCat("token(", token, ")"));
    if (!query.ok()) {
      *error = query.status().ToString();
      return false;
    }
    decisions_.push_back(std::move(*query));
    return true;
  }
  datalog::PreparedQuery* decision(size_t i) { return &decisions_[i]; }

  /// One operation: stage `batch` at a, then run the mesh to convergence.
  /// `update_ms` gets injection -> c holds the batch, `terminate_ms` gets
  /// c holds the batch -> every node has returned.
  bool Relay(const std::vector<datalog::Tuple>& batch, double* update_ms,
             double* terminate_ms, std::string* error) {
    want_ = Tokens(nodes_[2].get()) + batch.size();
    holds_ = false;
    sampled_threads_ = false;
    const Clock::time_point inject = Clock::now();
    auto st = nodes_[0]->runtime()->StageTuples("go", batch);
    if (!st.ok()) {
      *error = "stage: " + st.ToString();
      return false;
    }
    {
      std::unique_lock<std::mutex> lock(mu_);
      ++round_;
      finished_ = 0;
      wake_.notify_all();
      done_.wait(lock, [this] { return finished_ == 3; });
    }
    for (const auto& s : status_) {
      if (!s.ok()) {
        *error = "convergence: " + s.ToString();
        return false;
      }
    }
    const size_t have = Tokens(nodes_[2].get());
    if (!holds_ || have != want_) {
      *error = StrCat("c holds ", have, " tokens after convergence, expected ",
                      want_);
      return false;
    }
    const Clock::time_point end =
        *std::max_element(returned_.begin(), returned_.end());
    *update_ms = MillisBetween(inject, holds_at_);
    *terminate_ms = MillisBetween(holds_at_, end);
    layers_->Record("converge", Micros(inject), Micros(holds_at_));
    layers_->Record("terminate", Micros(holds_at_), Micros(end));
    return true;
  }

  /// Switches span recording; call only between convergences.
  void set_layers(Layers* layers) { layers_ = layers; }
  uint64_t ticks() const { return ticks_.load(); }
  DistributedCluster* node(size_t i) { return nodes_[i].get(); }

 private:
  static size_t Tokens(DistributedCluster* node) {
    const datalog::Relation* token =
        node->runtime()->workspace()->GetRelation("token");
    return token == nullptr ? 0 : token->size();
  }

  /// Node i's thread: one RunToConvergence per round, until the mesh goes.
  void NodeLoop(size_t i) {
    if (!cpus_.empty()) PinThisThread(cpus_[i % cpus_.size()]);
    uint64_t round = 0;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mu_);
        wake_.wait(lock, [&] { return stop_ || round_ != round; });
        if (stop_) return;
        round = round_;
      }
      auto run = nodes_[i]->RunToConvergence();
      const Clock::time_point returned = Clock::now();
      {
        std::lock_guard<std::mutex> lock(mu_);
        returned_[i] = returned;
        status_[i] = run.ok() ? lbtrust::util::Status() : run.status();
        ++finished_;
      }
      done_.notify_one();
    }
  }

  /// c's thread: timestamp the first tick at which c holds the batch.
  void TickC() {
    ticks_.fetch_add(1);
    if (!sampled_threads_) {
      threads_->Sample();  // all three node threads are running
      sampled_threads_ = true;
    }
    if (!holds_ && Tokens(nodes_[2].get()) >= want_) {
      holds_at_ = Clock::now();
      holds_ = true;
    }
  }

  Layers* layers_;
  ThreadWatch* threads_;
  const std::vector<int> cpus_;  ///< node i runs pinned to cpus_[i % size]
  std::atomic<uint64_t> ticks_{0};
  // Written by the main thread between rounds or on c's thread during one;
  // read by the main thread after the round (ordered by mu_).
  size_t want_ = 0;
  bool holds_ = false;
  bool sampled_threads_ = false;
  Clock::time_point holds_at_;
  std::vector<std::unique_ptr<DistributedCluster>> nodes_;
  /// Declared after the nodes: released before their workspaces.
  std::vector<datalog::PreparedQuery> decisions_;
  // Rounds: Relay() advances round_ and waits until all three node threads
  // have finished it; each records when its RunToConvergence returned.
  std::mutex mu_;
  std::condition_variable wake_;
  std::condition_variable done_;
  uint64_t round_ = 0;
  int finished_ = 0;
  bool stop_ = false;
  std::array<Clock::time_point, 3> returned_;
  std::array<lbtrust::util::Status, 3> status_;
  /// Started last in Init(), joined in the destructor before any member
  /// they use is released.
  std::vector<std::thread> node_threads_;
};

struct NetCounters {
  double frames_out = 0, bytes_out = 0, retries = 0, duplicates_in = 0;
  double deferred = 0, fixpoints = 0;
};

NetCounters ReadNet(Mesh* mesh) {
  NetCounters n;
  for (size_t i = 0; i < 3; ++i) {
    const DistributedCluster::RunStats& s = mesh->node(i)->stats();
    n.frames_out += static_cast<double>(s.transport.frames_out);
    n.bytes_out += static_cast<double>(s.transport.bytes_out);
    n.retries += static_cast<double>(s.transport.retries);
    n.duplicates_in += static_cast<double>(s.transport.duplicate_frames_in);
    n.deferred += static_cast<double>(s.deferred_sends);
    n.fixpoints += static_cast<double>(s.fixpoints);
  }
  return n;
}

Counters ReadMeshCounters(Mesh* mesh) {
  Counters c;
  for (size_t i = 0; i < 3; ++i) c += ReadCounters(mesh->node(i)->runtime());
  return c;
}

}  // namespace

Result RunMesh(const RunConfig& config, Layers* layers, ThreadWatch* threads) {
  Result result;
  const size_t timed =
      kBatchesPerSecond * static_cast<size_t>(config.seconds);
  const size_t total = kHistoryBatches + timed;

  // Generator: token ids in batches; one spare batch is never injected.
  // After batch b, c is asked about each of its tokens (held) and about
  // spare token b % kBatchTokens (not held).
  Rng rng(config.seed ^ 0x6d657368ULL);
  const std::vector<int64_t> ids =
      DistinctIds(&rng, (total + 1) * kBatchTokens);
  std::vector<std::vector<datalog::Tuple>> batches(total);
  for (size_t b = 0; b < total; ++b) {
    for (size_t k = 0; k < kBatchTokens; ++k) {
      batches[b].push_back({datalog::Value::Int(ids[b * kBatchTokens + k])});
    }
  }
  const int64_t* spare = &ids[total * kBatchTokens];
  constexpr size_t kAsked = kBatchTokens + 1;  ///< decisions per batch

  const std::vector<int> cpus = AllowedCpus();
  Layers untraced(nullptr);
  std::unique_ptr<Mesh> mesh;
  std::string error;
  const double setup_s = MedianSetup(
      kSetupReps,
      [&] {
        mesh = std::make_unique<Mesh>(&untraced, threads, cpus);
        bool ok = mesh->Init(&error);
        for (size_t b = kHistoryBatches; ok && b < total; ++b) {
          for (size_t k = 0; ok && k < kBatchTokens; ++k) {
            ok = mesh->PrepareDecision(ids[b * kBatchTokens + k], &error);
          }
          ok = ok && mesh->PrepareDecision(spare[b % kBatchTokens], &error);
        }
        // Starting history through the timed path.
        for (size_t b = 0; ok && b < kHistoryBatches; ++b) {
          double update_ms = 0, terminate_ms = 0;
          ok = mesh->Relay(batches[b], &update_ms, &terminate_ms, &error);
        }
        if (!ok) {
          result.Fail("set-up: " + error);
          return false;
        }
        return true;
      },
      [&] { mesh.reset(); });
  if (setup_s < 0) return result;

  mesh->set_layers(layers);
  threads->Sample();
  const Counters before = ReadMeshCounters(mesh.get());
  const NetCounters net_before = ReadNet(mesh.get());
  const uint64_t ticks_before = mesh->ticks();
  Samples updates, decides, terminate_ms;
  size_t relayed = kHistoryBatches;

  const Clock::time_point start = Clock::now();
  for (size_t b = kHistoryBatches; b < total; ++b) {
    Span op(layers, "op");
    double update = 0, terminate = 0;
    bool relayed_ok = [&] {
      Span rep(layers, "rep");
      return mesh->Relay(batches[b], &update, &terminate, &error);
    }();
    if (!relayed_ok) {
      // The mesh state is unknown now: count the rest as failed.
      result.CountFailure(StrCat("batch ", b, ": ", error),
                          (total - b) * kBatchTokens);
      break;
    }
    ++relayed;
    updates.Add(update);
    terminate_ms.Add(terminate);
    // c decides on what it now holds (node threads are joined).
    const size_t first = (b - kHistoryBatches) * kAsked;
    for (size_t k = 0; k < kAsked; ++k) {
      Span span(layers, "datalog.decide");
      Clock::time_point t = Clock::now();
      auto holds = mesh->decision(first + k)->Exists();
      decides.Add(MicrosBetween(t, Clock::now()));
      if (!holds.ok() || *holds != (k < kBatchTokens)) {
        result.CountFailure(StrCat("c decided token ", k, " of batch ", b,
                                   " wrongly"));
      }
    }
  }
  const double timed_s = SecondsSince(start);
  threads->Sample();

  result.attempted = timed * kBatchTokens;
  FinishEndToEnd(&result, setup_s, static_cast<double>(result.attempted),
                 timed_s, updates, decides);

  // Exact counts: every token is HMAC-signed and verified once per hop.
  const Counters after = ReadMeshCounters(mesh.get());
  const double hops = 2.0 * static_cast<double>(relayed * kBatchTokens);
  if (after.hmac_signs != hops || after.hmac_verifies != hops ||
      after.rsa_signs != 0 || after.rsa_verifies != 0) {
    result.Fail(StrCat("crypto counts hmac ", after.hmac_signs, "/",
                       after.hmac_verifies, " rsa ", after.rsa_signs, "/",
                       after.rsa_verifies, " for ", hops, " token hops"));
  }

  AddCounterMetrics(after - before, &result);
  const NetCounters net = ReadNet(mesh.get());
  result.layer["net.terminate_ms"] =
      terminate_ms.size() > 0
          ? terminate_ms.Sum() / static_cast<double>(terminate_ms.size())
          : 0;
  result.layer["net.loop_ticks"] =
      static_cast<double>(mesh->ticks() - ticks_before);
  result.layer["net.frames_out"] = net.frames_out - net_before.frames_out;
  result.layer["net.bytes_out"] = net.bytes_out - net_before.bytes_out;
  result.layer["net.retries"] = net.retries - net_before.retries;
  result.layer["net.duplicate_frames_in"] =
      net.duplicates_in - net_before.duplicates_in;
  result.layer["net.deferred_sends"] = net.deferred - net_before.deferred;
  result.layer["trust.node_fixpoints"] = net.fixpoints - net_before.fixpoints;
  return result;
}

}  // namespace perfbench
