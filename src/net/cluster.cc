#include "net/cluster.h"

#include <algorithm>
#include <iterator>

#include "util/strings.h"

namespace lbtrust::net {

using datalog::Relation;
using datalog::Tuple;
using datalog::Value;
using datalog::ValueKind;
using trust::TrustRuntime;
using util::Result;
using util::Status;

Status ConfigureMeshNode(
    TrustRuntime* runtime,
    const std::vector<std::pair<std::string, crypto::RsaPublicKey>>&
        nodes_sorted,
    const std::string& scheme, bool default_placement) {
  const std::string& name = runtime->principal();
  datalog::Workspace* ws = runtime->workspace();
  LB_RETURN_IF_ERROR(ws->EnsurePredicate("node", 1));
  LB_RETURN_IF_ERROR(ws->EnsurePredicate("loc", 2));
  LB_RETURN_IF_ERROR(ws->EnsurePredicate("predNode", 2));
  for (const auto& [peer, key] : nodes_sorted) {
    if (peer != name) {
      LB_RETURN_IF_ERROR(runtime->AddPeer(peer, key));
      // Pairwise HMAC secret, identical on both endpoints.
      const std::string& lo = std::min(name, peer);
      const std::string& hi = std::max(name, peer);
      LB_RETURN_IF_ERROR(
          runtime->AddSharedSecret(peer, util::StrCat("secret:", lo, ":", hi)));
    }
    if (default_placement) {
      LB_RETURN_IF_ERROR(ws->AddFact("node", {Value::Sym(peer)}));
      LB_RETURN_IF_ERROR(
          ws->AddFact("loc", {Value::Sym(peer), Value::Sym(peer)}));
    }
  }
  if (default_placement) {
    LB_RETURN_IF_ERROR(ws->Load("ld2: predNode(export[P],N) <- loc(P,N)."));
  }
  if (!scheme.empty()) {
    std::unique_ptr<trust::AuthScheme> auth = trust::MakeScheme(scheme);
    if (auth == nullptr) {
      return util::InvalidArgument(
          util::StrCat("unknown scheme '", scheme, "'"));
    }
    LB_RETURN_IF_ERROR(runtime->UseScheme(*auth).status());
  }
  return util::OkStatus();
}

std::vector<PlacedBatch> CollectPlacedBatches(datalog::Workspace* ws,
                                              const std::string& self,
                                              std::set<std::string>* sent) {
  // Placement map computed by the node's own rules: predNode(part, node).
  const Relation* pred_node = ws->GetRelation("predNode");
  std::map<std::pair<std::string, std::string>, std::string> placement;
  if (pred_node != nullptr && pred_node->arity() == 2) {
    for (uint32_t i : pred_node->Rows()) {
      Tuple t = pred_node->RowTuple(i);
      if (t[0].kind() != ValueKind::kPart ||
          t[1].kind() != ValueKind::kSymbol) {
        continue;
      }
      const datalog::PartValue& part = t[0].AsPart();
      placement[{part.predicate, part.key->ToString()}] = t[1].AsText();
    }
  }
  if (placement.empty()) return {};

  // Batch per (destination, relation): one dictionary-framed block per
  // group, so a round's worth of tuples for a peer shares one payload and
  // repeated principals/predicates ship once (per-tuple dedup across
  // rounds is `sent`, keyed on the row's interned ids).
  std::map<std::pair<std::string, std::string>, std::vector<Tuple>> batches;
  for (const auto& [pred_name, info] : ws->catalog().predicates()) {
    if (!info.partitioned) continue;
    const Relation* rel = ws->GetRelation(pred_name);
    if (rel == nullptr || rel->arity() == 0) continue;
    for (uint32_t ri : rel->Rows()) {
      auto it = placement.find({pred_name, rel->ValueAt(ri, 0).ToString()});
      if (it == placement.end() || it->second == self) continue;
      // Dedup on the row's interned ids: stable for the workspace's
      // lifetime (the pool only grows), unique per value, and far cheaper
      // than serializing the tuple a second time just for the key.
      std::string dedup_key = util::StrCat(pred_name, "|", it->second);
      const datalog::ValueId* ids = rel->RowIds(ri);
      for (size_t c = 0; c < rel->arity(); ++c) {
        dedup_key.push_back('#');
        dedup_key.append(std::to_string(ids[c].bits()));
      }
      if (!sent->insert(dedup_key).second) continue;
      batches[{it->second, pred_name}].push_back(rel->RowTuple(ri));
    }
  }
  std::vector<PlacedBatch> out;
  out.reserve(batches.size());
  for (auto& [key, tuples] : batches) {
    out.push_back(PlacedBatch{key.first, key.second, std::move(tuples)});
  }
  return out;
}

bool SimTransport::Send(const std::string& peer, Frame frame) {
  if (links_.count(peer) == 0) return false;
  frame.from = self_;
  if (frame.reliable()) {
    Queue(peer, std::move(frame), /*bytes=*/0);
    Flush(peer);
    return true;
  }
  wire_->Sent(frame.kind);
  network_->Enqueue(peer, std::move(frame));
  return true;
}

void SimTransport::Flush(const std::string& peer) {
  links_.at(peer).Flush([&](const Frame& frame) {
    wire_->Sent(frame.kind);
    network_->Enqueue(peer, frame);
  });
}

Status SimTransport::Arrive(const Frame& frame) {
  LB_ASSIGN_OR_RETURN(const bool ack_owed, Receive(frame));
  if (ack_owed) Send(frame.from, AckFor(frame));
  return util::OkStatus();
}

Result<std::unique_ptr<SimCluster>> SimCluster::Create(
    DistributedCluster::Options options, uint64_t seed) {
  std::unique_ptr<SimCluster> sim(new SimCluster(options, seed));
  // Every runtime first, so each node's mesh carries the others' real
  // public keys: one key generation per node instead of one per pair.
  const std::set<std::string> names(options.nodes.begin(),
                                    options.nodes.end());
  std::vector<std::pair<std::string, crypto::RsaPublicKey>> mesh;
  for (const std::string& name : names) {
    DistributedCluster::Options node_options = options;
    node_options.self = name;
    LB_ASSIGN_OR_RETURN(std::unique_ptr<DistributedCluster> node,
                        DistributedCluster::NewNode(std::move(node_options)));
    mesh.emplace_back(name, node->runtime()->keypair().public_key);
    sim->nodes_.emplace(name, std::move(node));
  }
  for (auto& [name, node] : sim->nodes_) {
    std::vector<std::string> peers;
    for (const std::string& peer : names) {
      if (peer != name) peers.push_back(peer);
    }
    auto& endpoint = sim->endpoints_[name];
    endpoint = std::make_unique<SimTransport>(name, peers, sim.get(),
                                              &node->wire_);
    LB_RETURN_IF_ERROR(node->Attach(mesh, endpoint.get()));
  }
  return sim;
}

DistributedCluster* SimCluster::member(const std::string& name) {
  auto it = nodes_.find(name);
  return it == nodes_.end() ? nullptr : it->second.get();
}

std::vector<std::string> SimCluster::node_names() const {
  std::vector<std::string> out;
  for (const auto& [name, node] : nodes_) out.push_back(name);
  return out;
}

TrustRuntime* SimCluster::node(const std::string& name) {
  DistributedCluster* found = member(name);
  return found == nullptr ? nullptr : found->runtime();
}

Status SimCluster::ShipCredential(const std::string& from,
                                  const std::string& to,
                                  const std::string& hash) {
  DistributedCluster* sender = member(from);
  if (sender == nullptr) {
    return util::NotFound(util::StrCat("unknown node '", from, "'"));
  }
  return sender->ShipCredential(to, hash);
}

void SimCluster::Enqueue(const std::string& to, Frame frame) {
  const int lane = frame.reliable()                    ? kReliable
                   : frame.kind == Frame::Kind::kAck ? kAck
                                                     : kControl;
  lanes_[LaneKey(frame.from, to, lane)].push_back(std::move(frame));
}

Status SimCluster::Deliver(LaneKey key, size_t index) {
  auto lane = lanes_.find(key);
  Frame frame = std::move(lane->second[index]);
  lane->second.erase(lane->second.begin() + static_cast<long>(index));
  if (lane->second.empty()) lanes_.erase(lane);
  if (tamper_ && frame.reliable() && frame.relation == tamper_relation_) {
    tamper_(&frame.payload);
    tamper_ = nullptr;  // one-shot
  }
  const std::string& to = std::get<1>(key);
  Status st = endpoints_.at(to)->Arrive(frame);
  if (!st.ok()) {
    return Status(st.code(), util::StrCat("node '", to, "': ", st.message()));
  }
  return util::OkStatus();
}

void SimCluster::Reset(const std::string& from, const std::string& to) {
  lanes_.erase(LaneKey(from, to, kReliable));
  lanes_.erase(LaneKey(from, to, kControl));
  lanes_.erase(LaneKey(to, from, kAck));
  // `from` reconnects as Transport does: hello, link reset, connect hook.
  SimTransport* endpoint = endpoints_.at(from).get();
  endpoint->Connected(to, /*again=*/true);
  endpoint->Flush(to);
}

Result<SimCluster::RunStats> SimCluster::RunToConvergence() {
  std::vector<DistributedCluster*> running;
  for (auto& [name, node] : nodes_) {
    node->StartRun();
    running.push_back(node.get());
  }
  const int64_t deadline = now_ms_ + timeout_ms_;
  RunStats run;
  while (!running.empty()) {
    if (now_ms_ > deadline) {
      return util::Internal(util::StrCat(
          "no convergence within ", timeout_ms_, "ms of virtual time (seed ",
          seed_, ")"));
    }
    ++run.rounds;
    if (seed_ == 0) {
      while (!lanes_.empty()) {
        LB_RETURN_IF_ERROR(Deliver(lanes_.begin()->first, 0));
      }
      std::vector<DistributedCluster*> undecided;
      for (DistributedCluster* node : running) {
        LB_ASSIGN_OR_RETURN(const bool decided, node->Step(now_ms_));
        if (!decided) undecided.push_back(node);
      }
      running.swap(undecided);
      now_ms_ += poll_interval_ms_;
      continue;
    }
    if (!lanes_.empty() && rng_.Uniform(2) == 0) {
      // A random lane's oldest frame, or any frame of a reliable lane; or
      // a reset of the connection a reliable or ack lane travels on.
      auto lane = std::next(lanes_.begin(),
                            static_cast<long>(rng_.Uniform(lanes_.size())));
      const auto [from, to, kind] = lane->first;  // a copy: Reset erases
      if (kind != kControl && rng_.Uniform(8) == 0) {
        // Acks travel on the connection of the frames they ack.
        Reset(kind == kAck ? to : from, kind == kAck ? from : to);
      } else {
        const size_t index =
            kind == kReliable ? rng_.Uniform(lane->second.size()) : 0;
        LB_RETURN_IF_ERROR(Deliver(lane->first, index));
      }
    } else {
      const size_t i = rng_.Uniform(running.size());
      LB_ASSIGN_OR_RETURN(const bool decided, running[i]->Step(now_ms_));
      if (decided) running.erase(running.begin() + static_cast<long>(i));
    }
    ++now_ms_;
  }
  // Every node saw every node quiet, i.e. with all its frames acked: a
  // reliable frame still in flight means the termination protocol is wrong.
  for (const auto& [key, frames] : lanes_) {
    if (std::get<2>(key) == kReliable) {
      return util::Internal(util::StrCat(
          "mesh terminated with a reliable frame in flight (seed ", seed_,
          ")"));
    }
  }
  RunStats totals;  // since creation
  for (auto& [name, node] : nodes_) {
    const DistributedCluster::RunStats stats = node->stats();
    totals.messages += stats.transport.data_frames_out;
    totals.bytes +=
        stats.transport.tuple_bytes_out + stats.transport.credential_bytes_out;
    totals.tuples += stats.tuples_out;
  }
  run.messages = totals.messages - counted_.messages;
  run.tuples = totals.tuples - counted_.tuples;
  run.bytes = totals.bytes - counted_.bytes;
  counted_ = totals;
  return run;
}

}  // namespace lbtrust::net
