#include "net/distributed.h"

#include <algorithm>
#include <cstdlib>

#include "net/cluster.h"
#include "net/wire.h"
#include "obs/build_info.h"
#include "obs/trace.h"
#include "util/log.h"
#include "util/strings.h"

namespace lbtrust::net {

using trust::TrustRuntime;
using util::Result;
using util::Status;

DistributedCluster::DistributedCluster(
    Options options, std::unique_ptr<trust::TrustRuntime> runtime)
    : options_(std::move(options)),
      runtime_(std::move(runtime)),
      wire_(runtime_->workspace()->metrics()) {
  obs::MetricsRegistry* metrics = runtime_->workspace()->metrics();
  counters_.fixpoints = metrics->GetCounter("lbtrust_node_fixpoints_total");
  counters_.tuples_in = metrics->GetCounter("lbtrust_node_tuples_in_total");
  counters_.tuples_out = metrics->GetCounter("lbtrust_node_tuples_out_total");
  counters_.credential_imports =
      metrics->GetCounter("lbtrust_node_credential_imports_total");
  counters_.deferred_sends =
      metrics->GetCounter("lbtrust_node_deferred_sends_total");
  // Build identity and uptime: the two gauges every scraper alerts on.
  metrics
      ->GetGauge("lbtrust_build_info",
                 util::StrCat("version=\"", obs::kBuildVersion,
                              "\",compiler=\"",
                              obs::LabelEscape(obs::BuildCompiler()), "\""))
      ->Set(1);
  uptime_ = metrics->GetGauge("lbtrust_uptime_seconds");
}

Result<std::unique_ptr<DistributedCluster>> DistributedCluster::NewNode(
    Options options) {
  if (options.self.empty()) {
    return util::InvalidArgument("self node name must not be empty");
  }
  std::vector<std::string> nodes = options.nodes;
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  if (!std::binary_search(nodes.begin(), nodes.end(), options.self)) {
    return util::InvalidArgument(
        util::StrCat("self '", options.self, "' is not in the mesh"));
  }
  options.nodes = nodes;  // sorted + deduped: termination counts on it
  options.runtime.principal = options.self;
  LB_ASSIGN_OR_RETURN(std::unique_ptr<TrustRuntime> runtime,
                      TrustRuntime::Create(options.runtime));
  return std::unique_ptr<DistributedCluster>(
      new DistributedCluster(std::move(options), std::move(runtime)));
}

Status DistributedCluster::Attach(
    const std::vector<std::pair<std::string, crypto::RsaPublicKey>>& mesh,
    Network* network) {
  LB_RETURN_IF_ERROR(ConfigureMeshNode(runtime_.get(), mesh, options_.scheme,
                                       options_.default_placement));
  net_ = network;
  net_->set_handler([this](const Frame& frame) { return OnFrame(frame); });
  // A (re)connect may have lost our last status/confirm broadcast; resend
  // both so the peer's termination state converges without waiting for the
  // heartbeat (a dropped CONFIRM is otherwise never retransmitted).
  net_->set_on_connect([this](const std::string& peer) {
    SendStatus(peer);
    SendConfirm(peer);
  });
  node_status_[options_.self] = {0, false};
  start_ms_ = EventLoop::NowMs();
  return util::OkStatus();
}

Result<std::unique_ptr<DistributedCluster>> DistributedCluster::Create(
    Options options) {
  LB_ASSIGN_OR_RETURN(std::unique_ptr<DistributedCluster> dc,
                      NewNode(std::move(options)));
  // Peer public keys are derived from peer names with the same seed rule
  // TrustRuntime::Create() used for our own pair — no key exchange, and
  // the per-node state matches a SimCluster node's exactly.
  const Options& opts = dc->options_;
  std::vector<std::pair<std::string, crypto::RsaPublicKey>> mesh;
  mesh.reserve(opts.nodes.size());
  for (const std::string& name : opts.nodes) {
    if (name == opts.self) {
      mesh.emplace_back(name, dc->runtime_->keypair().public_key);
      continue;
    }
    LB_ASSIGN_OR_RETURN(
        crypto::RsaKeyPair pair,
        TrustRuntime::DeriveKeyPair(name, opts.runtime.key_seed,
                                    opts.runtime.rsa_bits));
    mesh.emplace_back(name, pair.public_key);
  }
  dc->socket_ =
      std::make_unique<Transport>(opts.self, opts.transport, &dc->wire_);
  LB_RETURN_IF_ERROR(dc->Attach(mesh, dc->socket_.get()));
  LB_RETURN_IF_ERROR(dc->socket_->Listen(opts.listen_host, opts.listen_port));
  LB_RETURN_IF_ERROR(dc->StartHttp());
  return dc;
}

Status DistributedCluster::StartHttp() {
  if (options_.http_port < 0) return util::OkStatus();
  // Share the transport's loop: every page renders on the fixpoint thread
  // between waves, so handlers read engine state with no synchronization.
  http_ = std::make_unique<obs::HttpExporter>(
      socket_->loop(), runtime_->workspace()->metrics());
  http_->Handle("/metrics", [this] {
    obs::HttpExporter::Response r;
    r.content_type = "text/plain; version=0.0.4; charset=utf-8";
    r.body = DumpMetrics();
    return r;
  });
  http_->Handle("/statusz", [this] {
    obs::HttpExporter::Response r;
    r.content_type = "application/json";
    r.body = StatusJson();
    return r;
  });
  http_->Handle("/explainz", [this] {
    obs::HttpExporter::Response r;
    r.content_type = "application/json";
    r.body = runtime_->workspace()->ExplainRules(datalog::ExplainFormat::kJson);
    return r;
  });
  http_->Handle("/explainz.txt", [this] {
    obs::HttpExporter::Response r;
    r.body = runtime_->workspace()->ExplainRules(datalog::ExplainFormat::kText);
    return r;
  });
  http_->Handle("/lintz", [this] {
    obs::HttpExporter::Response r;
    r.content_type = "application/json";
    r.body = runtime_->workspace()->LintRules().ToJson();
    return r;
  });
  http_->Handle("/lintz.txt", [this] {
    obs::HttpExporter::Response r;
    datalog::LintReport report = runtime_->workspace()->LintRules();
    r.body = report.diagnostics.empty() ? "no diagnostics\n"
                                        : report.ToText();
    return r;
  });
  http_->Handle("/trace", [this] {
    obs::HttpExporter::Response r;
    r.content_type = "application/json";
    obs::Tracer* tracer = runtime_->workspace()->tracer();
    r.body = tracer != nullptr ? tracer->DrainJson()
                               : std::string("{\"traceEvents\":[]}");
    return r;
  });
  return http_->Listen(options_.listen_host,
                       static_cast<uint16_t>(options_.http_port));
}

std::string DistributedCluster::StatusJson() {
  const int64_t uptime_ms = EventLoop::NowMs() - start_ms_;
  const RunStats stats = this->stats();
  std::string out = util::StrCat(
      "{\"node\":\"", obs::LabelEscape(options_.self), "\",\"version\":\"",
      obs::kBuildVersion, "\",\"compiler\":\"",
      obs::LabelEscape(obs::BuildCompiler()), "\",\"uptime_seconds\":",
      uptime_ms / 1000, ".", (uptime_ms / 100) % 10,
      ",\"fixpoints\":", stats.fixpoints, ",\"tuples_in\":", stats.tuples_in,
      ",\"tuples_out\":", stats.tuples_out, ",\"peers\":[");
  bool first = true;
  const std::vector<Transport::PeerState> peers =
      socket_ != nullptr ? socket_->peer_states()
                         : std::vector<Transport::PeerState>();
  for (const Transport::PeerState& peer : peers) {
    if (!first) out.push_back(',');
    first = false;
    out += util::StrCat(
        "{\"name\":\"", obs::LabelEscape(peer.name), "\",\"address\":\"",
        obs::LabelEscape(peer.host), ":", peer.port, "\",\"state\":\"",
        peer.connected ? "connected"
                       : (peer.ever_connected ? "reconnecting" : "pending"),
        "\",\"unacked\":", peer.unacked, "}");
  }
  out += "],\"relations\":[";
  first = true;
  for (const auto& [name, rows] :
       runtime_->workspace()->RelationRowCounts()) {
    if (!first) out.push_back(',');
    first = false;
    out += util::StrCat("{\"relation\":\"", obs::LabelEscape(name),
                        "\",\"rows\":", rows, "}");
  }
  out += "]}";
  return out;
}

Status DistributedCluster::AddPeer(const std::string& name,
                                   const std::string& host, uint16_t port) {
  if (std::find(options_.nodes.begin(), options_.nodes.end(), name) ==
      options_.nodes.end()) {
    return util::NotFound(util::StrCat("node '", name, "' is not in the mesh"));
  }
  if (name == options_.self) {
    return util::InvalidArgument("cannot peer with self");
  }
  if (socket_ == nullptr) {
    return util::FailedPrecondition("in-process nodes have no socket peers");
  }
  socket_->AddPeer(name, host, port);
  return util::OkStatus();
}

Status DistributedCluster::ShipCredential(const std::string& to_node,
                                          const std::string& hash) {
  if (std::find(options_.nodes.begin(), options_.nodes.end(), to_node) ==
      options_.nodes.end()) {
    return util::NotFound(
        util::StrCat("node '", to_node, "' is not in the mesh"));
  }
  Frame frame;
  frame.kind = Frame::Kind::kCredential;
  frame.from = options_.self;
  frame.relation = "credential";
  LB_ASSIGN_OR_RETURN(frame.payload, runtime_->ExportCredential(hash));
  if (obs::Tracer* tracer = runtime_->workspace()->tracer()) {
    frame.trace = util::StrCat(options_.self, ":",
                               counters_.fixpoints->value(), ":", ++flow_seq_);
    const uint64_t now_us = obs::Tracer::NowMicros();
    obs::ScopedSpan ship(tracer, "ship");
    ship.set_args(util::StrCat("\"credential\":\"", obs::LabelEscape(hash),
                               "\",\"dest\":\"", obs::LabelEscape(to_node),
                               "\",\"trace\":\"",
                               obs::LabelEscape(frame.trace), "\""));
    tracer->RecordFlow("credential", 's', frame.trace, now_us);
  }
  SendReliable(to_node, std::move(frame));
  return util::OkStatus();
}

Status DistributedCluster::OnFrame(const Frame& frame) {
  switch (frame.kind) {
    case Frame::Kind::kHello:
      // Peer (re)connected to us; push our status and latest confirm so
      // its termination state fills without waiting for the heartbeat.
      SendStatus(frame.from);
      SendConfirm(frame.from);
      return util::OkStatus();
    case Frame::Kind::kData: {
      obs::Tracer* tracer = runtime_->workspace()->tracer();
      obs::ScopedSpan stage(tracer, "stage");
      if (tracer != nullptr && !frame.trace.empty()) {
        // Close the sender's flow inside this staging slice ("bp":"e"
        // binds the arrow to the enclosing span in the merged trace).
        tracer->RecordFlow("delta", 'f', frame.trace,
                           obs::Tracer::NowMicros());
      }
      LB_ASSIGN_OR_RETURN(std::vector<datalog::Tuple> tuples,
                          DeserializeTupleBlock(frame.payload));
      counters_.tuples_in->Add(tuples.size());
      if (stage.enabled()) {
        stage.set_args(util::StrCat(
            "\"relation\":\"", obs::LabelEscape(frame.relation),
            "\",\"from\":\"", obs::LabelEscape(frame.from),
            "\",\"tuples\":", tuples.size(), ",\"trace\":\"",
            obs::LabelEscape(frame.trace), "\""));
      }
      // Stage only: frames arriving in one poll commit as one batch with a
      // single fixpoint. The inbox keeps us non-quiet until committed, so
      // acking here (the transport acks after we return OK) is safe for
      // the termination protocol.
      LB_RETURN_IF_ERROR(
          runtime_->StageTuples(frame.relation, std::move(tuples)));
      dirty_ = true;
      return util::OkStatus();
    }
    case Frame::Kind::kCredential: {
      obs::Tracer* tracer = runtime_->workspace()->tracer();
      obs::ScopedSpan stage(tracer, "stage");
      if (tracer != nullptr && !frame.trace.empty()) {
        tracer->RecordFlow("credential", 'f', frame.trace,
                           obs::Tracer::NowMicros());
      }
      // Staged like a data frame, so an ack means "staged" for both kinds:
      // a bundle the import rejects is dropped by Commit() after the ack,
      // never left unacked to wedge its sender.
      staged_credentials_.emplace_back(frame.from, frame.payload);
      return util::OkStatus();
    }
    case Frame::Kind::kAck:
      return util::OkStatus();  // consumed by Network::Receive
    case Frame::Kind::kStatus: {
      size_t colon = frame.payload.find(':');
      if (colon == std::string::npos) {
        return util::InvalidArgument(
            util::StrCat("malformed status payload '", frame.payload, "'"));
      }
      uint64_t version = std::strtoull(frame.payload.c_str(), nullptr, 10);
      bool quiet = frame.payload.compare(colon + 1, std::string::npos,
                                         "1") == 0;
      node_status_[frame.from] = {version, quiet};
      return util::OkStatus();
    }
    case Frame::Kind::kConfirm:
      confirms_[frame.from] = frame.payload;
      return util::OkStatus();
  }
  return util::InvalidArgument("unknown frame kind");
}

void DistributedCluster::ShipPlaced() {
  obs::Tracer* tracer = runtime_->workspace()->tracer();
  for (PlacedBatch& batch :
       CollectPlacedBatches(runtime_->workspace(), options_.self, &sent_)) {
    Frame frame;
    frame.kind = Frame::Kind::kData;
    frame.from = options_.self;
    frame.relation = std::move(batch.relation);
    frame.payload = SerializeTupleBlock(batch.tuples);
    counters_.tuples_out->Add(batch.tuples.size());
    if (tracer != nullptr) {
      // Stamp the frame with a mesh-unique correlation id and open the
      // flow inside a "ship" span: after dist_smoke merges the per-node
      // trace files, this links the sender's fixpoint wave to the
      // receiver's import slice. The wave number is the fixpoint count
      // (incremented just before ShipPlaced runs).
      frame.trace = util::StrCat(options_.self, ":",
                                 counters_.fixpoints->value(), ":",
                                 ++flow_seq_);
      const uint64_t now_us = obs::Tracer::NowMicros();
      obs::ScopedSpan ship(tracer, "ship");
      ship.set_args(util::StrCat(
          "\"relation\":\"", obs::LabelEscape(frame.relation),
          "\",\"dest\":\"", obs::LabelEscape(batch.dest), "\",\"trace\":\"",
          obs::LabelEscape(frame.trace), "\""));
      tracer->RecordFlow("delta", 's', frame.trace, now_us);
    }
    SendReliable(batch.dest, std::move(frame));
  }
}

void DistributedCluster::SendReliable(const std::string& dest, Frame frame) {
  // Bounded send queues: a full queue defers the frame (never drops it);
  // RetryDeferred() retries after the next poll drained the queue.
  if (!net_->Send(dest, frame)) {
    counters_.deferred_sends->Add();
    deferred_.emplace_back(dest, std::move(frame));
  }
}

void DistributedCluster::RetryDeferred() {
  if (deferred_.empty()) return;
  std::vector<std::pair<std::string, Frame>> retry;
  retry.swap(deferred_);
  for (auto& [dest, frame] : retry) {
    SendReliable(dest, std::move(frame));
  }
}

bool DistributedCluster::IsQuiet() const {
  return !dirty_ && !runtime_->HasInbox() && staged_credentials_.empty() &&
         deferred_.empty() && net_->AllAcked() && net_->SendQueuesEmpty();
}

std::string DistributedCluster::SnapshotHash() const {
  // Every mesh node must have reported; a missing entry means "not quiet".
  std::string snapshot;
  for (const auto& [name, status] : node_status_) {
    snapshot += util::StrCat(name, "=", std::to_string(status.first), ":",
                             status.second ? "1" : "0", ";");
  }
  return std::to_string(util::Fnv1a(snapshot));
}

void DistributedCluster::SendConfirm(const std::string& peer_or_empty) {
  auto self_confirm = confirms_.find(options_.self);
  if (self_confirm == confirms_.end()) return;
  Frame frame;
  frame.kind = Frame::Kind::kConfirm;
  frame.from = options_.self;
  frame.payload = self_confirm->second;
  if (peer_or_empty.empty()) {
    net_->Broadcast(frame);
  } else {
    net_->Send(peer_or_empty, std::move(frame));
  }
}

void DistributedCluster::SendStatus(const std::string& peer_or_empty) {
  auto self_status = node_status_.find(options_.self);
  if (self_status == node_status_.end()) return;
  Frame frame;
  frame.kind = Frame::Kind::kStatus;
  frame.from = options_.self;
  frame.payload =
      util::StrCat(std::to_string(self_status->second.first), ":",
                   self_status->second.second ? "1" : "0");
  if (peer_or_empty.empty()) {
    net_->Broadcast(frame);
  } else {
    net_->Send(peer_or_empty, std::move(frame));
  }
}

void DistributedCluster::StartRun() {
  dirty_ = true;  // local changes since the last run get a first fixpoint
  last_status_payload_.clear();
  last_status_ms_ = 0;
}

Status DistributedCluster::Commit() {
  obs::Tracer* tracer = runtime_->workspace()->tracer();
  while (!staged_credentials_.empty()) {
    auto [from, bundle] = std::move(staged_credentials_.front());
    staged_credentials_.pop_front();
    obs::ScopedSpan import_span(tracer, "import");
    Status st =
        runtime_->ImportCredentials(bundle, options_.credential_now).status();
    if (!st.ok()) {
      // Importing it again would fail again; the frame is already acked.
      return Status(st.code(),
                    util::StrCat("credential bundle from '", from,
                                 "' dropped: ", st.message()));
    }
    counters_.credential_imports->Add();
  }
  return runtime_->HasInbox() ? runtime_->CommitInbox()
                              : runtime_->Fixpoint();
}

Result<bool> DistributedCluster::Step(int64_t now_ms) {
  RetryDeferred();
  if (dirty_ || runtime_->HasInbox() || !staged_credentials_.empty()) {
    dirty_ = false;
    Status st = Commit();
    if (!st.ok()) {
      return Status(st.code(), util::StrCat("node '", options_.self,
                                            "': ", st.message()));
    }
    ++version_;
    counters_.fixpoints->Add();
    ShipPlaced();
  }

  // --- Termination protocol -------------------------------------------
  const bool quiet = IsQuiet();
  node_status_[options_.self] = {version_, quiet};
  std::string status_payload =
      util::StrCat(std::to_string(version_), ":", quiet ? "1" : "0");
  if (status_payload != last_status_payload_ ||
      now_ms - last_status_ms_ >= options_.status_heartbeat_ms) {
    SendStatus("");
    SendConfirm("");  // best-effort frame: heartbeat doubles as resend
    last_status_payload_ = std::move(status_payload);
    last_status_ms_ = now_ms;
  }
  if (quiet && node_status_.size() == options_.nodes.size()) {
    bool all_quiet = true;
    for (const auto& [name, status] : node_status_) {
      if (!status.second) all_quiet = false;
    }
    if (all_quiet) {
      std::string hash = SnapshotHash();
      if (confirms_[options_.self] != hash) {
        confirms_[options_.self] = hash;
        SendConfirm("");
      }
      bool unanimous = confirms_.size() == options_.nodes.size();
      for (const auto& [name, confirmed] : confirms_) {
        if (confirmed != hash) unanimous = false;
      }
      // Unanimous confirmation of one identical snapshot: every node was
      // quiet with these exact versions, so nothing is in flight anywhere
      // and no node can become dirty again.
      if (unanimous) return true;
    }
  }
  return false;
}

Result<DistributedCluster::RunStats> DistributedCluster::RunToConvergence() {
  if (socket_ == nullptr) {
    return util::FailedPrecondition("in-process nodes run in a SimCluster");
  }
  const int64_t deadline =
      EventLoop::NowMs() + options_.convergence_timeout_ms;
  StartRun();
  while (true) {
    LB_ASSIGN_OR_RETURN(const bool decided, Step(EventLoop::NowMs()));
    if (decided) break;

    // Debug-level tracing of the termination protocol (~2 lines/sec per
    // node; LBTRUST_LOG=debug or the legacy LBTRUST_DIST_DEBUG=1) — the
    // first thing to reach for when a mesh hangs instead of converging.
    if (util::LogEnabled(util::LogLevel::kDebug)) {
      static thread_local int64_t last_debug_ms = 0;
      int64_t debug_now = EventLoop::NowMs();
      if (debug_now - last_debug_ms >= 500) {
        last_debug_ms = debug_now;
        std::string table;
        for (const auto& [name, status] : node_status_) {
          table += util::StrCat(name, "=", std::to_string(status.first), ":",
                                status.second ? "1" : "0", " ");
        }
        std::string confirm_table;
        for (const auto& [name, confirmed] : confirms_) {
          confirm_table += util::StrCat(name, "=", confirmed, " ");
        }
        util::LogMessage(
            util::LogLevel::kDebug,
            "[%s] quiet=%d dirty=%d inbox=%d credentials=%zu deferred=%zu "
            "acked=%d queues_empty=%d status{%s} confirms{%s} hash=%s",
            options_.self.c_str(), IsQuiet() ? 1 : 0, dirty_ ? 1 : 0,
            runtime_->HasInbox() ? 1 : 0, staged_credentials_.size(),
            deferred_.size(), socket_->AllAcked() ? 1 : 0,
            socket_->SendQueuesEmpty() ? 1 : 0, table.c_str(),
            confirm_table.c_str(), SnapshotHash().c_str());
      }
    }

    if (on_tick_) on_tick_();
    // The HTTP fds live on the transport's loop, so the poll below serves
    // any buffered scrape between waves; only deadline enforcement needs
    // an explicit nudge.
    if (http_ != nullptr) http_->Housekeep();

    Status st = socket_->Poll(options_.poll_interval_ms);
    if (!st.ok()) {
      return Status(st.code(), util::StrCat("node '", options_.self,
                                            "': ", st.message()));
    }
    if (EventLoop::NowMs() > deadline) {
      return util::Internal(util::StrCat(
          "node '", options_.self, "': no convergence within ",
          std::to_string(options_.convergence_timeout_ms), "ms"));
    }
  }
  // Linger so peers still deciding receive our CONFIRM: flush buffered
  // frames, and — the critical case — retry links that were down when we
  // broadcast it, since on_connect is the only resend path a departed
  // node still has. Kick the backoff first so a link refused during peer
  // startup retries now instead of seconds from now.
  socket_->KickReconnects();
  const int64_t linger_end = EventLoop::NowMs() + options_.linger_ms;
  while (EventLoop::NowMs() < linger_end) {
    Status st = socket_->Poll(5);
    if (!st.ok()) break;  // peers tearing down concurrently is expected
  }
  return stats();
}

DistributedCluster::RunStats DistributedCluster::stats() const {
  RunStats s;
  s.fixpoints = counters_.fixpoints->value();
  s.tuples_in = counters_.tuples_in->value();
  s.tuples_out = counters_.tuples_out->value();
  s.credential_imports = counters_.credential_imports->value();
  s.deferred_sends = counters_.deferred_sends->value();
  s.transport = wire_.Read();
  return s;
}

std::string DistributedCluster::DumpMetrics() {
  uptime_->Set((EventLoop::NowMs() - start_ms_) / 1000);
  return runtime_->workspace()->DumpMetrics();
}

}  // namespace lbtrust::net
