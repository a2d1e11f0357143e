// Workload exchange_rsa: the paper's Fig. 2 RSA exchange as a stream. Each
// of kSizing.pairs principal pairs (alice<i>, bob<i>) is configured as a
// two-node mesh, and alice<i> `says` batches of ping(N) to bob<i>: each
// statement is RSA-signed on export and verified on import, then activated
// at bob<i> by says1 and codegen. A batch travels through the functions every
// deployment shares: ConfigureMeshNode, CollectPlacedBatches,
// SerializeTupleBlock / DeserializeTupleBlock and TrustRuntime::StageTuples /
// CommitInbox.
//
// One operation is one committed batch (an update). Set-up batches go to the
// pairs in turn; timed batches go to one pair after another, a block each.
// So one run holds a thousand updates while each pair's shipped history,
// which every commit scans, stays a few hundred messages, and update latency
// rises through the same range once per pair: a median over `pairs` such
// ramps spread over the run does not hinge on the host's speed at one
// moment, as a median over one run-long ramp would. After a batch its Bob
// decides prepared queries on every message of the batch (must hold) and on
// the first message of his next batch (must not hold yet), and his ping
// relation must hold exactly the messages sent to him so far.
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "harness.h"
#include "net/cluster.h"
#include "net/wire.h"
#include "trust/trust_runtime.h"
#include "util/strings.h"

namespace perfbench {
namespace {

namespace datalog = lbtrust::datalog;
namespace net = lbtrust::net;
using lbtrust::trust::TrustRuntime;
using lbtrust::util::StrCat;

struct Sizing {
  size_t pairs;            ///< independent (alice, bob) pairs
  size_t batch;            ///< messages per timed batch
  size_t history_batches;  ///< set-up batches per pair
  size_t history_batch;    ///< messages per set-up batch
  size_t pair_batches;     ///< timed batches per pair per --seconds
};

constexpr Sizing kSizing = {8, 4, 2, 100, 16};

std::unique_ptr<TrustRuntime> MakeRuntime(const std::string& name,
                                          std::string* error) {
  TrustRuntime::Options options;
  options.principal = name;
  options.rsa_bits = 1024;  // the paper's key size
  options.workspace.threads = 1;
  auto runtime = TrustRuntime::Create(options);
  if (!runtime.ok()) {
    *error = runtime.status().ToString();
    return nullptr;
  }
  return std::move(*runtime);
}

/// Rows of the partitioned relations: what CollectPlacedBatches scans.
size_t PartitionedRows(datalog::Workspace* ws) {
  size_t rows = 0;
  for (const auto& [name, info] : ws->catalog().predicates()) {
    if (!info.partitioned) continue;
    if (const datalog::Relation* rel = ws->GetRelation(name)) {
      rows += rel->size();
    }
  }
  return rows;
}

class Exchange {
 public:
  bool Init(size_t index, std::string* error) {
    alice_name_ = StrCat("alice", index);
    bob_name_ = StrCat("bob", index);
    alice_ = MakeRuntime(alice_name_, error);
    if (alice_ == nullptr) return false;
    bob_ = MakeRuntime(bob_name_, error);
    if (bob_ == nullptr) return false;
    const std::vector<std::pair<std::string, lbtrust::crypto::RsaPublicKey>>
        mesh = {{alice_name_, alice_->keypair().public_key},
                {bob_name_, bob_->keypair().public_key}};
    for (TrustRuntime* rt : {alice_.get(), bob_.get()}) {
      auto st = net::ConfigureMeshNode(rt, mesh, "rsa",
                                       /*default_placement=*/true);
      if (!st.ok()) {
        *error = st.ToString();
        return false;
      }
    }
    return true;
  }

  /// Prepares Bob's decision for message `id`.
  bool PrepareDecision(int64_t id, std::string* error) {
    auto query = bob_->Prepare(StrCat("ping(", id, ")"));
    if (!query.ok()) {
      *error = query.status().ToString();
      return false;
    }
    decisions_.push_back(std::move(*query));
    return true;
  }
  datalog::PreparedQuery* decision(size_t i) { return &decisions_[i]; }

  /// One update: Alice commits the batch, her placed exports are encoded,
  /// decoded and staged at Bob, and Bob commits them.
  bool Deliver(const int64_t* ids, size_t n, Layers* layers,
               std::string* error) {
    lbtrust::util::Status st = [&] {
      Span span(layers, "trust.sender_commit");
      datalog::Transaction txn = alice_->Begin();
      for (size_t i = 0; i < n; ++i) {
        txn.Say(bob_name_, StrCat("ping(", ids[i], ")."));
      }
      return txn.Commit();
    }();
    if (!st.ok()) {
      *error = "alice commit: " + st.ToString();
      return false;
    }
    if (layers->enabled()) scanned_ += PartitionedRows(alice_->workspace());
    std::vector<net::PlacedBatch> placed = [&] {
      Span span(layers, "net.placement");
      return net::CollectPlacedBatches(alice_->workspace(), alice_name_,
                                       &sent_);
    }();
    for (net::PlacedBatch& batch : placed) {
      if (batch.dest != bob_name_) {
        *error = "alice placed tuples for " + batch.dest;
        return false;
      }
      std::string payload = [&] {
        Span span(layers, "net.wire_encode");
        return net::SerializeTupleBlock(batch.tuples);
      }();
      shipped_ += batch.tuples.size();
      wire_bytes_ += payload.size();
      auto tuples = [&] {
        Span span(layers, "net.wire_decode");
        return net::DeserializeTupleBlock(payload);
      }();
      if (!tuples.ok()) {
        *error = "decode: " + tuples.status().ToString();
        return false;
      }
      st = [&] {
        Span span(layers, "trust.stage");
        return bob_->StageTuples(batch.relation, std::move(*tuples));
      }();
      if (!st.ok()) {
        *error = "stage: " + st.ToString();
        return false;
      }
    }
    st = [&] {
      Span span(layers, "trust.receiver_commit");
      return bob_->CommitInbox();
    }();
    if (!st.ok()) {
      *error = "bob commit: " + st.ToString();
      return false;
    }
    codegen_rounds_ += bob_->workspace()->last_codegen_rounds();
    return true;
  }

  /// Messages Bob holds.
  size_t Delivered() const {
    const datalog::Relation* ping = bob_->workspace()->GetRelation("ping");
    return ping == nullptr ? 0 : ping->size();
  }

  TrustRuntime* alice() { return alice_.get(); }
  TrustRuntime* bob() { return bob_.get(); }
  size_t shipped() const { return shipped_; }
  size_t scanned() const { return scanned_; }
  size_t wire_bytes() const { return wire_bytes_; }
  size_t codegen_rounds() const { return codegen_rounds_; }

 private:
  std::string alice_name_;
  std::string bob_name_;
  std::unique_ptr<TrustRuntime> alice_;
  std::unique_ptr<TrustRuntime> bob_;
  /// Declared after the runtimes: released before the workspaces.
  std::vector<datalog::PreparedQuery> decisions_;
  std::set<std::string> sent_;
  size_t shipped_ = 0;
  size_t scanned_ = 0;
  size_t wire_bytes_ = 0;
  size_t codegen_rounds_ = 0;
};

}  // namespace

Result RunExchange(const RunConfig& config, Layers* layers,
                   ThreadWatch* threads) {
  Result result;
  const size_t pairs = kSizing.pairs;
  const size_t history = pairs * kSizing.history_batches;
  const size_t block =
      kSizing.pair_batches * static_cast<size_t>(config.seconds);
  const size_t total = history + pairs * block;
  // Batch b goes to pair pair_of[b] and sends ids[first[b] .. first[b + 1]).
  std::vector<size_t> first = {0};
  std::vector<size_t> pair_of(total);
  for (size_t b = 0; b < total; ++b) {
    first.push_back(first.back() +
                    (b < history ? kSizing.history_batch : kSizing.batch));
    pair_of[b] = b < history ? b % pairs : (b - history) / block;
  }

  // Generator: message ids (one spare per pair, never sent). After batch b
  // its Bob is also asked about the first message of his next batch, which
  // he must not hold yet.
  Rng rng(config.seed ^ 0x5253ULL);
  const std::vector<int64_t> ids = DistinctIds(&rng, first[total] + pairs);
  std::vector<int64_t> not_yet(total);
  std::vector<int64_t> next(pairs);  // first message of the pair's next batch
  for (size_t p = 0; p < pairs; ++p) next[p] = ids[first[total] + p];
  for (size_t b = total; b-- > 0;) {
    not_yet[b] = next[pair_of[b]];
    next[pair_of[b]] = ids[first[b]];
  }
  // Index of batch b's first prepared decision in its pair's list.
  std::vector<size_t> decision_at(total);
  std::vector<size_t> prepared(pairs, 0);
  for (size_t b = 0; b < total; ++b) {
    decision_at[b] = prepared[pair_of[b]];
    prepared[pair_of[b]] += first[b + 1] - first[b] + 1;
  }

  CpuRotation cpus;
  Layers untraced(nullptr);
  std::vector<std::unique_ptr<Exchange>> exchanges;
  std::vector<size_t> sent(pairs, 0);
  Samples updates, decides;

  // One operation: deliver batch `b`, then check its Bob's state.
  auto run_batch = [&](size_t b, Layers* spans, bool timed) {
    cpus.Tick();
    const size_t pair = pair_of[b];
    Exchange* exchange = exchanges[pair].get();
    const size_t n = first[b + 1] - first[b];
    std::string error;
    Clock::time_point start = Clock::now();
    bool ok = exchange->Deliver(&ids[first[b]], n, spans, &error);
    if (timed) updates.Add(MillisBetween(start, Clock::now()));
    sent[pair] += n;
    // Decisions: the batch's messages (held), then one not sent yet.
    for (size_t k = 0; ok && k <= n; ++k) {
      Span span(spans, "datalog.decide");
      Clock::time_point t = Clock::now();
      auto holds = exchange->decision(decision_at[b] + k)->Exists();
      if (timed) decides.Add(MicrosBetween(t, Clock::now()));
      if (!holds.ok() || *holds != (k < n)) {
        ok = false;
        error = StrCat("bob decided ping(",
                       k < n ? ids[first[b] + k] : not_yet[b], ") wrongly");
      }
    }
    if (ok && exchange->Delivered() != sent[pair]) {
      ok = false;
      error = StrCat("bob holds ", exchange->Delivered(),
                     " messages, expected ", sent[pair]);
    }
    if (!ok) result.CountFailure(StrCat("batch ", b, ": ", error), n);
    return ok;
  };

  const double setup_s = MedianSetup(
      kSetupReps,
      [&] {
        std::string error;
        bool ok = true;
        for (size_t p = 0; ok && p < pairs; ++p) {
          exchanges.push_back(std::make_unique<Exchange>());
          ok = exchanges.back()->Init(p, &error);
        }
        for (size_t b = 0; ok && b < total; ++b) {
          Exchange* exchange = exchanges[pair_of[b]].get();
          for (size_t i = first[b]; ok && i < first[b + 1]; ++i) {
            ok = exchange->PrepareDecision(ids[i], &error);
          }
          ok = ok && exchange->PrepareDecision(not_yet[b], &error);
        }
        if (!ok) {
          result.Fail("set-up: " + error);
          return false;
        }
        // Starting history (and warm-up) through the timed path.
        for (size_t b = 0; b < history; ++b) {
          if (!run_batch(b, &untraced, false)) {
            result.Fail("set-up history failed");
            return false;
          }
        }
        return true;
      },
      [&] {
        exchanges.clear();
        sent.assign(pairs, 0);
      });
  if (setup_s < 0) return result;
  threads->Sample();

  struct Totals {
    Counters counters;
    size_t codegen = 0, bytes = 0, shipped = 0, scanned = 0;
  };
  auto read = [&] {
    Totals t;
    for (const auto& exchange : exchanges) {
      t.counters += ReadCounters(exchange->alice());
      t.counters += ReadCounters(exchange->bob());
      t.codegen += exchange->codegen_rounds();
      t.bytes += exchange->wire_bytes();
      t.shipped += exchange->shipped();
      t.scanned += exchange->scanned();
    }
    return t;
  };
  const Totals before = read();

  Clock::time_point start = Clock::now();
  for (size_t b = history; b < total; ++b) {
    Span op(layers, "op");
    run_batch(b, layers, true);
  }
  const double timed_s = SecondsSince(start);
  threads->Sample();

  const size_t timed_messages = first[total] - first[history];
  result.attempted = timed_messages;
  FinishEndToEnd(&result, setup_s, static_cast<double>(timed_messages),
                 timed_s, updates, decides);

  // Exact counts: one RSA signature and one RSA verification per message
  // sent and no HMAC, over the whole life of the pairs.
  const Totals after = read();
  const Counters& c = after.counters;
  const double all = static_cast<double>(first[total]);
  if (c.rsa_signs != all || c.rsa_verifies != all || c.hmac_signs != 0 ||
      c.hmac_verifies != 0) {
    result.Fail(StrCat("crypto counts rsa ", c.rsa_signs, "/", c.rsa_verifies,
                       " hmac ", c.hmac_signs, "/", c.hmac_verifies, " for ",
                       all, " messages"));
  }

  AddCounterMetrics(c - before.counters, &result);
  result.layer["meta.codegen_rounds"] =
      static_cast<double>(after.codegen - before.codegen);
  const double shipped = static_cast<double>(after.shipped - before.shipped);
  const double scanned = static_cast<double>(after.scanned - before.scanned);
  result.layer["net.placement_ship_ratio"] =
      scanned > 0 ? shipped / scanned : 0;
  result.layer["net.wire_bytes_per_msg"] =
      static_cast<double>(after.bytes - before.bytes) /
      static_cast<double>(timed_messages);
  return result;
}

}  // namespace perfbench
