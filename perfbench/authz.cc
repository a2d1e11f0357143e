// Workload authz_serve: a Binder-style reference monitor fed by signed,
// linked credentials. kMonitors independent monitors (one per tenant, each
// with its own credential base and traffic, the same issuers) are served one
// after another: each monitor's update latency rises as its relations grow,
// and a median over several such ramps spread over the run does not hinge
// on the host's speed at one moment, as a median over one run-long ramp
// would.
//
// Policy (Binder syntax, loaded with binder::LoadBinder; the monitor runs
// without says1, so only statements of trusted issuers count): trust flows
// from a root issuer through a recursive delegation chain, group membership
// nests recursively, and group grants give access.
//
// Each credential base is imported in set-up. The timed phase is a closed
// loop of ~98% prepared decisions (PreparedQuery::Exists on allow(U,O,R))
// and ~2% credential imports: 60% fresh leaves (one RSA verify, cached
// links), 30% re-delivered bundles (zero RSA) and 10% new delegation links.
// Fresh evidence is the majority so that the median update is a verify plus
// a delta fixpoint over the recursive rules, not a dedup. The generator
// keeps the ground truth: it evaluates the policy itself after every import
// and knows each decision's answer and each import's RSA cost.
#include <algorithm>
#include <array>
#include <cstdio>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "binder/binder.h"
#include "cred/credential.h"
#include "harness.h"
#include "trust/trust_runtime.h"
#include "util/strings.h"

namespace perfbench {
namespace {

namespace cred = lbtrust::cred;
namespace datalog = lbtrust::datalog;
using lbtrust::trust::TrustRuntime;
using lbtrust::util::StrCat;

// Each `says` pattern is matched once, into a plain relation the joins can
// index; trust is applied in the joins.
constexpr const char* kPolicy =
    "said_delegate(X,Y) :- X says delegate(Y).\n"
    "said_member(X,U,G) :- X says member(U,G).\n"
    "said_subgroup(X,H,G) :- X says subgroup(H,G).\n"
    "said_grant(X,G,O,R) :- X says grant(G,O,R).\n"
    "trusted(root).\n"
    "trusted(Y) :- trusted(X), said_delegate(X,Y).\n"
    "member(U,G) :- said_member(X,U,G), trusted(X).\n"
    "member(U,G) :- member(U,H), said_subgroup(X,H,G), trusted(X).\n"
    "allow(U,O,R) :- member(U,G), said_grant(X,G,O,R), trusted(X).\n";

constexpr int kPool = 10;  ///< issuers besides root
constexpr int kUsers = 2000;
constexpr int kGroups = 63;  ///< a binary tree: g_i is a subgroup of g_(i-1)/2
constexpr int kObjects = 500;
constexpr const char* kRights[] = {"read", "write"};

constexpr size_t kMonitors = 10;
constexpr size_t kBaseLeaves = 400;        ///< per monitor
constexpr size_t kImportsPerSecond = 750;  ///< timed imports per --seconds
constexpr size_t kOpsPerImport = 50;       ///< ~2% of operations import
constexpr size_t kRequests = 2000;  ///< prepared request population per monitor
/// Shares of timed imports (no published trace fixes them): fresh leaves,
/// then re-deliveries, then new delegation links.
constexpr double kFreshShare = 0.6;
constexpr double kLinkShare = 0.1;

/// One statement an issuer can make; `kind` selects the predicate.
struct Statement {
  enum Kind { kDelegate, kMember, kSubgroup, kGrant };
  Kind kind = kMember;
  int a = 0, b = 0, c = 0;  ///< issuer / user / group / object / right ids

  std::string Text() const {
    switch (kind) {
      case kDelegate:
        return StrCat("delegate(iss", a, ").");
      case kMember:
        return StrCat("member(u", a, ",g", b, ").");
      case kSubgroup:
        return StrCat("subgroup(g", a, ",g", b, ").");
      case kGrant:
        return StrCat("grant(g", a, ",o", b, ",", kRights[c], ").");
    }
    return "";
  }
};

/// A signed credential: issuer (-1 = root), statements, link closure.
struct Issued {
  int issuer = -1;
  std::vector<Statement> statements;
  /// Indices into the credential list, self first.
  std::vector<size_t> closure;
  std::string hash;
};

std::string IssuerName(int issuer) {
  return issuer < 0 ? "root" : StrCat("iss", issuer);
}

struct Request {
  int user = 0, object = 0, right = 0;
  bool operator<(const Request& o) const {
    return std::tie(user, object, right) < std::tie(o.user, o.object, o.right);
  }
};

/// The generator's model of what the monitor knows and decides: the same
/// policy, evaluated directly over the statements learned so far.
class Oracle {
 public:
  void Learn(const Issued& credential) {
    std::vector<Statement>& said = said_[credential.issuer];
    said.insert(said.end(), credential.statements.begin(),
                credential.statements.end());
    bool delegates = false;
    for (const Statement& s : credential.statements) {
      delegates |= s.kind == Statement::kDelegate;
    }
    if (delegates) {
      Rebuild();
    } else if (trusted_.count(credential.issuer) > 0) {
      for (const Statement& s : credential.statements) Apply(s);
    }
  }

  std::vector<int> TrustedIssuers() const {
    return std::vector<int>(trusted_.begin(), trusted_.end());
  }

  /// Groups `user` belongs to, nesting included.
  std::set<int> Groups(int user) const {
    std::set<int> groups;
    auto direct = members_.find(user);
    if (direct == members_.end()) return groups;
    std::vector<int> todo(direct->second.begin(), direct->second.end());
    while (!todo.empty()) {
      int g = todo.back();
      todo.pop_back();
      if (!groups.insert(g).second) continue;
      auto up = supergroups_.find(g);
      if (up == supergroups_.end()) continue;
      todo.insert(todo.end(), up->second.begin(), up->second.end());
    }
    return groups;
  }

  bool Allowed(const Request& r) const {
    for (int g : Groups(r.user)) {
      if (grants_.count({g, r.object, r.right}) > 0) return true;
    }
    return false;
  }

  /// Draws a request the policy allows now; false when none was found.
  bool SampleAllowed(Rng* rng, Request* out) const {
    if (members_.empty()) return false;
    auto it = members_.begin();
    std::advance(it, static_cast<long>(rng->Below(members_.size())));
    std::set<int> groups = Groups(it->first);
    std::vector<std::pair<int, int>> options;
    for (int g : groups) {
      auto gr = grants_by_group_.find(g);
      if (gr == grants_by_group_.end()) continue;
      options.insert(options.end(), gr->second.begin(), gr->second.end());
    }
    if (options.empty()) return false;
    const auto& [object, right] = options[rng->Below(options.size())];
    *out = Request{it->first, object, right};
    return true;
  }

  /// Number of allow(U,O,R) tuples the policy derives.
  size_t CountAllowed() const {
    size_t total = 0;
    for (const auto& [user, direct] : members_) {
      std::set<std::pair<int, int>> allowed;
      for (int g : Groups(user)) {
        auto gr = grants_by_group_.find(g);
        if (gr == grants_by_group_.end()) continue;
        allowed.insert(gr->second.begin(), gr->second.end());
      }
      total += allowed.size();
    }
    return total;
  }

 private:
  void Apply(const Statement& s) {
    switch (s.kind) {
      case Statement::kMember:
        members_[s.a].insert(s.b);
        break;
      case Statement::kSubgroup:
        supergroups_[s.a].insert(s.b);
        break;
      case Statement::kGrant:
        if (grants_.insert({s.a, s.b, s.c}).second) {
          grants_by_group_[s.a].push_back({s.b, s.c});
        }
        break;
      case Statement::kDelegate:
        break;
    }
  }

  /// Trust changed: recompute the trusted issuers and what they said.
  void Rebuild() {
    trusted_ = {-1};
    for (bool grew = true; grew;) {
      grew = false;
      for (const auto& [issuer, said] : said_) {
        if (trusted_.count(issuer) == 0) continue;
        for (const Statement& s : said) {
          if (s.kind == Statement::kDelegate && trusted_.insert(s.a).second) {
            grew = true;
          }
        }
      }
    }
    members_.clear();
    supergroups_.clear();
    grants_.clear();
    grants_by_group_.clear();
    for (const auto& [issuer, said] : said_) {
      if (trusted_.count(issuer) == 0) continue;
      for (const Statement& s : said) Apply(s);
    }
  }

  std::map<int, std::vector<Statement>> said_;
  std::set<int> trusted_ = {-1};
  std::map<int, std::set<int>> members_;      ///< user -> direct groups
  std::map<int, std::set<int>> supergroups_;  ///< group -> enclosing groups
  std::set<std::array<int, 3>> grants_;       ///< (group, object, right)
  std::map<int, std::vector<std::pair<int, int>>> grants_by_group_;
};

/// Issuer keys: [0] = root, [1 + i] = iss<i>.
using IssuerKeys = std::vector<lbtrust::crypto::RsaKeyPair>;

/// Everything the generator produced for one monitor.
struct Plan {
  std::vector<Issued> credentials;
  /// Per credential: its closure, serialized.
  std::vector<std::string> bundles;
  std::vector<size_t> base;          ///< credentials imported in set-up
  std::vector<Request> requests;     ///< prepared request population
  std::vector<bool> base_expect;     ///< per request, under the base
  size_t base_allowed = 0;
  size_t final_allowed = 0;

  struct Op {
    bool import = false;
    size_t index = 0;     ///< request index, or credential index for imports
    bool expect = false;  ///< decision answer
    size_t fresh = 0;     ///< closure members new to the monitor (RSA verifies)
  };
  std::vector<Op> ops;
};

class Generator {
 public:
  Generator(uint64_t seed, const IssuerKeys* keys, Plan* plan)
      : rng_(seed), keys_(keys), plan_(plan) {}

  bool Run(size_t timed_imports, std::string* error) {
    // Initial trust: a delegation chain from root through half the pool;
    // the other half stays untrusted until a delegation reaches it.
    std::vector<int> order(kPool);
    for (int i = 0; i < kPool; ++i) order[static_cast<size_t>(i)] = i;
    for (size_t i = kPool - 1; i > 0; --i) {
      std::swap(order[i], order[rng_.Below(i + 1)]);
    }
    int from = -1;
    for (int i = 0; i < kPool / 2; ++i) {
      if (!Delegate(from, order[static_cast<size_t>(i)], error)) return false;
      from = order[static_cast<size_t>(i)];
    }
    for (size_t i = 0; i < kBaseLeaves; ++i) {
      if (!Leaf(error)) return false;
    }
    for (size_t c = 0; c < plan_->credentials.size(); ++c) {
      plan_->base.push_back(c);
      Import(c);
    }
    plan_->base_allowed = oracle_.CountAllowed();

    // Request population: half allowed under the base, half uniform.
    std::set<Request> chosen;
    while (chosen.size() < kRequests) {
      Request r;
      bool allowed = false;
      for (int tries = 0; chosen.size() % 2 == 0 && tries < 100; ++tries) {
        if (oracle_.SampleAllowed(&rng_, &r) && chosen.count(r) == 0) {
          allowed = true;
          break;
        }
      }
      if (!allowed) {
        r = Request{static_cast<int>(rng_.Below(kUsers)),
                    static_cast<int>(rng_.Below(kObjects)),
                    static_cast<int>(rng_.Below(2))};
      }
      chosen.insert(r);
    }
    plan_->requests.assign(chosen.begin(), chosen.end());
    for (const Request& r : plan_->requests) {
      plan_->base_expect.push_back(oracle_.Allowed(r));
    }

    // Timed stream: decisions, then one import (kFreshShare fresh leaves,
    // kLinkShare new delegation links between trusted issuers, the rest
    // re-deliveries), repeated. Exactly two delegations, a third and two
    // thirds of the way in, reach an untrusted issuer and change what the
    // policy trusts.
    std::vector<size_t> delivered = plan_->base;
    for (size_t i = 0; i < timed_imports; ++i) {
      size_t decisions = kOpsPerImport / 2 + rng_.Below(kOpsPerImport);
      for (size_t d = 1; d < decisions; ++d) {
        Plan::Op op;
        op.index = rng_.Below(plan_->requests.size());
        op.expect = oracle_.Allowed(plan_->requests[op.index]);
        plan_->ops.push_back(op);
      }
      const std::vector<int> trusted = oracle_.TrustedIssuers();
      const bool widen = i == timed_imports / 3 || i == 2 * timed_imports / 3;
      const double pick = rng_.Unit();
      size_t c = 0;
      if (widen || pick >= 1.0 - kLinkShare) {
        // Never empty: half the pool starts untrusted and only the two
        // widening links trust more of it.
        std::vector<int> targets;
        for (int y = 0; y < kPool; ++y) {
          bool is_trusted =
              std::find(trusted.begin(), trusted.end(), y) != trusted.end();
          if (is_trusted != widen) targets.push_back(y);
        }
        int x = trusted[rng_.Below(trusted.size())];
        int y = x;
        while (y == x) y = targets[rng_.Below(targets.size())];
        if (!Delegate(x, y, error)) return false;
        c = plan_->credentials.size() - 1;
      } else if (pick < kFreshShare) {
        if (!Leaf(error)) return false;
        c = plan_->credentials.size() - 1;
      } else {
        c = delivered[rng_.Below(delivered.size())];
      }
      Plan::Op op;
      op.import = true;
      op.index = c;
      op.fresh = Import(c);
      plan_->ops.push_back(op);
      delivered.push_back(c);
    }
    plan_->final_allowed = oracle_.CountAllowed();
    return true;
  }

 private:
  /// Delivers credential `c` (its whole closure) to the oracle; returns how
  /// many closure members the monitor has never seen (its RSA verifies).
  size_t Import(size_t c) {
    size_t fresh = 0;
    for (size_t member : plan_->credentials[c].closure) {
      // Content-addressed: identical content issued twice is one credential.
      if (known_.insert(plan_->credentials[member].hash).second) {
        ++fresh;
        oracle_.Learn(plan_->credentials[member]);
      }
    }
    return fresh;
  }

  bool Delegate(int from, int to, std::string* error) {
    if (!Sign(from, {Statement{Statement::kDelegate, to, 0, 0}}, error)) {
      return false;
    }
    // The first delegation to reach an issuer is the link its later
    // credentials carry.
    delegated_.emplace(to, plan_->credentials.size() - 1);
    return true;
  }

  bool Leaf(std::string* error) {
    // Any issuer: trusted ones count now, untrusted ones once a
    // delegation reaches them.
    int issuer = static_cast<int>(rng_.Below(kPool + 1)) - 1;
    std::vector<Statement> statements;
    size_t n = 1 + rng_.Below(5);
    for (size_t i = 0; i < n; ++i) {
      double pick = rng_.Unit();
      Statement s;
      if (pick < 0.7) {
        s = Statement{Statement::kMember, static_cast<int>(rng_.Below(kUsers)),
                      static_cast<int>(rng_.Below(kGroups)), 0};
      } else if (pick < 0.8) {
        int g = 1 + static_cast<int>(rng_.Below(kGroups - 1));
        s = Statement{Statement::kSubgroup, g, (g - 1) / 2, 0};
      } else {
        s = Statement{Statement::kGrant, static_cast<int>(rng_.Below(kGroups)),
                      static_cast<int>(rng_.Below(kObjects)),
                      static_cast<int>(rng_.Below(2))};
      }
      statements.push_back(s);
    }
    return Sign(issuer, statements, error);
  }

  bool Sign(int issuer, std::vector<Statement> statements,
            std::string* error) {
    const lbtrust::crypto::RsaKeyPair& key =
        (*keys_)[static_cast<size_t>(issuer + 1)];
    Issued issued;
    issued.issuer = issuer;
    issued.statements = std::move(statements);
    cred::Credential credential;
    credential.issuer = IssuerName(issuer);
    credential.key_fingerprint =
        lbtrust::crypto::KeyFingerprint(key.public_key);
    for (const Statement& s : issued.statements) {
      credential.payload += s.Text();
    }
    issued.closure.push_back(plan_->credentials.size());
    auto link = delegated_.find(issuer);
    if (link != delegated_.end()) {
      credential.links.push_back(plan_->credentials[link->second].hash);
      for (size_t member : plan_->credentials[link->second].closure) {
        issued.closure.push_back(member);
      }
    }
    auto st = cred::SignCredential(&credential, key.private_key);
    if (!st.ok()) {
      *error = st.ToString();
      return false;
    }
    issued.hash = cred::CredentialHash(credential);
    std::vector<cred::Credential> bundle = {credential};
    for (size_t i = 1; i < issued.closure.size(); ++i) {
      bundle.push_back(signed_[issued.closure[i]]);
    }
    plan_->bundles.push_back(cred::SerializeBundle(bundle));
    plan_->credentials.push_back(std::move(issued));
    signed_.push_back(std::move(credential));
    return true;
  }

  Rng rng_;
  const IssuerKeys* keys_;
  Plan* plan_;
  Oracle oracle_;
  std::set<std::string> known_;  ///< hashes of credentials the monitor holds
  std::vector<cred::Credential> signed_;
  std::map<int, size_t> delegated_;  ///< issuer -> its delegation credential
};

/// The monitor: one principal, the policy, the prepared decisions.
class Monitor {
 public:
  bool Init(const IssuerKeys& keys, std::string* error) {
    TrustRuntime::Options options;
    options.principal = "monitor";
    options.rsa_bits = 1024;
    options.trusting_activation = false;
    options.workspace.threads = 1;
    auto runtime = TrustRuntime::Create(options);
    if (!runtime.ok()) {
      *error = runtime.status().ToString();
      return false;
    }
    runtime_ = std::move(*runtime);
    for (int i = -1; i < kPool; ++i) {
      auto st = runtime_->AddPeer(
          IssuerName(i), keys[static_cast<size_t>(i + 1)].public_key);
      if (!st.ok()) {
        *error = st.ToString();
        return false;
      }
    }
    auto st = lbtrust::binder::LoadBinder(runtime_.get(), kPolicy);
    if (!st.ok()) {
      *error = "policy: " + st.ToString();
      return false;
    }
    return true;
  }

  bool Prepare(const Plan& plan, std::string* error) {
    queries_.reserve(plan.requests.size());
    for (const Request& r : plan.requests) {
      auto query = runtime_->Prepare(StrCat("allow(u", r.user, ",o", r.object,
                                            ",", kRights[r.right], ")"));
      if (!query.ok()) {
        *error = query.status().ToString();
        return false;
      }
      queries_.push_back(std::move(*query));
    }
    return true;
  }

  TrustRuntime* runtime() { return runtime_.get(); }
  datalog::PreparedQuery* query(size_t i) { return &queries_[i]; }
  size_t Allowed() const {
    const datalog::Relation* allow =
        runtime_->workspace()->GetRelation("allow");
    return allow == nullptr ? 0 : allow->size();
  }

 private:
  std::unique_ptr<TrustRuntime> runtime_;
  /// Declared after the runtime: released before its workspace.
  std::vector<datalog::PreparedQuery> queries_;
};

}  // namespace

Result RunAuthz(const RunConfig& config, Layers* layers,
                ThreadWatch* threads) {
  Result result;
  IssuerKeys keys;
  std::vector<Plan> plans(kMonitors);
  std::string error;
  {
    Clock::time_point start = Clock::now();
    for (int i = -1; i < kPool; ++i) {
      auto pair = TrustRuntime::DeriveKeyPair(IssuerName(i), 0, 1024);
      if (!pair.ok()) {
        result.Fail("issuer key: " + pair.status().ToString());
        return result;
      }
      keys.push_back(std::move(*pair));
    }
    const size_t imports =
        kImportsPerSecond * static_cast<size_t>(config.seconds) / kMonitors;
    Rng seeds(config.seed ^ 0x617574687aULL);
    size_t credentials = 0;
    for (Plan& plan : plans) {
      Generator generator(seeds.Next(), &keys, &plan);
      if (!generator.Run(imports, &error)) {
        result.Fail("generator: " + error);
        return result;
      }
      credentials += plan.credentials.size();
    }
    std::fprintf(stderr, "authz_serve: generator %.2fs, %zu credentials\n",
                 SecondsSince(start), credentials);
  }

  CpuRotation cpus;
  std::vector<std::unique_ptr<Monitor>> monitors;
  const double setup_s = MedianSetup(
      kSetupReps,
      [&] {
        for (const Plan& plan : plans) {
          auto monitor = std::make_unique<Monitor>();
          if (!monitor->Init(keys, &error)) {
            result.Fail("set-up: " + error);
            return false;
          }
          for (size_t c : plan.base) {
            cpus.Tick();
            auto imported =
                monitor->runtime()->ImportCredentials(plan.bundles[c]);
            if (!imported.ok()) {
              result.Fail("base import: " + imported.status().ToString());
              return false;
            }
          }
          if (!monitor->Prepare(plan, &error)) {
            result.Fail("prepare: " + error);
            return false;
          }
          // Warm-up: every prepared decision once, checked.
          for (size_t i = 0; i < plan.requests.size(); ++i) {
            auto allowed = monitor->query(i)->Exists();
            if (!allowed.ok() || *allowed != plan.base_expect[i]) {
              result.Fail(StrCat("set-up decision ", i, " wrong"));
              return false;
            }
          }
          monitors.push_back(std::move(monitor));
        }
        return true;
      },
      [&] { monitors.clear(); });
  if (setup_s < 0) return result;
  threads->Sample();
  for (size_t m = 0; m < kMonitors; ++m) {
    if (monitors[m]->Allowed() != plans[m].base_allowed) {
      result.Fail(StrCat("base: monitor ", m, " allows ",
                         monitors[m]->Allowed(), ", oracle ",
                         plans[m].base_allowed));
    }
  }

  auto read = [&] {
    Counters c;
    for (const auto& monitor : monitors) c += ReadCounters(monitor->runtime());
    return c;
  };
  const Counters before = read();
  Samples updates, decides;
  size_t decisions = 0, imports = 0, allowed_answers = 0, allow_tuples = 0;
  double redelivery_rsa = 0;

  Clock::time_point start = Clock::now();
  for (size_t m = 0; m < kMonitors; ++m) {
    Monitor* monitor = monitors[m].get();
    TrustRuntime* rt = monitor->runtime();
    const Plan& plan = plans[m];
    for (const Plan::Op& op : plan.ops) {
      cpus.Tick();
      Span span(layers, "op");
      if (!op.import) {
        ++decisions;
        auto allowed = [&] {
          Span decide(layers, "datalog.decide");
          Clock::time_point t = Clock::now();
          auto r = monitor->query(op.index)->Exists();
          decides.Add(MicrosBetween(t, Clock::now()));
          return r;
        }();
        if (!allowed.ok() || *allowed != op.expect) {
          result.CountFailure(StrCat("monitor ", m, ": decision on request ",
                                     op.index, " expected ", op.expect));
        } else if (op.expect) {
          ++allowed_answers;
        }
        continue;
      }
      ++imports;
      const size_t verifies_before = rt->credentials()->stats().rsa_verifies;
      auto imported = [&] {
        Span import(layers, "trust.import");
        Clock::time_point t = Clock::now();
        auto r = rt->ImportCredentials(plan.bundles[op.index]);
        updates.Add(MillisBetween(t, Clock::now()));
        return r;
      }();
      const size_t verified =
          rt->credentials()->stats().rsa_verifies - verifies_before;
      if (op.fresh == 0) redelivery_rsa += static_cast<double>(verified);
      if (!imported.ok()) {
        result.CountFailure("import rejected: " +
                            imported.status().ToString());
      } else if (imported->credentials !=
                     plan.credentials[op.index].closure.size() ||
                 verified != op.fresh) {
        result.CountFailure(StrCat(
            "monitor ", m, ": import of credential ", op.index, ": ",
            imported->credentials, " members, ", verified,
            " RSA verifies; expected ",
            plan.credentials[op.index].closure.size(), ", ", op.fresh));
      }
    }
  }
  const double timed_s = SecondsSince(start);
  threads->Sample();

  result.attempted = decisions + imports;
  FinishEndToEnd(&result, setup_s, static_cast<double>(result.attempted),
                 timed_s, updates, decides);
  if (redelivery_rsa != 0) {
    result.Fail(StrCat("re-delivered bundles ran ", redelivery_rsa,
                       " RSA verifies"));
  }
  for (size_t m = 0; m < kMonitors; ++m) {
    allow_tuples += monitors[m]->Allowed();
    if (monitors[m]->Allowed() != plans[m].final_allowed) {
      result.Fail(StrCat("monitor ", m, " allows ", monitors[m]->Allowed(),
                         ", oracle ", plans[m].final_allowed));
    }
  }
  std::fprintf(stderr,
               "authz_serve: %zu decisions (%.1f%% allowed), %zu imports, "
               "%zu allow tuples over %zu monitors\n",
               decisions,
               decisions > 0 ? 100.0 * static_cast<double>(allowed_answers) /
                                   static_cast<double>(decisions)
                             : 0.0,
               imports, allow_tuples, kMonitors);

  const Counters delta = read() - before;
  AddCounterMetrics(delta, &result);
  result.layer["cred.rsa_verifies_per_update"] =
      imports > 0 ? delta.cred_rsa_verifies / static_cast<double>(imports) : 0;
  return result;
}

}  // namespace perfbench
