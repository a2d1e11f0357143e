#include "trust/trust_runtime.h"

#include <set>

#include "datalog/parser.h"
#include "datalog/pretty.h"
#include "meta/codegen.h"
#include "meta/meta_model.h"
#include "util/strings.h"

namespace lbtrust::trust {

using datalog::ParsedClause;
using datalog::Value;
using util::Result;
using util::Status;

Result<crypto::RsaKeyPair> TrustRuntime::DeriveKeyPair(
    const std::string& principal, uint64_t key_seed, size_t rsa_bits) {
  uint64_t seed = key_seed != 0 ? key_seed : util::Fnv1a(principal) | 1;
  crypto::SecureRandom rng(seed);
  return crypto::RsaGenerateKeyPair(rsa_bits, &rng);
}

TrustRuntime::TrustRuntime(Options options)
    : options_(std::move(options)),
      workspace_(std::make_unique<datalog::Workspace>(options_.workspace)),
      crypto_(RegisterCryptoBuiltins(workspace_.get(), &keystore_)),
      credstore_(workspace_->metrics()) {}

Result<std::unique_ptr<TrustRuntime>> TrustRuntime::Create(Options options) {
  if (options.principal.empty()) {
    return util::InvalidArgument("principal name must not be empty");
  }
  options.workspace.principal = options.principal;
  std::unique_ptr<TrustRuntime> rt(new TrustRuntime(options));
  datalog::Workspace* ws = rt->workspace_.get();

  LB_ASSIGN_OR_RETURN(
      rt->keypair_,
      DeriveKeyPair(options.principal, options.key_seed, options.rsa_bits));
  std::string priv_handle =
      rt->keystore_.AddRsaPrivateKey(rt->keypair_.private_key);
  std::string pub_handle =
      rt->keystore_.AddRsaPublicKey(rt->keypair_.public_key);

  if (rt->options_.enable_meta_model) {
    LB_RETURN_IF_ERROR(meta::EnableMetaModel(ws));
  }

  // Identity facts and key bindings.
  LB_RETURN_IF_ERROR(ws->EnsurePredicate("prin", 1));
  LB_RETURN_IF_ERROR(ws->EnsurePredicate("rsaprivkey", 2));
  LB_RETURN_IF_ERROR(ws->EnsurePredicate("rsapubkey", 2));
  LB_RETURN_IF_ERROR(ws->EnsurePredicate("sharedsecret", 3));
  LB_RETURN_IF_ERROR(
      ws->AddFact("prin", {Value::Sym(rt->options_.principal)}));
  LB_RETURN_IF_ERROR(ws->AddFact("rsaprivkey",
                                 {Value::Sym(rt->options_.principal),
                                  Value::Str(priv_handle)}));
  LB_RETURN_IF_ERROR(ws->AddFact("rsapubkey",
                                 {Value::Sym(rt->options_.principal),
                                  Value::Str(pub_handle)}));

  // The says core (§4.1).
  LB_RETURN_IF_ERROR(
      ws->Load("says0: says(U1,U2,R) -> prin(U1), prin(U2), rule(R)."));
  if (rt->options_.trusting_activation) {
    LB_RETURN_IF_ERROR(ws->Load("says1: active(R) <- says(_,me,R)."));
  }
  rt->peer_key_fingerprints_[rt->options_.principal] =
      crypto::KeyFingerprint(rt->keypair_.public_key);
  return rt;
}

Result<int> TrustRuntime::UseScheme(const AuthScheme& scheme) {
  std::string new_text = scheme.ExportRules() + scheme.ImportRules();
  if (scheme.name() == scheme_name_) return 0;

  int changed = 0;
  datalog::Workspace* ws = workspace_.get();
  LB_ASSIGN_OR_RETURN(std::vector<ParsedClause> new_clauses,
                      datalog::ParseProgram(new_text));
  std::set<std::string> new_canons;
  for (const ParsedClause& clause : new_clauses) {
    for (const datalog::Rule& rule : clause.rules) {
      new_canons.insert(datalog::PrintRule(
          datalog::ResolveMeRule(rule, options_.principal)));
    }
    for (const datalog::Constraint& c : clause.constraints) {
      new_canons.insert(datalog::PrintConstraint(c));
    }
  }
  // Remove only the clauses of the previous scheme that the new scheme
  // does not share — the paper's measure of reconfiguration effort (2
  // clauses for RSA -> HMAC: exp1 and exp3).
  if (!scheme_text_.empty()) {
    LB_ASSIGN_OR_RETURN(std::vector<ParsedClause> old_clauses,
                        datalog::ParseProgram(scheme_text_));
    for (const ParsedClause& clause : old_clauses) {
      for (const datalog::Rule& rule : clause.rules) {
        if (new_canons.count(datalog::PrintRule(
                datalog::ResolveMeRule(rule, options_.principal)))) {
          continue;
        }
        Status st = ws->RemoveRule(rule);
        if (st.ok()) ++changed;
      }
      for (const datalog::Constraint& c : clause.constraints) {
        if (new_canons.count(datalog::PrintConstraint(c))) continue;
        if (!c.label.empty()) {
          Status st = ws->RemoveConstraintsByLabel(c.label);
          if (st.ok()) ++changed;
        }
      }
    }
  }
  LB_RETURN_IF_ERROR(ws->Load(new_text));
  scheme_name_ = scheme.name();
  scheme_text_ = std::move(new_text);
  return changed;
}

Status TrustRuntime::AddPeer(const std::string& peer,
                             const crypto::RsaPublicKey& key) {
  std::string handle = keystore_.AddRsaPublicKey(key);
  peer_key_fingerprints_[peer] = crypto::KeyFingerprint(key);
  LB_RETURN_IF_ERROR(workspace_->AddFact("prin", {Value::Sym(peer)}));
  return workspace_->AddFact("rsapubkey",
                             {Value::Sym(peer), Value::Str(handle)});
}

Status TrustRuntime::AddSharedSecret(const std::string& peer,
                                     const std::string& secret) {
  std::string handle = keystore_.AddSharedSecret(secret);
  LB_RETURN_IF_ERROR(workspace_->AddFact("prin", {Value::Sym(peer)}));
  return workspace_->AddFact(
      "sharedsecret",
      {Value::Sym(options_.principal), Value::Sym(peer), Value::Str(handle)});
}

Status TrustRuntime::Load(std::string_view program) {
  return workspace_->Load(program);
}

Status TrustRuntime::Say(const std::string& destination,
                         std::string_view rule_text) {
  LB_ASSIGN_OR_RETURN(Value code, meta::QuoteRuleText(rule_text));
  return workspace_->AddFact(
      "says",
      {Value::Sym(options_.principal), Value::Sym(destination), code});
}

Result<std::string> TrustRuntime::Issue(std::string_view payload,
                                        std::vector<std::string> links,
                                        int64_t not_before,
                                        int64_t not_after) {
  // Reject unparsable evidence at issuance, not at the importing peer.
  LB_RETURN_IF_ERROR(datalog::ParseProgram(payload).status());
  for (const std::string& link : links) {
    if (!credstore_.Contains(link)) {
      return util::NotFound(
          util::StrCat("cannot link unknown credential ", link));
    }
  }
  cred::Credential credential;
  credential.issuer = options_.principal;
  credential.key_fingerprint = crypto::KeyFingerprint(keypair_.public_key);
  credential.not_before = not_before;
  credential.not_after = not_after;
  credential.links = std::move(links);
  credential.payload = std::string(payload);
  LB_RETURN_IF_ERROR(
      cred::SignCredential(&credential, keypair_.private_key));
  return credstore_.Put(std::move(credential));
}

Result<std::string> TrustRuntime::ExportCredential(const std::string& hash) {
  LB_ASSIGN_OR_RETURN(std::vector<std::string> closure,
                      credstore_.ResolveClosure(hash));
  std::vector<cred::Credential> bundle;
  bundle.reserve(closure.size());
  for (const std::string& member : closure) {
    bundle.push_back(*credstore_.Get(member));
  }
  return cred::SerializeBundle(bundle);
}

Result<cred::ImportStats> TrustRuntime::ImportCredentials(
    std::string_view bundle, int64_t now) {
  LB_ASSIGN_OR_RETURN(std::vector<cred::Credential> credentials,
                      cred::ParseBundle(bundle));
  if (credentials.empty()) {
    return util::InvalidArgument("empty credential bundle");
  }
  // Content-addressed staging: already-known credentials dedup here, and
  // their cached verification verdicts make the import skip RSA entirely.
  // Members that are NEW to the store are provisional until the whole
  // bundle verifies — a rejected bundle must not pollute the store with
  // unverified (and possibly unexpirable) credentials.
  std::string root_hash;
  std::vector<std::string> staged;
  for (cred::Credential& credential : credentials) {
    std::string hash = cred::CredentialHash(credential);
    if (!credstore_.Contains(hash)) {
      // The hash was just computed from this exact content, so inserting
      // under it directly avoids Put() rehashing the credential.
      credstore_.InsertForReplication(hash, std::move(credential));
      staged.push_back(hash);
    }
    if (root_hash.empty()) root_hash = std::move(hash);
  }
  cred::KeyResolver resolver =
      [this](const std::string& issuer,
             const std::string& fingerprint) -> const crypto::RsaPublicKey* {
    auto bound = peer_key_fingerprints_.find(issuer);
    if (bound == peer_key_fingerprints_.end() || bound->second != fingerprint) {
      return nullptr;  // unknown issuer, or a key we never bound to them
    }
    return keystore_.FindPublicByFingerprint(fingerprint);
  };
  util::Result<cred::ImportStats> result = cred::ImportCredentialSet(
      root_hash, &credstore_, workspace_.get(), resolver, now);
  if (!result.ok()) {
    for (const std::string& hash : staged) credstore_.Erase(hash);
    return result;
  }
  // Only the root's link closure was verified; bundle members outside it
  // are unverified freight and must not survive the import (they would be
  // unexpirable and ExportCredential could re-ship them).
  auto closure = credstore_.ResolveClosure(root_hash);
  if (closure.ok()) {
    std::set<std::string> keep(closure->begin(), closure->end());
    for (const std::string& hash : staged) {
      if (keep.count(hash) == 0) credstore_.Erase(hash);
    }
  }
  return result;
}

Status TrustRuntime::StageTuples(const std::string& relation,
                                 std::vector<datalog::Tuple> tuples) {
  for (datalog::Tuple& tuple : tuples) {
    LB_RETURN_IF_ERROR(workspace_->EnsurePredicate(relation, tuple.size(),
                                                   /*partitioned=*/true));
    if (!inbox_.has_value()) inbox_.emplace(workspace_->Begin());
    inbox_->AddFact(relation, std::move(tuple));
  }
  return util::OkStatus();
}

Status TrustRuntime::CommitInbox() {
  if (!inbox_.has_value()) return util::OkStatus();
  datalog::Transaction txn = std::move(*inbox_);
  inbox_.reset();
  return txn.Commit();
}

}  // namespace lbtrust::trust
