#ifndef LBTRUST_TRUST_TRUST_RUNTIME_H_
#define LBTRUST_TRUST_TRUST_RUNTIME_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cred/importer.h"
#include "cred/store.h"
#include "crypto/rsa.h"
#include "datalog/workspace.h"
#include "trust/auth_scheme.h"
#include "trust/keystore.h"
#include "trust/trust_builtins.h"
#include "util/status.h"

namespace lbtrust::trust {

/// One principal's LBTrust context: a workspace wired with the meta-model,
/// the cryptographic built-ins, a key store holding the principal's RSA
/// key pair, the `says` core (says0/says1 of §4.1), and a pluggable
/// authentication scheme. This is the paper's "context" — each
/// net::DistributedCluster node hosts one, on sockets or in a SimCluster.
///
/// The runtime re-exports the workspace session API: `Prepare()` compiles
/// a policy-decision query once into a reusable `PreparedQuery` handle
/// (per-request evaluation with no parsing), and `Begin()` opens a
/// `Transaction` that stages mutations — including `Say()` — and applies
/// them with a single Fixpoint() at Commit(). Long-lived services should
/// prepare their queries at startup and batch related mutations; the
/// one-shot calls below remain for interactive and migration use.
class TrustRuntime {
 public:
  struct Options {
    std::string principal = "local";
    /// RSA key material is generated deterministically from this seed
    /// (0 = derive from the principal name), so runs are reproducible.
    uint64_t key_seed = 0;
    size_t rsa_bits = 1024;
    bool enable_meta_model = true;
    /// Install says1 ("active(R) <- says(_,me,R)."): trust everything said
    /// to me. Turn off when activation should flow through delegation
    /// rules only.
    bool trusting_activation = true;
    /// Engine options, including `workspace.threads` — intra-stratum rule
    /// parallelism for the runtime's fixpoints (0 = hardware concurrency,
    /// 1 = sequential; see README "Parallel evaluation"). Per-runtime
    /// stores/pools stay single-owner, so concurrent TrustRuntimes compose
    /// with per-runtime worker pools.
    datalog::Workspace::Options workspace;
  };

  static util::Result<std::unique_ptr<TrustRuntime>> Create(Options options);

  /// The deterministic key material Create() gives a principal: generated
  /// from `key_seed` (0 = derive from the principal name). Exposed so a
  /// remote process can compute a peer's public key without ever seeing
  /// the peer — a socket node registers full-mesh peer keys this way,
  /// byte-identical to the keys an in-process mesh's runtimes hold.
  static util::Result<crypto::RsaKeyPair> DeriveKeyPair(
      const std::string& principal, uint64_t key_seed, size_t rsa_bits);

  /// Session API (re-exported from the workspace): a prepared read handle
  /// and a batch write handle.
  util::Result<datalog::PreparedQuery> Prepare(std::string_view atom_text) {
    return workspace_->Prepare(atom_text);
  }
  datalog::Transaction Begin() { return workspace_->Begin(); }

  const std::string& principal() const { return options_.principal; }
  datalog::Workspace* workspace() { return workspace_.get(); }
  KeyStore* keystore() { return &keystore_; }
  const crypto::RsaKeyPair& keypair() const { return keypair_; }
  CryptoStats crypto_stats() const { return crypto_.Read(); }

  /// Installs (or swaps in) an authentication scheme. Returns the number
  /// of clauses that changed relative to the previously installed scheme
  /// (the paper reports 2 for RSA -> HMAC).
  util::Result<int> UseScheme(const AuthScheme& scheme);
  const std::string& scheme_name() const { return scheme_name_; }

  /// Registers a remote principal: prin(peer) + rsapubkey(peer,handle).
  util::Status AddPeer(const std::string& peer,
                       const crypto::RsaPublicKey& key);
  /// Registers a shared HMAC secret with a peer:
  /// sharedsecret(me,peer,handle). Both sides must add the same secret.
  util::Status AddSharedSecret(const std::string& peer,
                               const std::string& secret);

  /// Loads policy text with `me` = this principal.
  util::Status Load(std::string_view program);

  /// Asserts says(me, destination, [| rule_text |]) — the programmatic way
  /// to say something (policies usually derive says instead). Batch
  /// counterpart: Begin().Say(destination, rule_text)...Commit().
  util::Status Say(const std::string& destination, std::string_view rule_text);

  // --- Credentials (src/cred): signed, linkable, portable evidence --------

  /// This principal's content-addressed credential store (issued and
  /// imported credentials, with the memoized verification cache).
  cred::CredentialStore* credentials() { return &credstore_; }

  /// Signs `payload` (program text: facts/rules this principal states) into
  /// a credential linked to `links` (content hashes that must already be in
  /// the store), valid in [not_before, not_after] (0 = unbounded), and puts
  /// it in the store. Returns the credential's content hash.
  util::Result<std::string> Issue(std::string_view payload,
                                  std::vector<std::string> links = {},
                                  int64_t not_before = 0,
                                  int64_t not_after = 0);

  /// Serializes the credential and its transitive link closure into a
  /// bundle ready to ship to another principal.
  util::Result<std::string> ExportCredential(const std::string& hash);

  /// Verifies and imports a bundle produced by a peer's ExportCredential():
  /// all member credentials land in the store (content-deduplicated), the
  /// closure is signature-checked against registered peer keys (cache hits
  /// skip RSA), validity-checked at `now`, and materialized as
  /// says(issuer, me, [| clause |]) facts in one transaction + fixpoint.
  /// A rejected bundle leaves both the workspace and the store untouched
  /// (members staged from the failing bundle are rolled back out).
  util::Result<cred::ImportStats> ImportCredentials(std::string_view bundle,
                                                    int64_t now = 0);

  /// Runs the workspace to fixpoint (including export signing, import
  /// verification, codegen and constraint checks).
  util::Status Fixpoint() { return workspace_->Fixpoint(); }

  // --- Async import hooks (net transports) --------------------------------
  // A network runtime stages inbound tuple blocks between fixpoints and
  // commits them as one batch; calls must come from the thread driving the
  // runtime (the transports are single-threaded by design).

  /// Stages inbound tuples for `relation` into the runtime's inbox
  /// transaction (created on first use; the predicate is created
  /// partitioned if unknown). No fixpoint runs until CommitInbox().
  util::Status StageTuples(const std::string& relation,
                           std::vector<datalog::Tuple> tuples);
  bool HasInbox() const { return inbox_.has_value(); }
  /// Applies every staged tuple as one batch, then runs one fixpoint.
  util::Status CommitInbox();

 private:
  /// Builds the workspace first: the others count into its registry.
  explicit TrustRuntime(Options options);

  Options options_;
  std::unique_ptr<datalog::Workspace> workspace_;
  KeyStore keystore_;
  crypto::RsaKeyPair keypair_;
  CryptoCounters crypto_;
  std::string scheme_name_;
  std::string scheme_text_;  // installed clauses, for swap-out
  cred::CredentialStore credstore_;
  /// Trust anchors for credential import: principal -> key fingerprint,
  /// populated by Create() (self) and AddPeer().
  std::map<std::string, std::string> peer_key_fingerprints_;
  /// Inbound tuples staged between fixpoints (async import hooks).
  std::optional<datalog::Transaction> inbox_;
};

}  // namespace lbtrust::trust

#endif  // LBTRUST_TRUST_TRUST_RUNTIME_H_
