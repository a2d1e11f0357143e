#ifndef LBTRUST_CRED_STORE_H_
#define LBTRUST_CRED_STORE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cred/credential.h"
#include "obs/metrics.h"
#include "util/status.h"

namespace lbtrust::cred {

/// Content-addressed credential storage with cached verification (the
/// "Certificate Linking and Caching" performance lever): credentials are
/// keyed by their SHA-256 hash, so `Put()` deduplicates structurally
/// identical evidence, and `VerifySignature()` memoizes the RSA check per
/// (credential hash, key fingerprint) — re-importing a credential set that
/// was verified before touches no public-key arithmetic at all.
class CredentialStore {
 public:
  /// Counts into `metrics`, which must outlive the store.
  explicit CredentialStore(obs::MetricsRegistry* metrics);

  /// The store's counters, as handles or values.
  template <typename T>
  struct Counts {
    T puts{};               ///< Put() calls
    T dedup_hits{};         ///< Put() calls that found the hash present
    T rsa_verifies{};       ///< signature checks that ran RSA
    T verify_cache_hits{};  ///< signature checks served from cache
    T swept{};              ///< credentials removed by SweepExpired()
  };
  /// A by-value view of the store's counters.
  using Stats = Counts<size_t>;

  /// Inserts a credential (no signature check here) and returns its content
  /// hash. Re-inserting identical content is a cheap no-op.
  std::string Put(Credential cred);

  /// Replica-sync path: inserts under an address computed upstream instead
  /// of rehashing. A corrupt or malicious replica can feed addresses that
  /// do not match the content — which is exactly why ResolveClosure()
  /// carries cycle detection and VerifySignature() is still mandatory on
  /// import. (Honest stores never produce link cycles: a cycle would need
  /// a SHA-256 fixed point.)
  void InsertForReplication(std::string hash, Credential cred);

  /// Looks a credential up by content hash; nullptr when absent.
  const Credential* Get(const std::string& hash) const;

  bool Contains(const std::string& hash) const;
  size_t size() const { return by_hash_.size(); }

  /// Verifies the credential's signature under `key`, memoized per
  /// (hash, key fingerprint). Cache hits skip RSA entirely. kNotFound if
  /// the hash is not in the store.
  util::Result<bool> VerifySignature(const std::string& hash,
                                     const crypto::RsaPublicKey& key);

  /// Transitive link closure of `hash`, root first, dependencies after,
  /// each hash exactly once. kNotFound names the first missing link;
  /// kFailedPrecondition reports a link cycle.
  util::Result<std::vector<std::string>> ResolveClosure(
      const std::string& hash) const;

  /// Removes one credential and its cached verification verdicts. Used to
  /// roll freshly staged credentials back out when a bundle import is
  /// rejected. Returns true if the hash was present.
  bool Erase(const std::string& hash);

  /// Removes every credential whose validity interval excludes `now`, along
  /// with its cached verification results. Returns the number removed.
  size_t SweepExpired(int64_t now);

  Stats stats() const;

 private:
  void DropVerdicts(const std::string& hash);

  std::map<std::string, Credential> by_hash_;
  /// (hash + '|' + key fingerprint) -> verification outcome.
  std::map<std::string, bool> verify_cache_;
  Counts<obs::Counter*> counters_;
};

}  // namespace lbtrust::cred

#endif  // LBTRUST_CRED_STORE_H_
