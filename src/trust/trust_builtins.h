#ifndef LBTRUST_TRUST_TRUST_BUILTINS_H_
#define LBTRUST_TRUST_TRUST_BUILTINS_H_

#include "datalog/workspace.h"
#include "obs/metrics.h"
#include "trust/keystore.h"

namespace lbtrust::trust {

/// The crypto builtins' counters, as handles or values. The builtins keep
/// a per-workspace cache so that full recomputation across fixpoint rounds
/// does not redo public-key operations (RSA signing dominates Figure 2).
template <typename T>
struct CryptoFields {
  T rsa_signs{}, rsa_verifies{}, hmac_signs{}, hmac_verifies{}, cache_hits{};
};
/// A by-value view of the crypto builtins' counters.
using CryptoStats = CryptoFields<size_t>;

/// The crypto builtins' counters, resolved in the workspace's registry.
struct CryptoCounters : CryptoFields<obs::Counter*> {
  explicit CryptoCounters(obs::MetricsRegistry* metrics);
  CryptoStats Read() const;
};

/// Registers the paper's cryptographic built-ins on a workspace:
///
///   rsasign(R,S,K)    S := RSA signature of R under private key handle K
///   rsaverify(R,S,K)  true iff S verifies R under public key handle K
///   hmacsign(R,K,S)   S := HMAC-SHA1 tag of R under shared secret K
///   hmacverify(R,S,K) true iff tag matches
///   sha1hash(M,H)     H := hex SHA-1 of M        (integrity, §4.1.3)
///   checksum(M,C)     C := CRC-32 of M           (integrity, §4.1.3)
///   encrypt(M,K,C)    C := hex sealed box of M under shared secret K
///   decrypt(C,K,M)    inverse; fails (no solution) on tamper
///
/// Message bytes are the canonical form for code values, the raw text for
/// strings/symbols, and the printed form otherwise. Returns the handles
/// the builtins count into.
CryptoCounters RegisterCryptoBuiltins(datalog::Workspace* workspace,
                                      const KeyStore* keystore);

}  // namespace lbtrust::trust

#endif  // LBTRUST_TRUST_TRUST_BUILTINS_H_
