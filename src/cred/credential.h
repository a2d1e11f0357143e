#ifndef LBTRUST_CRED_CREDENTIAL_H_
#define LBTRUST_CRED_CREDENTIAL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "crypto/rsa.h"
#include "util/status.h"

namespace lbtrust::cred {

/// A credential is the unit of portable evidence between trust domains: a
/// signed bundle of logic statements (facts and rules in the engine's
/// program-text syntax) plus *links* — content hashes of other credentials
/// this one builds on (SAFE-style linked credential sets). Credentials are
/// content-addressed: `Hash()` is the SHA-256 of the full serialized form,
/// so identical credentials deduplicate and links are tamper-evident.
///
/// ## Wire format (versioned, length-prefixed)
///
///   credential := "LBC1" field*            (exactly 7 fields, in order)
///   field      := <decimal-byte-length> ':' <bytes>
///
///   field 1  issuer       principal name (symbol text)
///   field 2  key          fingerprint of the issuer's RSA public key
///                         (crypto::KeyFingerprint — 16 lowercase hex chars)
///   field 3  nbf          not-before, decimal seconds (0 = unbounded)
///   field 4  exp          not-after,  decimal seconds (0 = unbounded)
///   field 5  links        comma-joined SHA-256 hex hashes of linked
///                         credentials ("" = none)
///   field 6  payload      program text: facts/rules said by the issuer
///   field 7  sig          lowercase hex RSA signature (absent in the
///                         canonical pre-signature form)
///
/// The signature covers SHA-256(fields 1..6 serialized as above, including
/// the "LBC1" magic): `CanonicalBytes()`. Signing is RSA-SHA256 layered on
/// the engine's EMSA-PKCS1 primitive — the message handed to crypto::RsaSign
/// is the 32-byte SHA-256 digest of the canonical bytes.
///
/// A *bundle* ships a root credential together with its transitive link
/// closure (root first, dependencies after, deduplicated). Each distinct
/// issuer, key fingerprint, link hash and payload ships once, in a
/// dictionary of fields (first-use order); records refer to it by index:
///
///   bundle := "LBCB2" <dict-count> ':' field* <count> ':' record*
///   record := idx(issuer) idx(key) field(nbf) field(exp)
///             <link-count> ':' idx(link)* idx(payload) field(sig)
///   idx    := <decimal dictionary index> ':'
///
/// nbf and exp are fields 3 and 4 above; sig is the signature in lowercase
/// hex. Receivers rebuild each credential's canonical form, so hashes and
/// signatures do not depend on the container.
struct Credential {
  std::string issuer;           ///< principal name of the signer
  std::string key_fingerprint;  ///< crypto::KeyFingerprint of signer's key
  int64_t not_before = 0;       ///< validity start, seconds (0 = unbounded)
  int64_t not_after = 0;        ///< validity end, seconds (0 = unbounded)
  std::vector<std::string> links;  ///< SHA-256 hex hashes of prerequisites
  std::string payload;             ///< program text (facts and rules)
  std::string signature;           ///< raw RSA signature bytes

  /// True iff `now` falls inside [not_before, not_after] (either bound may
  /// be 0 = unbounded).
  bool ValidAt(int64_t now) const {
    return (not_before == 0 || now >= not_before) &&
           (not_after == 0 || now <= not_after);
  }
};

/// The byte string the signature covers (everything except the signature).
std::string CanonicalBytes(const Credential& cred);

/// Full wire form including the signature field.
std::string SerializeCredential(const Credential& cred);

/// Parses a serialized credential. Never crashes or over-reads: truncated
/// input, oversized length prefixes and malformed fields return a status.
util::Result<Credential> ParseCredential(std::string_view text);

/// Content address: lowercase SHA-256 hex of SerializeCredential(cred).
/// (RSA-PKCS1 signatures are deterministic, so issuing identical content
/// twice yields the identical hash.)
std::string CredentialHash(const Credential& cred);

/// Signs the canonical bytes with the issuer's private key, filling
/// `cred->signature`.
util::Status SignCredential(Credential* cred,
                            const crypto::RsaPrivateKey& key);

/// Verifies the signature against the canonical bytes. Pure RSA check; the
/// caller is responsible for binding `key` to `cred.issuer` /
/// `cred.key_fingerprint`.
bool VerifyCredentialSignature(const Credential& cred,
                               const crypto::RsaPublicKey& key);

/// Bundle (de)serialization; see the wire-format comment above.
std::string SerializeBundle(const std::vector<Credential>& credentials);
util::Result<std::vector<Credential>> ParseBundle(std::string_view text);

}  // namespace lbtrust::cred

#endif  // LBTRUST_CRED_CREDENTIAL_H_
