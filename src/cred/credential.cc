#include "cred/credential.h"

#include <charconv>
#include <unordered_map>

#include "crypto/sha256.h"
#include "util/strings.h"

namespace lbtrust::cred {

using util::Result;
using util::Status;

namespace {

constexpr std::string_view kCredMagic = "LBC1";
constexpr std::string_view kBundleMagic = "LBCB2";

void AppendField(std::string* out, std::string_view bytes) {
  util::AppendLengthPrefixed(out, bytes);
}

/// Reads one length-prefixed field off the front of `*text` (shared codec:
/// util::ReadLengthPrefixed validates the length against the remaining
/// input before any allocation).
Status ReadField(std::string_view* text, std::string_view* out) {
  if (!util::ReadLengthPrefixed(text, out)) {
    return util::ParseError("credential field: malformed length prefix");
  }
  return util::OkStatus();
}

Status ReadInt64Field(std::string_view* text, int64_t* out) {
  std::string_view field;
  LB_RETURN_IF_ERROR(ReadField(text, &field));
  auto [ptr, ec] =
      std::from_chars(field.data(), field.data() + field.size(), *out);
  if (ec != std::errc() || ptr != field.data() + field.size()) {
    return util::ParseError("credential field: bad integer");
  }
  return util::OkStatus();
}

bool IsHexHash(std::string_view s) {
  if (s.size() != crypto::Sha256::kDigestSize * 2) return false;
  for (char c : s) {
    if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))) return false;
  }
  return true;
}

}  // namespace

std::string CanonicalBytes(const Credential& cred) {
  std::string out(kCredMagic);
  AppendField(&out, cred.issuer);
  AppendField(&out, cred.key_fingerprint);
  AppendField(&out, std::to_string(cred.not_before));
  AppendField(&out, std::to_string(cred.not_after));
  AppendField(&out, util::Join(cred.links, ","));
  AppendField(&out, cred.payload);
  return out;
}

std::string SerializeCredential(const Credential& cred) {
  std::string out = CanonicalBytes(cred);
  AppendField(&out, util::HexEncode(cred.signature));
  return out;
}

Result<Credential> ParseCredential(std::string_view text) {
  if (!util::StartsWith(text, kCredMagic)) {
    return util::ParseError("not a credential (missing LBC1 magic)");
  }
  text.remove_prefix(kCredMagic.size());
  Credential cred;
  std::string_view field;
  LB_RETURN_IF_ERROR(ReadField(&text, &field));
  cred.issuer = std::string(field);
  if (cred.issuer.empty()) {
    return util::ParseError("credential: empty issuer");
  }
  LB_RETURN_IF_ERROR(ReadField(&text, &field));
  cred.key_fingerprint = std::string(field);
  LB_RETURN_IF_ERROR(ReadInt64Field(&text, &cred.not_before));
  LB_RETURN_IF_ERROR(ReadInt64Field(&text, &cred.not_after));
  LB_RETURN_IF_ERROR(ReadField(&text, &field));
  if (!field.empty()) {
    for (const std::string& link : util::Split(field, ',')) {
      if (!IsHexHash(link)) {
        return util::ParseError("credential: malformed link hash");
      }
      cred.links.push_back(link);
    }
  }
  LB_RETURN_IF_ERROR(ReadField(&text, &field));
  cred.payload = std::string(field);
  LB_RETURN_IF_ERROR(ReadField(&text, &field));
  if (!util::HexDecode(field, &cred.signature)) {
    return util::ParseError("credential: signature is not hex");
  }
  if (!text.empty()) {
    return util::ParseError("credential: trailing bytes");
  }
  return cred;
}

std::string CredentialHash(const Credential& cred) {
  return util::HexEncode(crypto::Sha256::Digest(SerializeCredential(cred)));
}

Status SignCredential(Credential* cred, const crypto::RsaPrivateKey& key) {
  std::string digest = crypto::Sha256::Digest(CanonicalBytes(*cred));
  LB_ASSIGN_OR_RETURN(cred->signature, crypto::RsaSign(key, digest));
  return util::OkStatus();
}

bool VerifyCredentialSignature(const Credential& cred,
                               const crypto::RsaPublicKey& key) {
  std::string digest = crypto::Sha256::Digest(CanonicalBytes(cred));
  return crypto::RsaVerify(key, digest, cred.signature);
}

namespace {

/// Reads a "<decimal>:" count (9-digit cap — bundles never need more;
/// shared framing via util::ReadDecimalCount).
Status ReadBundleCount(std::string_view* text, size_t* out,
                       const char* what) {
  if (!util::ReadDecimalCount(text, out, 9)) {
    return util::ParseError(util::StrCat("bundle: bad ", what));
  }
  return util::OkStatus();
}

Result<std::vector<Credential>> ParseBundleRecords(std::string_view text) {
  // Records copy dictionary strings, so a few record bytes can reference a
  // large dictionary entry many times; cap the total materialized bytes so
  // a hostile bundle cannot amplify a small input into gigabytes of copies
  // before any signature is checked. Generous for legitimate linked sets
  // (a 64 MiB expansion is far beyond any real closure).
  constexpr size_t kMaxMaterializedBytes = size_t{64} << 20;
  size_t materialized = 0;
  auto charge = [&materialized](size_t bytes) {
    materialized += bytes;
    return materialized <= kMaxMaterializedBytes;
  };
  size_t dict_count = 0;
  LB_RETURN_IF_ERROR(ReadBundleCount(&text, &dict_count, "dictionary count"));
  // Each dictionary entry is a length-prefixed field, at least "0:".
  if (dict_count > text.size()) {
    return util::ParseError("bundle: dictionary count exceeds input size");
  }
  std::vector<std::string> dict;
  dict.reserve(dict_count);
  for (size_t i = 0; i < dict_count; ++i) {
    std::string_view field;
    LB_RETURN_IF_ERROR(ReadField(&text, &field));
    dict.emplace_back(field);
  }
  auto dict_at = [&](size_t idx) -> const std::string* {
    return idx < dict.size() ? &dict[idx] : nullptr;
  };
  size_t count = 0;
  LB_RETURN_IF_ERROR(ReadBundleCount(&text, &count, "count"));
  if (count > text.size()) {
    return util::ParseError("bundle: count exceeds input size");
  }
  std::vector<Credential> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    Credential cred;
    size_t idx = 0;
    LB_RETURN_IF_ERROR(ReadBundleCount(&text, &idx, "issuer index"));
    const std::string* issuer = dict_at(idx);
    if (issuer == nullptr || issuer->empty()) {
      return util::ParseError("bundle: bad issuer reference");
    }
    if (!charge(issuer->size())) {
      return util::ParseError("bundle: materialized size cap exceeded");
    }
    cred.issuer = *issuer;
    LB_RETURN_IF_ERROR(ReadBundleCount(&text, &idx, "key index"));
    const std::string* key = dict_at(idx);
    if (key == nullptr) return util::ParseError("bundle: bad key reference");
    if (!charge(key->size())) {
      return util::ParseError("bundle: materialized size cap exceeded");
    }
    cred.key_fingerprint = *key;
    LB_RETURN_IF_ERROR(ReadInt64Field(&text, &cred.not_before));
    LB_RETURN_IF_ERROR(ReadInt64Field(&text, &cred.not_after));
    size_t link_count = 0;
    LB_RETURN_IF_ERROR(ReadBundleCount(&text, &link_count, "link count"));
    if (link_count > text.size()) {
      return util::ParseError("bundle: link count exceeds input size");
    }
    for (size_t l = 0; l < link_count; ++l) {
      LB_RETURN_IF_ERROR(ReadBundleCount(&text, &idx, "link index"));
      const std::string* link = dict_at(idx);
      if (link == nullptr || !IsHexHash(*link)) {
        return util::ParseError("bundle: malformed link hash");
      }
      if (!charge(link->size())) {
        return util::ParseError("bundle: materialized size cap exceeded");
      }
      cred.links.push_back(*link);
    }
    LB_RETURN_IF_ERROR(ReadBundleCount(&text, &idx, "payload index"));
    const std::string* payload = dict_at(idx);
    if (payload == nullptr) {
      return util::ParseError("bundle: bad payload reference");
    }
    if (!charge(payload->size())) {
      return util::ParseError("bundle: materialized size cap exceeded");
    }
    cred.payload = *payload;
    std::string_view sig;
    LB_RETURN_IF_ERROR(ReadField(&text, &sig));
    if (!util::HexDecode(sig, &cred.signature)) {
      return util::ParseError("bundle: signature is not hex");
    }
    out.push_back(std::move(cred));
  }
  if (!text.empty()) {
    return util::ParseError("bundle: trailing bytes");
  }
  return out;
}

}  // namespace

std::string SerializeBundle(const std::vector<Credential>& credentials) {
  // A bundle-level string dictionary. Issuers, key fingerprints, link
  // hashes and payloads repeat heavily across a linked credential set (a
  // link IS another member's 64-hex hash), so each distinct string ships
  // once; records then reference dictionary indices. Signatures are unique
  // per credential and stay inline. The per-credential canonical form
  // (CanonicalBytes/SerializeCredential) is unchanged — receivers rebuild
  // it locally, so hashes and signatures are unaffected by the container.
  std::vector<std::string> dict;
  std::unordered_map<std::string, size_t> index;
  auto intern = [&](const std::string& s) -> size_t {
    auto [it, fresh] = index.try_emplace(s, dict.size());
    if (fresh) dict.push_back(s);
    return it->second;
  };
  std::string records;
  auto append_count = [](std::string* out, size_t n) {
    out->append(std::to_string(n));
    out->push_back(':');
  };
  for (const Credential& cred : credentials) {
    append_count(&records, intern(cred.issuer));
    append_count(&records, intern(cred.key_fingerprint));
    AppendField(&records, std::to_string(cred.not_before));
    AppendField(&records, std::to_string(cred.not_after));
    append_count(&records, cred.links.size());
    for (const std::string& link : cred.links) {
      append_count(&records, intern(link));
    }
    append_count(&records, intern(cred.payload));
    AppendField(&records, util::HexEncode(cred.signature));
  }
  std::string out(kBundleMagic);
  out.append(std::to_string(dict.size()));
  out.push_back(':');
  for (const std::string& entry : dict) AppendField(&out, entry);
  out.append(std::to_string(credentials.size()));
  out.push_back(':');
  out += records;
  return out;
}

Result<std::vector<Credential>> ParseBundle(std::string_view text) {
  if (!util::StartsWith(text, kBundleMagic)) {
    return util::ParseError("not a credential bundle (missing LBCB2 magic)");
  }
  return ParseBundleRecords(text.substr(kBundleMagic.size()));
}

}  // namespace lbtrust::cred
