#include "trust/trust_builtins.h"

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "crypto/crc32.h"
#include "crypto/hmac.h"
#include "crypto/rsa.h"
#include "crypto/sha1.h"
#include "crypto/sha256.h"
#include "crypto/stream_cipher.h"
#include "util/strings.h"

namespace lbtrust::trust {

using datalog::Tuple;
using datalog::Value;
using datalog::ValueKind;
using util::Status;

namespace {

// Bytes a value contributes to signatures/MACs: canonical code form for
// rules, raw text for strings/symbols, printed form otherwise.
std::string MessageBytes(const Value& v) {
  switch (v.kind()) {
    case ValueKind::kCode:
      return v.AsCode().canon;
    case ValueKind::kString:
    case ValueKind::kSymbol:
      return v.AsText();
    default:
      return v.ToString();
  }
}

struct Caches {
  std::map<std::pair<std::string, std::string>, std::string> rsa_sign;
  std::map<std::tuple<std::string, std::string, std::string>, bool>
      rsa_verify;  // key: (msg, sig, handle)
  std::map<std::pair<std::string, std::string>, std::string> hmac_sign;
};

}  // namespace

CryptoCounters::CryptoCounters(obs::MetricsRegistry* metrics) {
  const char* name = "lbtrust_crypto_ops_total";
  rsa_signs = metrics->GetCounter(name, "op=\"rsa_sign\"");
  rsa_verifies = metrics->GetCounter(name, "op=\"rsa_verify\"");
  hmac_signs = metrics->GetCounter(name, "op=\"hmac_sign\"");
  hmac_verifies = metrics->GetCounter(name, "op=\"hmac_verify\"");
  cache_hits = metrics->GetCounter("lbtrust_crypto_cache_hits_total");
}

CryptoStats CryptoCounters::Read() const {
  CryptoStats s;
  s.rsa_signs = rsa_signs->value();
  s.rsa_verifies = rsa_verifies->value();
  s.hmac_signs = hmac_signs->value();
  s.hmac_verifies = hmac_verifies->value();
  s.cache_hits = cache_hits->value();
  return s;
}

CryptoCounters RegisterCryptoBuiltins(datalog::Workspace* ws,
                                      const KeyStore* keystore) {
  auto caches = std::make_shared<Caches>();
  const CryptoCounters counts(ws->metrics());

  ws->RegisterBuiltin(
      "rsasign", 3, {"bfb", "bbb"},
      [keystore, caches, counts](const std::vector<std::optional<Value>>& args,
                                 const datalog::EmitFn& emit) -> Status {
        std::string msg = MessageBytes(*args[0]);
        std::string handle = MessageBytes(*args[2]);
        auto key = std::make_pair(msg, handle);
        auto it = caches->rsa_sign.find(key);
        std::string sig_hex;
        if (it != caches->rsa_sign.end()) {
          counts.cache_hits->Add();
          sig_hex = it->second;
        } else {
          const crypto::RsaPrivateKey* priv = keystore->FindPrivate(handle);
          if (priv == nullptr) {
            return util::CryptoError(
                util::StrCat("unknown private key handle '", handle, "'"));
          }
          LB_ASSIGN_OR_RETURN(std::string sig, crypto::RsaSign(*priv, msg));
          counts.rsa_signs->Add();
          sig_hex = util::HexEncode(sig);
          caches->rsa_sign.emplace(key, sig_hex);
        }
        emit({*args[0], Value::Str(sig_hex), *args[2]});
        return util::OkStatus();
      });

  ws->RegisterBuiltin(
      "rsaverify", 3, {"bbb"},
      [keystore, caches, counts](const std::vector<std::optional<Value>>& args,
                                 const datalog::EmitFn& emit) -> Status {
        std::string msg = MessageBytes(*args[0]);
        std::string sig_hex = MessageBytes(*args[1]);
        std::string handle = MessageBytes(*args[2]);
        auto key = std::make_tuple(msg, sig_hex, handle);
        bool ok;
        auto it = caches->rsa_verify.find(key);
        if (it != caches->rsa_verify.end()) {
          counts.cache_hits->Add();
          ok = it->second;
        } else {
          const crypto::RsaPublicKey* pub = keystore->FindPublic(handle);
          if (pub == nullptr) return util::OkStatus();  // no key: no match
          std::string sig;
          if (!util::HexDecode(sig_hex, &sig)) return util::OkStatus();
          ok = crypto::RsaVerify(*pub, msg, sig);
          counts.rsa_verifies->Add();
          caches->rsa_verify.emplace(key, ok);
        }
        if (ok) emit({*args[0], *args[1], *args[2]});
        return util::OkStatus();
      });

  ws->RegisterBuiltin(
      "hmacsign", 3, {"bbf", "bbb"},
      [keystore, caches, counts](const std::vector<std::optional<Value>>& args,
                                 const datalog::EmitFn& emit) -> Status {
        std::string msg = MessageBytes(*args[0]);
        std::string handle = MessageBytes(*args[1]);
        auto key = std::make_pair(msg, handle);
        auto it = caches->hmac_sign.find(key);
        std::string tag_hex;
        if (it != caches->hmac_sign.end()) {
          counts.cache_hits->Add();
          tag_hex = it->second;
        } else {
          const std::string* secret = keystore->FindSecret(handle);
          if (secret == nullptr) {
            return util::CryptoError(
                util::StrCat("unknown shared secret handle '", handle, "'"));
          }
          counts.hmac_signs->Add();
          tag_hex = util::HexEncode(crypto::HmacSha1(*secret, msg));
          caches->hmac_sign.emplace(key, tag_hex);
        }
        emit({*args[0], *args[1], Value::Str(tag_hex)});
        return util::OkStatus();
      });

  ws->RegisterBuiltin(
      "hmacverify", 3, {"bbb"},
      [keystore, counts](const std::vector<std::optional<Value>>& args,
                         const datalog::EmitFn& emit) -> Status {
        std::string msg = MessageBytes(*args[0]);
        std::string tag_hex = MessageBytes(*args[1]);
        std::string handle = MessageBytes(*args[2]);
        const std::string* secret = keystore->FindSecret(handle);
        if (secret == nullptr) return util::OkStatus();
        counts.hmac_verifies->Add();
        std::string expected =
            util::HexEncode(crypto::HmacSha1(*secret, msg));
        if (crypto::ConstantTimeEquals(expected, tag_hex)) {
          emit({*args[0], *args[1], *args[2]});
        }
        return util::OkStatus();
      });

  ws->RegisterBuiltin(
      "sha1hash", 2, {"bf", "bb"},
      [](const std::vector<std::optional<Value>>& args,
         const datalog::EmitFn& emit) -> Status {
        std::string digest = crypto::Sha1::HexDigest(MessageBytes(*args[0]));
        emit({*args[0], Value::Str(digest)});
        return util::OkStatus();
      });

  ws->RegisterBuiltin(
      "checksum", 2, {"bf", "bb"},
      [](const std::vector<std::optional<Value>>& args,
         const datalog::EmitFn& emit) -> Status {
        uint32_t crc = crypto::Crc32(MessageBytes(*args[0]));
        emit({*args[0], Value::Int(static_cast<int64_t>(crc))});
        return util::OkStatus();
      });

  ws->RegisterBuiltin(
      "encrypt", 3, {"bbf", "bbb"},
      [keystore](const std::vector<std::optional<Value>>& args,
                 const datalog::EmitFn& emit) -> Status {
        std::string msg = MessageBytes(*args[0]);
        std::string handle = MessageBytes(*args[1]);
        const std::string* secret = keystore->FindSecret(handle);
        if (secret == nullptr) {
          return util::CryptoError(
              util::StrCat("unknown shared secret handle '", handle, "'"));
        }
        // Deterministic nonce (hash of key and message) keeps bottom-up
        // recomputation stable: re-deriving the same fact re-produces the
        // same ciphertext.
        std::string nonce =
            crypto::Sha256::Digest(util::StrCat(*secret, "|", msg))
                .substr(0, 16);
        std::string sealed = crypto::SealedBox(*secret, nonce, msg);
        emit({*args[0], *args[1], Value::Str(util::HexEncode(sealed))});
        return util::OkStatus();
      });

  ws->RegisterBuiltin(
      "decrypt", 3, {"bbf", "bbb"},
      [keystore](const std::vector<std::optional<Value>>& args,
                 const datalog::EmitFn& emit) -> Status {
        std::string sealed_hex = MessageBytes(*args[0]);
        std::string handle = MessageBytes(*args[1]);
        const std::string* secret = keystore->FindSecret(handle);
        if (secret == nullptr) return util::OkStatus();
        std::string sealed;
        if (!util::HexDecode(sealed_hex, &sealed)) return util::OkStatus();
        std::string plaintext;
        if (crypto::SealedOpen(*secret, sealed, &plaintext)) {
          emit({*args[0], *args[1], Value::Str(plaintext)});
        }
        return util::OkStatus();
      });
  return counts;
}

}  // namespace lbtrust::trust
