#include "cred/store.h"

#include <set>

#include "util/strings.h"

namespace lbtrust::cred {

using util::Result;

CredentialStore::CredentialStore(obs::MetricsRegistry* metrics) {
  const char* verify = "lbtrust_credential_verify_total";
  counters_.puts = metrics->GetCounter("lbtrust_credential_store_puts_total");
  counters_.dedup_hits =
      metrics->GetCounter("lbtrust_credential_store_dedup_hits_total");
  counters_.rsa_verifies = metrics->GetCounter(verify, "cache=\"miss\"");
  counters_.verify_cache_hits = metrics->GetCounter(verify, "cache=\"hit\"");
  counters_.swept = metrics->GetCounter("lbtrust_credential_store_swept_total");
}

CredentialStore::Stats CredentialStore::stats() const {
  Stats s;
  s.puts = counters_.puts->value();
  s.dedup_hits = counters_.dedup_hits->value();
  s.rsa_verifies = counters_.rsa_verifies->value();
  s.verify_cache_hits = counters_.verify_cache_hits->value();
  s.swept = counters_.swept->value();
  return s;
}

std::string CredentialStore::Put(Credential cred) {
  std::string hash = CredentialHash(cred);
  InsertForReplication(hash, std::move(cred));
  return hash;
}

void CredentialStore::InsertForReplication(std::string hash,
                                           Credential cred) {
  counters_.puts->Add();
  auto [it, inserted] = by_hash_.emplace(std::move(hash), std::move(cred));
  (void)it;
  if (!inserted) counters_.dedup_hits->Add();
}

const Credential* CredentialStore::Get(const std::string& hash) const {
  auto it = by_hash_.find(hash);
  return it == by_hash_.end() ? nullptr : &it->second;
}

bool CredentialStore::Contains(const std::string& hash) const {
  return by_hash_.count(hash) > 0;
}

Result<bool> CredentialStore::VerifySignature(const std::string& hash,
                                              const crypto::RsaPublicKey& key) {
  auto it = by_hash_.find(hash);
  if (it == by_hash_.end()) {
    return util::NotFound(util::StrCat("no credential ", hash));
  }
  std::string cache_key =
      util::StrCat(hash, "|", crypto::KeyFingerprint(key));
  auto cached = verify_cache_.find(cache_key);
  if (cached != verify_cache_.end()) {
    counters_.verify_cache_hits->Add();
    return cached->second;
  }
  bool ok = VerifyCredentialSignature(it->second, key);
  counters_.rsa_verifies->Add();
  verify_cache_.emplace(std::move(cache_key), ok);
  return ok;
}

Result<std::vector<std::string>> CredentialStore::ResolveClosure(
    const std::string& hash) const {
  std::vector<std::string> out;
  std::set<std::string> done;
  std::set<std::string> on_path;  // DFS stack membership, for cycle checks
  // Explicit stack; a frame re-surfaces after its links to leave `on_path`.
  struct Frame {
    std::string hash;
    bool expanded = false;
  };
  std::vector<Frame> stack{{hash, false}};
  while (!stack.empty()) {
    Frame frame = std::move(stack.back());
    stack.pop_back();
    if (frame.expanded) {
      on_path.erase(frame.hash);
      continue;
    }
    if (done.count(frame.hash) > 0) continue;
    if (on_path.count(frame.hash) > 0) {
      return util::FailedPrecondition(
          util::StrCat("credential link cycle through ", frame.hash));
    }
    const Credential* cred = Get(frame.hash);
    if (cred == nullptr) {
      return util::NotFound(
          util::StrCat("missing linked credential ", frame.hash));
    }
    done.insert(frame.hash);
    out.push_back(frame.hash);
    on_path.insert(frame.hash);
    stack.push_back({frame.hash, true});
    for (const std::string& link : cred->links) {
      if (on_path.count(link) > 0) {
        return util::FailedPrecondition(
            util::StrCat("credential link cycle through ", link));
      }
      if (done.count(link) == 0) stack.push_back({link, false});
    }
  }
  return out;
}

bool CredentialStore::Erase(const std::string& hash) {
  auto it = by_hash_.find(hash);
  if (it == by_hash_.end()) return false;
  DropVerdicts(hash);
  by_hash_.erase(it);
  return true;
}

size_t CredentialStore::SweepExpired(int64_t now) {
  size_t removed = 0;
  for (auto it = by_hash_.begin(); it != by_hash_.end();) {
    if (it->second.ValidAt(now)) {
      ++it;
      continue;
    }
    DropVerdicts(it->first);
    it = by_hash_.erase(it);
    ++removed;
  }
  counters_.swept->Add(removed);
  return removed;
}

void CredentialStore::DropVerdicts(const std::string& hash) {
  // Cached verdicts are keyed "<hash>|<fp>"; '|' + 1 == '}' bounds the
  // half-open key range for this hash.
  auto lo = verify_cache_.lower_bound(hash + "|");
  auto hi = verify_cache_.lower_bound(hash + "}");
  verify_cache_.erase(lo, hi);
}

}  // namespace lbtrust::cred
