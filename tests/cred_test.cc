#include "cred/credential.h"

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cred/importer.h"
#include "cred/store.h"
#include "datalog/pretty.h"
#include "net/cluster.h"
#include "sendlog/sendlog.h"
#include "trust/trust_runtime.h"
#include "util/strings.h"

namespace lbtrust::cred {
namespace {

using datalog::Tuple;
using trust::TrustRuntime;

std::unique_ptr<TrustRuntime> MakeRuntime(const std::string& name) {
  TrustRuntime::Options opts;
  opts.principal = name;
  opts.rsa_bits = 512;
  auto rt = TrustRuntime::Create(opts);
  EXPECT_TRUE(rt.ok()) << rt.status().ToString();
  return std::move(*rt);
}

// Canonical dump of every non-builtin relation, for byte-identical
// comparison of workspace states (mirrors the workspace differential
// tests).
std::string Snapshot(const datalog::Workspace& ws) {
  std::string out;
  for (const auto& [name, info] : ws.catalog().predicates()) {
    if (info.builtin) continue;
    const datalog::Relation* rel = ws.GetRelation(name);
    if (rel == nullptr) continue;
    std::vector<std::string> rows;
    rows.reserve(rel->size());
    for (uint32_t i : rel->Rows()) {
      rows.push_back(datalog::TupleToString(rel->RowTuple(i)));
    }
    std::sort(rows.begin(), rows.end());
    out += name + ":\n";
    for (const std::string& r : rows) out += "  " + r + "\n";
  }
  return out;
}

// --- Record layer ---------------------------------------------------------

TEST(CredentialTest, SerializeParseRoundTrip) {
  Credential cred;
  cred.issuer = "alice";
  cred.key_fingerprint = "0123456789abcdef";
  cred.not_before = 100;
  cred.not_after = 900;
  cred.links.push_back(std::string(64, 'a'));
  cred.links.push_back(std::string(64, 'b'));
  cred.payload = "grant(bob,file1,read). canread(P,F) <- grant(P,F,read).";
  cred.signature = "\x01\x02\xff";

  auto back = ParseCredential(SerializeCredential(cred));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->issuer, cred.issuer);
  EXPECT_EQ(back->key_fingerprint, cred.key_fingerprint);
  EXPECT_EQ(back->not_before, cred.not_before);
  EXPECT_EQ(back->not_after, cred.not_after);
  EXPECT_EQ(back->links, cred.links);
  EXPECT_EQ(back->payload, cred.payload);
  EXPECT_EQ(back->signature, cred.signature);
  EXPECT_EQ(CredentialHash(*back), CredentialHash(cred));
}

TEST(CredentialTest, HashCoversEveryField) {
  Credential base;
  base.issuer = "alice";
  base.key_fingerprint = "0123456789abcdef";
  base.payload = "p(1).";
  std::string h0 = CredentialHash(base);
  Credential changed = base;
  changed.payload = "p(2).";
  EXPECT_NE(CredentialHash(changed), h0);
  changed = base;
  changed.not_after = 7;
  EXPECT_NE(CredentialHash(changed), h0);
  changed = base;
  changed.links.push_back(std::string(64, 'c'));
  EXPECT_NE(CredentialHash(changed), h0);
  EXPECT_EQ(CredentialHash(base), h0);  // deterministic
}

TEST(CredentialTest, SignAndVerify) {
  auto alice = MakeRuntime("alice");
  Credential cred;
  cred.issuer = "alice";
  cred.key_fingerprint = crypto::KeyFingerprint(alice->keypair().public_key);
  cred.payload = "grant(bob,file1,read).";
  ASSERT_TRUE(SignCredential(&cred, alice->keypair().private_key).ok());
  EXPECT_TRUE(VerifyCredentialSignature(cred, alice->keypair().public_key));
  // Any payload bit-flip invalidates the signature.
  Credential tampered = cred;
  tampered.payload = "grant(eve,file1,read).";
  EXPECT_FALSE(
      VerifyCredentialSignature(tampered, alice->keypair().public_key));
  // The wrong public key rejects.
  auto bob = MakeRuntime("bob");
  EXPECT_FALSE(VerifyCredentialSignature(cred, bob->keypair().public_key));
}

TEST(CredentialTest, MalformedInputsReturnStatus) {
  const char* kCases[] = {
      "",
      "XXXX",
      "LBC1",                       // no fields
      "LBC15:alice",                // truncated after issuer
      "LBC199999999999999999999:x", // length overflow
      "LBC15:alice3:abc",           // short fingerprint field then garbage
  };
  for (const char* input : kCases) {
    EXPECT_FALSE(ParseCredential(input).ok()) << input;
  }
  EXPECT_FALSE(ParseBundle("").ok());
  EXPECT_FALSE(ParseBundle("LBCB1").ok());
  EXPECT_FALSE(ParseBundle("LBCB19999999999:").ok());
  EXPECT_FALSE(ParseBundle("LBCB2").ok());
  EXPECT_FALSE(ParseBundle("LBCB29999999999:").ok());
  EXPECT_FALSE(ParseBundle("LBCB20:1:0:").ok());  // index into empty dict

  // A well-formed bundle in the retired LBCB1 container is not a bundle.
  Credential cred;
  cred.issuer = "alice";
  cred.key_fingerprint = "0123456789abcdef";
  cred.payload = "grant(bob,file1,read).";
  const std::string member = SerializeCredential(cred);
  ASSERT_TRUE(ParseCredential(member).ok());
  auto v1 = ParseBundle(util::StrCat("LBCB11:", member.size(), ":", member));
  ASSERT_FALSE(v1.ok());
  EXPECT_NE(v1.status().message().find("not a credential bundle"),
            std::string::npos)
      << v1.status().ToString();
}

TEST(CredentialTest, BundleV2RoundTripSharesDictionary) {
  auto alice = MakeRuntime("alice");
  Credential base;
  base.issuer = "alice";
  base.key_fingerprint = crypto::KeyFingerprint(alice->keypair().public_key);
  base.payload = "grant(bob,file1,read).";
  ASSERT_TRUE(SignCredential(&base, alice->keypair().private_key).ok());
  Credential linked;
  linked.issuer = "alice";
  linked.key_fingerprint = base.key_fingerprint;
  linked.payload = "grant(carol,file2,read).";
  linked.links.push_back(CredentialHash(base));
  ASSERT_TRUE(SignCredential(&linked, alice->keypair().private_key).ok());

  std::string bundle = SerializeBundle({linked, base});
  auto back = ParseBundle(bundle);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->size(), 2u);
  // Hashes recompute identically: the v2 container does not perturb the
  // per-credential canonical form.
  EXPECT_EQ(CredentialHash((*back)[0]), CredentialHash(linked));
  EXPECT_EQ(CredentialHash((*back)[1]), CredentialHash(base));
  // The shared issuer and key fingerprint are serialized exactly once.
  size_t first = bundle.find("alice");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(bundle.find("alice", first + 1), std::string::npos);
  size_t fp = bundle.find(base.key_fingerprint);
  ASSERT_NE(fp, std::string::npos);
  EXPECT_EQ(bundle.find(base.key_fingerprint, fp + 1), std::string::npos);
}

// --- Store layer ----------------------------------------------------------

TEST(CredentialStoreTest, PutDeduplicatesByContent) {
  auto alice = MakeRuntime("alice");
  obs::MetricsRegistry metrics;
  CredentialStore store(&metrics);
  Credential cred;
  cred.issuer = "alice";
  cred.key_fingerprint = crypto::KeyFingerprint(alice->keypair().public_key);
  cred.payload = "p(1).";
  ASSERT_TRUE(SignCredential(&cred, alice->keypair().private_key).ok());
  std::string h1 = store.Put(cred);
  std::string h2 = store.Put(cred);
  EXPECT_EQ(h1, h2);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.stats().dedup_hits, 1u);
  ASSERT_NE(store.Get(h1), nullptr);
  EXPECT_EQ(store.Get(h1)->payload, "p(1).");
}

TEST(CredentialStoreTest, VerificationIsMemoizedPerHash) {
  auto alice = MakeRuntime("alice");
  obs::MetricsRegistry metrics;
  CredentialStore store(&metrics);
  Credential cred;
  cred.issuer = "alice";
  cred.key_fingerprint = crypto::KeyFingerprint(alice->keypair().public_key);
  cred.payload = "p(1).";
  ASSERT_TRUE(SignCredential(&cred, alice->keypair().private_key).ok());
  std::string hash = store.Put(cred);

  for (int i = 0; i < 5; ++i) {
    auto ok = store.VerifySignature(hash, alice->keypair().public_key);
    ASSERT_TRUE(ok.ok());
    EXPECT_TRUE(*ok);
  }
  EXPECT_EQ(store.stats().rsa_verifies, 1u);       // RSA ran exactly once
  EXPECT_EQ(store.stats().verify_cache_hits, 4u);  // the rest were hits

  // A different key re-verifies (the cache is per key fingerprint).
  auto bob = MakeRuntime("bob");
  auto wrong = store.VerifySignature(hash, bob->keypair().public_key);
  ASSERT_TRUE(wrong.ok());
  EXPECT_FALSE(*wrong);
  EXPECT_EQ(store.stats().rsa_verifies, 2u);

  EXPECT_EQ(store.VerifySignature("no-such-hash",
                                  alice->keypair().public_key)
                .status()
                .code(),
            util::StatusCode::kNotFound);
}

TEST(CredentialStoreTest, ResolveClosureOrdersRootFirst) {
  auto alice = MakeRuntime("alice");
  ASSERT_TRUE(alice->Fixpoint().ok());
  auto leaf = alice->Issue("l(1).");
  ASSERT_TRUE(leaf.ok());
  auto mid = alice->Issue("m(1).", {*leaf});
  ASSERT_TRUE(mid.ok());
  auto root = alice->Issue("r(1).", {*mid, *leaf});
  ASSERT_TRUE(root.ok());
  auto closure = alice->credentials()->ResolveClosure(*root);
  ASSERT_TRUE(closure.ok()) << closure.status().ToString();
  ASSERT_EQ(closure->size(), 3u);
  EXPECT_EQ((*closure)[0], *root);
  // Each hash appears exactly once despite the diamond.
  std::vector<std::string> sorted = *closure;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::unique(sorted.begin(), sorted.end()), sorted.end());
}

TEST(CredentialStoreTest, SweepExpiredRemovesAndForgets) {
  auto alice = MakeRuntime("alice");
  auto eternal = alice->Issue("e(1).");
  ASSERT_TRUE(eternal.ok());
  auto shortlived = alice->Issue("s(1).", {}, /*not_before=*/0,
                                 /*not_after=*/100);
  ASSERT_TRUE(shortlived.ok());
  CredentialStore* store = alice->credentials();
  ASSERT_TRUE(*store->VerifySignature(*shortlived,
                                      alice->keypair().public_key));
  EXPECT_EQ(store->SweepExpired(50), 0u);   // both still valid
  EXPECT_EQ(store->SweepExpired(200), 1u);  // short-lived one expires
  EXPECT_EQ(store->size(), 1u);
  EXPECT_FALSE(store->Contains(*shortlived));
  EXPECT_TRUE(store->Contains(*eternal));
  EXPECT_EQ(store->stats().swept, 1u);
}

// --- Issue / export / import ----------------------------------------------

TEST(ImportTest, IssueExportImportActivatesAtReceiver) {
  auto alice = MakeRuntime("alice");
  auto bob = MakeRuntime("bob");
  ASSERT_TRUE(bob->AddPeer("alice", alice->keypair().public_key).ok());

  auto hash = alice->Issue(
      "grant(carol,file1,read). canread(P,F) <- grant(P,F,read).");
  ASSERT_TRUE(hash.ok()) << hash.status().ToString();
  auto bundle = alice->ExportCredential(*hash);
  ASSERT_TRUE(bundle.ok());

  auto stats = bob->ImportCredentials(*bundle);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->credentials, 1u);
  EXPECT_EQ(stats->clauses, 2u);
  // says1 (trusting activation) installs alice's statements at bob.
  EXPECT_EQ(*bob->workspace()->Count("grant(carol,file1,read)"), 1u);
  EXPECT_EQ(*bob->workspace()->Count("canread(carol,file1)"), 1u);
  EXPECT_EQ(*bob->workspace()->Count("says(alice,bob,R)"), 2u);
}

TEST(ImportTest, LinkedSetImportsTransitively) {
  auto alice = MakeRuntime("alice");
  auto bob = MakeRuntime("bob");
  ASSERT_TRUE(bob->AddPeer("alice", alice->keypair().public_key).ok());

  auto base = alice->Issue("role(carol,engineer).");
  ASSERT_TRUE(base.ok());
  auto policy = alice->Issue(
      "access(P,lab) <- role(P,engineer).", {*base});
  ASSERT_TRUE(policy.ok());
  auto bundle = alice->ExportCredential(*policy);
  ASSERT_TRUE(bundle.ok());
  auto stats = bob->ImportCredentials(*bundle);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->credentials, 2u);
  EXPECT_EQ(*bob->workspace()->Count("access(carol,lab)"), 1u);
}

TEST(ImportTest, SendlogProgramsShipAsCredentials) {
  // A SeNDlog policy fragment compiles to core clauses and travels as a
  // signed credential like any other evidence.
  auto alice = MakeRuntime("alice");
  auto bob = MakeRuntime("bob");
  ASSERT_TRUE(bob->AddPeer("alice", alice->keypair().public_key).ok());
  auto hash = sendlog::IssueSendlogCredential(
      alice.get(),
      "canread(P,F) :- grant(P,F,read).\n"
      "grant(carol,file1,read).");
  ASSERT_TRUE(hash.ok()) << hash.status().ToString();
  auto bundle = alice->ExportCredential(*hash);
  ASSERT_TRUE(bundle.ok());
  ASSERT_TRUE(bob->ImportCredentials(*bundle).ok());
  EXPECT_EQ(*bob->workspace()->Count("canread(carol,file1)"), 1u);
}

TEST(ImportTest, OutOfClosureBundleMembersArePruned) {
  // A hostile bundle rides one valid credential plus unverified freight
  // outside the root's link closure: the import succeeds, but the freight
  // must not survive in the receiver's store.
  auto alice = MakeRuntime("alice");
  auto bob = MakeRuntime("bob");
  ASSERT_TRUE(bob->AddPeer("alice", alice->keypair().public_key).ok());
  auto hash = alice->Issue("fact(1).");
  ASSERT_TRUE(hash.ok());
  auto bundle = alice->ExportCredential(*hash);
  ASSERT_TRUE(bundle.ok());
  auto parsed = ParseBundle(*bundle);
  ASSERT_TRUE(parsed.ok());
  Credential freight;
  freight.issuer = "nobody";
  freight.key_fingerprint = "ffffffffffffffff";
  freight.payload = "junk(1).";
  freight.signature = "bogus";
  parsed->push_back(freight);
  std::string padded = SerializeBundle(*parsed);

  ASSERT_TRUE(bob->ImportCredentials(padded).ok());
  EXPECT_EQ(*bob->workspace()->Count("fact(1)"), 1u);
  EXPECT_EQ(bob->credentials()->size(), 1u);  // freight pruned
  EXPECT_FALSE(bob->credentials()->Contains(CredentialHash(freight)));
}

TEST(ImportTest, IllFormedPayloadRejectedBeforeAnyMutation) {
  // A hostile (but validly signed) bundle carrying a non-range-restricted
  // program must be rejected by the static analyzer BEFORE anything
  // stages: the diagnostic names the unbound variable, and neither the
  // receiver's workspace nor its credential store changes at all.
  auto alice = MakeRuntime("alice");
  auto bob = MakeRuntime("bob");
  ASSERT_TRUE(bob->AddPeer("alice", alice->keypair().public_key).ok());

  // Head variable F never bound by a positive body literal: the engine
  // could derive infinitely many grants. Issue() only parses, so a
  // compromised issuer can sign this; the importer must still refuse it.
  auto hash = alice->Issue(
      "grant(carol,file1,read).\n"
      "grant(P,F,write) <- grant(P,file1,read).");
  ASSERT_TRUE(hash.ok()) << hash.status().ToString();
  auto bundle = alice->ExportCredential(*hash);
  ASSERT_TRUE(bundle.ok());

  std::string before = Snapshot(*bob->workspace());
  ASSERT_EQ(bob->credentials()->size(), 0u);

  auto stats = bob->ImportCredentials(*bundle);
  ASSERT_FALSE(stats.ok());
  EXPECT_NE(stats.status().message().find("ill-formed program"),
            std::string::npos)
      << stats.status().ToString();
  EXPECT_NE(stats.status().message().find("L001"), std::string::npos)
      << stats.status().ToString();
  EXPECT_NE(stats.status().message().find("'F'"), std::string::npos)
      << stats.status().ToString();

  // Zero mutation: no says-facts, no derived state, no staged credentials.
  EXPECT_EQ(Snapshot(*bob->workspace()), before);
  EXPECT_EQ(*bob->workspace()->Count("says(alice,bob,R)"), 0u);
  EXPECT_EQ(bob->credentials()->size(), 0u);
}

TEST(ImportTest, QuotedPatternRuleImports) {
  // R and F are bound by matching the quoted pattern, so the rule is safe
  // and the importer's lint gate must let it through.
  auto alice = MakeRuntime("alice");
  auto bob = MakeRuntime("bob");
  ASSERT_TRUE(bob->AddPeer("alice", alice->keypair().public_key).ok());
  auto hash = alice->Issue(
      "granted(R,F) <- policy([| permok(R,F). |]), owner(O,F).");
  ASSERT_TRUE(hash.ok()) << hash.status().ToString();
  auto bundle = alice->ExportCredential(*hash);
  ASSERT_TRUE(bundle.ok());
  auto stats = bob->ImportCredentials(*bundle);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();

  // The activated rule is owned by bob, so owner(O,bob) holds.
  ASSERT_TRUE(
      bob->workspace()->AddFactText("policy([| permok(carol,bob). |]).").ok());
  ASSERT_TRUE(bob->workspace()->Fixpoint().ok());
  EXPECT_EQ(*bob->workspace()->Count("granted(carol,bob)"), 1u);
}

TEST(ImportTest, RuleMentioningMeFinishesActivating) {
  // The Binder import pattern: the activated rule is installed under its
  // me-resolved form, and codegen must still reach quiescence.
  auto alice = MakeRuntime("alice");
  auto bob = MakeRuntime("bob");
  ASSERT_TRUE(bob->AddPeer("alice", alice->keypair().public_key).ok());
  auto hash = alice->Issue("heard(U,R) <- says(U,me,R).");
  ASSERT_TRUE(hash.ok()) << hash.status().ToString();
  auto bundle = alice->ExportCredential(*hash);
  ASSERT_TRUE(bundle.ok());
  auto stats = bob->ImportCredentials(*bundle);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(*bob->workspace()->Count("heard(alice,R)"), 1u);
}

TEST(ImportTest, ReimportIsIdempotentAndSkipsRsa) {
  auto alice = MakeRuntime("alice");
  auto bob = MakeRuntime("bob");
  ASSERT_TRUE(bob->AddPeer("alice", alice->keypair().public_key).ok());
  auto hash = alice->Issue("fact(1).");
  ASSERT_TRUE(hash.ok());
  auto bundle = alice->ExportCredential(*hash);
  ASSERT_TRUE(bundle.ok());

  ASSERT_TRUE(bob->ImportCredentials(*bundle).ok());
  size_t rsa_after_first = bob->credentials()->stats().rsa_verifies;
  EXPECT_EQ(rsa_after_first, 1u);
  std::string snapshot = Snapshot(*bob->workspace());

  // Re-import: content-addressed dedup + memoized verification = no new
  // RSA work, no state change.
  ASSERT_TRUE(bob->ImportCredentials(*bundle).ok());
  EXPECT_EQ(bob->credentials()->stats().rsa_verifies, rsa_after_first);
  EXPECT_GE(bob->credentials()->stats().verify_cache_hits, 1u);
  EXPECT_EQ(bob->credentials()->size(), 1u);  // content-dedup, no new entry
  EXPECT_EQ(Snapshot(*bob->workspace()), snapshot);
}

// The acceptance differential: shipping evidence as a credential must be
// observationally identical to the issuer saying the same things locally.
TEST(ImportTest, DifferentialAgainstLocalSay) {
  const char* kClauses[] = {
      "grant(carol,file1,read).",
      "grant(dave,file2,write).",
      "canread(P,F) <- grant(P,F,read).",
  };

  // Path A: bob imports a credential from alice.
  auto alice = MakeRuntime("alice");
  auto bob_import = MakeRuntime("bob");
  ASSERT_TRUE(
      bob_import->AddPeer("alice", alice->keypair().public_key).ok());
  auto hash = alice->Issue(util::Join(
      std::vector<std::string>(std::begin(kClauses), std::end(kClauses)),
      " "));
  ASSERT_TRUE(hash.ok());
  auto bundle = alice->ExportCredential(*hash);
  ASSERT_TRUE(bundle.ok());
  ASSERT_TRUE(bob_import->ImportCredentials(*bundle).ok());

  // Path B: an identical bob applies the same statements as local
  // says-facts (what a Say() by alice inside bob's workspace stages).
  auto alice2 = MakeRuntime("alice");
  auto bob_local = MakeRuntime("bob");
  ASSERT_TRUE(
      bob_local->AddPeer("alice", alice2->keypair().public_key).ok());
  datalog::Transaction txn = bob_local->Begin();
  for (const char* clause : kClauses) {
    txn.AddFactTextAs("alice",
                      util::StrCat("says(alice,bob,[| ", clause, " |])."));
  }
  ASSERT_TRUE(txn.Commit().ok());

  EXPECT_EQ(Snapshot(*bob_import->workspace()),
            Snapshot(*bob_local->workspace()));
  EXPECT_NE(Snapshot(*bob_import->workspace()).find("canread"),
            std::string::npos);
}

// --- Failure paths: every rejection leaves the workspace untouched --------

class RejectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    alice_ = MakeRuntime("alice");
    bob_ = MakeRuntime("bob");
    ASSERT_TRUE(bob_->AddPeer("alice", alice_->keypair().public_key).ok());
    ASSERT_TRUE(bob_->Fixpoint().ok());
    before_ = Snapshot(*bob_->workspace());
  }

  void ExpectUnchanged() {
    EXPECT_EQ(Snapshot(*bob_->workspace()), before_);
  }

  std::unique_ptr<TrustRuntime> alice_;
  std::unique_ptr<TrustRuntime> bob_;
  std::string before_;
};

TEST_F(RejectionTest, TamperedPayloadRejected) {
  auto hash = alice_->Issue("balance(100).");
  ASSERT_TRUE(hash.ok());
  auto bundle = alice_->ExportCredential(*hash);
  ASSERT_TRUE(bundle.ok());
  std::string tampered = *bundle;
  size_t pos = tampered.find("balance(100)");
  ASSERT_NE(pos, std::string::npos);
  tampered[pos + 8] = '9';  // 100 -> 900, signature left alone

  auto st = bob_->ImportCredentials(tampered);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.status().code(), util::StatusCode::kCryptoError);
  ExpectUnchanged();
  // The rejected member must not linger in the store either (it would be
  // unexpirable and ExportCredential could re-ship it unverified).
  EXPECT_EQ(bob_->credentials()->size(), 0u);
}

TEST_F(RejectionTest, WrongSignerRejected) {
  // eve signs a credential claiming to be from alice: the fingerprint she
  // must embed is her own (the signature would not verify under alice's
  // key), and bob has no binding alice -> eve's key.
  auto eve = MakeRuntime("eve");
  Credential forged;
  forged.issuer = "alice";
  forged.key_fingerprint = crypto::KeyFingerprint(eve->keypair().public_key);
  forged.payload = "grant(eve,vault,write).";
  ASSERT_TRUE(SignCredential(&forged, eve->keypair().private_key).ok());
  std::string bundle = SerializeBundle({forged});

  auto st = bob_->ImportCredentials(bundle);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.status().code(), util::StatusCode::kCryptoError);
  ExpectUnchanged();

  // Variant: eve embeds alice's fingerprint instead — key binding matches,
  // so rejection must come from the RSA check itself.
  Credential forged2;
  forged2.issuer = "alice";
  forged2.key_fingerprint =
      crypto::KeyFingerprint(alice_->keypair().public_key);
  forged2.payload = "grant(eve,vault,write).";
  ASSERT_TRUE(SignCredential(&forged2, eve->keypair().private_key).ok());
  auto st2 = bob_->ImportCredentials(SerializeBundle({forged2}));
  ASSERT_FALSE(st2.ok());
  EXPECT_EQ(st2.status().code(), util::StatusCode::kCryptoError);
  ExpectUnchanged();
}

TEST_F(RejectionTest, ExpiredCredentialRejected) {
  auto hash = alice_->Issue("grant(carol,file1,read).", {},
                            /*not_before=*/100, /*not_after=*/200);
  ASSERT_TRUE(hash.ok());
  auto bundle = alice_->ExportCredential(*hash);
  ASSERT_TRUE(bundle.ok());
  auto expired = bob_->ImportCredentials(*bundle, /*now=*/300);
  ASSERT_FALSE(expired.ok());
  EXPECT_EQ(expired.status().code(), util::StatusCode::kFailedPrecondition);
  ExpectUnchanged();
  EXPECT_EQ(bob_->credentials()->size(), 0u);  // rolled back out
  auto premature = bob_->ImportCredentials(*bundle, /*now=*/50);
  ASSERT_FALSE(premature.ok());
  ExpectUnchanged();
  // Inside the window it imports fine.
  EXPECT_TRUE(bob_->ImportCredentials(*bundle, /*now=*/150).ok());
  EXPECT_EQ(bob_->credentials()->size(), 1u);
}

TEST_F(RejectionTest, MissingLinkRejected) {
  auto base = alice_->Issue("role(carol,engineer).");
  ASSERT_TRUE(base.ok());
  auto root = alice_->Issue("access(P,lab) <- role(P,engineer).", {*base});
  ASSERT_TRUE(root.ok());
  auto bundle = alice_->ExportCredential(*root);
  ASSERT_TRUE(bundle.ok());
  // Strip the linked credential out of the bundle, keeping only the root.
  auto parsed = ParseBundle(*bundle);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->size(), 2u);
  std::string partial = SerializeBundle({(*parsed)[0]});

  auto st = bob_->ImportCredentials(partial);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.status().code(), util::StatusCode::kNotFound);
  ExpectUnchanged();
}

TEST_F(RejectionTest, LinkCycleRejected) {
  // An honest store cannot contain a cycle (it would require a SHA-256
  // fixed point), but a corrupt or malicious replica can sync entries
  // whose addresses do not match their content. Build A -> B -> A that
  // way and check both the store guard and the importer's no-mutation
  // guarantee.
  auto make = [&](const std::string& payload,
                  const std::string& link) {
    Credential c;
    c.issuer = "alice";
    c.key_fingerprint =
        crypto::KeyFingerprint(alice_->keypair().public_key);
    c.payload = payload;
    if (!link.empty()) c.links.push_back(link);
    EXPECT_TRUE(SignCredential(&c, alice_->keypair().private_key).ok());
    return c;
  };
  const std::string ha(64, 'a');
  const std::string hb(64, 'b');
  CredentialStore* store = bob_->credentials();
  store->InsertForReplication(ha, make("pa(1).", hb));
  store->InsertForReplication(hb, make("pb(1).", ha));

  auto closure = store->ResolveClosure(ha);
  ASSERT_FALSE(closure.ok());
  EXPECT_EQ(closure.status().code(),
            util::StatusCode::kFailedPrecondition);

  KeyResolver resolver = [this](const std::string& issuer,
                                const std::string& fingerprint)
      -> const crypto::RsaPublicKey* {
    (void)issuer;
    (void)fingerprint;
    return &alice_->keypair().public_key;
  };
  auto st = ImportCredentialSet(ha, store, bob_->workspace(), resolver,
                                /*now=*/0);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.status().code(), util::StatusCode::kFailedPrecondition);
  ExpectUnchanged();

  // Self-link variant.
  const std::string hs(64, 'c');
  store->InsertForReplication(hs, make("ps(1).", hs));
  EXPECT_FALSE(store->ResolveClosure(hs).ok());
  ExpectUnchanged();
}

// --- End-to-end through the cluster ---------------------------------------

/// An in-process alice/bob mesh that ships evidence only as credentials
/// (no scheme, no placement), with 512-bit keys.
std::unique_ptr<net::SimCluster> AliceBobMesh() {
  net::DistributedCluster::Options opts;
  opts.nodes = {"alice", "bob"};
  opts.scheme = "";
  opts.default_placement = false;
  opts.runtime.rsa_bits = 512;
  auto cluster = net::SimCluster::Create(std::move(opts));
  EXPECT_TRUE(cluster.ok()) << cluster.status().ToString();
  return cluster.ok() ? std::move(*cluster) : nullptr;
}

TEST(ClusterCredentialTest, ShipThroughClusterMatchesLocalSay) {
  auto cluster = AliceBobMesh();
  ASSERT_NE(cluster, nullptr);

  auto* alice = cluster->node("alice");
  auto* bob = cluster->node("bob");
  auto hash = alice->Issue(
      "grant(carol,file1,read). canread(P,F) <- grant(P,F,read).");
  ASSERT_TRUE(hash.ok()) << hash.status().ToString();
  ASSERT_TRUE(cluster->ShipCredential("alice", "bob", *hash).ok());
  auto stats = cluster->RunToConvergence();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GE(stats->messages, 1u);
  EXPECT_EQ(*bob->workspace()->Count("canread(carol,file1)"), 1u);
  EXPECT_EQ(*bob->workspace()->Count("says(alice,bob,R)"), 2u);

  // Differential: an identical receiver that gets the same statements via
  // local says-facts must end up byte-identical.
  auto reference = AliceBobMesh();
  ASSERT_NE(reference, nullptr);
  auto* bob_ref = reference->node("bob");
  datalog::Transaction txn = bob_ref->Begin();
  txn.AddFactTextAs(
      "alice", "says(alice,bob,[| grant(carol,file1,read). |]).");
  txn.AddFactTextAs(
      "alice", "says(alice,bob,[| canread(P,F) <- grant(P,F,read). |]).");
  ASSERT_TRUE(txn.Commit().ok());
  ASSERT_TRUE(reference->RunToConvergence().ok());
  EXPECT_EQ(Snapshot(*bob->workspace()), Snapshot(*bob_ref->workspace()));
}

TEST(ClusterCredentialTest, FailedDeliveryKeepsLaterBundlesQueued) {
  // Two bundles shipped; the first is tampered in flight and rejected. The
  // second must survive the failed run and import on the next one.
  auto cluster = AliceBobMesh();
  ASSERT_NE(cluster, nullptr);
  auto first = cluster->node("alice")->Issue("first(1).");
  ASSERT_TRUE(first.ok());
  auto second = cluster->node("alice")->Issue("second(2).");
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(cluster->ShipCredential("alice", "bob", *first).ok());
  ASSERT_TRUE(cluster->ShipCredential("alice", "bob", *second).ok());
  cluster->InjectTamper("credential", [](std::string* payload) {
    size_t pos = payload->find("first(1)");
    ASSERT_NE(pos, std::string::npos);
    (*payload)[pos + 6] = '9';
  });
  ASSERT_FALSE(cluster->RunToConvergence().ok());
  EXPECT_EQ(*cluster->node("bob")->workspace()->Count("second(N)"), 0u);
  auto retry = cluster->RunToConvergence();
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_EQ(*cluster->node("bob")->workspace()->Count("second(2)"), 1u);
  EXPECT_EQ(*cluster->node("bob")->workspace()->Count("first(N)"), 0u);
}

TEST(ClusterCredentialTest, TamperedBundleAbortsRun) {
  auto cluster = AliceBobMesh();
  ASSERT_NE(cluster, nullptr);
  auto hash = cluster->node("alice")->Issue("balance(100).");
  ASSERT_TRUE(hash.ok());
  ASSERT_TRUE(cluster->ShipCredential("alice", "bob", *hash).ok());
  cluster->InjectTamper("credential", [](std::string* payload) {
    size_t pos = payload->find("balance(100)");
    ASSERT_NE(pos, std::string::npos);
    (*payload)[pos + 8] = '9';
  });
  auto stats = cluster->RunToConvergence();
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), util::StatusCode::kCryptoError);
  EXPECT_NE(stats.status().message().find("bob"), std::string::npos);
  EXPECT_EQ(*cluster->node("bob")->workspace()->Count("balance(N)"), 0u);
}

}  // namespace
}  // namespace lbtrust::cred
