#include "trust/trust_runtime.h"

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "meta/codegen.h"
#include "trust/delegation.h"

namespace lbtrust::trust {
namespace {

using datalog::Value;

std::unique_ptr<TrustRuntime> MakeRuntime(const std::string& name,
                                          bool trusting = true) {
  TrustRuntime::Options opts;
  opts.principal = name;
  opts.rsa_bits = 512;  // small keys keep unit tests fast
  opts.trusting_activation = trusting;
  auto rt = TrustRuntime::Create(opts);
  EXPECT_TRUE(rt.ok()) << rt.status().ToString();
  return std::move(*rt);
}

TEST(TrustRuntimeTest, CreatePopulatesIdentity) {
  auto rt = MakeRuntime("alice");
  ASSERT_TRUE(rt->Fixpoint().ok());
  EXPECT_EQ(*rt->workspace()->Count("prin(alice)"), 1u);
  EXPECT_EQ(*rt->workspace()->Count("rsaprivkey(alice,K)"), 1u);
  EXPECT_EQ(*rt->workspace()->Count("rsapubkey(alice,K)"), 1u);
}

TEST(TrustRuntimeTest, SayActivatesAtDestinationMe) {
  // In a single workspace, saying something to myself activates it via
  // says1 (the trusting default).
  auto rt = MakeRuntime("alice");
  ASSERT_TRUE(rt->Say("alice", "flag(up).").ok());
  ASSERT_TRUE(rt->Fixpoint().ok());
  EXPECT_EQ(*rt->workspace()->Count("flag(up)"), 1u);
}

TEST(TrustRuntimeTest, SaysRequiresKnownPrincipals) {
  // says0: says(U1,U2,R) -> prin(U1), prin(U2), rule(R).
  auto rt = MakeRuntime("alice");
  ASSERT_TRUE(rt->Say("stranger", "x().").ok());
  auto st = rt->Fixpoint();
  EXPECT_EQ(st.code(), util::StatusCode::kConstraintViolation);
}

TEST(TrustRuntimeTest, SaysPatternImport) {
  // Binder-style: derive access from what bob says (bex1' shape).
  auto alice = MakeRuntime("alice");
  auto bob = MakeRuntime("bob");
  ASSERT_TRUE(alice->AddPeer("bob", bob->keypair().public_key).ok());
  ASSERT_TRUE(
      alice
          ->Load("access(P,O,read) <- says(bob,me,[| access(P,O,read). |]).")
          .ok());
  ASSERT_TRUE(alice->workspace()
                  ->AddFact("says",
                            {Value::Sym("bob"), Value::Sym("alice"),
                             *lbtrust::meta::QuoteRuleText(
                                 "access(carol,file1,read).")})
                  .ok());
  ASSERT_TRUE(alice->Fixpoint().ok());
  EXPECT_EQ(*alice->workspace()->Count("access(carol,file1,read)"), 1u);
}

TEST(TrustRuntimeTest, SchemeSwapChangesTwoClauses) {
  // §4.1.2: moving from RSA to HMAC modifies exactly two clauses
  // (exp1 and exp3); exp0/exp2 are shared.
  auto rt = MakeRuntime("alice");
  RsaScheme rsa;
  HmacScheme hmac;
  auto first = rt->UseScheme(rsa);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(*first, 0);  // nothing to remove on first install
  auto swapped = rt->UseScheme(hmac);
  ASSERT_TRUE(swapped.ok()) << swapped.status().ToString();
  EXPECT_EQ(*swapped, 2);
  EXPECT_EQ(rt->scheme_name(), "hmac");
  // And static clause diff agrees with the paper.
  EXPECT_EQ(AuthScheme::CountDifferingRules(rsa, hmac), 2);
  PlaintextScheme plain;
  EXPECT_GE(AuthScheme::CountDifferingRules(rsa, plain), 2);
}

TEST(TrustRuntimeTest, SchemeSwapIdempotent) {
  auto rt = MakeRuntime("alice");
  RsaScheme rsa;
  ASSERT_TRUE(rt->UseScheme(rsa).ok());
  auto again = rt->UseScheme(rsa);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, 0);
}

TEST(SpeaksForTest, ActivatesEverythingSaid) {
  auto alice = MakeRuntime("alice");
  TrustRuntime::Options opts;
  opts.principal = "carol";
  opts.rsa_bits = 512;
  opts.trusting_activation = false;  // only speaks-for activates
  auto rt = TrustRuntime::Create(opts);
  ASSERT_TRUE(rt.ok());
  auto& carol = *rt;
  ASSERT_TRUE(carol->AddPeer("alice", alice->keypair().public_key).ok());
  ASSERT_TRUE(carol->AddPeer("bob", alice->keypair().public_key).ok());
  ASSERT_TRUE(carol->Load(SpeaksForRule("alice")).ok());

  // alice's statement activates, bob's does not.
  ASSERT_TRUE(carol->workspace()
                  ->AddFact("says", {Value::Sym("alice"), Value::Sym("carol"),
                                     *meta::QuoteRuleText("a(1).")})
                  .ok());
  ASSERT_TRUE(carol->workspace()
                  ->AddFact("says", {Value::Sym("bob"), Value::Sym("carol"),
                                     *meta::QuoteRuleText("b(1).")})
                  .ok());
  ASSERT_TRUE(carol->Fixpoint().ok());
  EXPECT_EQ(*carol->workspace()->Count("a(1)"), 1u);
  EXPECT_EQ(*carol->workspace()->Count("b(X)"), 0u);
}

TEST(DelegationTest, DelegatesRestrictedToPredicate) {
  // del1: delegates(me,mgr,permission) activates only mgr's permission
  // statements.
  TrustRuntime::Options opts;
  opts.principal = "owner";
  opts.rsa_bits = 512;
  opts.trusting_activation = false;
  auto rt = TrustRuntime::Create(opts);
  ASSERT_TRUE(rt.ok());
  auto& owner = *rt;
  auto mgr = MakeRuntime("mgr");
  ASSERT_TRUE(owner->AddPeer("mgr", mgr->keypair().public_key).ok());
  ASSERT_TRUE(owner->Load(DelegationRules()).ok());
  ASSERT_TRUE(
      owner->workspace()
          ->AddFact("delegates", {Value::Sym("owner"), Value::Sym("mgr"),
                                  Value::Sym("permission")})
          .ok());
  ASSERT_TRUE(owner->workspace()
                  ->AddFact("says", {Value::Sym("mgr"), Value::Sym("owner"),
                                     *meta::QuoteRuleText(
                                         "permission(alice,f1,read).")})
                  .ok());
  ASSERT_TRUE(owner->workspace()
                  ->AddFact("says", {Value::Sym("mgr"), Value::Sym("owner"),
                                     *meta::QuoteRuleText("other(x).")})
                  .ok());
  ASSERT_TRUE(owner->Fixpoint().ok());
  EXPECT_EQ(*owner->workspace()->Count("permission(alice,f1,read)"), 1u);
  EXPECT_EQ(*owner->workspace()->Count("other(X)"), 0u);
}

TEST(DelegationTest, DelegatedRulesAlsoActivate) {
  // The delegated predicate may arrive as a rule, not just a fact.
  TrustRuntime::Options opts;
  opts.principal = "owner";
  opts.rsa_bits = 512;
  opts.trusting_activation = false;
  auto rt = TrustRuntime::Create(opts);
  ASSERT_TRUE(rt.ok());
  auto& owner = *rt;
  auto mgr = MakeRuntime("mgr");
  ASSERT_TRUE(owner->AddPeer("mgr", mgr->keypair().public_key).ok());
  ASSERT_TRUE(owner->Load(DelegationRules()).ok());
  ASSERT_TRUE(owner->Load("emp(dave).").ok());
  ASSERT_TRUE(
      owner->workspace()
          ->AddFact("delegates", {Value::Sym("owner"), Value::Sym("mgr"),
                                  Value::Sym("permission")})
          .ok());
  ASSERT_TRUE(
      owner->workspace()
          ->AddFact("says",
                    {Value::Sym("mgr"), Value::Sym("owner"),
                     *meta::QuoteRuleText(
                         "permission(E,f1,read) <- emp(E).")})
          .ok());
  ASSERT_TRUE(owner->Fixpoint().ok());
  EXPECT_EQ(*owner->workspace()->Count("permission(dave,f1,read)"), 1u);
}

TEST(DelegationDepthTest, DepthZeroForbidsDelegation) {
  // Single-workspace emulation (the §9 demo setting): root restricts mgr
  // with depth 0; mgr delegating anyway violates dd4.
  datalog::Workspace::Options wopts;
  wopts.principal = "root";
  datalog::Workspace ws(wopts);
  ASSERT_TRUE(ws.Load("prin(root). prin(mgr). prin(sub).").ok());
  // says core for this shared workspace: every principal trusts directly.
  ASSERT_TRUE(ws.LoadAs("root", "active(R) <- says(_,me,R).").ok());
  ASSERT_TRUE(ws.LoadAs("mgr", "active(R) <- says(_,me,R).").ok());
  ASSERT_TRUE(ws.LoadAs("sub", "active(R) <- says(_,me,R).").ok());
  ASSERT_TRUE(ws.LoadAs("root", DelegationDepthRules()).ok());
  ASSERT_TRUE(ws.LoadAs("mgr", DelegationDepthRules()).ok());
  ASSERT_TRUE(ws.AddFactTextAs("root",
                               "delDepth(me,mgr,permission,0). "
                               "delegates(me,mgr,permission).")
                  .ok());
  ASSERT_TRUE(ws.Fixpoint().ok());  // mgr has not delegated yet
  ASSERT_TRUE(
      ws.AddFactTextAs("mgr", "delegates(me,sub,permission).").ok());
  auto st = ws.Fixpoint();
  EXPECT_EQ(st.code(), util::StatusCode::kConstraintViolation)
      << st.ToString();
}

TEST(DelegationDepthTest, DepthLimitsPropagateAlongChain) {
  // depth 1: mgr may delegate once; sub may not delegate further.
  datalog::Workspace::Options wopts;
  wopts.principal = "root";
  datalog::Workspace ws(wopts);
  ASSERT_TRUE(ws.Load("prin(root). prin(mgr). prin(sub). prin(leaf).").ok());
  for (const char* p : {"root", "mgr", "sub", "leaf"}) {
    ASSERT_TRUE(ws.LoadAs(p, "active(R) <- says(_,me,R).").ok());
    ASSERT_TRUE(ws.LoadAs(p, DelegationDepthRules()).ok());
  }
  ASSERT_TRUE(ws.AddFactTextAs("root",
                               "delDepth(me,mgr,permission,1). "
                               "delegates(me,mgr,permission).")
                  .ok());
  ASSERT_TRUE(
      ws.AddFactTextAs("mgr", "delegates(me,sub,permission).").ok());
  ASSERT_TRUE(ws.Fixpoint().ok())
      << (ws.violations().empty() ? "" : ws.violations()[0]);
  // sub received inferredDelDepth(...,sub,permission,0).
  EXPECT_GE(*ws.Count("inferredDelDepth(U,sub,permission,0)"), 1u);
  ASSERT_TRUE(
      ws.AddFactTextAs("sub", "delegates(me,leaf,permission).").ok());
  auto st = ws.Fixpoint();
  EXPECT_EQ(st.code(), util::StatusCode::kConstraintViolation);
}

TEST(DelegationWidthTest, OutsidersAreRejected) {
  // Width restriction (§4.2.1): root allows only {mgr, sub} in the chain
  // for `perm`; mgr delegating to an outsider violates dw3.
  datalog::Workspace::Options wopts;
  wopts.principal = "root";
  datalog::Workspace ws(wopts);
  ASSERT_TRUE(
      ws.Load("prin(root). prin(mgr). prin(sub). prin(outsider).").ok());
  for (const char* p : {"root", "mgr", "sub", "outsider"}) {
    ASSERT_TRUE(ws.LoadAs(p, "active(R) <- says(_,me,R).").ok());
    ASSERT_TRUE(ws.LoadAs(p, DelegationWidthRules()).ok());
    ASSERT_TRUE(ws.LoadAs(p, DelegationRules()).ok());
  }
  ASSERT_TRUE(ws.AddFactTextAs("root",
                               "delWidth(me,perm,mgr). delWidth(me,perm,sub). "
                               "delegates(me,mgr,perm).")
                  .ok());
  ASSERT_TRUE(ws.Fixpoint().ok())
      << (ws.violations().empty() ? "" : ws.violations()[0]);
  // Inside the width set: fine.
  ASSERT_TRUE(ws.AddFactTextAs("mgr", "delegates(me,sub,perm).").ok());
  ASSERT_TRUE(ws.Fixpoint().ok())
      << (ws.violations().empty() ? "" : ws.violations()[0]);
  // Outside it: violation.
  ASSERT_TRUE(ws.AddFactTextAs("mgr", "delegates(me,outsider,perm).").ok());
  auto st = ws.Fixpoint();
  EXPECT_EQ(st.code(), util::StatusCode::kConstraintViolation)
      << st.ToString();
}

TEST(ThresholdTest, KOfNPrincipalsMustConcur) {
  // Activation must flow through the threshold, not through trusting says1.
  auto bank = MakeRuntime("bank", /*trusting=*/false);
  for (const char* b : {"b1", "b2", "b3"}) {
    auto bureau = MakeRuntime(b);
    ASSERT_TRUE(bank->AddPeer(b, bureau->keypair().public_key).ok());
    ASSERT_TRUE(bank->workspace()
                    ->AddFact("pringroup",
                              {Value::Sym(b), Value::Sym("creditBureau")})
                    .ok());
  }
  ASSERT_TRUE(bank->Load(ThresholdRules("creditOK", "creditBureau", 3)).ok());
  auto say_ok = [&](const char* bureau) {
    ASSERT_TRUE(bank->workspace()
                    ->AddFact("says", {Value::Sym(bureau), Value::Sym("bank"),
                                       *meta::QuoteRuleText(
                                           "creditOK(customer1).")})
                    .ok());
  };
  say_ok("b1");
  say_ok("b2");
  ASSERT_TRUE(bank->Fixpoint().ok());
  EXPECT_EQ(*bank->workspace()->Count("creditOK(customer1)"), 0u);
  say_ok("b3");
  ASSERT_TRUE(bank->Fixpoint().ok());
  EXPECT_EQ(*bank->workspace()->Count("creditOK(customer1)"), 1u);
}

TEST(ThresholdTest, WeightedThreshold) {
  auto bank = MakeRuntime("bank", /*trusting=*/false);
  struct Bureau {
    const char* name;
    double weight;
  } bureaus[] = {{"b1", 0.5}, {"b2", 0.3}, {"b3", 0.4}};
  for (const auto& b : bureaus) {
    auto bureau = MakeRuntime(b.name);
    ASSERT_TRUE(bank->AddPeer(b.name, bureau->keypair().public_key).ok());
    ASSERT_TRUE(
        bank->workspace()
            ->AddFact("prinweight", {Value::Sym(b.name),
                                     Value::Sym("creditBureau"),
                                     Value::Double(b.weight)})
            .ok());
  }
  ASSERT_TRUE(
      bank->Load(WeightedThresholdRules("loanOK", "creditBureau", 0.8)).ok());
  auto say_ok = [&](const char* bureau) {
    ASSERT_TRUE(bank->workspace()
                    ->AddFact("says", {Value::Sym(bureau), Value::Sym("bank"),
                                       *meta::QuoteRuleText("loanOK(c1).")})
                    .ok());
  };
  say_ok("b2");  // 0.3 < 0.8
  ASSERT_TRUE(bank->Fixpoint().ok());
  EXPECT_EQ(*bank->workspace()->Count("loanOK(c1)"), 0u);
  say_ok("b1");  // 0.3 + 0.5 = 0.8 >= 0.8
  ASSERT_TRUE(bank->Fixpoint().ok());
  EXPECT_EQ(*bank->workspace()->Count("loanOK(c1)"), 1u);
}

TEST(KeyStoreTest, FingerprintOfStoredHandles) {
  auto rt = MakeRuntime("alice");
  KeyStore* ks = rt->keystore();
  std::string pub = ks->AddRsaPublicKey(rt->keypair().public_key);
  std::string priv = ks->AddRsaPrivateKey(rt->keypair().private_key);
  std::string hmac = ks->AddSharedSecret("s3cret");

  auto pub_fp = ks->Fingerprint(pub);
  ASSERT_TRUE(pub_fp.ok());
  EXPECT_EQ(*pub_fp, crypto::KeyFingerprint(rt->keypair().public_key));
  EXPECT_EQ(pub, "rsa:pub:" + *pub_fp);
  // A key pair's private and public handle share the fingerprint.
  auto priv_fp = ks->Fingerprint(priv);
  ASSERT_TRUE(priv_fp.ok());
  EXPECT_EQ(*priv_fp, *pub_fp);
  auto hmac_fp = ks->Fingerprint(hmac);
  ASSERT_TRUE(hmac_fp.ok());
  EXPECT_EQ(hmac, "hmac:" + *hmac_fp);

  auto missing = ks->Fingerprint("rsa:pub:deadbeefdeadbeef");
  EXPECT_EQ(missing.status().code(), util::StatusCode::kNotFound);
}

TEST(KeyStoreTest, EnumeratesPublicKeyHandles) {
  auto alice = MakeRuntime("alice");
  auto bob = MakeRuntime("bob");
  auto carol = MakeRuntime("carol");
  // Runtime creation registered alice's own public key already.
  EXPECT_EQ(alice->keystore()->PublicKeyHandles().size(), 1u);
  ASSERT_TRUE(alice->AddPeer("bob", bob->keypair().public_key).ok());
  ASSERT_TRUE(alice->AddPeer("carol", carol->keypair().public_key).ok());
  std::vector<std::string> handles = alice->keystore()->PublicKeyHandles();
  ASSERT_EQ(handles.size(), 3u);
  EXPECT_TRUE(std::is_sorted(handles.begin(), handles.end()));
  for (const std::string& handle : handles) {
    auto fp = alice->keystore()->Fingerprint(handle);
    ASSERT_TRUE(fp.ok());
    const auto* key = alice->keystore()->FindPublicByFingerprint(*fp);
    ASSERT_NE(key, nullptr);
    EXPECT_EQ(crypto::KeyFingerprint(*key), *fp);
  }
  EXPECT_EQ(alice->keystore()->FindPublicByFingerprint("0000000000000000"),
            nullptr);
}

TEST(CryptoBuiltinsTest, IntegrityPrimitives) {
  auto rt = MakeRuntime("alice");
  ASSERT_TRUE(rt->Load("digest(H) <- msg(M), sha1hash(M,H).\n"
                       "crc(C) <- msg(M), checksum(M,C).\n"
                       "msg(\"hello\").")
                  .ok());
  ASSERT_TRUE(rt->Fixpoint().ok());
  EXPECT_EQ(*rt->workspace()->Count("digest(H)"), 1u);
  EXPECT_EQ(*rt->workspace()->Count("crc(C)"), 1u);
}

TEST(CryptoBuiltinsTest, ConfidentialityRoundTrip) {
  auto alice = MakeRuntime("alice");
  ASSERT_TRUE(alice->AddSharedSecret("bob", "s3cret").ok());
  ASSERT_TRUE(
      alice
          ->Load("ct(C) <- secretmsg(M), sharedsecret(me,bob,K), "
                 "encrypt(M,K,C).\n"
                 "rt(M) <- ct(C), sharedsecret(me,bob,K), decrypt(C,K,M).\n"
                 "secretmsg(\"attack at dawn\").")
          .ok());
  ASSERT_TRUE(alice->Fixpoint().ok());
  EXPECT_EQ(*alice->workspace()->Count("rt(\"attack at dawn\")"), 1u);
}

TEST(CryptoBuiltinsTest, SignVerifyThroughPolicy) {
  auto alice = MakeRuntime("alice");
  ASSERT_TRUE(
      alice
          ->Load("sig(S) <- rsaprivkey(me,K), rsasign(\"m\",S,K).\n"
                 "ok(yes) <- sig(S), rsapubkey(me,K), rsaverify(\"m\",S,K).\n"
                 "bad(yes) <- sig(S), rsapubkey(me,K), "
                 "rsaverify(\"other\",S,K).")
          .ok());
  ASSERT_TRUE(alice->Fixpoint().ok());
  EXPECT_EQ(*alice->workspace()->Count("ok(yes)"), 1u);
  EXPECT_EQ(*alice->workspace()->Count("bad(yes)"), 0u);
  EXPECT_GE(alice->crypto_stats().rsa_signs, 1u);
  EXPECT_GE(alice->crypto_stats().rsa_verifies, 1u);
}

// The verify cache must key on (message, signature, handle) as a tuple: a
// separator-joined key lets rsaverify("m", "x|"+S, K) hit the cached
// result of rsaverify("m|x", S, K) and accept a signature nobody made.
TEST(CryptoBuiltinsTest, VerifyCacheRejectsShiftedFieldBoundaries) {
  auto alice = MakeRuntime("alice");
  ASSERT_TRUE(
      alice
          ->Load("sig(S) <- rsaprivkey(me,K), rsasign(\"m|x\",S,K).\n"
                 "ok(S) <- sig(S), rsapubkey(me,K), "
                 "rsaverify(\"m|x\",S,K).")
          .ok());
  ASSERT_TRUE(alice->Fixpoint().ok());
  auto sigs = alice->workspace()->Query("ok(S)");
  ASSERT_TRUE(sigs.ok());
  ASSERT_EQ(sigs->size(), 1u);
  const std::string shifted = "x|" + (*sigs)[0][0].AsText();
  ASSERT_TRUE(alice->workspace()->AddFact("claimed", {Value::Str(shifted)})
                  .ok());
  ASSERT_TRUE(alice
                  ->Load("forged(T) <- claimed(T), rsapubkey(me,K), "
                         "rsaverify(\"m\",T,K).")
                  .ok());
  ASSERT_TRUE(alice->Fixpoint().ok());
  EXPECT_EQ(*alice->workspace()->Count("ok(S)"), 1u);
  EXPECT_EQ(*alice->workspace()->Count("forged(T)"), 0u);
}

TEST(CryptoBuiltinsTest, SigningIsCachedAcrossFixpoints) {
  auto alice = MakeRuntime("alice");
  ASSERT_TRUE(alice->Load("sig(S) <- rsaprivkey(me,K), rsasign(\"m\",S,K).")
                  .ok());
  ASSERT_TRUE(alice->Fixpoint().ok());
  size_t signs_after_first = alice->crypto_stats().rsa_signs;
  // A no-change Fixpoint() takes the delta-aware path and does not even
  // re-evaluate the signing rule.
  ASSERT_TRUE(alice->Fixpoint().ok());
  EXPECT_EQ(alice->crypto_stats().rsa_signs, signs_after_first);
  EXPECT_TRUE(alice->workspace()->last_fixpoint_incremental());
  // Rule churn forces a full rebuild; the re-evaluated rsasign call must
  // then hit the signature cache instead of signing again.
  ASSERT_TRUE(alice->Load("unrelated(X) <- prin(X).").ok());
  ASSERT_TRUE(alice->Fixpoint().ok());
  EXPECT_FALSE(alice->workspace()->last_fixpoint_incremental());
  EXPECT_EQ(alice->crypto_stats().rsa_signs, signs_after_first);
  EXPECT_GE(alice->crypto_stats().cache_hits, 1u);
}

}  // namespace
}  // namespace lbtrust::trust
