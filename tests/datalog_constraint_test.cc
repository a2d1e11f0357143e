#include <string>

#include <gtest/gtest.h>

#include "datalog/workspace.h"

namespace lbtrust::datalog {
namespace {

TEST(ConstraintTest, FailFormViolation) {
  Workspace ws;
  ASSERT_TRUE(ws.Load("access(alice,f,read).\n"
                      "fail() <- access(P,_,_), !principal(P).")
                  .ok());
  auto st = ws.Fixpoint();
  EXPECT_EQ(st.code(), util::StatusCode::kConstraintViolation);
  ASSERT_FALSE(ws.violations().empty());
  EXPECT_NE(ws.violations()[0].find("alice"), std::string::npos);
}

TEST(ConstraintTest, FailFormSatisfied) {
  Workspace ws;
  ASSERT_TRUE(ws.Load("principal(alice).\n"
                      "access(alice,f,read).\n"
                      "fail() <- access(P,_,_), !principal(P).")
                  .ok());
  EXPECT_TRUE(ws.Fixpoint().ok());
}

TEST(ConstraintTest, ArrowFormTypesSatisfied) {
  Workspace ws;
  ASSERT_TRUE(ws.Load("principal(alice). object(f). mode(read).\n"
                      "access(P,O,M) -> principal(P), object(O), mode(M).\n"
                      "access(alice,f,read).")
                  .ok());
  EXPECT_TRUE(ws.Fixpoint().ok());
  // Types recorded in the catalog.
  const PredicateInfo* info = ws.catalog().Find("access");
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->arg_types,
            (std::vector<std::string>{"principal", "object", "mode"}));
}

TEST(ConstraintTest, ArrowFormViolation) {
  Workspace ws;
  ASSERT_TRUE(ws.Load("principal(alice).\n"
                      "access(P,O,M) -> principal(P).\n"
                      "access(mallory,f,read).")
                  .ok());
  auto st = ws.Fixpoint();
  EXPECT_EQ(st.code(), util::StatusCode::kConstraintViolation);
  EXPECT_NE(ws.violations()[0].find("mallory"), std::string::npos);
}

TEST(ConstraintTest, ViolationClearsAfterFix) {
  Workspace ws;
  ASSERT_TRUE(ws.Load("access(P,O,M) -> principal(P).\n"
                      "access(mallory,f,read).")
                  .ok());
  EXPECT_FALSE(ws.Fixpoint().ok());
  ASSERT_TRUE(ws.AddFact("principal", {Value::Sym("mallory")}).ok());
  EXPECT_TRUE(ws.Fixpoint().ok());
  EXPECT_TRUE(ws.violations().empty());
}

TEST(ConstraintTest, EntityTypeDeclaration) {
  Workspace ws;
  ASSERT_TRUE(ws.Load("file(F) ->.\nfile(f1). file(f2).").ok());
  ASSERT_TRUE(ws.Fixpoint().ok());
  const PredicateInfo* info = ws.catalog().Find("file");
  ASSERT_NE(info, nullptr);
  EXPECT_TRUE(info->is_entity_type);
  EXPECT_EQ(*ws.Count("file(X)"), 2u);
}

TEST(ConstraintTest, BuiltinTypeChecks) {
  Workspace ws;
  ASSERT_TRUE(ws.Load("age(A,N) -> string(A), int[64](N).\n"
                      "age(\"alice\",30).")
                  .ok());
  EXPECT_TRUE(ws.Fixpoint().ok());
  ASSERT_TRUE(ws.AddFact("age", {Value::Str("bob"), Value::Str("old")}).ok());
  auto st = ws.Fixpoint();
  EXPECT_EQ(st.code(), util::StatusCode::kConstraintViolation);
}

TEST(ConstraintTest, RhsWithNegation) {
  // dd4-style: LHS -> !something.
  Workspace ws;
  ASSERT_TRUE(ws.Load("limitZero(P) -> !delegates(me,_,P).\n"
                      "delegates(me,bob,perm).")
                  .ok());
  ASSERT_TRUE(ws.Fixpoint().ok());  // no limitZero facts yet
  ASSERT_TRUE(ws.AddFact("limitZero", {Value::Sym("perm")}).ok());
  auto st = ws.Fixpoint();
  EXPECT_EQ(st.code(), util::StatusCode::kConstraintViolation);
}

TEST(ConstraintTest, RhsWithExistential) {
  // exp3-style: existential S spans one literal; K spans two.
  Workspace ws;
  ASSERT_TRUE(ws.Load("said(U,R) -> sig(U,R,S), key(U,K), valid(R,S,K).\n"
                      "sig(alice,m1,s1). key(alice,k1). valid(m1,s1,k1).\n"
                      "said(alice,m1).")
                  .ok());
  EXPECT_TRUE(ws.Fixpoint().ok());
  // A said fact without a matching signature violates.
  ASSERT_TRUE(ws.AddFact("said", {Value::Sym("bob"), Value::Sym("m2")}).ok());
  auto st = ws.Fixpoint();
  EXPECT_EQ(st.code(), util::StatusCode::kConstraintViolation);
}

TEST(ConstraintTest, RhsDisjunction) {
  Workspace ws;
  ASSERT_TRUE(ws.Load("entry(X) -> vip(X) ; member(X).\n"
                      "vip(alice). member(bob).\n"
                      "entry(alice). entry(bob).")
                  .ok());
  EXPECT_TRUE(ws.Fixpoint().ok());
  ASSERT_TRUE(ws.AddFact("entry", {Value::Sym("mallory")}).ok());
  EXPECT_EQ(ws.Fixpoint().code(), util::StatusCode::kConstraintViolation);
}

TEST(ConstraintTest, ConstraintOverDerivedPredicate) {
  Workspace ws;
  ASSERT_TRUE(ws.Load("p(X) <- q(X).\n"
                      "p(X) -> allowed(X).\n"
                      "q(a). allowed(a).")
                  .ok());
  EXPECT_TRUE(ws.Fixpoint().ok());
  ASSERT_TRUE(ws.AddFact("q", {Value::Sym("b")}).ok());
  EXPECT_EQ(ws.Fixpoint().code(), util::StatusCode::kConstraintViolation);
}

TEST(ConstraintTest, MetaConstraintOwnerMayRead) {
  // §3.3: a principal may only install rules reading predicates they may
  // read. (The paper's listing writes owner(U, [|...|]); its own
  // declaration is owner(R,P) with the rule first, which we follow.)
  Workspace::Options opts;
  opts.principal = "alice";
  Workspace ws(opts);
  ASSERT_TRUE(
      ws.Load("owner([| A <- P(T2*), A*. |], U) -> canRead(U,P).").ok());
  // alice installs a rule reading q: violation until canRead(alice,q).
  ASSERT_TRUE(ws.Load("p(X) <- q(X). q(1).").ok());
  auto st = ws.Fixpoint();
  EXPECT_EQ(st.code(), util::StatusCode::kConstraintViolation)
      << st.ToString();
  ASSERT_TRUE(
      ws.AddFact("canRead", {Value::Sym("alice"), Value::Sym("q")}).ok());
  EXPECT_TRUE(ws.Fixpoint().ok());
}

TEST(ConstraintTest, ViolationMessageNamesConstraint) {
  Workspace ws;
  ASSERT_TRUE(ws.Load("p(X) -> q(X). p(a).").ok());
  EXPECT_FALSE(ws.Fixpoint().ok());
  ASSERT_FALSE(ws.violations().empty());
  EXPECT_NE(ws.violations()[0].find("->"), std::string::npos);
}

}  // namespace
}  // namespace lbtrust::datalog
