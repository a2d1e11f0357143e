// EXPLAIN profiles: the compiled literal schedule with static probe masks
// plus measured probe/hit selectivities, as text and JSON. The anchor case
// is the BM_JoinOrderSelectiveLast shape — a selective literal written
// syntactically last — whose page must show exactly what the greedy,
// cardinality-blind scheduler actually does: a leading scan over the wide
// relation (the known bad choice) with the selective probes hoisted to
// directly after their variables bind.
#include "datalog/explain.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "datalog/value.h"
#include "datalog/workspace.h"

namespace lbtrust::datalog {
namespace {

// --- Mini JSON parser -----------------------------------------------------
// Full syntax validation plus collection of every string value keyed
// "head" — enough to prove the page is machine-parseable without dragging
// a JSON library into the tree.
class MiniJson {
 public:
  explicit MiniJson(const std::string& text) : text_(text) {}

  bool Parse() {
    bool ok = ParseValue();
    SkipWs();
    return ok && pos_ == text_.size();
  }

  const std::vector<std::string>& heads() const { return heads_; }

 private:
  char Peek() { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void SkipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool ParseValue() {
    SkipWs();
    switch (Peek()) {
      case '{': return ParseObject();
      case '[': return ParseArray();
      case '"': {
        std::string ignored;
        return ParseString(&ignored);
      }
      default: return ParseScalar();
    }
  }

  bool ParseObject() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      std::string key;
      if (!ParseString(&key)) return false;
      SkipWs();
      if (Peek() != ':') return false;
      ++pos_;
      SkipWs();
      if (key == "head" && Peek() == '"') {
        std::string value;
        if (!ParseString(&value)) return false;
        heads_.push_back(value);
      } else if (!ParseValue()) {
        return false;
      }
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool ParseArray() {
    ++pos_;  // '['
    SkipWs();
    if (Peek() == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      if (!ParseValue()) return false;
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool ParseString(std::string* out) {
    if (Peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c == '\\') {
        if (pos_ + 1 >= text_.size()) return false;
        out->push_back(text_[pos_ + 1]);
        pos_ += 2;
        continue;
      }
      out->push_back(c);
      ++pos_;
    }
    return false;  // unterminated
  }

  bool ParseScalar() {
    size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.')) {
      ++pos_;
    }
    if (pos_ == start) return false;
    std::string token = text_.substr(start, pos_ - start);
    if (token == "true" || token == "false" || token == "null") return true;
    char* end = nullptr;
    std::strtod(token.c_str(), &end);
    return end == token.c_str() + token.size();
  }

  const std::string& text_;
  size_t pos_ = 0;
  std::vector<std::string> heads_;
};

bool Contains(const std::string& text, const std::string& needle) {
  return text.find(needle) != std::string::npos;
}

TEST(ExplainTest, SelectiveLastJoinReportsStaticOrderAndSelectivities) {
  Workspace ws;
  ASSERT_TRUE(ws.Load("q(X,Y) <- wide(X), wide(Y), narrow(X), narrow(Y).")
                  .ok());
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(ws.AddFact("wide", {Value::Int(i)}).ok());
  }
  ASSERT_TRUE(ws.AddFact("narrow", {Value::Int(1)}).ok());
  ASSERT_TRUE(ws.AddFact("narrow", {Value::Int(2)}).ok());
  ASSERT_TRUE(ws.Fixpoint().ok());

  std::string text = ws.ExplainRules();
  EXPECT_TRUE(Contains(text, "head=q")) << text;
  EXPECT_TRUE(Contains(text, "schedule (full):")) << text;

  // The greedy scheduler's actual (and known-bad) static choice: it
  // cannot see cardinalities, so the tie between the four zero-bound
  // literals falls to source order and the rule leads with a full scan of
  // `wide`. What it does get right is hoisting each narrow probe to the
  // moment its variable binds: wide(X), narrow(X), wide(Y), narrow(Y).
  size_t lead = text.find("body[0] wide(X)  kind=relation probe_mask=0x0"
                          " (leading scan)");
  size_t probe_x = text.find("body[2] narrow(X)  kind=relation"
                             " probe_mask=0x1");
  size_t scan_y = text.find("body[1] wide(Y)  kind=relation probe_mask=0x0");
  size_t probe_y = text.find("body[3] narrow(Y)  kind=relation"
                             " probe_mask=0x1");
  ASSERT_NE(lead, std::string::npos) << text;
  ASSERT_NE(probe_x, std::string::npos) << text;
  ASSERT_NE(scan_y, std::string::npos) << text;
  ASSERT_NE(probe_y, std::string::npos) << text;
  EXPECT_LT(lead, probe_x);
  EXPECT_LT(probe_x, scan_y);
  EXPECT_LT(scan_y, probe_y);

  // Measured numbers from the fixpoint that just ran.
  size_t measured = text.find("  measured: evals=");
  ASSERT_NE(measured, std::string::npos) << text;
  unsigned long long evals = 0, derived = 0;
  ASSERT_EQ(std::sscanf(text.c_str() + measured,
                        "  measured: evals=%llu derived=%llu", &evals,
                        &derived),
            2);
  EXPECT_GE(evals, 1u);
  // q = narrow × narrow = {1,2}².
  EXPECT_GE(derived, 4u);

  // The selectivity feed names the join's relations, and `narrow` shows
  // why the leading scan is the bad choice: most probes into it miss.
  size_t narrow_line = text.find("    narrow: probes=");
  ASSERT_NE(narrow_line, std::string::npos) << text;
  unsigned long long probes = 0, hits = 0;
  ASSERT_EQ(std::sscanf(text.c_str() + narrow_line,
                        "    narrow: probes=%llu hits=%llu", &probes, &hits),
            2);
  EXPECT_GT(probes, 0u);
  EXPECT_LT(hits, probes);
  EXPECT_TRUE(Contains(text, "    wide: probes=")) << text;
}

TEST(ExplainTest, JsonParsesAndNamesEveryRule) {
  Workspace ws;
  ASSERT_TRUE(ws.Load("edge(1,2). edge(2,3).\n"
                      "path(X,Y) <- edge(X,Y).\n"
                      "path(X,Z) <- path(X,Y), edge(Y,Z).\n"
                      "q(X) <- path(X,Y), path(Y,Z).\n")
                  .ok());
  ASSERT_TRUE(ws.Fixpoint().ok());

  std::string json = ws.ExplainRules(ExplainFormat::kJson);
  MiniJson parser(json);
  ASSERT_TRUE(parser.Parse()) << json;

  // One "head" per installed rule, in install order.
  std::vector<std::string> expected = {"path", "path", "q"};
  EXPECT_EQ(parser.heads(), expected) << json;
  EXPECT_TRUE(Contains(json, "\"schedule\":[{")) << json;
  EXPECT_TRUE(Contains(json, "\"measured\":{")) << json;
  EXPECT_TRUE(Contains(json, "\"selectivity\":[")) << json;
}

TEST(ExplainTest, PreparedQueryExplainRendersItsPlan) {
  Workspace ws;
  ASSERT_TRUE(ws.Load("edge(1,2). edge(2,3).\n"
                      "path(X,Y) <- edge(X,Y).\n"
                      "path(X,Z) <- path(X,Y), edge(Y,Z).\n")
                  .ok());
  ASSERT_TRUE(ws.Fixpoint().ok());
  auto query = ws.Prepare("path(1,X)");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  ASSERT_TRUE(query->Run().ok());

  std::string text = query->Explain();
  EXPECT_TRUE(Contains(text, "head=path")) << text;
  EXPECT_TRUE(Contains(text, "schedule (full):")) << text;
  // The query's single literal probes with the constant column bound.
  EXPECT_TRUE(Contains(text, "path(1,X)")) << text;

  std::string json = query->Explain(ExplainFormat::kJson);
  MiniJson parser(json);
  ASSERT_TRUE(parser.Parse()) << json;
  ASSERT_EQ(parser.heads().size(), 1u);
  EXPECT_EQ(parser.heads()[0], "path");
}

/// The lines of `page` that start with `prefix`.
size_t CountLines(const std::string& page, const std::string& prefix) {
  size_t n = 0;
  for (size_t at = page.find(prefix); at != std::string::npos;
       at = page.find(prefix, at + 1)) {
    n += at == 0 || page[at - 1] == '\n' ? 1 : 0;
  }
  return n;
}

TEST(ExplainTest, RulesOfOneHeadAreNumberedApart) {
  Workspace ws;
  ASSERT_TRUE(ws.Load("edge(1,2). edge(2,3).\n"
                      "path(X,Y) <- edge(X,Y).\n"
                      "path(X,Z) <- path(X,Y), edge(Y,Z).\n")
                  .ok());
  ASSERT_TRUE(ws.Fixpoint().ok());

  // Ids follow install order, and each rule has its own header and series.
  const std::string text = ws.ExplainRules();
  const size_t first = text.find("rule 1 [head=path");
  const size_t second = text.find("rule 2 [head=path");
  ASSERT_NE(first, std::string::npos) << text;
  ASSERT_NE(second, std::string::npos) << text;
  EXPECT_LT(first, second);
  const std::string page = ws.metrics()->RenderText();
  EXPECT_EQ(CountLines(page, "lbtrust_rule_evals_total{head=\"path\""), 2u)
      << page;
  EXPECT_TRUE(Contains(page, "{head=\"path\",rule=\"1\"}")) << page;
  EXPECT_TRUE(Contains(page, "{head=\"path\",rule=\"2\"}")) << page;

  // Prepared queries of one head share one label value: preparing more
  // handles registers no new series.
  auto first_query = ws.Prepare("path(1,X)");
  ASSERT_TRUE(first_query.ok()) << first_query.status().ToString();
  const size_t series = CountLines(ws.metrics()->RenderText(), "lbtrust_");
  for (int i = 2; i <= 20; ++i) {
    auto query = ws.Prepare("path(" + std::to_string(i) + ",X)");
    ASSERT_TRUE(query.ok()) << query.status().ToString();
  }
  EXPECT_EQ(CountLines(ws.metrics()->RenderText(), "lbtrust_"), series);
  EXPECT_TRUE(Contains(first_query->Explain(), "rule 0 [head=path"))
      << first_query->Explain();
}

TEST(ExplainTest, UnevaluatedRuleReadsAsZerosNotErrors) {
  Workspace ws;
  ASSERT_TRUE(ws.Load("r(X) <- s(X), t(X).").ok());
  // No fixpoint: every measured counter is created on read.
  std::string text = ws.ExplainRules();
  EXPECT_TRUE(
      Contains(text, "measured: evals=0 derived=0 probes=0 eval_us=0"))
      << text;
}

}  // namespace
}  // namespace lbtrust::datalog
