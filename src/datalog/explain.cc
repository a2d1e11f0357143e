#include "datalog/explain.h"

#include <cstdio>
#include <set>
#include <utility>

#include "datalog/pretty.h"
#include "util/strings.h"

namespace lbtrust::datalog {

namespace {

const char* LiteralKindName(CompiledLiteral::Kind kind) {
  switch (kind) {
    case CompiledLiteral::Kind::kRelation: return "relation";
    case CompiledLiteral::Kind::kNegation: return "negation";
    case CompiledLiteral::Kind::kBuiltin: return "builtin";
    case CompiledLiteral::Kind::kEquality: return "equality";
  }
  return "?";
}

/// One scheduled position: body index, the plan's mask, literal text.
struct ScheduleEntry {
  int body_idx = 0;
  uint64_t probe_mask = 0;
  std::string literal;
  const char* kind = "";
};

std::vector<ScheduleEntry> FullSchedule(const CompiledRule& rule) {
  std::vector<ScheduleEntry> out;
  out.reserve(rule.order_full.size());
  for (size_t oi = 0; oi < rule.order_full.size(); ++oi) {
    const int bi = rule.order_full[oi];
    const CompiledLiteral& lit = rule.body[static_cast<size_t>(bi)];
    ScheduleEntry entry;
    entry.body_idx = bi;
    entry.probe_mask = rule.masks_full[oi];
    entry.literal = static_cast<size_t>(bi) < rule.source.body.size()
                        ? PrintLiteral(rule.source.body[bi])
                        : lit.pred;
    entry.kind = LiteralKindName(lit.kind);
    out.push_back(std::move(entry));
  }
  return out;
}

/// The literals whose selectivity EXPLAIN reports: relation and negation
/// literals, one per relation.
std::vector<const CompiledLiteral*> MeasuredLiterals(const CompiledRule& rule) {
  std::vector<const CompiledLiteral*> out;
  std::set<std::string> seen;
  for (const CompiledLiteral& lit : rule.body) {
    if ((lit.kind == CompiledLiteral::Kind::kRelation ||
         lit.kind == CompiledLiteral::Kind::kNegation) &&
        seen.insert(lit.pred).second) {
      out.push_back(&lit);
    }
  }
  return out;
}

std::string Ratio(uint64_t hits, uint64_t probes) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4f",
                probes == 0 ? 0.0
                            : static_cast<double>(hits) /
                                  static_cast<double>(probes));
  return buf;
}

std::string RenderText(const CompiledRule& rule,
                       const std::vector<Diagnostic>* diagnostics) {
  std::string out = util::StrCat("rule ", rule.id, " [head=", rule.head_pred,
                                 rule.parallel_safe ? ", parallel-safe" : "",
                                 "]: ", PrintRule(rule.source), "\n");
  out += "  schedule (full):\n";
  for (const ScheduleEntry& e : FullSchedule(rule)) {
    out += util::StrCat("    body[", e.body_idx, "] ", e.literal,
                        "  kind=", e.kind, " probe_mask=0x");
    char hex[24];
    std::snprintf(hex, sizeof(hex), "%llx",
                  static_cast<unsigned long long>(e.probe_mask));
    out += hex;
    if (e.probe_mask == 0) out += " (leading scan)";
    out.push_back('\n');
  }
  for (const auto& [pos, order] : rule.order_delta) {
    out += util::StrCat("  schedule (delta@", pos, "):");
    for (int bi : order) out += util::StrCat(" ", bi);
    out.push_back('\n');
  }
  const CompiledRule::Counters& c = rule.counters;
  out += util::StrCat("  measured: evals=", c.evals->value(), " derived=",
                      c.derived->value(), " probes=", c.probes->value(),
                      " eval_us=", c.eval_us->value(), "\n");
  for (const CompiledLiteral* lit : MeasuredLiterals(rule)) {
    const uint64_t probes = lit->probes->value(), hits = lit->hits->value();
    out += util::StrCat("    ", lit->pred, ": probes=", probes, " hits=",
                        hits, " selectivity=", Ratio(hits, probes), "\n");
  }
  if (diagnostics != nullptr && !diagnostics->empty()) {
    out += "  diagnostics:\n";
    for (const Diagnostic& d : *diagnostics) {
      out += util::StrCat("    ", d.code, " ", LintSeverityName(d.severity),
                          ": ", d.message, "\n");
    }
  }
  return out;
}

std::string RenderJson(const CompiledRule& rule,
                       const std::vector<Diagnostic>* diagnostics) {
  std::string out = util::StrCat("{\"rule\":", rule.id, ",\"head\":\"",
                                 obs::LabelEscape(rule.head_pred),
                                 "\",\"source\":\"",
                                 obs::LabelEscape(PrintRule(rule.source)),
                                 "\",\"parallel_safe\":",
                                 rule.parallel_safe ? "true" : "false",
                                 ",\"schedule\":[");
  bool first = true;
  for (const ScheduleEntry& e : FullSchedule(rule)) {
    if (!first) out.push_back(',');
    first = false;
    out += util::StrCat("{\"body\":", e.body_idx, ",\"literal\":\"",
                        obs::LabelEscape(e.literal), "\",\"kind\":\"", e.kind,
                        "\",\"probe_mask\":", e.probe_mask, "}");
  }
  out += "],\"delta_orders\":[";
  first = true;
  for (const auto& [pos, order] : rule.order_delta) {
    if (!first) out.push_back(',');
    first = false;
    out += util::StrCat("{\"pos\":", pos, ",\"order\":[");
    for (size_t i = 0; i < order.size(); ++i) {
      if (i != 0) out.push_back(',');
      out += std::to_string(order[i]);
    }
    out += "]}";
  }
  out += "]";
  const CompiledRule::Counters& c = rule.counters;
  out += util::StrCat(",\"measured\":{\"evals\":", c.evals->value(),
                      ",\"derived\":", c.derived->value(),
                      ",\"probes\":", c.probes->value(),
                      ",\"eval_us\":", c.eval_us->value(),
                      ",\"selectivity\":[");
  first = true;
  for (const CompiledLiteral* lit : MeasuredLiterals(rule)) {
    if (!first) out.push_back(',');
    first = false;
    const uint64_t probes = lit->probes->value(), hits = lit->hits->value();
    out += util::StrCat("{\"relation\":\"", obs::LabelEscape(lit->pred),
                        "\",\"probes\":", probes, ",\"hits\":", hits,
                        ",\"ratio\":", Ratio(hits, probes), "}");
  }
  out += "]}";
  out += ",\"diagnostics\":[";
  if (diagnostics != nullptr) {
    first = true;
    for (const Diagnostic& d : *diagnostics) {
      if (!first) out.push_back(',');
      first = false;
      out += d.ToJson();
    }
  }
  out += "]}";
  return out;
}

}  // namespace

std::string ExplainCompiledRule(const CompiledRule& rule, ExplainFormat format,
                                const std::vector<Diagnostic>* diagnostics) {
  return format == ExplainFormat::kJson ? RenderJson(rule, diagnostics)
                                        : RenderText(rule, diagnostics);
}

std::string ExplainCompiledRules(
    const std::vector<const CompiledRule*>& rules, ExplainFormat format,
    const std::vector<std::vector<Diagnostic>>* diagnostics) {
  auto rule_diags = [&](size_t i) -> const std::vector<Diagnostic>* {
    if (diagnostics == nullptr || i >= diagnostics->size()) return nullptr;
    return &(*diagnostics)[i];
  };
  if (format == ExplainFormat::kText) {
    std::string out;
    for (size_t i = 0; i < rules.size(); ++i) {
      if (rules[i] == nullptr) continue;
      out += RenderText(*rules[i], rule_diags(i));
    }
    return out;
  }
  std::string out = "{\"rules\":[";
  bool first = true;
  for (size_t i = 0; i < rules.size(); ++i) {
    if (rules[i] == nullptr) continue;
    if (!first) out.push_back(',');
    first = false;
    out += RenderJson(*rules[i], rule_diags(i));
  }
  out += "]}";
  return out;
}

}  // namespace lbtrust::datalog
