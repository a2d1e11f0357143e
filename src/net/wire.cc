#include "net/wire.h"

#include <cerrno>
#include <charconv>
#include <cstdlib>
#include <memory>
#include <unordered_map>
#include <vector>

#include "datalog/ast.h"
#include "datalog/parser.h"
#include "util/strings.h"

namespace lbtrust::net {

using datalog::CodeValue;
using datalog::Tuple;
using datalog::Value;
using datalog::ValueKind;
using util::Result;

namespace {

std::string SerializeValue(const Value& v);

char KindTag(const Value& v) {
  switch (v.kind()) {
    case ValueKind::kNil: return 'n';
    case ValueKind::kBool: return 'b';
    case ValueKind::kInt: return 'i';
    case ValueKind::kDouble: return 'd';
    case ValueKind::kString: return 's';
    case ValueKind::kSymbol: return 'y';
    case ValueKind::kCode: return 'c';
    case ValueKind::kPart: return 'p';
  }
  return '?';
}

char CodeTag(CodeValue::What what) {
  switch (what) {
    case CodeValue::What::kRule: return 'R';
    case CodeValue::What::kAtom: return 'A';
    case CodeValue::What::kTerm: return 'T';
    case CodeValue::What::kLiteralList: return 'L';
    case CodeValue::What::kTermList: return 'M';
  }
  return '?';
}

std::string Payload(const Value& v) {
  switch (v.kind()) {
    case ValueKind::kNil:
      return "";
    case ValueKind::kBool:
      return v.AsBool() ? "1" : "0";
    case ValueKind::kInt:
      return std::to_string(v.AsInt());
    case ValueKind::kDouble: {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g", v.AsDouble());
      return buf;
    }
    case ValueKind::kString:
    case ValueKind::kSymbol:
      return v.AsText();
    case ValueKind::kCode:
      return util::StrCat(std::string(1, CodeTag(v.AsCode().what)), ":",
                          v.AsCode().canon);
    case ValueKind::kPart:
      return util::StrCat(v.AsPart().predicate, ":",
                          SerializeValue(*v.AsPart().key));
  }
  return "";
}

Result<Value> ParseCodePayload(std::string_view payload) {
  if (payload.size() < 2 || payload[1] != ':') {
    return util::ParseError("malformed code payload");
  }
  char tag = payload[0];
  std::string canon(payload.substr(2));
  switch (tag) {
    case 'R': {
      LB_ASSIGN_OR_RETURN(
          datalog::Term term,
          datalog::ParseTermText(util::StrCat("[| ", canon, " |]")));
      if (!term.is_constant() || term.value.kind() != ValueKind::kCode) {
        return util::ParseError("code payload did not parse to code");
      }
      return term.value;
    }
    case 'A': {
      LB_ASSIGN_OR_RETURN(datalog::Atom atom, datalog::ParseAtomText(canon));
      return Value::CodeAtom(
          std::make_shared<const datalog::Atom>(std::move(atom)));
    }
    case 'T': {
      LB_ASSIGN_OR_RETURN(datalog::Term term, datalog::ParseTermText(canon));
      if (term.is_constant()) return term.value;
      return Value::CodeTerm(
          std::make_shared<const datalog::Term>(std::move(term)));
    }
    case 'L': {
      if (canon.empty()) return Value::CodeLiteralList({});
      LB_ASSIGN_OR_RETURN(
          datalog::Rule rule,
          datalog::ParseRuleText(util::StrCat("wirelist() <- ", canon, ".")));
      return Value::CodeLiteralList(std::move(rule.body));
    }
    case 'M': {
      if (canon.empty()) return Value::CodeTermList({});
      LB_ASSIGN_OR_RETURN(
          datalog::Atom atom,
          datalog::ParseAtomText(util::StrCat("wirelist(", canon, ")")));
      return Value::CodeTermList(std::move(atom.args));
    }
    default:
      return util::ParseError("unknown code payload tag");
  }
}

std::string SerializeValue(const Value& v) {
  std::string payload = Payload(v);
  std::string out(1, KindTag(v));
  out.push_back(':');
  util::AppendLengthPrefixed(&out, payload);
  return out;
}

/// Nested part values ('p' payloads contain a serialized value) recurse;
/// hostile input must not be able to exhaust the stack.
constexpr int kMaxValueDepth = 32;

Result<Value> DeserializeValueDepth(std::string_view text, size_t* consumed,
                                    int depth) {
  if (depth > kMaxValueDepth) {
    return util::ParseError("wire value nesting too deep");
  }
  if (text.size() < 4 || text[1] != ':') {
    return util::ParseError("truncated wire value");
  }
  char kind = text[0];
  // "<len>:<payload>" after the kind tag is the shared length-prefixed
  // framing; the helper validates the length (19-digit cap, overflow,
  // truncation) before any allocation.
  std::string_view rest = text.substr(2);
  std::string_view payload;
  if (!util::ReadLengthPrefixed(&rest, &payload)) {
    return util::ParseError("malformed wire length prefix");
  }
  *consumed = text.size() - rest.size();

  switch (kind) {
    case 'n':
      if (!payload.empty()) return util::ParseError("bad nil payload");
      return Value();
    case 'b':
      if (payload != "1" && payload != "0") {
        return util::ParseError("bad bool payload");
      }
      return Value::Bool(payload == "1");
    case 'i': {
      int64_t v = 0;
      auto [p2, ec2] =
          std::from_chars(payload.data(), payload.data() + payload.size(), v);
      if (ec2 != std::errc() || p2 != payload.data() + payload.size()) {
        return util::ParseError("bad int payload");
      }
      return Value::Int(v);
    }
    case 'd': {
      // std::from_chars for doubles is missing on some libstdc++ targets;
      // strtod on a bounded copy with full-consumption + range checks.
      std::string buf(payload);
      if (buf.empty()) return util::ParseError("bad double payload");
      errno = 0;
      char* end = nullptr;
      double v = std::strtod(buf.c_str(), &end);
      if (end != buf.c_str() + buf.size() || errno == ERANGE) {
        return util::ParseError("bad double payload");
      }
      return Value::Double(v);
    }
    case 's':
      return Value::Str(std::string(payload));
    case 'y':
      return Value::Sym(std::string(payload));
    case 'c':
      return ParseCodePayload(payload);
    case 'p': {
      size_t sep = payload.find(':');
      if (sep == std::string_view::npos) {
        return util::ParseError("malformed part payload");
      }
      size_t inner_consumed = 0;
      LB_ASSIGN_OR_RETURN(
          Value key, DeserializeValueDepth(payload.substr(sep + 1),
                                           &inner_consumed, depth + 1));
      if (inner_consumed != payload.size() - sep - 1) {
        return util::ParseError("trailing bytes in part payload");
      }
      return Value::Part(std::string(payload.substr(0, sep)), std::move(key));
    }
    default:
      return util::ParseError(util::StrCat("unknown wire kind '", kind, "'"));
  }
}

/// Shared "<decimal>:" framing (see util::ReadDecimalCount); 19 digits is
/// the size_t cap.
bool ReadCount(std::string_view* text, size_t* out) {
  return util::ReadDecimalCount(text, out, 19);
}

}  // namespace

std::string SerializeTupleBlock(const std::vector<Tuple>& tuples) {
  // Dictionary: first occurrence wins; identity is the serialized form
  // (exactly the per-value wire codec, so nothing new to trust).
  std::vector<std::string> dict;
  std::unordered_map<std::string, size_t> index;
  std::string rows;
  for (const Tuple& tuple : tuples) {
    rows += std::to_string(tuple.size());
    rows.push_back(':');
    for (const Value& v : tuple) {
      std::string serialized = SerializeValue(v);
      auto [it, fresh] = index.try_emplace(std::move(serialized), dict.size());
      if (fresh) dict.push_back(it->first);
      rows += std::to_string(it->second);
      rows.push_back(':');
    }
  }
  std::string out = "B:";
  out += std::to_string(dict.size());
  out.push_back(':');
  for (const std::string& entry : dict) out += entry;
  out += std::to_string(tuples.size());
  out.push_back(':');
  out += rows;
  return out;
}

Result<std::vector<Tuple>> DeserializeTupleBlock(std::string_view text) {
  if (text.size() < 2 || text[0] != 'B' || text[1] != ':') {
    return util::ParseError("not a tuple block");
  }
  text.remove_prefix(2);
  size_t dict_count = 0;
  if (!ReadCount(&text, &dict_count)) {
    return util::ParseError("block: missing dictionary count");
  }
  // Every serialized value is at least 4 bytes ("n:0:"); reject forged
  // counts before reserving memory.
  if (dict_count > text.size()) {
    return util::ParseError("block: dictionary count exceeds input size");
  }
  std::vector<Value> dict;
  dict.reserve(dict_count);
  for (size_t i = 0; i < dict_count; ++i) {
    size_t consumed = 0;
    LB_ASSIGN_OR_RETURN(Value v,
                        DeserializeValueDepth(text, &consumed, /*depth=*/0));
    dict.push_back(std::move(v));
    text.remove_prefix(consumed);
  }
  size_t row_count = 0;
  if (!ReadCount(&text, &row_count)) {
    return util::ParseError("block: missing row count");
  }
  if (row_count > text.size()) {
    return util::ParseError("block: row count exceeds input size");
  }
  std::vector<Tuple> out;
  out.reserve(row_count);
  for (size_t r = 0; r < row_count; ++r) {
    size_t arity = 0;
    if (!ReadCount(&text, &arity) || arity > 64) {
      return util::ParseError("block: bad row arity");
    }
    Tuple tuple;
    tuple.reserve(arity);
    for (size_t i = 0; i < arity; ++i) {
      size_t idx = 0;
      if (!ReadCount(&text, &idx)) {
        return util::ParseError("block: bad dictionary index");
      }
      if (idx >= dict.size()) {
        return util::ParseError("block: dictionary index out of range");
      }
      tuple.push_back(dict[idx]);
    }
    out.push_back(std::move(tuple));
  }
  if (!text.empty()) return util::ParseError("block: trailing bytes");
  return out;
}

}  // namespace lbtrust::net
