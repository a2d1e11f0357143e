#include "datalog/parser.h"

#include <memory>

#include "datalog/lexer.h"
#include "datalog/pretty.h"
#include "util/strings.h"

namespace lbtrust::datalog {

using util::ParseError;
using util::Result;
using util::Status;

namespace {

/// Body formula tree, flattened to DNF before rule construction.
struct Formula {
  enum class Kind { kLit, kAnd, kOr, kNot };
  Kind kind = Kind::kLit;
  Literal lit;
  std::vector<Formula> children;

  static Formula Lit(Literal l) {
    Formula f;
    f.kind = Kind::kLit;
    f.lit = std::move(l);
    return f;
  }
  static Formula Node(Kind kind, std::vector<Formula> ch) {
    Formula f;
    f.kind = kind;
    f.children = std::move(ch);
    return f;
  }
};

// Negation-normal-form: push kNot down to literals.
Formula ToNnf(const Formula& f, bool negate) {
  switch (f.kind) {
    case Formula::Kind::kLit: {
      Formula out = f;
      if (negate) out.lit.negated = !out.lit.negated;
      return out;
    }
    case Formula::Kind::kNot:
      return ToNnf(f.children[0], !negate);
    case Formula::Kind::kAnd:
    case Formula::Kind::kOr: {
      bool is_and = (f.kind == Formula::Kind::kAnd) != negate;
      std::vector<Formula> ch;
      ch.reserve(f.children.size());
      for (const Formula& c : f.children) ch.push_back(ToNnf(c, negate));
      return Formula::Node(is_and ? Formula::Kind::kAnd : Formula::Kind::kOr,
                           std::move(ch));
    }
  }
  return f;
}

// NNF -> DNF (list of conjunctions).
std::vector<std::vector<Literal>> ToDnf(const Formula& f) {
  switch (f.kind) {
    case Formula::Kind::kLit:
      return {{f.lit}};
    case Formula::Kind::kOr: {
      std::vector<std::vector<Literal>> out;
      for (const Formula& c : f.children) {
        auto sub = ToDnf(c);
        out.insert(out.end(), sub.begin(), sub.end());
      }
      return out;
    }
    case Formula::Kind::kAnd: {
      std::vector<std::vector<Literal>> acc = {{}};
      for (const Formula& c : f.children) {
        auto sub = ToDnf(c);
        std::vector<std::vector<Literal>> next;
        next.reserve(acc.size() * sub.size());
        for (const auto& a : acc) {
          for (const auto& s : sub) {
            std::vector<Literal> merged = a;
            merged.insert(merged.end(), s.begin(), s.end());
            next.push_back(std::move(merged));
          }
        }
        acc = std::move(next);
      }
      return acc;
    }
    case Formula::Kind::kNot:
      break;  // eliminated by NNF
  }
  return {};
}

class Parser {
 public:
  Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<std::vector<ParsedClause>> ParseProgram() {
    std::vector<ParsedClause> out;
    while (!At(TokenKind::kEnd)) {
      LB_ASSIGN_OR_RETURN(ParsedClause clause, ParseClause());
      out.push_back(std::move(clause));
    }
    return out;
  }

  Result<ParsedClause> ParseClause() {
    std::string label;
    if (At(TokenKind::kIdent) && AtAhead(1, TokenKind::kColon)) {
      label = Cur().text;
      Next();
      Next();
    }
    LB_ASSIGN_OR_RETURN(Formula head, ParseFormula());
    ParsedClause clause;
    if (At(TokenKind::kDot)) {
      // Fact(s): conjunction of ground-at-heart atoms.
      Next();
      LB_ASSIGN_OR_RETURN(std::vector<Atom> heads, FormulaToHeads(head));
      Rule rule;
      rule.label = label;
      rule.heads = std::move(heads);
      clause.kind = ParsedClause::Kind::kRule;
      clause.rules.push_back(std::move(rule));
      return clause;
    }
    if (At(TokenKind::kArrowLeft)) {
      Next();
      LB_ASSIGN_OR_RETURN(std::vector<Atom> heads, FormulaToHeads(head));
      std::optional<Aggregate> agg;
      if (At(TokenKind::kIdent) && Cur().text == "agg") {
        LB_ASSIGN_OR_RETURN(agg, ParseAggregate());
      }
      LB_ASSIGN_OR_RETURN(Formula body, ParseFormula());
      LB_RETURN_IF_ERROR(Expect(TokenKind::kDot));
      auto alts = ToDnf(ToNnf(body, false));
      if (agg.has_value() && alts.size() != 1) {
        return Error("aggregate rules may not contain disjunction");
      }
      clause.kind = ParsedClause::Kind::kRule;
      for (auto& alt : alts) {
        Rule rule;
        rule.label = label;
        rule.heads = heads;
        rule.body = std::move(alt);
        rule.aggregate = agg;
        clause.rules.push_back(std::move(rule));
      }
      return clause;
    }
    if (At(TokenKind::kArrowRight)) {
      Next();
      std::vector<std::vector<Literal>> rhs_dnf;
      if (!At(TokenKind::kDot)) {
        LB_ASSIGN_OR_RETURN(Formula rhs, ParseFormula());
        rhs_dnf = ToDnf(ToNnf(rhs, false));
      }
      LB_RETURN_IF_ERROR(Expect(TokenKind::kDot));
      auto lhs_alts = ToDnf(ToNnf(head, false));
      clause.kind = ParsedClause::Kind::kConstraint;
      for (auto& lhs : lhs_alts) {
        Constraint c;
        c.label = label;
        c.lhs = std::move(lhs);
        c.rhs_dnf = rhs_dnf;
        c.display = PrintConstraintSource(c);
        clause.constraints.push_back(std::move(c));
      }
      return clause;
    }
    return Error(util::StrCat("expected '.', '<-' or '->', got ",
                              TokenKindName(Cur().kind)));
  }

  Result<Rule> ParseSingleRule() {
    LB_ASSIGN_OR_RETURN(ParsedClause clause, ParseClause());
    if (clause.kind != ParsedClause::Kind::kRule || clause.rules.size() != 1) {
      return Error("expected a single rule or fact");
    }
    if (!At(TokenKind::kEnd)) return Error("trailing input after rule");
    return std::move(clause.rules[0]);
  }

  Result<Atom> ParseSingleAtom() {
    LB_ASSIGN_OR_RETURN(Literal lit, ParseLiteral());
    if (lit.negated) return Error("expected a positive atom");
    if (!At(TokenKind::kEnd)) return Error("trailing input after atom");
    return std::move(lit.atom);
  }

  Result<Term> ParseSingleTerm() {
    LB_ASSIGN_OR_RETURN(Term t, ParseTerm());
    if (!At(TokenKind::kEnd)) return Error("trailing input after term");
    return t;
  }

  // ---- Binder / SeNDlog surface syntax ------------------------------------

  Result<std::vector<SurfaceUnit>> ParseSurface() {
    std::vector<SurfaceUnit> units;
    units.emplace_back();
    while (!At(TokenKind::kEnd)) {
      // "At S:" / "at alice:" context header.
      bool at_header =
          ((At(TokenKind::kVar) && Cur().text == "At") ||
           (At(TokenKind::kIdent) && Cur().text == "at")) &&
          (AtAhead(1, TokenKind::kVar) || AtAhead(1, TokenKind::kIdent)) &&
          AtAhead(2, TokenKind::kColon);
      if (at_header) {
        Next();
        SurfaceUnit unit;
        unit.context = Cur().text;
        unit.context_is_variable = At(TokenKind::kVar);
        Next();
        Next();  // ':'
        units.push_back(std::move(unit));
        continue;
      }
      LB_ASSIGN_OR_RETURN(Rule rule, ParseSurfaceClause());
      units.back().rules.push_back(std::move(rule));
    }
    // Drop an empty header-less prefix.
    if (units.size() > 1 && units.front().rules.empty()) {
      units.erase(units.begin());
    }
    return units;
  }

  Result<Rule> ParseSurfaceClause() {
    Rule rule;
    if (At(TokenKind::kIdent) && AtAhead(1, TokenKind::kColon)) {
      rule.label = Cur().text;
      Next();
      Next();
    }
    // Heads: atom [@ dest] (, atom [@ dest])*
    while (true) {
      LB_ASSIGN_OR_RETURN(Literal lit, ParseLiteral());
      if (lit.negated) return Error("negation is not allowed in heads");
      if (At(TokenKind::kAt)) {
        Next();
        LB_ASSIGN_OR_RETURN(Term dest, ParseTerm());
        rule.heads.push_back(MakeSaysAtom(Term::Me(), std::move(dest),
                                          std::move(lit.atom)));
      } else {
        rule.heads.push_back(std::move(lit.atom));
      }
      if (!At(TokenKind::kComma)) break;
      Next();
    }
    if (At(TokenKind::kDot)) {
      Next();
      return rule;
    }
    if (!At(TokenKind::kColonDash) && !At(TokenKind::kArrowLeft)) {
      return Error("expected ':-', '<-' or '.'");
    }
    Next();
    if (At(TokenKind::kIdent) && Cur().text == "agg") {
      LB_ASSIGN_OR_RETURN(rule.aggregate, ParseAggregate());
    }
    // Body: [!] literal | <prin> says atom, comma-separated.
    while (true) {
      bool negated = false;
      if (At(TokenKind::kBang)) {
        negated = true;
        Next();
      }
      bool says_form =
          (At(TokenKind::kVar) || At(TokenKind::kIdent)) &&
          AtAhead(1, TokenKind::kIdent) && Ahead(1).text == "says";
      if (says_form) {
        Term prin = At(TokenKind::kVar) ? Term::Variable(Cur().text)
                    : Cur().text == "me"
                        ? Term::Me()
                        : Term::Constant(Value::Sym(Cur().text));
        Next();
        Next();  // 'says'
        LB_ASSIGN_OR_RETURN(Literal lit, ParseLiteral());
        if (lit.negated) return Error("'says' atom cannot be negated here");
        rule.body.push_back(Literal{
            MakeSaysAtom(std::move(prin), Term::Me(), std::move(lit.atom)),
            negated});
      } else {
        LB_ASSIGN_OR_RETURN(Literal lit, ParseLiteral());
        lit.negated = lit.negated || negated;
        rule.body.push_back(std::move(lit));
      }
      if (At(TokenKind::kComma)) {
        Next();
        continue;
      }
      break;
    }
    LB_RETURN_IF_ERROR(Expect(TokenKind::kDot));
    return rule;
  }

  // says(<from>, <to>, [| atom. |])
  static Atom MakeSaysAtom(Term from, Term to, Atom payload) {
    Rule quoted;
    quoted.heads.push_back(std::move(payload));
    Atom says;
    says.predicate = "says";
    says.args.push_back(std::move(from));
    says.args.push_back(std::move(to));
    says.args.push_back(Term::Constant(
        Value::CodeRule(std::make_shared<const Rule>(std::move(quoted)))));
    return says;
  }

 private:
  const Token& Cur() const { return tokens_[pos_]; }
  const Token& Ahead(size_t n) const {
    size_t i = pos_ + n;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  bool At(TokenKind kind) const { return Cur().kind == kind; }
  bool AtAhead(size_t n, TokenKind kind) const {
    return Ahead(n).kind == kind;
  }
  void Next() {
    if (pos_ + 1 < tokens_.size()) ++pos_;
  }

  Status Error(std::string msg) const {
    return ParseError(util::StrCat(msg, " at line ", Cur().line, " column ",
                                   Cur().column));
  }

  Status Expect(TokenKind kind) {
    if (!At(kind)) {
      return Error(util::StrCat("expected ", TokenKindName(kind), ", got ",
                                TokenKindName(Cur().kind)));
    }
    Next();
    return util::OkStatus();
  }

  // ---- formulas -----------------------------------------------------------

  Result<Formula> ParseFormula() { return ParseOr(); }

  Result<Formula> ParseOr() {
    LB_ASSIGN_OR_RETURN(Formula first, ParseAnd());
    if (!At(TokenKind::kSemi)) return first;
    std::vector<Formula> children;
    children.push_back(std::move(first));
    while (At(TokenKind::kSemi)) {
      Next();
      LB_ASSIGN_OR_RETURN(Formula next, ParseAnd());
      children.push_back(std::move(next));
    }
    return Formula::Node(Formula::Kind::kOr, std::move(children));
  }

  Result<Formula> ParseAnd() {
    LB_ASSIGN_OR_RETURN(Formula first, ParseUnary());
    if (!At(TokenKind::kComma)) return first;
    std::vector<Formula> children;
    children.push_back(std::move(first));
    while (At(TokenKind::kComma)) {
      Next();
      LB_ASSIGN_OR_RETURN(Formula next, ParseUnary());
      children.push_back(std::move(next));
    }
    return Formula::Node(Formula::Kind::kAnd, std::move(children));
  }

  Result<Formula> ParseUnary() {
    if (At(TokenKind::kBang)) {
      Next();
      LB_ASSIGN_OR_RETURN(Formula inner, ParseUnary());
      std::vector<Formula> ch;
      ch.push_back(std::move(inner));
      return Formula::Node(Formula::Kind::kNot, std::move(ch));
    }
    if (At(TokenKind::kLParen)) {
      // Formula grouping. (A leading '(' never starts a term in this
      // dialect; parenthesized arithmetic may only appear after an operand.)
      Next();
      LB_ASSIGN_OR_RETURN(Formula inner, ParseOr());
      LB_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
      return inner;
    }
    LB_ASSIGN_OR_RETURN(Literal lit, ParseLiteral());
    return Formula::Lit(std::move(lit));
  }

  // ---- literals and atoms -------------------------------------------------

  bool AtComparison() const {
    switch (Cur().kind) {
      case TokenKind::kEq:
      case TokenKind::kNeq:
      case TokenKind::kLt:
      case TokenKind::kLe:
      case TokenKind::kGt:
      case TokenKind::kGe:
        return true;
      default:
        return false;
    }
  }

  static const char* ComparisonName(TokenKind kind) {
    switch (kind) {
      case TokenKind::kEq: return "=";
      case TokenKind::kNeq: return "!=";
      case TokenKind::kLt: return "<";
      case TokenKind::kLe: return "<=";
      case TokenKind::kGt: return ">";
      case TokenKind::kGe: return ">=";
      default: return "?";
    }
  }

  Result<Literal> ParseLiteral() {
    // Predicate atom: IDENT '(' or IDENT '[' key ']' '('.
    if (At(TokenKind::kIdent) && Cur().text != "me") {
      if (AtAhead(1, TokenKind::kLParen) || AtAhead(1, TokenKind::kLBracket)) {
        LB_ASSIGN_OR_RETURN(Atom atom, ParsePredicateAtom());
        return Literal{std::move(atom), false};
      }
    }
    // Meta-functor atom VAR '(': P(T*).
    if (At(TokenKind::kVar) && AtAhead(1, TokenKind::kLParen)) {
      LB_ASSIGN_OR_RETURN(Atom atom, ParseMetaFunctorAtom());
      return Literal{std::move(atom), false};
    }
    // Otherwise a term, then either comparison, star-atom, or meta atom.
    LB_ASSIGN_OR_RETURN(Term lhs, ParseTerm());
    if (AtComparison()) {
      Atom atom;
      atom.predicate = ComparisonName(Cur().kind);
      Next();
      LB_ASSIGN_OR_RETURN(Term rhs, ParseTerm());
      atom.args.push_back(std::move(lhs));
      atom.args.push_back(std::move(rhs));
      return Literal{std::move(atom), false};
    }
    if (lhs.kind == Term::Kind::kStarVar) {
      // A* as an atom position: starred meta atom.
      Atom atom;
      atom.predicate = lhs.var;
      atom.meta_atom = true;
      atom.star = true;
      return Literal{std::move(atom), false};
    }
    if (lhs.is_variable()) {
      // Bare meta atom (quoted-code patterns like `A <- ...`).
      Atom atom;
      atom.predicate = lhs.var;
      atom.meta_atom = true;
      return Literal{std::move(atom), false};
    }
    return Error("expected an atom or comparison");
  }

  Result<Atom> ParsePredicateAtom() {
    Atom atom;
    atom.predicate = Cur().text;
    Next();
    if (At(TokenKind::kLBracket)) {
      Next();
      LB_ASSIGN_OR_RETURN(Term key, ParseTerm());
      LB_RETURN_IF_ERROR(Expect(TokenKind::kRBracket));
      // `int[64]` is the paper's 64-bit integer type, not a partition.
      if (atom.predicate == "int" && key.is_constant() &&
          key.value.kind() == ValueKind::kInt && key.value.AsInt() == 64) {
        atom.predicate = "int64";
      } else {
        atom.partition = std::make_shared<Term>(std::move(key));
      }
    }
    LB_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
    if (!At(TokenKind::kRParen)) {
      while (true) {
        LB_ASSIGN_OR_RETURN(Term arg, ParseTerm());
        atom.args.push_back(std::move(arg));
        if (!At(TokenKind::kComma)) break;
        Next();
      }
    }
    LB_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
    return atom;
  }

  Result<Atom> ParseMetaFunctorAtom() {
    Atom atom;
    atom.predicate = Cur().text;
    atom.meta_functor = true;
    Next();
    LB_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
    if (!At(TokenKind::kRParen)) {
      while (true) {
        LB_ASSIGN_OR_RETURN(Term arg, ParseTerm());
        atom.args.push_back(std::move(arg));
        if (!At(TokenKind::kComma)) break;
        Next();
      }
    }
    LB_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
    return atom;
  }

  // ---- terms ---------------------------------------------------------------

  Result<Term> ParseTerm() { return ParseAdditive(); }

  Result<Term> ParseAdditive() {
    LB_ASSIGN_OR_RETURN(Term lhs, ParseMultiplicative());
    while (At(TokenKind::kPlus) || At(TokenKind::kMinus)) {
      char op = At(TokenKind::kPlus) ? '+' : '-';
      Next();
      LB_ASSIGN_OR_RETURN(Term rhs, ParseMultiplicative());
      lhs = Term::Expr(op, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  bool StartsTerm(const Token& tok) const {
    switch (tok.kind) {
      case TokenKind::kIdent:
      case TokenKind::kVar:
      case TokenKind::kUnderscore:
      case TokenKind::kInt:
      case TokenKind::kFloat:
      case TokenKind::kString:
      case TokenKind::kQuoteOpen:
      case TokenKind::kLParen:
        return true;
      default:
        return false;
    }
  }

  Result<Term> ParseMultiplicative() {
    LB_ASSIGN_OR_RETURN(Term lhs, ParsePrimary());
    while (true) {
      if (At(TokenKind::kSlash)) {
        Next();
        LB_ASSIGN_OR_RETURN(Term rhs, ParsePrimary());
        lhs = Term::Expr('/', std::move(lhs), std::move(rhs));
      } else if (At(TokenKind::kStar) && StartsTerm(Ahead(1))) {
        // 'X * Y' multiplication; 'T*' (star followed by a delimiter) is a
        // Kleene-star pattern handled in ParsePrimary.
        Next();
        LB_ASSIGN_OR_RETURN(Term rhs, ParsePrimary());
        lhs = Term::Expr('*', std::move(lhs), std::move(rhs));
      } else {
        break;
      }
    }
    return lhs;
  }

  Result<Term> ParsePrimary() {
    switch (Cur().kind) {
      case TokenKind::kInt: {
        Term t = Term::Constant(Value::Int(Cur().int_value));
        Next();
        return t;
      }
      case TokenKind::kFloat: {
        Term t = Term::Constant(Value::Double(Cur().float_value));
        Next();
        return t;
      }
      case TokenKind::kString: {
        Term t = Term::Constant(Value::Str(Cur().text));
        Next();
        return t;
      }
      case TokenKind::kMinus: {
        Next();
        LB_ASSIGN_OR_RETURN(Term inner, ParsePrimary());
        if (inner.is_constant() && inner.value.kind() == ValueKind::kInt) {
          return Term::Constant(Value::Int(-inner.value.AsInt()));
        }
        if (inner.is_constant() && inner.value.kind() == ValueKind::kDouble) {
          return Term::Constant(Value::Double(-inner.value.AsDouble()));
        }
        return Term::Expr('-', Term::Constant(Value::Int(0)),
                          std::move(inner));
      }
      case TokenKind::kUnderscore: {
        Next();
        return Term::Variable(util::StrCat("_G", anon_counter_++));
      }
      case TokenKind::kVar: {
        std::string name = Cur().text;
        Next();
        if (At(TokenKind::kStar) && !StartsTerm(Ahead(1))) {
          Next();
          return Term::StarVar(std::move(name));
        }
        return Term::Variable(std::move(name));
      }
      case TokenKind::kIdent: {
        std::string name = Cur().text;
        if (name == "me") {
          Next();
          return Term::Me();
        }
        Next();
        if (At(TokenKind::kLBracket)) {
          // Partition reference in term position: export[P].
          Next();
          LB_ASSIGN_OR_RETURN(Term key, ParseTerm());
          LB_RETURN_IF_ERROR(Expect(TokenKind::kRBracket));
          return Term::PartRef(std::move(name), std::move(key));
        }
        return Term::Constant(Value::Sym(std::move(name)));
      }
      case TokenKind::kQuoteOpen:
        return ParseQuotedCode();
      case TokenKind::kLParen: {
        Next();
        LB_ASSIGN_OR_RETURN(Term inner, ParseAdditive());
        LB_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
        return inner;
      }
      default:
        return Error(util::StrCat("expected a term, got ",
                                  TokenKindName(Cur().kind)));
    }
  }

  /// `[| clause |]` — the clause may be a rule, a fact (trailing dot
  /// optional for a single atom), and may itself contain quoted code.
  Result<Term> ParseQuotedCode() {
    LB_RETURN_IF_ERROR(Expect(TokenKind::kQuoteOpen));
    LB_ASSIGN_OR_RETURN(Formula head, ParseFormula());
    Rule rule;
    LB_ASSIGN_OR_RETURN(rule.heads, FormulaToHeads(head));
    if (At(TokenKind::kArrowLeft)) {
      Next();
      if (At(TokenKind::kIdent) && Cur().text == "agg") {
        LB_ASSIGN_OR_RETURN(rule.aggregate, ParseAggregate());
      }
      LB_ASSIGN_OR_RETURN(Formula body, ParseFormula());
      auto alts = ToDnf(ToNnf(body, false));
      if (alts.size() != 1) {
        return Error("quoted code may not contain disjunction");
      }
      rule.body = std::move(alts[0]);
    }
    if (At(TokenKind::kDot)) Next();
    LB_RETURN_IF_ERROR(Expect(TokenKind::kQuoteClose));
    return Term::Constant(
        Value::CodeRule(std::make_shared<const Rule>(std::move(rule))));
  }

  Result<Aggregate> ParseAggregate() {
    // agg<<N = count(U)>>
    Next();  // 'agg'
    LB_RETURN_IF_ERROR(Expect(TokenKind::kAggOpen));
    if (!At(TokenKind::kVar)) return Error("expected aggregate result var");
    Aggregate agg;
    agg.result_var = Cur().text;
    Next();
    LB_RETURN_IF_ERROR(Expect(TokenKind::kEq));
    if (!At(TokenKind::kIdent)) return Error("expected aggregate function");
    std::string fn = Cur().text;
    Next();
    if (fn == "count") {
      agg.fn = Aggregate::Fn::kCount;
    } else if (fn == "total") {
      agg.fn = Aggregate::Fn::kTotal;
    } else if (fn == "min") {
      agg.fn = Aggregate::Fn::kMin;
    } else if (fn == "max") {
      agg.fn = Aggregate::Fn::kMax;
    } else {
      return Error(util::StrCat("unknown aggregate function '", fn, "'"));
    }
    LB_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
    if (!At(TokenKind::kVar)) return Error("expected aggregate input var");
    agg.input_var = Cur().text;
    Next();
    LB_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
    LB_RETURN_IF_ERROR(Expect(TokenKind::kAggClose));
    return agg;
  }

  /// Head formulas must be plain conjunctions of positive atoms.
  Result<std::vector<Atom>> FormulaToHeads(const Formula& f) {
    std::vector<Atom> heads;
    Status st = CollectHeads(f, &heads);
    if (!st.ok()) return st;
    return heads;
  }

  Status CollectHeads(const Formula& f, std::vector<Atom>* out) {
    switch (f.kind) {
      case Formula::Kind::kLit:
        if (f.lit.negated) return Error("negation is not allowed in heads");
        out->push_back(f.lit.atom);
        return util::OkStatus();
      case Formula::Kind::kAnd:
        for (const Formula& c : f.children) {
          LB_RETURN_IF_ERROR(CollectHeads(c, out));
        }
        return util::OkStatus();
      default:
        return Error("heads must be conjunctions of atoms");
    }
  }

  static std::string PrintConstraintSource(const Constraint& c) {
    return PrintConstraint(c);
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  int anon_counter_ = 0;
};

}  // namespace

Result<std::vector<ParsedClause>> ParseProgram(std::string_view source) {
  LB_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(source));
  return Parser(std::move(tokens)).ParseProgram();
}

Result<std::vector<RoutedClause>> RouteProgram(std::string_view program,
                                               const std::string& principal) {
  LB_ASSIGN_OR_RETURN(std::vector<ParsedClause> clauses,
                      ParseProgram(program));
  auto resolve = [&principal](const std::vector<Literal>& lits) {
    std::vector<Literal> out;
    out.reserve(lits.size());
    for (const Literal& l : lits) {
      out.push_back(Literal{ResolveMeAtom(l.atom, principal), l.negated});
    }
    return out;
  };
  std::vector<RoutedClause> routed;
  for (ParsedClause& clause : clauses) {
    for (Rule& rule : clause.rules) {
      Rule resolved = ResolveMeRule(rule, principal);
      if (resolved.heads.size() == 1 &&
          resolved.heads[0].predicate == "fail" &&
          resolved.heads[0].args.empty() && !resolved.body.empty()) {
        RoutedClause item;
        item.kind = RoutedClause::Kind::kFailConstraint;
        item.constraint.label = resolved.label;
        item.constraint.display = PrintRule(resolved);
        item.constraint.lhs = std::move(resolved.body);
        routed.push_back(std::move(item));
        continue;
      }
      for (Rule& single : SplitHeads(std::move(resolved))) {
        RoutedClause item;
        item.rule = std::move(single);
        routed.push_back(std::move(item));
      }
    }
    for (const Constraint& c : clause.constraints) {
      RoutedClause item;
      item.kind = RoutedClause::Kind::kConstraint;
      item.constraint.label = c.label;
      item.constraint.display = c.display;
      item.constraint.lhs = resolve(c.lhs);
      for (const auto& alt : c.rhs_dnf) {
        item.constraint.rhs_dnf.push_back(resolve(alt));
      }
      routed.push_back(std::move(item));
    }
  }
  return routed;
}

Result<Rule> ParseRuleText(std::string_view source) {
  LB_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(source));
  return Parser(std::move(tokens)).ParseSingleRule();
}

Result<Atom> ParseAtomText(std::string_view source) {
  LB_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(source));
  return Parser(std::move(tokens)).ParseSingleAtom();
}

Result<Term> ParseTermText(std::string_view source) {
  LB_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(source));
  return Parser(std::move(tokens)).ParseSingleTerm();
}

Result<std::vector<SurfaceUnit>> ParseSurfaceProgram(std::string_view source) {
  LB_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(source));
  return Parser(std::move(tokens)).ParseSurface();
}

}  // namespace lbtrust::datalog
