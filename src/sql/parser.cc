#include "sql/parser.h"

#include <utility>

namespace ovc::sql {

namespace {

/// Token-stream cursor with the usual accept/expect helpers. Productions
/// return false after stashing the error; the public entry points convert
/// to SqlResult.
class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  bool ParseStatement(Statement* out) {
    out->explain = AcceptKeyword("EXPLAIN");
    if (out->explain) out->analyze = AcceptKeyword("ANALYZE");
    if (!ParseSelectStmt(&out->select)) return false;
    Accept(TokenType::kSemicolon);
    return true;
  }

  bool AtEnd() const { return Peek().type == TokenType::kEnd; }

  bool ExpectEnd() {
    if (AtEnd()) return true;
    return Fail(Peek(), "unexpected input after statement");
  }

  /// Skips stray semicolons between script statements.
  void SkipSemicolons() {
    while (Accept(TokenType::kSemicolon)) {
    }
  }

  const SqlError& error() const { return error_; }

 private:
  const Token& Peek() const { return tokens_[pos_]; }
  const Token& Advance() { return tokens_[pos_++]; }

  bool Accept(TokenType type) {
    if (Peek().type != type) return false;
    ++pos_;
    return true;
  }

  bool AcceptKeyword(std::string_view kw) {
    if (!Peek().IsKeyword(kw)) return false;
    ++pos_;
    return true;
  }

  bool Fail(const Token& at, std::string message) {
    error_.message = std::move(message);
    error_.line = at.line;
    error_.column = at.column;
    error_.token = at.text;
    return false;
  }

  bool ExpectKeyword(std::string_view kw) {
    if (AcceptKeyword(kw)) return true;
    return Fail(Peek(), "expected " + std::string(kw));
  }

  bool Expect(TokenType type, const char* what) {
    if (Accept(type)) return true;
    return Fail(Peek(), std::string("expected ") + what);
  }

  bool ParseSelectStmt(SelectStmt* out) {
    if (!ParseSelectCore(&out->first)) return false;
    for (;;) {
      SetOpClause clause;
      clause.token = Peek();
      if (AcceptKeyword("UNION")) {
        clause.kind = SetOpKind::kUnion;
      } else if (AcceptKeyword("INTERSECT")) {
        clause.kind = SetOpKind::kIntersect;
      } else if (AcceptKeyword("EXCEPT")) {
        clause.kind = SetOpKind::kExcept;
      } else {
        break;
      }
      clause.all = AcceptKeyword("ALL");
      if (!ParseSelectCore(&clause.select)) return false;
      out->set_ops.push_back(std::move(clause));
    }
    if (AcceptKeyword("ORDER")) {
      if (!ExpectKeyword("BY")) return false;
      do {
        OrderItem item;
        if (!ParseColumnRef(&item.column)) return false;
        if (AcceptKeyword("DESC")) {
          item.descending = true;
        } else {
          AcceptKeyword("ASC");
        }
        out->order_by.push_back(std::move(item));
      } while (Accept(TokenType::kComma));
    }
    if (AcceptKeyword("LIMIT")) {
      if (Peek().type != TokenType::kInteger) {
        return Fail(Peek(), "expected integer after LIMIT");
      }
      out->has_limit = true;
      out->limit = Advance().int_value;
    }
    return true;
  }

  bool ParseSelectCore(SelectCore* out) {
    if (!ExpectKeyword("SELECT")) return false;
    out->distinct = AcceptKeyword("DISTINCT");
    if (Accept(TokenType::kStar)) {
      out->select_star = true;
    } else {
      do {
        SelectItem item;
        if (!ParseSelectItem(&item)) return false;
        out->items.push_back(std::move(item));
      } while (Accept(TokenType::kComma));
    }
    if (!ExpectKeyword("FROM")) return false;
    if (!ParseTableRef(&out->from)) return false;
    while (Peek().IsKeyword("INNER") || Peek().IsKeyword("JOIN")) {
      JoinClause join;
      AcceptKeyword("INNER");
      if (!ExpectKeyword("JOIN")) return false;
      if (!ParseTableRef(&join.table)) return false;
      if (!ExpectKeyword("ON")) return false;
      do {
        std::pair<ColumnRef, ColumnRef> eq;
        if (!ParseColumnRef(&eq.first)) return false;
        if (!Expect(TokenType::kEq, "= in join condition")) return false;
        if (!ParseColumnRef(&eq.second)) return false;
        join.on.push_back(std::move(eq));
      } while (AcceptKeyword("AND"));
      out->joins.push_back(std::move(join));
    }
    if (AcceptKeyword("WHERE")) {
      do {
        Comparison cmp;
        if (!ParseComparison(&cmp)) return false;
        out->where.push_back(std::move(cmp));
      } while (AcceptKeyword("AND"));
    }
    if (AcceptKeyword("GROUP")) {
      if (!ExpectKeyword("BY")) return false;
      do {
        ColumnRef col;
        if (!ParseColumnRef(&col)) return false;
        out->group_by.push_back(std::move(col));
      } while (Accept(TokenType::kComma));
    }
    return true;
  }

  bool ParseSelectItem(SelectItem* out) {
    out->token = Peek();
    const Token& head = Peek();
    if (head.type == TokenType::kKeyword &&
        (head.normalized == "COUNT" || head.normalized == "SUM" ||
         head.normalized == "MIN" || head.normalized == "MAX")) {
      out->is_aggregate = true;
      const std::string fn = Advance().normalized;
      if (!Expect(TokenType::kLParen, "( after aggregate function")) {
        return false;
      }
      if (fn == "COUNT") {
        if (Accept(TokenType::kStar)) {
          out->agg = AggKind::kCount;
          out->agg_star = true;
        } else if (AcceptKeyword("DISTINCT")) {
          out->agg = AggKind::kCountDistinct;
          if (!ParseColumnRef(&out->column)) return false;
        } else {
          out->agg = AggKind::kCount;
          if (!ParseColumnRef(&out->column)) return false;
        }
      } else {
        out->agg = fn == "SUM" ? AggKind::kSum
                 : fn == "MIN" ? AggKind::kMin
                               : AggKind::kMax;
        if (!ParseColumnRef(&out->column)) return false;
      }
      if (!Expect(TokenType::kRParen, ") after aggregate argument")) {
        return false;
      }
    } else {
      if (!ParseColumnRef(&out->column)) return false;
    }
    if (AcceptKeyword("AS")) {
      if (Peek().type != TokenType::kIdentifier) {
        return Fail(Peek(), "expected alias after AS");
      }
      out->alias = Advance().normalized;
    } else if (Peek().type == TokenType::kIdentifier) {
      out->alias = Advance().normalized;  // bare alias: SELECT a total
    }
    return true;
  }

  bool ParseTableRef(TableRef* out) {
    out->token = Peek();
    if (Peek().type != TokenType::kIdentifier) {
      return Fail(Peek(), "expected table name");
    }
    out->table = Advance().normalized;
    if (AcceptKeyword("AS")) {
      if (Peek().type != TokenType::kIdentifier) {
        return Fail(Peek(), "expected alias after AS");
      }
      out->alias = Advance().normalized;
    } else if (Peek().type == TokenType::kIdentifier) {
      out->alias = Advance().normalized;
    }
    return true;
  }

  bool ParseColumnRef(ColumnRef* out) {
    out->token = Peek();
    if (Peek().type != TokenType::kIdentifier) {
      return Fail(Peek(), "expected column name");
    }
    out->name = Advance().normalized;
    if (Accept(TokenType::kDot)) {
      if (Peek().type != TokenType::kIdentifier) {
        return Fail(Peek(), "expected column name after '.'");
      }
      out->qualifier = std::move(out->name);
      out->name = Advance().normalized;
    }
    return true;
  }

  bool ParseComparison(Comparison* out) {
    if (!ParseComparisonSide(&out->lhs_is_literal, &out->lhs,
                             &out->lhs_literal)) {
      return false;
    }
    out->token = Peek();
    switch (Peek().type) {
      case TokenType::kEq:
        out->op = CompareOp::kEq;
        break;
      case TokenType::kNe:
        out->op = CompareOp::kNe;
        break;
      case TokenType::kLt:
        out->op = CompareOp::kLt;
        break;
      case TokenType::kLe:
        out->op = CompareOp::kLe;
        break;
      case TokenType::kGt:
        out->op = CompareOp::kGt;
        break;
      case TokenType::kGe:
        out->op = CompareOp::kGe;
        break;
      default:
        return Fail(Peek(), "expected comparison operator");
    }
    Advance();
    return ParseComparisonSide(&out->rhs_is_literal, &out->rhs,
                               &out->rhs_literal);
  }

  bool ParseComparisonSide(bool* is_literal, ColumnRef* col,
                           uint64_t* literal) {
    if (Peek().type == TokenType::kInteger) {
      *is_literal = true;
      *literal = Advance().int_value;
      return true;
    }
    *is_literal = false;
    return ParseColumnRef(col);
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  SqlError error_;
};

}  // namespace

SqlResult<Statement> ParseStatement(std::string_view sql) {
  SqlResult<std::vector<Token>> tokens = Tokenize(sql);
  if (!tokens.ok()) return tokens.error();
  return ParseTokens(std::move(tokens).value());
}

SqlResult<Statement> ParseTokens(std::vector<Token> tokens) {
  Parser parser(std::move(tokens));
  Statement stmt;
  if (!parser.ParseStatement(&stmt)) return parser.error();
  if (!parser.ExpectEnd()) return parser.error();
  return stmt;
}

SqlResult<std::vector<Statement>> ParseScript(std::string_view sql) {
  SqlResult<std::vector<Token>> tokens = Tokenize(sql);
  if (!tokens.ok()) return tokens.error();
  Parser parser(std::move(tokens).value());
  std::vector<Statement> statements;
  parser.SkipSemicolons();
  while (!parser.AtEnd()) {
    Statement stmt;
    if (!parser.ParseStatement(&stmt)) return parser.error();
    statements.push_back(std::move(stmt));
    parser.SkipSemicolons();
  }
  return statements;
}

}  // namespace ovc::sql
