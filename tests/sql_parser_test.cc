// SQL lexer + parser tests: token positions, AST structure, the
// ToString round-trip property, and rejection cases with exact error
// positions and caret rendering.

#include <utility>

#include <gtest/gtest.h>

#include "sql/ast.h"
#include "sql/lexer.h"
#include "sql/parser.h"

namespace ovc::sql {
namespace {

TEST(Lexer, TokensAndPositions) {
  auto result = Tokenize("SELECT a,\n  t.b FROM t1;");
  ASSERT_TRUE(result.ok());
  const std::vector<Token>& tokens = result.value();
  ASSERT_EQ(tokens.size(), 10u);  // SELECT a , t . b FROM t1 ; <end>
  EXPECT_EQ(tokens[0].type, TokenType::kKeyword);
  EXPECT_EQ(tokens[0].normalized, "SELECT");
  EXPECT_EQ(tokens[0].line, 1u);
  EXPECT_EQ(tokens[0].column, 1u);
  EXPECT_EQ(tokens[1].type, TokenType::kIdentifier);
  EXPECT_EQ(tokens[1].normalized, "a");
  EXPECT_EQ(tokens[1].column, 8u);
  EXPECT_EQ(tokens[2].type, TokenType::kComma);
  // t.b on line 2, after two leading spaces.
  EXPECT_EQ(tokens[3].line, 2u);
  EXPECT_EQ(tokens[3].column, 3u);
  EXPECT_EQ(tokens[4].type, TokenType::kDot);
  EXPECT_EQ(tokens[5].normalized, "b");
  EXPECT_EQ(tokens[8].type, TokenType::kSemicolon);
  EXPECT_EQ(tokens[9].type, TokenType::kEnd);
}

TEST(Lexer, CaseInsensitivityAndComments) {
  auto result = Tokenize("select A -- trailing comment; with semicolon\nFrOm T");
  ASSERT_TRUE(result.ok());
  const std::vector<Token>& tokens = result.value();
  ASSERT_EQ(tokens.size(), 5u);
  EXPECT_EQ(tokens[0].normalized, "SELECT");
  EXPECT_EQ(tokens[1].normalized, "a");  // identifiers fold to lowercase
  EXPECT_EQ(tokens[1].text, "A");        // raw text preserved for errors
  EXPECT_EQ(tokens[2].normalized, "FROM");
  EXPECT_EQ(tokens[3].normalized, "t");
}

TEST(Lexer, OperatorsAndIntegers) {
  auto result = Tokenize("1 <= 2 <> 18446744073709551615 >=");
  ASSERT_TRUE(result.ok());
  const std::vector<Token>& tokens = result.value();
  EXPECT_EQ(tokens[0].type, TokenType::kInteger);
  EXPECT_EQ(tokens[0].int_value, 1u);
  EXPECT_EQ(tokens[1].type, TokenType::kLe);
  EXPECT_EQ(tokens[3].type, TokenType::kNe);
  EXPECT_EQ(tokens[4].int_value, UINT64_MAX);
  EXPECT_EQ(tokens[5].type, TokenType::kGe);
}

TEST(Lexer, RejectsBadInput) {
  auto bad_char = Tokenize("SELECT a # b");
  ASSERT_FALSE(bad_char.ok());
  EXPECT_EQ(bad_char.error().column, 10u);
  EXPECT_EQ(bad_char.error().token, "#");

  auto overflow = Tokenize("SELECT 18446744073709551616");
  ASSERT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.error().message, "integer literal overflows uint64");

  auto malformed = Tokenize("SELECT 12x");
  ASSERT_FALSE(malformed.ok());
  EXPECT_EQ(malformed.error().message, "malformed number");
}

// --- AST structure ---------------------------------------------------------

Statement MustParse(std::string_view sql) {
  auto result = ParseStatement(sql);
  EXPECT_TRUE(result.ok()) << result.error().ToString();
  return std::move(result).value();
}

TEST(Parser, FullQueryShape) {
  Statement stmt = MustParse(
      "EXPLAIN SELECT DISTINCT o.custkey, COUNT(*) AS n, SUM(l.qty) "
      "FROM orders o INNER JOIN lineitem AS l ON o.orderkey = l.orderkey "
      "WHERE o.custkey < 100 AND l.qty >= 2 "
      "GROUP BY o.custkey ORDER BY n DESC, o.custkey LIMIT 10;");
  EXPECT_TRUE(stmt.explain);
  const SelectCore& core = stmt.select.first;
  EXPECT_TRUE(core.distinct);
  ASSERT_EQ(core.items.size(), 3u);
  EXPECT_FALSE(core.items[0].is_aggregate);
  EXPECT_EQ(core.items[0].column.qualifier, "o");
  EXPECT_EQ(core.items[0].column.name, "custkey");
  EXPECT_TRUE(core.items[1].is_aggregate);
  EXPECT_TRUE(core.items[1].agg_star);
  EXPECT_EQ(core.items[1].alias, "n");
  EXPECT_EQ(core.items[2].agg, AggKind::kSum);
  EXPECT_EQ(core.from.table, "orders");
  EXPECT_EQ(core.from.alias, "o");
  ASSERT_EQ(core.joins.size(), 1u);
  EXPECT_EQ(core.joins[0].table.alias, "l");
  ASSERT_EQ(core.joins[0].on.size(), 1u);
  EXPECT_EQ(core.joins[0].on[0].first.ToString(), "o.orderkey");
  ASSERT_EQ(core.where.size(), 2u);
  EXPECT_EQ(core.where[0].op, CompareOp::kLt);
  EXPECT_TRUE(core.where[0].rhs_is_literal);
  EXPECT_EQ(core.where[0].rhs_literal, 100u);
  ASSERT_EQ(core.group_by.size(), 1u);
  ASSERT_EQ(stmt.select.order_by.size(), 2u);
  EXPECT_TRUE(stmt.select.order_by[0].descending);
  EXPECT_FALSE(stmt.select.order_by[1].descending);
  EXPECT_TRUE(stmt.select.has_limit);
  EXPECT_EQ(stmt.select.limit, 10u);
}

TEST(Parser, CountDistinctAndSetOps) {
  Statement stmt = MustParse(
      "SELECT site, COUNT(DISTINCT visitor) FROM hits GROUP BY site");
  EXPECT_EQ(stmt.select.first.items[1].agg, AggKind::kCountDistinct);

  Statement setop = MustParse(
      "SELECT a FROM t1 INTERSECT SELECT a FROM t2 "
      "UNION ALL SELECT a FROM t3 ORDER BY a");
  ASSERT_EQ(setop.select.set_ops.size(), 2u);
  EXPECT_EQ(setop.select.set_ops[0].kind, SetOpKind::kIntersect);
  EXPECT_FALSE(setop.select.set_ops[0].all);
  EXPECT_EQ(setop.select.set_ops[1].kind, SetOpKind::kUnion);
  EXPECT_TRUE(setop.select.set_ops[1].all);
  EXPECT_EQ(setop.select.order_by.size(), 1u);
}

TEST(Parser, ExplainAnalyze) {
  Statement stmt = MustParse("EXPLAIN ANALYZE SELECT a FROM t");
  EXPECT_TRUE(stmt.explain);
  EXPECT_TRUE(stmt.analyze);

  // Plain EXPLAIN does not set analyze; ANALYZE alone is not a keyword
  // prefix (it binds to EXPLAIN only).
  Statement plain = MustParse("EXPLAIN SELECT a FROM t");
  EXPECT_TRUE(plain.explain);
  EXPECT_FALSE(plain.analyze);
}

// --- Round trip ------------------------------------------------------------

void CheckRoundTrip(std::string_view sql) {
  Statement first = MustParse(sql);
  const std::string rendered = first.ToString();
  Statement second = MustParse(rendered);
  // Canonical rendering is a fixed point: parse(render(parse(s)))
  // renders identically.
  EXPECT_EQ(rendered, second.ToString()) << "input: " << sql;
}

TEST(Parser, ToStringRoundTrip) {
  CheckRoundTrip("SELECT * FROM t");
  CheckRoundTrip("select a, b c from t where a=1 and b!=c");
  CheckRoundTrip(
      "SELECT DISTINCT a.x, COUNT(*) AS n FROM t1 a INNER JOIN t2 b "
      "ON a.x = b.y AND a.z = b.w GROUP BY a.x ORDER BY n DESC LIMIT 7");
  CheckRoundTrip("SELECT COUNT(DISTINCT v) AS dv FROM hits GROUP BY site");
  CheckRoundTrip("SELECT MIN(a), MAX(b), SUM(c), COUNT(d) FROM t GROUP BY e");
  CheckRoundTrip(
      "SELECT a FROM t1 EXCEPT ALL SELECT a FROM t2 ORDER BY a DESC LIMIT 1");
  CheckRoundTrip("SELECT a FROM t WHERE 5 <= a AND a <> 7");
  CheckRoundTrip("EXPLAIN ANALYZE SELECT a, COUNT(*) AS n FROM t GROUP BY a");
}

// --- Errors ----------------------------------------------------------------

SqlError MustFail(std::string_view sql) {
  auto result = ParseStatement(sql);
  EXPECT_FALSE(result.ok()) << "unexpectedly parsed: " << sql;
  if (result.ok()) return SqlError{};
  // Parsing the statement's tokens reports the same error at the same
  // position (the served plan cache parses the tokens it keyed on).
  auto tokens = Tokenize(sql);
  EXPECT_TRUE(tokens.ok()) << sql;
  if (tokens.ok()) {
    auto from_tokens = ParseTokens(std::move(tokens).value());
    EXPECT_FALSE(from_tokens.ok()) << sql;
    if (!from_tokens.ok()) {
      EXPECT_EQ(from_tokens.error().message, result.error().message);
      EXPECT_EQ(from_tokens.error().line, result.error().line);
      EXPECT_EQ(from_tokens.error().column, result.error().column);
      EXPECT_EQ(from_tokens.error().token, result.error().token);
    }
  }
  return result.error();
}

TEST(Parser, ErrorPositions) {
  SqlError missing_from = MustFail("SELECT a, b\nWHERE x = 1");
  EXPECT_EQ(missing_from.message, "expected FROM");
  EXPECT_EQ(missing_from.line, 2u);
  EXPECT_EQ(missing_from.column, 1u);
  EXPECT_EQ(missing_from.token, "WHERE");

  SqlError missing_on = MustFail("SELECT a FROM t1 JOIN t2 WHERE a = 1");
  EXPECT_EQ(missing_on.message, "expected ON");
  EXPECT_EQ(missing_on.column, 26u);

  SqlError bad_limit = MustFail("SELECT a FROM t LIMIT x");
  EXPECT_EQ(bad_limit.message, "expected integer after LIMIT");
  EXPECT_EQ(bad_limit.column, 23u);

  SqlError trailing = MustFail("SELECT a FROM t; SELECT b FROM t");
  EXPECT_EQ(trailing.message, "unexpected input after statement");

  SqlError empty = MustFail("");
  EXPECT_EQ(empty.message, "expected SELECT");

  SqlError no_cmp = MustFail("SELECT a FROM t WHERE a");
  EXPECT_EQ(no_cmp.message, "expected comparison operator");

  SqlError agg_paren = MustFail("SELECT COUNT * FROM t");
  EXPECT_EQ(agg_paren.message, "expected ( after aggregate function");

  SqlError join_eq = MustFail("SELECT a FROM t1 JOIN t2 ON a < b");
  EXPECT_EQ(join_eq.message, "expected = in join condition");

  SqlError order_col = MustFail("SELECT a FROM t ORDER BY 3");
  EXPECT_EQ(order_col.message, "expected column name");
}

TEST(Parser, CaretRendering) {
  const std::string sql = "SELECT a,\nFROM t";
  SqlError err = MustFail(sql);
  EXPECT_EQ(err.line, 2u);
  EXPECT_EQ(err.column, 1u);
  const std::string rendered = err.Render(sql);
  // The offending line and a caret with a tilde tail under 'FROM'.
  EXPECT_NE(rendered.find("FROM t"), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("\n  ^~~~"), std::string::npos) << rendered;

  // Mid-line positions indent the caret under the token.
  SqlError mid = MustFail("SELECT a FROM t LIMIT x");
  const std::string mid_render = mid.Render("SELECT a FROM t LIMIT x");
  EXPECT_NE(mid_render.find("SELECT a FROM t LIMIT x\n"),
            std::string::npos);
  EXPECT_NE(mid_render.find("                      ^"), std::string::npos)
      << mid_render;

  // Unknown positions degrade to the one-line form.
  SqlError no_pos;
  no_pos.message = "boom";
  EXPECT_EQ(no_pos.Render("SELECT"), "error: boom");
}

TEST(Parser, ScriptSplitting) {
  auto script = ParseScript(
      "-- leading comment\n"
      "SELECT a FROM t;\n"
      ";;\n"
      "EXPLAIN SELECT b FROM u;\n");
  ASSERT_TRUE(script.ok()) << script.error().ToString();
  ASSERT_EQ(script.value().size(), 2u);
  EXPECT_FALSE(script.value()[0].explain);
  EXPECT_TRUE(script.value()[1].explain);

  auto bad = ParseScript("SELECT a FROM t; SELECT FROM u;");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().message, "expected column name");
}

}  // namespace
}  // namespace ovc::sql
