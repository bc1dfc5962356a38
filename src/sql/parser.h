// Recursive-descent parser for the supported SQL subset (see ast.h for
// the grammar). No exceptions: failures come back as SqlError with the
// offending token's 1-based line/column.

#ifndef OVC_SQL_PARSER_H_
#define OVC_SQL_PARSER_H_

#include <string_view>
#include <vector>

#include "sql/ast.h"
#include "sql/lexer.h"
#include "sql/sql_error.h"

namespace ovc::sql {

/// Parses exactly one statement (a trailing ';' is allowed). Fails on
/// trailing input past the statement.
SqlResult<Statement> ParseStatement(std::string_view sql);

/// ParseStatement over the tokens Tokenize returned for the statement, for
/// callers that already tokenized it. Error positions are the same.
SqlResult<Statement> ParseTokens(std::vector<Token> tokens);

/// Parses a ';'-separated script into its statements. Empty statements
/// (stray semicolons) are skipped.
SqlResult<std::vector<Statement>> ParseScript(std::string_view sql);

}  // namespace ovc::sql

#endif  // OVC_SQL_PARSER_H_
