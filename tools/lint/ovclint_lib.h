// ovclint: repo-specific invariant checks a compiler cannot express.
//
// A self-contained lexical checker (no libclang) over src/, tools/, tests/
// and bench/ablation/. It strips comments with a small tokenizer, then
// enforces the contracts that previous PRs established by convention --
// and that each cost at least one real bug before being written down:
//
//   OVC-L001  layer acyclicity from the include graph
//             (common -> row -> core -> pq -> sort -> exec -> storage ->
//              plan -> sql; lower layers must not include upper ones, and
//              src/ must not include tools/, tests/, or bench/)
//   OVC-L002  no OVC_CHECK_OK in src/exec/ + src/sort/ -- recoverable
//             errors on the degrade path flow through Status, never abort
//             (docs/ROBUSTNESS.md, PR 7)
//   OVC-L003  no OVC_CHECK over a Status-valued expression in src/exec/ +
//             src/sort/ (lexical heuristic: the argument mentions `.ok()`
//             or `status`) -- same contract as OVC-L002
//   OVC-L004  every OVC_FAILPOINT("name") in code appears in the registry
//             table of docs/ROBUSTNESS.md
//   OVC-L005  ...and every registry entry still exists in code
//   OVC-L006  include guards follow OVC_<PATH>_H_ (src/ prefix dropped)
//   OVC-L007  no bare std::mutex / std::lock_guard / std::condition_variable
//             in src/ outside common/mutex.h -- shared state must use the
//             annotated wrappers so -Wthread-safety can check locking
//   OVC-L008  every metric (OVC_METRIC_COUNTER/GAUGE/HISTOGRAM) and span
//             (OVC_TRACE_SPAN[_VAR]) name in src/ appears in the registry
//             tables of docs/OBSERVABILITY.md
//   OVC-L009  ...and every documented metric/span name still exists in code
//
// Suppression is file-level, must live in a // comment, and must carry
// a reason:
//   // ovclint-disable-file OVC-L003 -- <why this file is exempt>
// A malformed suppression (missing rule ID or reason) is itself reported
// as OVC-L000. Rule catalog and conventions: docs/STATIC_ANALYSIS.md.

#ifndef OVC_TOOLS_LINT_OVCLINT_LIB_H_
#define OVC_TOOLS_LINT_OVCLINT_LIB_H_

#include <string>
#include <vector>

namespace ovc::lint {

/// One rule violation. `file` is relative to the linted root; `line` is
/// 1-based (0 for whole-file findings).
struct Finding {
  std::string rule;
  std::string file;
  int line = 0;
  std::string message;
};

/// Runs every rule over a repo checkout at `root` (expects src/, tools/,
/// tests/, bench/ablation/ and docs/ROBUSTNESS.md below it; missing
/// directories are skipped). Paths containing "lint_fixtures" are excluded
/// so the checker's own test fixtures never fail the live tree. Findings
/// come back sorted by (file, line, rule).
std::vector<Finding> LintTree(const std::string& root);

/// Replaces // and /* */ comment bodies with spaces (newlines preserved,
/// string/char literals kept intact). Exposed for the fixture self-tests.
std::string StripComments(const std::string& text);

/// Formats a finding as "file:line: [RULE] message".
std::string FormatFinding(const Finding& f);

}  // namespace ovc::lint

#endif  // OVC_TOOLS_LINT_OVCLINT_LIB_H_
