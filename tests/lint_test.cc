// Self-test for tools/lint/ovclint: the fixture mini-trees under
// tests/lint_fixtures/ pin every rule's behavior (one violation per rule
// in dirty/, zero findings in clean/), and the live tree must lint
// clean so `ctest` and CI's lint job agree.

#include "tools/lint/ovclint_lib.h"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace ovc::lint {
namespace {

int CountRuleInFile(const std::vector<Finding>& findings,
                    const std::string& rule, const std::string& file) {
  return static_cast<int>(
      std::count_if(findings.begin(), findings.end(), [&](const Finding& f) {
        return f.rule == rule && f.file == file;
      }));
}

std::string Dump(const std::vector<Finding>& findings) {
  std::string out;
  for (const Finding& f : findings) out += FormatFinding(f) + "\n";
  return out;
}

TEST(StripComments, ReplacesCommentsPreservesStringsAndNewlines) {
  const std::string in =
      "int a;  // trailing comment\n"
      "/* block\n   comment */ int b;\n"
      "const char* s = \"not // a comment /* either */\";\n";
  const std::string out = StripComments(in);
  // Same shape: newline positions (and hence line numbers) survive.
  EXPECT_EQ(std::count(in.begin(), in.end(), '\n'),
            std::count(out.begin(), out.end(), '\n'));
  EXPECT_EQ(out.find("trailing"), std::string::npos);
  EXPECT_EQ(out.find("block"), std::string::npos);
  // String literals pass through untouched.
  EXPECT_NE(out.find("\"not // a comment /* either */\""), std::string::npos);
  EXPECT_NE(out.find("int a;"), std::string::npos);
  EXPECT_NE(out.find("int b;"), std::string::npos);
}

TEST(LintFixtures, CleanTreeHasNoFindings) {
  const std::vector<Finding> findings =
      LintTree(std::string(OVC_LINT_FIXTURE_DIR) + "/clean");
  EXPECT_TRUE(findings.empty()) << Dump(findings);
}

TEST(LintFixtures, DirtyTreeFlagsEveryRuleExactlyOnce) {
  const std::vector<Finding> findings =
      LintTree(std::string(OVC_LINT_FIXTURE_DIR) + "/dirty");

  EXPECT_EQ(CountRuleInFile(findings, "OVC-L000",
                            "src/exec/bad_suppression.cc"), 1)
      << Dump(findings);
  EXPECT_EQ(CountRuleInFile(findings, "OVC-L001", "src/core/bad_layer.h"), 1)
      << Dump(findings);
  EXPECT_EQ(CountRuleInFile(findings, "OVC-L002", "src/exec/bad_check.cc"), 1)
      << Dump(findings);
  EXPECT_EQ(CountRuleInFile(findings, "OVC-L003",
                            "src/sort/bad_status_check.cc"), 1)
      << Dump(findings);
  EXPECT_EQ(CountRuleInFile(findings, "OVC-L004", "src/exec/bad_check.cc"), 1)
      << Dump(findings);
  EXPECT_EQ(CountRuleInFile(findings, "OVC-L005", "docs/ROBUSTNESS.md"), 1)
      << Dump(findings);
  EXPECT_EQ(CountRuleInFile(findings, "OVC-L006", "src/common/bad_guard.h"), 1)
      << Dump(findings);
  EXPECT_EQ(CountRuleInFile(findings, "OVC-L006",
                            "bench/ablation/bad_guard.h"), 1)
      << Dump(findings);
  EXPECT_EQ(CountRuleInFile(findings, "OVC-L007", "src/exec/bad_mutex.h"), 1)
      << Dump(findings);
  EXPECT_EQ(CountRuleInFile(findings, "OVC-L008", "src/exec/bad_metric.cc"), 1)
      << Dump(findings);
  // The counter field list: an entry with no registry row (L008), and a
  // `query.*` registry row with no entry (L009, next to orphaned.metric).
  EXPECT_EQ(CountRuleInFile(findings, "OVC-L008", "src/common/counters.h"), 1)
      << Dump(findings);
  EXPECT_EQ(CountRuleInFile(findings, "OVC-L009", "docs/OBSERVABILITY.md"), 2)
      << Dump(findings);

  // The well-formed suppression silences OVC-L002 for its file entirely.
  for (const Finding& f : findings) {
    EXPECT_NE(f.file, "src/sort/suppressed.cc") << FormatFinding(f);
  }

  // Exactly the thirteen violations above -- nothing extra. In particular
  // the documented-and-used span in bad_metric.cc and the documented
  // field list entry stay silent.
  EXPECT_EQ(findings.size(), 13u) << Dump(findings);
}

TEST(LintLiveTree, RepoLintsClean) {
  const std::vector<Finding> findings = LintTree(OVC_LINT_SOURCE_DIR);
  EXPECT_TRUE(findings.empty()) << Dump(findings);
}

}  // namespace
}  // namespace ovc::lint
