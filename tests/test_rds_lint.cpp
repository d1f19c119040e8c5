// rds_lint contract tests: every rule fires on its tripping fixture and
// stays quiet on its passing twin, and the suppression syntax behaves as
// documented (docs/static_analysis.md).
#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tools/rds_lint/lint.hpp"

namespace {

using rds::lint::Finding;
using rds::lint::Options;

std::string fixture_path(const std::string& name) {
  return std::string(RDS_LINT_FIXTURE_DIR) + "/" + name;
}

std::vector<Finding> lint_fixture(const std::string& name,
                                  const Options& opts = {}) {
  std::vector<Finding> out;
  std::string error;
  EXPECT_TRUE(rds::lint::lint_file(fixture_path(name), out, error, opts))
      << error;
  return out;
}

std::set<std::string> rules_of(const std::vector<Finding>& findings) {
  std::set<std::string> rules;
  for (const Finding& f : findings) rules.insert(f.rule);
  return rules;
}

TEST(RdsLint, RuleListIsComplete) {
  const std::vector<std::string> expected = {
      "atomic-memory-order",   "result-path-throw", "placement-determinism",
      "header-hygiene",        "metrics-naming",    "stale-suppression"};
  EXPECT_EQ(rds::lint::rule_ids(), expected);
}

TEST(RdsLint, AtomicMemoryOrderTrips) {
  const auto findings = lint_fixture("atomic_order_bad.cpp");
  EXPECT_EQ(findings.size(), 5u);
  EXPECT_EQ(rules_of(findings),
            std::set<std::string>{"atomic-memory-order"});
}

TEST(RdsLint, AtomicMemoryOrderPasses) {
  EXPECT_TRUE(lint_fixture("atomic_order_good.cpp").empty());
}

TEST(RdsLint, ResultPathThrowTrips) {
  const auto findings = lint_fixture("result_throw_bad.cpp");
  EXPECT_EQ(findings.size(), 2u);
  EXPECT_EQ(rules_of(findings), std::set<std::string>{"result-path-throw"});
}

TEST(RdsLint, ResultPathThrowPasses) {
  EXPECT_TRUE(lint_fixture("result_throw_good.cpp").empty());
}

TEST(RdsLint, PlacementDeterminismTrips) {
  const auto findings = lint_fixture("placement/determinism_bad.cpp");
  EXPECT_EQ(findings.size(), 5u);
  EXPECT_EQ(rules_of(findings),
            std::set<std::string>{"placement-determinism"});
}

TEST(RdsLint, PlacementDeterminismPasses) {
  EXPECT_TRUE(lint_fixture("placement/determinism_good.cpp").empty());
}

TEST(RdsLint, PlacementRuleIsPathScoped) {
  // The same entropy calls outside a placement/ directory are legal.
  std::vector<Finding> out;
  std::string error;
  ASSERT_TRUE(rds::lint::lint_file(fixture_path("placement/determinism_bad.cpp"),
                                   out, error,
                                   Options{{"placement-determinism"}}));
  EXPECT_FALSE(out.empty());
  const auto elsewhere = rds::lint::lint_text(
      "src/sim/workload.cpp", "int f() { return rand(); }", {});
  EXPECT_TRUE(elsewhere.empty());
}

TEST(RdsLint, HeaderHygieneTrips) {
  const auto findings = lint_fixture("header_bad.hpp");
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(rules_of(findings), std::set<std::string>{"header-hygiene"});
  EXPECT_EQ(findings.front().line, 1);  // missing #pragma once reports line 1
}

TEST(RdsLint, HeaderHygienePasses) {
  EXPECT_TRUE(lint_fixture("header_good.hpp").empty());
}

TEST(RdsLint, MetricsNamingTrips) {
  const auto findings = lint_fixture("metrics_bad.cpp");
  EXPECT_EQ(findings.size(), 3u);
  EXPECT_EQ(rules_of(findings), std::set<std::string>{"metrics-naming"});
}

TEST(RdsLint, MetricsNamingPasses) {
  EXPECT_TRUE(lint_fixture("metrics_good.cpp").empty());
}

TEST(RdsLint, JournalMetricsNamingTrips) {
  const auto findings = lint_fixture("journal/metrics_bad.cpp");
  EXPECT_EQ(findings.size(), 3u);
  EXPECT_EQ(rules_of(findings), std::set<std::string>{"metrics-naming"});
}

TEST(RdsLint, JournalMetricsNamingPasses) {
  // Every metric family the journal subsystem actually registers.
  EXPECT_TRUE(lint_fixture("journal/metrics_good.cpp").empty());
}

TEST(RdsLint, JournalHeaderHygieneTrips) {
  const auto findings = lint_fixture("journal/header_bad.hpp");
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(rules_of(findings), std::set<std::string>{"header-hygiene"});
}

TEST(RdsLint, JournalHeaderHygienePasses) {
  EXPECT_TRUE(lint_fixture("journal/header_good.hpp").empty());
}

TEST(RdsLint, JournalSourcesLintClean) {
  // The shipped journal subsystem itself obeys every rule (the recovery
  // path is the one most tempted to throw inside Result-returning code).
  for (const std::string file :
       {"/src/journal/journal.cpp", "/src/journal/record.cpp",
        "/src/journal/recovery.cpp", "/src/journal/journal.hpp",
        "/src/journal/record.hpp", "/src/journal/recovery.hpp",
        "/src/journal/torn_write.hpp"}) {
    std::vector<Finding> out;
    std::string error;
    ASSERT_TRUE(rds::lint::lint_file(std::string(RDS_LINT_SOURCE_DIR) + file,
                                     out, error, {}))
        << error;
    EXPECT_TRUE(out.empty())
        << file << ":" << out.front().line << " [" << out.front().rule
        << "] " << out.front().message;
  }
}

TEST(RdsLint, SuppressionsWithReasonsAreHonored) {
  EXPECT_TRUE(lint_fixture("suppression_good.cpp").empty());
}

TEST(RdsLint, BadSuppressionsKeepTheFinding) {
  // Bare allow(), wrong rule id, and a comment separated from the finding
  // by another code line must all leave the finding standing -- and the
  // two reasoned-but-useless comments are additionally flagged as stale
  // (the bare one was never a suppression, so it cannot be stale).
  const auto findings = lint_fixture("suppression_bad.cpp");
  EXPECT_EQ(findings.size(), 5u);
  EXPECT_EQ(rules_of(findings),
            (std::set<std::string>{"atomic-memory-order",
                                   "stale-suppression"}));
  std::size_t stale = 0;
  for (const Finding& f : findings) {
    if (f.rule == "stale-suppression") ++stale;
  }
  EXPECT_EQ(stale, 2u);
}

TEST(RdsLint, StaleSuppressionTrips) {
  const auto findings = lint_fixture("suppression_stale_bad.cpp");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings.front().rule, "stale-suppression");
  EXPECT_EQ(findings.front().line, 11);  // the comment line, not the code
}

TEST(RdsLint, StaleSuppressionPasses) {
  // A used suppression and a foreign (rds_analyze) rule id are both fine.
  EXPECT_TRUE(lint_fixture("suppression_stale_good.cpp").empty());
}

TEST(RdsLint, StaleSuppressionNeedsAllRules) {
  // With a --rule filter the other rules never ran, so "matches nothing"
  // would be meaningless; the stale pass must stay off.
  const auto findings = lint_fixture("suppression_stale_bad.cpp",
                                     Options{{"atomic-memory-order"}});
  EXPECT_TRUE(findings.empty());
}

TEST(RdsLint, OnlyRulesFilters) {
  const auto findings =
      lint_fixture("header_bad.hpp", Options{{"metrics-naming"}});
  EXPECT_TRUE(findings.empty());
}

TEST(RdsLint, UnreadableFileReportsError) {
  std::vector<Finding> out;
  std::string error;
  EXPECT_FALSE(rds::lint::lint_file(fixture_path("does_not_exist.cpp"), out,
                                    error, {}));
  EXPECT_FALSE(error.empty());
}

TEST(RdsLint, TokenizerSurvivesRawStringsAndOddLiterals) {
  // Raw strings containing quotes/comment markers must not desync the
  // lexer; the atomic op after it must still be seen.
  const std::string text = R"src(
#include <atomic>
const char* kDoc = R"doc(not a "comment" // nor /* one */)doc";
std::atomic<int> v;
int f() { return v.load(); }
)src";
  const auto findings = rds::lint::lint_text("odd.cpp", text, {});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings.front().rule, "atomic-memory-order");
  EXPECT_EQ(findings.front().line, 5);
}

TEST(RdsLint, AtomicMemoryOrderFiresInsideLambdaBodies) {
  // Token rules descend into lambda bodies: a relaxed-order-less store is
  // no more acceptable inside a closure than outside one.
  const std::string text = R"src(
#include <atomic>
std::atomic<int> v;
void f() {
  auto g = [] { v.store(1); };
  g();
}
)src";
  const auto findings = rds::lint::lint_text("lambda.cpp", text, {});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings.front().rule, "atomic-memory-order");
  EXPECT_EQ(findings.front().line, 5);
}

TEST(RdsLint, ResultPathThrowStopsAtLambdaBoundary) {
  // A lambda is its own function scope: a throw inside a plain lambda
  // defined in a try_* function belongs to the lambda, not to the
  // enclosing Result path.
  const std::string text = R"src(
int try_fetch() {
  auto fail = [](const char* m) { throw m; };
  fail("boom");
  return 0;
}
)src";
  EXPECT_TRUE(rds::lint::lint_text("lambda.cpp", text, {}).empty());
}

TEST(RdsLint, ResultPathThrowFiresInNoexceptAndTryLambdas) {
  // The obligation attaches to the lambda itself: declared noexcept, or
  // named like a try_* path through the variable it initializes.
  const std::string text = R"src(
void run() {
  auto cb = [](int v) noexcept { if (v < 0) throw v; };
  auto try_push = [](int v) { if (v < 0) throw v; return v; };
  cb(try_push(1));
}
)src";
  const auto findings = rds::lint::lint_text("lambda.cpp", text, {});
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(rules_of(findings), std::set<std::string>{"result-path-throw"});
  EXPECT_EQ(findings[0].line, 3);
  EXPECT_EQ(findings[1].line, 4);
}

TEST(RdsLint, LintTreeIsClean) {
  // Mirrors the lint_tree ctest: the shipped sources must stay clean.  Kept
  // here too so a plain `ctest -R RdsLint` exercises it.
  std::vector<Finding> out;
  std::string error;
  ASSERT_TRUE(rds::lint::lint_file(
      std::string(RDS_LINT_SOURCE_DIR) + "/src/storage/virtual_disk.cpp", out,
      error, {}))
      << error;
  EXPECT_TRUE(out.empty()) << out.front().file << ":" << out.front().line
                           << " [" << out.front().rule << "] "
                           << out.front().message;
}

}  // namespace
