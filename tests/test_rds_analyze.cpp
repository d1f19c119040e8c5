// rds_analyze contract tests: every rule fires on its tripping fixture
// and stays quiet on its passing twin, the conventions cover exactly the
// project's own code, suppressions behave as documented, the reporting
// back ends round-trip, and the committed baseline reproduces over the
// tree (docs/static_analysis.md).
#include <algorithm>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tools/rds_analyze/analyze.hpp"
#include "tools/rds_analyze/report.hpp"

namespace {

using rds::analyze::Analyzer;
using rds::analyze::Finding;
using rds::analyze::Options;

std::string fixture_path(const std::string& name) {
  return std::string(RDS_FIXTURE_DIR) + "/flow/" + name;
}

std::string read_fixture(const std::string& name) {
  std::ifstream in(std::string(RDS_FIXTURE_DIR) + "/" + name,
                   std::ios::binary);
  EXPECT_TRUE(in) << name;
  std::ostringstream ss;
  ss << in.rdbuf();
  return std::move(ss).str();
}

std::vector<Finding> analyze_fixture(const std::string& name,
                                     const Options& opts = {}) {
  Analyzer analyzer;
  EXPECT_TRUE(analyzer.add_file(fixture_path(name)));
  EXPECT_TRUE(analyzer.io_errors().empty());
  return analyzer.run(opts);
}

std::set<std::string> rules_of(const std::vector<Finding>& findings) {
  std::set<std::string> rules;
  for (const Finding& f : findings) rules.insert(f.rule);
  return rules;
}

std::vector<int> lines_of(const std::vector<Finding>& findings) {
  std::vector<int> lines;
  for (const Finding& f : findings) lines.push_back(f.line);
  return lines;
}

const std::vector<std::string> kConventionRules = {
    "atomic-memory-order", "result-path-throw", "placement-determinism",
    "header-hygiene", "metrics-naming"};

TEST(RdsAnalyze, RuleListIsComplete) {
  const std::vector<std::string> expected = {
      "lock-order",          "journal-protocol",
      "result-flow",         "capacity-arith",
      "rcu-escape",          "lock-held-across-call",
      "guarded-member",      "atomic-memory-order",
      "result-path-throw",   "placement-determinism",
      "header-hygiene",      "metrics-naming",
      "stale-suppression"};
  EXPECT_EQ(rds::analyze::rule_ids(), expected);
}

TEST(RdsAnalyze, LockOrderTrips) {
  const auto findings = analyze_fixture("lock_order_bad.cpp");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "lock-order");
  EXPECT_NE(findings[0].message.find("cycle"), std::string::npos);
}

TEST(RdsAnalyze, LockOrderPasses) {
  EXPECT_TRUE(analyze_fixture("lock_order_good.cpp").empty());
}

TEST(RdsAnalyze, JournalProtocolTrips) {
  const auto findings = analyze_fixture("journal_bad.cpp");
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(rules_of(findings), std::set<std::string>{"journal-protocol"});
  EXPECT_NE(findings[0].message.find("ignored"), std::string::npos);
  EXPECT_NE(findings[1].message.find("mutation"), std::string::npos);
}

TEST(RdsAnalyze, JournalProtocolPasses) {
  EXPECT_TRUE(analyze_fixture("journal_good.cpp").empty());
}

TEST(RdsAnalyze, JournalProtocolFollowsLockedHelpersAcrossClasses) {
  Options opts;
  opts.only_rules = {"journal-protocol"};
  const auto findings = analyze_fixture("journal_helper_bad.cpp", opts);
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_NE(findings[0].message.find("ignored"), std::string::npos);
  EXPECT_NE(findings[1].message.find("mutation"), std::string::npos);
}

TEST(RdsAnalyze, ResultFlowTrips) {
  const auto findings = analyze_fixture("result_flow_bad.cpp");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "result-flow");
  EXPECT_NE(findings[0].message.find("'fetched'"), std::string::npos);
}

TEST(RdsAnalyze, ResultFlowPasses) {
  EXPECT_TRUE(analyze_fixture("result_flow_good.cpp").empty());
}

TEST(RdsAnalyze, CapacityArithTrips) {
  const auto findings = analyze_fixture("capacity_math_bad.cpp");
  ASSERT_EQ(findings.size(), 3u);
  EXPECT_EQ(rules_of(findings), std::set<std::string>{"capacity-arith"});
  EXPECT_EQ(lines_of(findings), (std::vector<int>{14, 20, 25}));
}

TEST(RdsAnalyze, CapacityArithPassesCheckedAndDoubleMath) {
  EXPECT_TRUE(analyze_fixture("capacity_math_good.cpp").empty());
}

TEST(RdsAnalyze, RcuEscapeMemberStoreTrips) {
  const auto findings = analyze_fixture("rcu_escape_member_bad.cpp");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "rcu-escape");
  EXPECT_EQ(findings[0].line, 11);
  EXPECT_NE(findings[0].message.find("'last_'"), std::string::npos);
}

TEST(RdsAnalyze, RcuEscapeMemberStorePasses) {
  // Copied data into members and the publishing store() are both fine.
  EXPECT_TRUE(analyze_fixture("rcu_escape_member_good.cpp").empty());
}

TEST(RdsAnalyze, RcuEscapeLambdaCaptureTrips) {
  const auto findings = analyze_fixture("rcu_escape_lambda_bad.cpp");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "rcu-escape");
  EXPECT_NE(findings[0].message.find("'submit'"), std::string::npos);
}

TEST(RdsAnalyze, RcuEscapeLambdaCapturePasses) {
  EXPECT_TRUE(analyze_fixture("rcu_escape_lambda_good.cpp").empty());
}

TEST(RdsAnalyze, RcuEscapeRawReturnTrips) {
  const auto findings = analyze_fixture("rcu_escape_return_bad.cpp");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "rcu-escape");
  EXPECT_NE(findings[0].message.find("raw view"), std::string::npos);
}

TEST(RdsAnalyze, RcuEscapeRawReturnPasses) {
  // Returning the shared handle or a plain copy is the supported shape.
  EXPECT_TRUE(analyze_fixture("rcu_escape_return_good.cpp").empty());
}

TEST(RdsAnalyze, LockHeldAcrossCallTripsDirectOps) {
  const auto findings = analyze_fixture("lock_across_call_bad.cpp");
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(rules_of(findings),
            std::set<std::string>{"lock-held-across-call"});
  EXPECT_EQ(lines_of(findings), (std::vector<int>{12, 17}));
  EXPECT_NE(findings[0].message.find("fsync"), std::string::npos);
  EXPECT_NE(findings[1].message.find("sleep"), std::string::npos);
}

TEST(RdsAnalyze, LockHeldAcrossCallPassesOutsideGuard) {
  EXPECT_TRUE(analyze_fixture("lock_across_call_good.cpp").empty());
}

TEST(RdsAnalyze, LockHeldAcrossHelperTripsInterprocedurally) {
  // The callee blocks unguarded; the pairing is created at the call site.
  const auto findings = analyze_fixture("lock_across_helper_bad.cpp");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "lock-held-across-call");
  EXPECT_EQ(findings[0].line, 13);
  EXPECT_NE(findings[0].message.find("Pool::flush_data"), std::string::npos);
}

TEST(RdsAnalyze, LockHeldAcrossHelperPasses) {
  EXPECT_TRUE(analyze_fixture("lock_across_helper_good.cpp").empty());
}

TEST(RdsAnalyze, RecursiveSccSummaryConverges) {
  // pump <-> drain form an SCC; drain's fsync must propagate to pump's
  // summary through the cycle before commit's held call can be flagged.
  const auto findings = analyze_fixture("scc_convergence_bad.cpp");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "lock-held-across-call");
  EXPECT_NE(findings[0].message.find("Drainer::pump"), std::string::npos);
  EXPECT_NE(findings[0].message.find("fsync"), std::string::npos);
}

TEST(RdsAnalyze, RecursiveSccPassesOutsideGuard) {
  EXPECT_TRUE(analyze_fixture("scc_convergence_good.cpp").empty());
}

TEST(RdsAnalyze, ResultIgnoredByCalleeTrips) {
  const auto findings = analyze_fixture("result_callee_bad.cpp");
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(rules_of(findings), std::set<std::string>{"result-flow"});
  // One at the drop in the caller, one at the callee's ignored parameter.
  EXPECT_EQ(lines_of(findings), (std::vector<int>{13, 18}));
}

TEST(RdsAnalyze, ResultConsumedInCalleePasses) {
  // Passing the Result to a helper that inspects it IS consumption.
  EXPECT_TRUE(analyze_fixture("result_callee_good.cpp").empty());
}

TEST(RdsAnalyze, FactoryTypedCallResolutionTrips) {
  const auto findings = analyze_fixture("factory_resolution_bad.cpp");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "lock-held-across-call");
  EXPECT_NE(findings[0].message.find("Selector::pick"), std::string::npos);
}

TEST(RdsAnalyze, FactoryTypedCallResolutionPasses) {
  EXPECT_TRUE(analyze_fixture("factory_resolution_good.cpp").empty());
}

// ---- guarded-member --------------------------------------------------------
// Two shapes, one rule: a member shared across threads with nothing that
// declares its guard (race_member), and a member locked on every access
// whose declaration never says so (annotation_drift).  The tests keep the
// names they had under the retired shared-state-race and annotation-drift
// rules.

TEST(RdsAnalyze, SharedStateRaceTrips) {
  const auto findings = analyze_fixture("race_member_bad.cpp");
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(rules_of(findings), std::set<std::string>{"guarded-member"});
  // Anchored at the declarations: the unlocked counter and the mutable
  // pointer to const data.
  EXPECT_EQ(lines_of(findings), (std::vector<int>{21, 23}));
  EXPECT_NE(findings[0].message.find("'count_' of 'Ledger'"),
            std::string::npos);
  EXPECT_NE(findings[1].message.find("'limits_'"), std::string::npos);
}

TEST(RdsAnalyze, SharedStateRacePassesAtomicAnnotatedAndConfined) {
  // Atomic counter, annotated guarded member, construction-only state
  // declared const, and the other declared forms; a class without a mutex
  // is not judged.
  EXPECT_TRUE(analyze_fixture("race_member_good.cpp").empty());
}

TEST(RdsAnalyze, AnnotationDriftTrips) {
  const auto findings = analyze_fixture("annotation_drift_bad.cpp");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "guarded-member");
  // The consistently locked but unannotated value, at its declaration.
  EXPECT_EQ(findings[0].line, 29);
  EXPECT_NE(findings[0].message.find("'value_' of 'Config'"),
            std::string::npos);
}

TEST(RdsAnalyze, AnnotationDriftPasses) {
  EXPECT_TRUE(analyze_fixture("annotation_drift_good.cpp").empty());
}

// ---- call-graph construction and summary propagation ------------------------

TEST(RdsAnalyze, CallGraphBuildsFactoryEdges) {
  Analyzer analyzer;
  ASSERT_TRUE(analyzer.add_file(fixture_path("factory_resolution_bad.cpp")));
  (void)analyzer.run();
  bool factory_edge = false;
  const auto& edges = analyzer.callgraph().edges();
  const auto it =
      edges.find(rds::analyze::MethodKey{"Balancer", "rebalance"});
  ASSERT_NE(it, edges.end());
  for (const rds::analyze::CallEdge& e : it->second) {
    if (e.to == rds::analyze::MethodKey{"Selector", "pick"} &&
        e.kind == rds::analyze::EdgeKind::kFactory) {
      factory_edge = true;
    }
  }
  EXPECT_TRUE(factory_edge);
}

TEST(RdsAnalyze, SccCondensationIsCalleeFirst) {
  Analyzer analyzer;
  ASSERT_TRUE(analyzer.add_file(fixture_path("scc_convergence_bad.cpp")));
  (void)analyzer.run();
  const auto& sccs = analyzer.callgraph().sccs();
  int pump_scc = -1;
  int commit_scc = -1;
  for (std::size_t i = 0; i < sccs.size(); ++i) {
    for (const rds::analyze::MethodKey& k : sccs[i]) {
      if (k == rds::analyze::MethodKey{"Drainer", "pump"}) {
        pump_scc = static_cast<int>(i);
        // The mutual recursion collapses into one component.
        EXPECT_NE(std::find(sccs[i].begin(), sccs[i].end(),
                            (rds::analyze::MethodKey{"Drainer", "drain"})),
                  sccs[i].end());
      }
      if (k == rds::analyze::MethodKey{"Drainer", "commit"}) {
        commit_scc = static_cast<int>(i);
      }
    }
  }
  ASSERT_GE(pump_scc, 0);
  ASSERT_GE(commit_scc, 0);
  EXPECT_LT(pump_scc, commit_scc);  // callees before callers
}

TEST(RdsAnalyze, SummariesPropagateBlockingThroughRecursion) {
  Analyzer analyzer;
  ASSERT_TRUE(analyzer.add_file(fixture_path("scc_convergence_bad.cpp")));
  (void)analyzer.run();
  const rds::analyze::FnSummary& pump =
      analyzer.summaries().of({"Drainer", "pump"});
  EXPECT_TRUE(pump.blocking_unguarded);
  EXPECT_TRUE(pump.required.empty());
}

TEST(RdsAnalyze, SummariesPropagateTransitiveLocks) {
  Analyzer analyzer;
  ASSERT_TRUE(analyzer.add_file(fixture_path("lock_order_bad.cpp")));
  (void)analyzer.run();
  // B::pong locks its own mutex and calls A::poke, which locks A's.
  const rds::analyze::FnSummary& pong =
      analyzer.summaries().of({"B", "pong"});
  EXPECT_TRUE(pong.locks.contains("B::mu_"));
  EXPECT_TRUE(pong.locks.contains("A::mu_"));
}

TEST(RdsAnalyze, SummariesRecordGaugeAndResultFacts) {
  Analyzer analyzer;
  ASSERT_TRUE(analyzer.add_file(fixture_path("result_callee_bad.cpp")));
  ASSERT_TRUE(analyzer.add_file(fixture_path("rcu_escape_return_good.cpp")));
  (void)analyzer.run();
  const rds::analyze::Summaries& sums = analyzer.summaries();
  EXPECT_TRUE(sums.of({"Pool", "log_only"}).has_result_params);
  EXPECT_FALSE(sums.of({"Pool", "log_only"}).consumes_result_params);
  EXPECT_TRUE(sums.of({"Reader", "borrow"}).returns_epoch);
}

TEST(RdsAnalyze, CallgraphDumpsContainMethodsEdgesAndSccs) {
  Analyzer analyzer;
  ASSERT_TRUE(analyzer.add_file(fixture_path("factory_resolution_bad.cpp")));
  (void)analyzer.run();
  const std::string dot = rds::analyze::callgraph_to_dot(
      analyzer.callgraph(), analyzer.summaries());
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("Selector::pick"), std::string::npos);
  EXPECT_NE(dot.find("factory"), std::string::npos);
  const std::string json = rds::analyze::callgraph_to_json(
      analyzer.callgraph(), analyzer.summaries());
  EXPECT_NE(json.find("\"kind\": \"factory\""), std::string::npos);
  EXPECT_NE(json.find("\"sccs\""), std::string::npos);
  EXPECT_NE(json.find("\"blocking_unguarded\": true"), std::string::npos);
}

TEST(RdsAnalyze, SuppressionsCarryOverFromRdsLint) {
  EXPECT_TRUE(analyze_fixture("suppressed_capacity.cpp").empty());
}

TEST(RdsAnalyze, OnlyRulesFilterApplies) {
  Options opts;
  opts.only_rules = {"result-flow"};
  // A fixture that trips capacity-arith yields nothing under the filter.
  EXPECT_TRUE(analyze_fixture("capacity_math_bad.cpp", opts).empty());
}

TEST(RdsAnalyze, SarifContainsEveryFinding) {
  const auto findings = analyze_fixture("capacity_math_bad.cpp");
  const std::string sarif =
      rds::analyze::to_sarif(findings, RDS_FIXTURE_DIR);
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\": \"capacity-arith\""), std::string::npos);
  EXPECT_NE(sarif.find("flow/capacity_math_bad.cpp"), std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\": 14"), std::string::npos);
}

TEST(RdsAnalyze, BaselineRoundTripsAndRatchets) {
  const auto findings = analyze_fixture("capacity_math_bad.cpp");
  ASSERT_EQ(findings.size(), 3u);
  const std::string root = RDS_FIXTURE_DIR;
  const std::string text = rds::analyze::format_baseline(findings, root);
  const auto keys = rds::analyze::parse_baseline(text);
  EXPECT_EQ(keys.size(), 3u);
  // Everything baselined: nothing new.
  EXPECT_TRUE(rds::analyze::new_findings(findings, keys, root).empty());
  // Drop one key: exactly that finding comes back.
  const auto partial =
      std::vector<std::string>(keys.begin(), keys.begin() + 2);
  EXPECT_EQ(rds::analyze::new_findings(findings, partial, root).size(), 1u);
  // Keys carry no line: the same finding on another line stays baselined.
  std::vector<Finding> moved = findings;
  for (Finding& f : moved) f.line += 40;
  EXPECT_TRUE(rds::analyze::new_findings(moved, keys, root).empty());
  // Each key tolerates one finding: a duplicate of a baselined one is new.
  std::vector<Finding> doubled = findings;
  doubled.push_back(findings.front());
  const auto fresh = rds::analyze::new_findings(doubled, keys, root);
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_EQ(fresh.front().message, findings.front().message);
}

// The committed baseline's keys must reproduce exactly from the tree the
// analyzer ships with -- the analyze_tree ctest enforces "no new
// findings", this enforces "no stale baseline" too.  Keys, not bytes:
// the committed file carries '#' justification comments the regenerated
// header does not.
TEST(RdsAnalyze, CommittedBaselineReproduces) {
  const std::string root = RDS_SOURCE_DIR;
  const std::vector<std::string> sources = rds::analyze::collect_sources(
      {root + "/src", root + "/tools", root + "/bench"});
  ASSERT_FALSE(sources.empty());
  Analyzer analyzer;
  for (const std::string& s : sources) analyzer.add_file(s);
  ASSERT_TRUE(analyzer.io_errors().empty());
  Options opts;
  opts.root = root;
  const std::string regenerated =
      rds::analyze::format_baseline(analyzer.run(opts), root);

  std::ifstream in(root + "/tools/rds_analyze/baseline.txt",
                   std::ios::binary);
  ASSERT_TRUE(in) << "missing tools/rds_analyze/baseline.txt";
  std::ostringstream committed;
  committed << in.rdbuf();
  EXPECT_EQ(rds::analyze::parse_baseline(regenerated),
            rds::analyze::parse_baseline(committed.str()))
      << "stale baseline: regenerate with rds_analyze --emit-baseline";
}

// ---- conventions -----------------------------------------------------------
// Each case analyzes one fixture (or inline source) under a root-relative
// path, which decides the scope: conventions cover src/, tools/ and
// bench/, header rules .hpp files, determinism placement/ and core/.  The
// cases keep the test ids of the retired rds_lint checker, which ran the
// same fixtures.

struct ConventionCase {
  const char* name;
  const char* fixture;  ///< under lint_fixtures/; "" = use `text`
  const char* text;
  const char* path;  ///< the root-relative path it is analyzed as
  std::map<std::string, std::size_t> expected;  ///< rule -> finding count
  std::vector<int> lines;  ///< finding lines, when the case pins them
};

const std::vector<ConventionCase> kConventionCases = {
    {"AtomicMemoryOrderTrips", "atomic_order_bad.cpp", "",
     "src/atomic_order_bad.cpp", {{"atomic-memory-order", 5}}, {}},
    {"AtomicMemoryOrderPasses", "atomic_order_good.cpp", "",
     "src/atomic_order_good.cpp", {}, {}},
    {"ResultPathThrowTrips", "result_throw_bad.cpp", "",
     "src/result_throw_bad.cpp", {{"result-path-throw", 2}}, {}},
    {"ResultPathThrowPasses", "result_throw_good.cpp", "",
     "src/result_throw_good.cpp", {}, {}},
    {"PlacementDeterminismTrips", "placement/determinism_bad.cpp", "",
     "src/placement/determinism_bad.cpp", {{"placement-determinism", 5}}, {}},
    {"PlacementDeterminismPasses", "placement/determinism_good.cpp", "",
     "src/placement/determinism_good.cpp", {}, {}},
    {"HeaderHygieneTrips", "header_bad.hpp", "", "src/header_bad.hpp",
     {{"header-hygiene", 2}}, {1, 5}},  // missing #pragma once -> line 1
    {"HeaderHygienePasses", "header_good.hpp", "", "src/header_good.hpp",
     {}, {}},
    {"MetricsNamingTrips", "metrics_bad.cpp", "", "src/metrics_bad.cpp",
     {{"metrics-naming", 3}}, {}},
    {"MetricsNamingPasses", "metrics_good.cpp", "", "src/metrics_good.cpp",
     {}, {}},
    {"JournalMetricsNamingTrips", "journal/metrics_bad.cpp", "",
     "src/journal/metrics_bad.cpp", {{"metrics-naming", 3}}, {}},
    // Every metric family the journal subsystem actually registers.
    {"JournalMetricsNamingPasses", "journal/metrics_good.cpp", "",
     "src/journal/metrics_good.cpp", {}, {}},
    {"JournalHeaderHygieneTrips", "journal/header_bad.hpp", "",
     "src/journal/header_bad.hpp", {{"header-hygiene", 2}}, {}},
    {"JournalHeaderHygienePasses", "journal/header_good.hpp", "",
     "src/journal/header_good.hpp", {}, {}},
    {"SuppressionsWithReasonsAreHonored", "suppression_good.cpp", "",
     "src/suppression_good.cpp", {}, {}},
    // Bare allow(), wrong rule id, and a comment separated from the finding
    // by another code line all leave the finding standing; the two
    // reasoned-but-useless comments are stale too (the bare one was never
    // a suppression, so it cannot be stale).
    {"BadSuppressionsKeepTheFinding", "suppression_bad.cpp", "",
     "src/suppression_bad.cpp",
     {{"atomic-memory-order", 3}, {"stale-suppression", 2}}, {}},
    // Reported at the comment line, not at the code.
    {"StaleSuppressionTrips", "suppression_stale_bad.cpp", "",
     "src/suppression_stale_bad.cpp", {{"stale-suppression", 1}}, {11}},
    {"StaleSuppressionPasses", "suppression_stale_good.cpp", "",
     "src/suppression_stale_good.cpp", {}, {}},
    // Raw strings holding quotes and comment markers must not desync the
    // lexer; the atomic op after one must still be seen.
    {"TokenizerSurvivesRawStringsAndOddLiterals", "", R"src(
#include <atomic>
const char* kDoc = R"doc(not a "comment" // nor /* one */)doc";
std::atomic<int> v;
int f() { return v.load(); }
)src",
     "src/odd.cpp", {{"atomic-memory-order", 1}}, {5}},
    // An order-less store is no more acceptable inside a closure.
    {"AtomicMemoryOrderFiresInsideLambdaBodies", "", R"src(
#include <atomic>
std::atomic<int> v;
void f() {
  auto g = [] { v.store(1); };
  g();
}
)src",
     "src/lambda.cpp", {{"atomic-memory-order", 1}}, {5}},
    // A throw inside a plain lambda defined in a try_* function belongs to
    // the lambda, not to the enclosing Result path.
    {"ResultPathThrowStopsAtLambdaBoundary", "", R"src(
int try_fetch() {
  auto fail = [](const char* m) { throw m; };
  fail("boom");
  return 0;
}
)src",
     "src/lambda.cpp", {}, {}},
    // The obligation attaches to the lambda itself: declared noexcept, or
    // named like a try_* path through the variable it initializes.
    {"ResultPathThrowFiresInNoexceptAndTryLambdas", "", R"src(
void run() {
  auto cb = [](int v) noexcept { if (v < 0) throw v; };
  auto try_push = [](int v) { if (v < 0) throw v; return v; };
  cb(try_push(1));
}
)src",
     "src/lambda.cpp", {{"result-path-throw", 2}}, {3, 4}},
};

class ConventionTest : public testing::Test {
 public:
  explicit ConventionTest(const ConventionCase& c) : c_(c) {}

  void TestBody() override {
    const std::string text =
        *c_.fixture != '\0' ? read_fixture(c_.fixture) : c_.text;
    const auto findings = rds::analyze::analyze_text(c_.path, text);
    std::map<std::string, std::size_t> counts;
    for (const Finding& f : findings) ++counts[f.rule];
    EXPECT_EQ(counts, c_.expected);
    if (!c_.lines.empty()) {
      EXPECT_EQ(lines_of(findings), c_.lines);
    }
  }

 private:
  const ConventionCase& c_;
};

const bool kConventionCasesRegistered = [] {
  for (const ConventionCase& c : kConventionCases) {
    testing::RegisterTest("RdsLint", c.name, nullptr, nullptr, __FILE__,
                          __LINE__, [&c]() -> testing::Test* {
                            return new ConventionTest(c);
                          });
  }
  return true;
}();

TEST(RdsLint, RuleListIsComplete) {
  // The conventions and the stale-suppression pass share one rule table.
  const std::vector<std::string>& ids = rds::analyze::rule_ids();
  for (const std::string& rule : kConventionRules) {
    EXPECT_NE(std::find(ids.begin(), ids.end(), rule), ids.end()) << rule;
  }
  EXPECT_EQ(ids.back(), "stale-suppression");
}

TEST(RdsLint, PlacementRuleIsPathScoped) {
  // The same entropy calls outside placement/ and core/ are legal.
  const std::string bad = read_fixture("placement/determinism_bad.cpp");
  Options only;
  only.only_rules = {"placement-determinism"};
  EXPECT_FALSE(
      rds::analyze::analyze_text("src/placement/d.cpp", bad, only).empty());
  EXPECT_TRUE(
      rds::analyze::analyze_text("src/sim/workload.cpp", bad, only).empty());
}

TEST(RdsAnalyze, PlacementDeterminismCoversCore) {
  // The paper's placement functions live in src/core/.
  const auto findings = rds::analyze::analyze_text(
      "src/core/determinism_bad.cpp", read_fixture("core/determinism_bad.cpp"));
  EXPECT_EQ(findings.size(), 2u);
  EXPECT_EQ(rules_of(findings),
            std::set<std::string>{"placement-determinism"});
}

TEST(RdsAnalyze, ConventionsCoverOnlyProjectCode) {
  // Tests, examples and the benchmark driver may use seq_cst atomics and
  // their own metric names; only src/, tools/ and bench/ are judged.
  const std::string bad = read_fixture("atomic_order_bad.cpp");
  for (const char* path : {"tests/a.cpp", "examples/a.cpp", "perfbench/a.cpp",
                           "a.cpp", "srcx/a.cpp"}) {
    EXPECT_TRUE(rds::analyze::analyze_text(path, bad).empty()) << path;
  }
  for (const char* path : {"tools/a.cpp", "bench/a.cpp"}) {
    EXPECT_EQ(rds::analyze::analyze_text(path, bad).size(), 5u) << path;
  }
  // Paths are judged relative to Options::root.
  Options opts;
  opts.root = RDS_SOURCE_DIR;
  EXPECT_EQ(rds::analyze::analyze_text(std::string(RDS_SOURCE_DIR) +
                                           "/src/a.cpp",
                                       bad, opts)
                .size(),
            5u);
  EXPECT_TRUE(rds::analyze::analyze_text(std::string(RDS_SOURCE_DIR) +
                                             "/tests/a.cpp",
                                         bad, opts)
                  .empty());
}

TEST(RdsLint, JournalSourcesLintClean) {
  // The shipped journal subsystem obeys every convention (the recovery
  // path is the one most tempted to throw inside Result-returning code).
  const std::string root = RDS_SOURCE_DIR;
  Analyzer analyzer;
  for (const char* file :
       {"/src/journal/journal.cpp", "/src/journal/record.cpp",
        "/src/journal/recovery.cpp", "/src/journal/journal.hpp",
        "/src/journal/record.hpp", "/src/journal/recovery.hpp",
        "/src/journal/torn_write.hpp"}) {
    ASSERT_TRUE(analyzer.add_file(root + file)) << file;
  }
  Options opts;
  opts.only_rules = kConventionRules;
  opts.root = root;
  const auto findings = analyzer.run(opts);
  EXPECT_TRUE(findings.empty())
      << findings.front().file << ":" << findings.front().line << " ["
      << findings.front().rule << "] " << findings.front().message;
}

TEST(RdsLint, LintTreeIsClean) {
  // The storage path, whose RcuCell load()/store() calls once needed
  // allow() comments, obeys every convention with none.
  const std::string root = RDS_SOURCE_DIR;
  Analyzer analyzer;
  ASSERT_TRUE(analyzer.add_file(root + "/src/storage/virtual_disk.hpp"));
  ASSERT_TRUE(analyzer.add_file(root + "/src/storage/virtual_disk.cpp"));
  Options opts;
  opts.only_rules = kConventionRules;
  opts.root = root;
  const auto findings = analyzer.run(opts);
  EXPECT_TRUE(findings.empty())
      << findings.front().file << ":" << findings.front().line << " ["
      << findings.front().rule << "] " << findings.front().message;
}

TEST(RdsLint, StaleSuppressionNeedsAllRules) {
  // With a rule filter the other rules never ran, so "matches nothing"
  // would be meaningless; the stale pass must stay off.
  Options only;
  only.only_rules = {"atomic-memory-order"};
  EXPECT_TRUE(rds::analyze::analyze_text(
                  "src/suppression_stale_bad.cpp",
                  read_fixture("suppression_stale_bad.cpp"), only)
                  .empty());
}

TEST(RdsLint, OnlyRulesFilters) {
  Options only;
  only.only_rules = {"metrics-naming"};
  EXPECT_TRUE(rds::analyze::analyze_text("src/header_bad.hpp",
                                         read_fixture("header_bad.hpp"), only)
                  .empty());
}

TEST(RdsLint, UnreadableFileReportsError) {
  Analyzer analyzer;
  EXPECT_FALSE(analyzer.add_file(fixture_path("does_not_exist.cpp")));
  EXPECT_FALSE(analyzer.io_errors().empty());
}

}  // namespace
