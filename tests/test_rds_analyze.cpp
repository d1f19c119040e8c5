// rds_analyze contract tests: every flow rule fires on its tripping
// fixture and stays quiet on its passing twin, suppressions carry over
// from rds_lint, the reporting back ends round-trip, and the committed
// baseline reproduces byte-for-byte over the tree
// (docs/static_analysis.md).
#include <fstream>
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
  return std::string(RDS_LINT_FIXTURE_DIR) + "/flow/" + name;
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

TEST(RdsAnalyze, RuleListIsComplete) {
  const std::vector<std::string> expected = {
      "lock-order",        "journal-protocol",
      "metric-balance",    "result-flow",
      "capacity-arith",    "rcu-escape",
      "lock-held-across-call", "shared-state-race",
      "lambda-escape",     "annotation-drift",
      "stale-suppression"};
  EXPECT_EQ(rds::analyze::rule_ids(), expected);
}

TEST(RdsAnalyze, LockOrderTrips) {
  const auto findings = analyze_fixture("lock_order_bad.cpp");
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(rules_of(findings), std::set<std::string>{"lock-order"});
  // One cycle finding, one pool/volume inversion finding.
  EXPECT_NE(findings[0].message.find("cycle"), std::string::npos);
  EXPECT_NE(findings[1].message.find("inverts"), std::string::npos);
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

TEST(RdsAnalyze, MetricBalanceTripsOnHistoricalBatchPlacerShape) {
  const auto findings = analyze_fixture("gauge_leak_bad.cpp");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "metric-balance");
  // The finding points at the add(), not at the leaky call after it.
  EXPECT_EQ(findings[0].line, 15);
  EXPECT_NE(findings[0].message.find("inflight_"), std::string::npos);
  EXPECT_NE(findings[0].message.find("GaugeGuard"), std::string::npos);
}

TEST(RdsAnalyze, MetricBalancePassesGuardAndManualBalance) {
  EXPECT_TRUE(analyze_fixture("gauge_leak_good.cpp").empty());
}

TEST(RdsAnalyze, MetricBalanceTripsOnLoadSimInflightShape) {
  // The read-path simulator's per-request in-flight gauge: a throwing
  // selector call between add() and sub() leaks on the exception edge.
  const auto findings = analyze_fixture("loadsim_gauge_bad.cpp");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "metric-balance");
  EXPECT_EQ(findings[0].line, 15);
  EXPECT_NE(findings[0].message.find("inflight_"), std::string::npos);
}

TEST(RdsAnalyze, MetricBalancePassesLoadSimGuardShape) {
  // The guard shape src/sim/load_sim.cpp uses, plus the manual balance.
  EXPECT_TRUE(analyze_fixture("loadsim_gauge_good.cpp").empty());
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

TEST(RdsAnalyze, InterproceduralGaugeLeakTrips) {
  // finish() subs on all of ITS paths, but the throwing call before it
  // leaks the add on the exception edge.
  const auto findings = analyze_fixture("interproc_gauge_bad.cpp");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "metric-balance");
  EXPECT_EQ(findings[0].line, 11);
}

TEST(RdsAnalyze, InterproceduralGaugeBalancePasses) {
  // The callee's subs-on-all-paths summary balances the add at its call
  // site when nothing throwing sits in between.
  EXPECT_TRUE(analyze_fixture("interproc_gauge_good.cpp").empty());
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

// ---- lockset race model (shared-state-race / lambda-escape / drift) ---------

TEST(RdsAnalyze, SharedStateRaceTrips) {
  const auto findings = analyze_fixture("race_member_bad.cpp");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "shared-state-race");
  // Anchored at the unlocked write, not at the locked read.
  EXPECT_EQ(findings[0].line, 11);
  EXPECT_NE(findings[0].message.find("'count_'"), std::string::npos);
  EXPECT_NE(findings[0].message.find("no common lock"), std::string::npos);
}

TEST(RdsAnalyze, SharedStateRacePassesAtomicAnnotatedAndConfined) {
  // Atomic counter, annotated guarded member, and a member written only
  // through an init helper the ctor calls: all benign.
  EXPECT_TRUE(analyze_fixture("race_member_good.cpp").empty());
}

TEST(RdsAnalyze, ConstructionConfinementCoversInitHelpers) {
  Analyzer analyzer;
  ASSERT_TRUE(analyzer.add_file(fixture_path("race_member_good.cpp")));
  (void)analyzer.run();
  bool saw_quota = false;
  for (const rds::analyze::MemberReport& r :
       analyzer.race_model().members()) {
    if (r.decl.name != "quota_") continue;
    saw_quota = true;
    // The write in init_limits() counts as construction because every
    // call site of init_limits() sits inside the Ledger ctor.
    EXPECT_EQ(r.classification, "const-after-construction");
    EXPECT_EQ(r.construction_writes, 1);
    EXPECT_FALSE(r.has_write);
  }
  EXPECT_TRUE(saw_quota);
}

TEST(RdsAnalyze, LambdaEscapeTrips) {
  const auto findings = analyze_fixture("lambda_escape_bad.cpp");
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(rules_of(findings), std::set<std::string>{"lambda-escape"});
  EXPECT_EQ(lines_of(findings), (std::vector<int>{12, 17}));
  EXPECT_NE(findings[0].message.find("executor_.submit"), std::string::npos);
  EXPECT_NE(findings[1].message.find("no join()"), std::string::npos);
}

TEST(RdsAnalyze, LambdaEscapePassesValueJoinAndInline) {
  EXPECT_TRUE(analyze_fixture("lambda_escape_good.cpp").empty());
}

TEST(RdsAnalyze, LambdaEscapeClassification) {
  // Lambda bodies are extracted as full Functions with CFGs and linked
  // back to their definition sites; the escape kinds follow the sink.
  Analyzer analyzer;
  ASSERT_TRUE(analyzer.add_file(fixture_path("lambda_escape_good.cpp")));
  (void)analyzer.run();
  const auto& lambdas = analyzer.race_model().lambdas();
  ASSERT_EQ(lambdas.size(), 3u);
  using rds::analyze::LambdaEscape;
  // start(): submitted by value -> deferred, no by-ref capture.
  EXPECT_EQ(lambdas[0].escape, LambdaEscape::kDeferred);
  EXPECT_FALSE(lambdas[0].captures_ref);
  // fanout(): worker thread, joined in the defining frame.
  EXPECT_EQ(lambdas[1].escape, LambdaEscape::kThread);
  EXPECT_TRUE(lambdas[1].joined);
  EXPECT_TRUE(lambdas[1].captures_ref);
  // fold(): algorithm callback runs inline on the defining thread.
  EXPECT_EQ(lambdas[2].escape, LambdaEscape::kInline);
  EXPECT_FALSE(lambdas[2].on_other_thread);
  for (const rds::analyze::LambdaFacts& lf : lambdas) {
    EXPECT_NE(lf.parent, nullptr);
    EXPECT_FALSE(lf.fn->body.empty());  // the body was not excised
  }
}

TEST(RdsAnalyze, AnnotationDriftTrips) {
  const auto findings = analyze_fixture("annotation_drift_bad.cpp");
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(rules_of(findings), std::set<std::string>{"annotation-drift"});
  // Wrong annotation anchors at the access, missing at the declaration.
  EXPECT_EQ(lines_of(findings), (std::vector<int>{23, 29}));
  EXPECT_NE(findings[0].message.find("'stamp_'"), std::string::npos);
  EXPECT_NE(findings[0].message.find("fix the annotation"),
            std::string::npos);
  EXPECT_NE(findings[1].message.find("'value_'"), std::string::npos);
  EXPECT_NE(findings[1].message.find("declares no RDS_GUARDED_BY"),
            std::string::npos);
}

TEST(RdsAnalyze, AnnotationDriftPasses) {
  EXPECT_TRUE(analyze_fixture("annotation_drift_good.cpp").empty());
}

TEST(RdsAnalyze, AccessesJsonDumpsMembersAndLambdas) {
  Analyzer analyzer;
  ASSERT_TRUE(analyzer.add_file(fixture_path("race_member_bad.cpp")));
  ASSERT_TRUE(analyzer.add_file(fixture_path("lambda_escape_bad.cpp")));
  (void)analyzer.run();
  const std::string json = rds::analyze::accesses_to_json(
      analyzer.race_model(), RDS_LINT_FIXTURE_DIR);
  EXPECT_NE(json.find("\"class\": \"Ledger\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"count_\""), std::string::npos);
  EXPECT_NE(json.find("\"classification\": \"unguarded\""),
            std::string::npos);
  EXPECT_NE(json.find("\"classification\": \"guarded\""), std::string::npos);
  EXPECT_NE(json.find("\"Ledger::mu_\""), std::string::npos);
  EXPECT_NE(json.find("\"escape\": \"thread\""), std::string::npos);
  EXPECT_NE(json.find("\"escape\": \"deferred\""), std::string::npos);
  EXPECT_NE(json.find("flow/race_member_bad.cpp"), std::string::npos);
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
  ASSERT_TRUE(analyzer.add_file(fixture_path("interproc_gauge_bad.cpp")));
  ASSERT_TRUE(analyzer.add_file(fixture_path("result_callee_bad.cpp")));
  ASSERT_TRUE(analyzer.add_file(fixture_path("rcu_escape_return_good.cpp")));
  (void)analyzer.run();
  const rds::analyze::Summaries& sums = analyzer.summaries();
  EXPECT_TRUE(
      sums.of({"Placer", "finish"}).subs_on_all_paths.contains("inflight_"));
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
      rds::analyze::to_sarif(findings, RDS_LINT_FIXTURE_DIR);
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\": \"capacity-arith\""), std::string::npos);
  EXPECT_NE(sarif.find("flow/capacity_math_bad.cpp"), std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\": 14"), std::string::npos);
}

TEST(RdsAnalyze, BaselineRoundTripsAndRatchets) {
  const auto findings = analyze_fixture("capacity_math_bad.cpp");
  ASSERT_EQ(findings.size(), 3u);
  const std::string root = RDS_LINT_FIXTURE_DIR;
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
  const std::string root = RDS_LINT_SOURCE_DIR;
  const std::vector<std::string> sources = rds::analyze::collect_sources(
      {root + "/src", root + "/tools", root + "/bench"});
  ASSERT_FALSE(sources.empty());
  Analyzer analyzer;
  for (const std::string& s : sources) analyzer.add_file(s);
  ASSERT_TRUE(analyzer.io_errors().empty());
  const std::string regenerated =
      rds::analyze::format_baseline(analyzer.run(), root);

  std::ifstream in(root + "/tools/rds_analyze/baseline.txt",
                   std::ios::binary);
  ASSERT_TRUE(in) << "missing tools/rds_analyze/baseline.txt";
  std::ostringstream committed;
  committed << in.rdbuf();
  EXPECT_EQ(rds::analyze::parse_baseline(regenerated),
            rds::analyze::parse_baseline(committed.str()))
      << "stale baseline: regenerate with rds_analyze --emit-baseline";
}

}  // namespace
