// Dataflow-rule tests: CFG construction over the structured control
// flow the heuristic parser recognizes, the local-definition list the
// rules read, and a firing / suppressed / clean fixture for every
// dataflow rule family (index-width, flow-determinism) — including the
// one-hop pointer-to-comparator flow the token-level determinism rules
// cannot see.  Ends with a golden SARIF shape check.
#include <algorithm>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/analysis/analyzer.h"
#include "src/analysis/cfg.h"
#include "src/analysis/dataflow.h"
#include "src/analysis/finding.h"
#include "src/analysis/lexer.h"
#include "src/analysis/output.h"
#include "src/analysis/parser.h"

namespace vlsipart::analysis {
namespace {

// ---------------------------------------------------------------------
// Harness

struct Built {
  LexedFile lexed;
  ParsedFile parsed;
  int fn = -1;
  Cfg cfg;
};

Built build(const std::string& code, const std::string& name = "f") {
  Built b;
  b.lexed = lex("src/part/fixture.cpp", code);
  b.parsed = parse_file(b.lexed);
  for (std::size_t i = 0; i < b.parsed.functions.size(); ++i) {
    if (b.parsed.functions[i].name == name) b.fn = static_cast<int>(i);
  }
  EXPECT_GE(b.fn, 0) << "function '" << name << "' not parsed";
  if (b.fn >= 0) b.cfg = build_cfg(b.lexed.tokens, b.parsed, b.fn);
  return b;
}

/// Index of the first statement starting on `line`, or -1.
int stmt_on_line(const Cfg& cfg, int line) {
  for (std::size_t i = 0; i < cfg.stmts.size(); ++i) {
    if (cfg.stmts[i].line == line) return static_cast<int>(i);
  }
  return -1;
}

bool has_edge(const Cfg& cfg, int from, int to) {
  const auto& s = cfg.blocks[from].succs;
  return std::find(s.begin(), s.end(), to) != s.end();
}

/// True when some edge b -> s jumps to a dominator of b (a loop).
bool has_back_edge(const Cfg& cfg) {
  for (std::size_t b = 0; b < cfg.blocks.size(); ++b) {
    for (const int s : cfg.blocks[b].succs) {
      if (cfg.dominates(s, static_cast<int>(b))) return true;
    }
  }
  return false;
}

AnalysisResult lint(const std::string& path, const std::string& code,
                    std::vector<std::string> only_rules = {}) {
  AnalyzerOptions options;
  options.only_rules = std::move(only_rules);
  return analyze_buffers({SourceBuffer{path, code}}, {}, options);
}

std::size_t count_rule(const AnalysisResult& r, const std::string& rule) {
  std::size_t n = 0;
  for (const Finding& f : r.findings) {
    if (f.rule == rule) ++n;
  }
  return n;
}

std::string dump(const AnalysisResult& r) {
  std::string out;
  for (const Finding& f : r.findings) out += f.to_string() + "\n";
  for (const std::string& e : r.errors) out += "error: " + e + "\n";
  return out;
}

// ---------------------------------------------------------------------
// CFG construction

TEST(CfgBuild, StraightLineIsOneBlockNoLoops) {
  const Built b = build(
      "void f(int a) {\n"
      "  int x = a;\n"
      "  int y = x + 1;\n"
      "  use(y);\n"
      "}\n");
  ASSERT_EQ(b.cfg.stmts.size(), 3u);
  // All three statements share a block that flows to exit.
  const int s0 = stmt_on_line(b.cfg, 2);
  const int s2 = stmt_on_line(b.cfg, 4);
  ASSERT_GE(s0, 0);
  ASSERT_GE(s2, 0);
  EXPECT_EQ(b.cfg.block_of_stmt[s0], b.cfg.block_of_stmt[s2]);
  EXPECT_FALSE(has_back_edge(b.cfg));
  EXPECT_TRUE(has_edge(b.cfg, b.cfg.block_of_stmt[s2], b.cfg.exit));
}

TEST(CfgBuild, IfElseFormsDiamondWithDominanceAtJoin) {
  const Built b = build(
      "void f(int a) {\n"
      "  int x = 0;\n"
      "  if (a > 0) {\n"
      "    x = 1;\n"
      "  } else {\n"
      "    x = 2;\n"
      "  }\n"
      "  use(x);\n"
      "}\n");
  const int cond = stmt_on_line(b.cfg, 3);
  const int then_s = stmt_on_line(b.cfg, 4);
  const int else_s = stmt_on_line(b.cfg, 6);
  const int join = stmt_on_line(b.cfg, 8);
  ASSERT_GE(cond, 0);
  ASSERT_GE(then_s, 0);
  ASSERT_GE(else_s, 0);
  ASSERT_GE(join, 0);
  // The condition block branches two ways; the branches rejoin.
  EXPECT_EQ(b.cfg.blocks[b.cfg.block_of_stmt[cond]].succs.size(), 2u);
  EXPECT_TRUE(has_edge(b.cfg, b.cfg.block_of_stmt[then_s],
                       b.cfg.block_of_stmt[join]));
  EXPECT_TRUE(has_edge(b.cfg, b.cfg.block_of_stmt[else_s],
                       b.cfg.block_of_stmt[join]));
  // Dominance: the condition dominates the join, neither branch does.
  EXPECT_TRUE(b.cfg.stmt_dominates(cond, join));
  EXPECT_FALSE(b.cfg.stmt_dominates(then_s, join));
  EXPECT_FALSE(b.cfg.stmt_dominates(else_s, join));
}

TEST(CfgBuild, WhileLoopHasBackEdgeAndExitPath) {
  const Built b = build(
      "void f(int n) {\n"
      "  int i = 0;\n"
      "  while (i < n) {\n"
      "    i = i + 1;\n"
      "  }\n"
      "  use(i);\n"
      "}\n");
  EXPECT_TRUE(has_back_edge(b.cfg));
  const int cond = stmt_on_line(b.cfg, 3);
  const int after = stmt_on_line(b.cfg, 6);
  ASSERT_GE(cond, 0);
  ASSERT_GE(after, 0);
  // The loop header both enters the body and skips past it.
  EXPECT_EQ(b.cfg.blocks[b.cfg.block_of_stmt[cond]].succs.size(), 2u);
  EXPECT_TRUE(b.cfg.stmt_dominates(cond, after));
}

TEST(CfgBuild, ClassicForLoopHasBackEdge) {
  const Built b = build(
      "void f(int n) {\n"
      "  for (int i = 0; i < n; ++i) {\n"
      "    use(i);\n"
      "  }\n"
      "  done();\n"
      "}\n");
  EXPECT_TRUE(has_back_edge(b.cfg));
  const int after = stmt_on_line(b.cfg, 5);
  ASSERT_GE(after, 0);
  // Falling out of the loop still reaches the statement after it.
  EXPECT_GE(b.cfg.idom[b.cfg.block_of_stmt[after]], 0);
}

TEST(CfgBuild, EarlyReturnEdgesToExit) {
  const Built b = build(
      "int f(int a) {\n"
      "  if (a < 0) {\n"
      "    return -1;\n"
      "  }\n"
      "  use(a);\n"
      "  return a;\n"
      "}\n");
  const int ret = stmt_on_line(b.cfg, 3);
  const int after = stmt_on_line(b.cfg, 5);
  ASSERT_GE(ret, 0);
  ASSERT_GE(after, 0);
  const auto& ret_succs = b.cfg.blocks[b.cfg.block_of_stmt[ret]].succs;
  ASSERT_EQ(ret_succs.size(), 1u);
  EXPECT_EQ(ret_succs[0], b.cfg.exit);
  // The early return must NOT dominate the fall-through path.
  EXPECT_FALSE(b.cfg.stmt_dominates(ret, after));
}

TEST(CfgBuild, SwitchCasesBranchFromHeaderAndBreakLeaves) {
  const Built b = build(
      "void f(int a) {\n"
      "  int x = 0;\n"
      "  switch (a) {\n"
      "    case 0:\n"
      "      x = 1;\n"
      "      break;\n"
      "    case 1:\n"
      "      x = 2;\n"
      "      break;\n"
      "    default:\n"
      "      x = 3;\n"
      "  }\n"
      "  use(x);\n"
      "}\n");
  const int head = stmt_on_line(b.cfg, 3);
  const int c0 = stmt_on_line(b.cfg, 5);
  const int c1 = stmt_on_line(b.cfg, 8);
  const int join = stmt_on_line(b.cfg, 13);
  ASSERT_GE(head, 0);
  ASSERT_GE(c0, 0);
  ASSERT_GE(c1, 0);
  ASSERT_GE(join, 0);
  // The switch head reaches every arm; break'ed arms rejoin after it.
  EXPECT_GE(b.cfg.blocks[b.cfg.block_of_stmt[head]].succs.size(), 3u);
  EXPECT_TRUE(b.cfg.stmt_dominates(head, join));
  EXPECT_FALSE(b.cfg.stmt_dominates(c0, join));
  EXPECT_FALSE(b.cfg.stmt_dominates(c1, join));
}

TEST(CfgBuild, NestedScopesAndLambdaBodiesStayOpaque) {
  const Built b = build(
      "void f(int a) {\n"
      "  int x = 0;\n"
      "  {\n"
      "    int y = a;\n"
      "    if (y > 0) {\n"
      "      x = y;\n"
      "    }\n"
      "  }\n"
      "  auto g = [&](int t) { return t + x; };\n"
      "  use(g);\n"
      "}\n");
  // The nested-scope statements appear as ordinary statements...
  EXPECT_GE(stmt_on_line(b.cfg, 4), 0);
  EXPECT_GE(stmt_on_line(b.cfg, 6), 0);
  // ...and the lambda is a single statement of the outer CFG: no
  // statement starts inside its body (the `return` belongs to it).
  const int lam = stmt_on_line(b.cfg, 9);
  ASSERT_GE(lam, 0);
  int stmts_on_9 = 0;
  for (const CfgStmt& s : b.cfg.stmts) {
    if (s.line == 9) ++stmts_on_9;
  }
  EXPECT_EQ(stmts_on_9, 1);
}

// ---------------------------------------------------------------------
// Local definitions: the def list the dataflow rules walk

LocalDefs defs_of(const Built& b) {
  return collect_local_defs(b.lexed.tokens, b.parsed, b.fn, b.cfg);
}

/// Lines of every def of `var` in token order (parameter defs report
/// line 0).
std::vector<int> def_lines(const Built& b, const LocalDefs& ld,
                           const std::string& var) {
  const int v = ld.var_index(var);
  EXPECT_GE(v, 0) << var;
  std::vector<int> lines;
  for (const Def& d : ld.defs) {
    if (d.var != v) continue;
    lines.push_back(d.stmt < 0 ? 0 : b.lexed.tokens[d.token].line);
  }
  return lines;
}

TEST(LocalDefsTest, DeclarationsAssignmentsAndIncrementsAreDefs) {
  const Built b = build(
      "int f(int n) {\n"
      "  int i = 0;\n"
      "  while (i < n) {\n"
      "    i += 2;\n"
      "    ++i;\n"
      "  }\n"
      "  return i;\n"
      "}\n");
  const LocalDefs ld = defs_of(b);
  // Reads (lines 3 and 7) are not defs.
  EXPECT_EQ(def_lines(b, ld, "i"), (std::vector<int>{2, 4, 5}));
}

TEST(LocalDefsTest, ParamsDefineAtEntry) {
  const Built b = build(
      "int f(int a) {\n"
      "  return a + 1;\n"
      "}\n");
  const LocalDefs ld = defs_of(b);
  EXPECT_EQ(def_lines(b, ld, "a"), (std::vector<int>{0}));
}

TEST(LocalDefsTest, AddressTakenAndOutParamsAreDefs) {
  const Built b = build(
      "int f() {\n"
      "  int x = 1;\n"
      "  fill(&x);\n"
      "  read_into(x);\n"
      "  return x;\n"
      "}\n");
  const LocalDefs ld = defs_of(b);
  // '&x' and a bare call argument may write x.
  EXPECT_EQ(def_lines(b, ld, "x"), (std::vector<int>{2, 3, 4}));
}

TEST(LocalDefsTest, PointerDeclaratorsAndTypesAreRecorded) {
  const Built b = build(
      "void f(const Item* items) {\n"
      "  std::size_t n = count(items);\n"
      "  unsigned long m = n;\n"
      "}\n");
  const LocalDefs ld = defs_of(b);
  const int items = ld.var_index("items");
  const int n = ld.var_index("n");
  const int m = ld.var_index("m");
  ASSERT_GE(items, 0);
  ASSERT_GE(n, 0);
  ASSERT_GE(m, 0);
  EXPECT_TRUE(ld.vars[items].is_pointer);
  EXPECT_EQ(ld.vars[n].type_name, "size_t");
  EXPECT_FALSE(ld.vars[n].is_pointer);
  EXPECT_EQ(ld.vars[m].type_name, "long");
}

// ---------------------------------------------------------------------
// index-width rules

TEST(IndexWidth, NarrowingCastFires) {
  const AnalysisResult r = lint("src/hypergraph/fix.cpp",
                                "void f(const Hypergraph& h) {\n"
                                "  const std::size_t n = h.num_vertices();\n"
                                "  const auto v = static_cast<unsigned>(n);\n"
                                "  use(v);\n"
                                "}\n");
  EXPECT_EQ(count_rule(r, "narrowing-cast"), 1u) << dump(r);
}

TEST(IndexWidth, DominatingGuardSuppressesCast) {
  const AnalysisResult r =
      lint("src/part/fix.cpp",
           "void f(const Hypergraph& h) {\n"
           "  const std::size_t n = h.num_vertices();\n"
           "  VP_CHECK(n <= kInvalidVertex, \"fits\");\n"
           "  const auto v = static_cast<unsigned>(n);\n"
           "  use(v);\n"
           "}\n");
  EXPECT_EQ(count_rule(r, "narrowing-cast"), 0u) << dump(r);
}

TEST(IndexWidth, NonDominatingGuardStillFires) {
  const AnalysisResult r =
      lint("src/part/fix.cpp",
           "void f(const Hypergraph& h, bool paranoid) {\n"
           "  const std::size_t n = h.num_vertices();\n"
           "  if (paranoid) {\n"
           "    VP_CHECK(n <= kInvalidVertex, \"fits\");\n"
           "  }\n"
           "  const auto v = static_cast<unsigned>(n);\n"
           "  use(v);\n"
           "}\n");
  // A guard on only one path proves nothing at the cast.
  EXPECT_EQ(count_rule(r, "narrowing-cast"), 1u) << dump(r);
}

TEST(IndexWidth, CheckedNarrowIsClean) {
  const AnalysisResult r =
      lint("src/part/fix.cpp",
           "void f(const Hypergraph& h) {\n"
           "  const std::size_t n = h.num_vertices();\n"
           "  const auto v = vp::checked_narrow<unsigned>(n);\n"
           "  use(v);\n"
           "}\n");
  EXPECT_EQ(count_rule(r, "narrowing-cast"), 0u) << dump(r);
}

TEST(IndexWidth, AllowCommentSuppresses) {
  const AnalysisResult r =
      lint("src/part/fix.cpp",
           "void f(const Hypergraph& h) {\n"
           "  const std::size_t n = h.num_vertices();\n"
           "  // det-lint: allow(narrowing-cast) n fits by construction\n"
           "  const auto v = static_cast<unsigned>(n);\n"
           "  use(v);\n"
           "}\n");
  EXPECT_EQ(count_rule(r, "narrowing-cast"), 0u) << dump(r);
  EXPECT_GE(r.suppressed, 1u);
}

TEST(IndexWidth, OutsideCoreDirsIsOutOfScope) {
  const AnalysisResult r = lint("src/io/fix.cpp",
                                "void f(const Hypergraph& h) {\n"
                                "  const std::size_t n = h.num_vertices();\n"
                                "  const auto v = static_cast<unsigned>(n);\n"
                                "  use(v);\n"
                                "}\n");
  EXPECT_EQ(count_rule(r, "narrowing-cast"), 0u) << dump(r);
}

// ---------------------------------------------------------------------
// flow-determinism rules

// The acceptance fixture: a pointer flows through one assignment into a
// sort comparator.  The token-level pointer rules (pointer-sort-key:
// pointer-typed comparator parameters; pointer-compare: operator< over
// pointer parameters) cannot see it — the comparator's parameters are
// plain ints — but the dataflow taint does.
TEST(FlowDeterminism, OneHopPointerIntoComparatorIsCaught) {
  const AnalysisResult r = lint(
      "src/part/fix.cpp",
      "void f(std::vector<int>& ids, const std::vector<Node>& nodes) {\n"
      "  const Node* base = nodes.data();\n"
      "  std::sort(ids.begin(), ids.end(),\n"
      "            [&](int a, int b) { return base + a < base + b; });\n"
      "}\n");
  EXPECT_EQ(count_rule(r, "tainted-comparator"), 1u) << dump(r);
  // The old token-level rules miss this shape entirely.
  EXPECT_EQ(count_rule(r, "pointer-sort-key"), 0u) << dump(r);
  EXPECT_EQ(count_rule(r, "pointer-compare"), 0u) << dump(r);
}

TEST(FlowDeterminism, AllowCommentSuppressesComparator) {
  const AnalysisResult r = lint(
      "src/part/fix.cpp",
      "void f(std::vector<int>& ids, const std::vector<Node>& nodes) {\n"
      "  const Node* base = nodes.data();\n"
      "  std::sort(ids.begin(), ids.end(),  // det-lint: allow(tainted-comparator)\n"
      "            [&](int a, int b) { return base + a < base + b; });\n"
      "}\n");
  EXPECT_EQ(count_rule(r, "tainted-comparator"), 0u) << dump(r);
  EXPECT_GE(r.suppressed, 1u);
}

TEST(FlowDeterminism, PointerDifferenceIsClean) {
  // A pointer difference is an offset, not an address: comparing offsets
  // is deterministic, so the subtraction launders the taint.
  const AnalysisResult r = lint(
      "src/part/fix.cpp",
      "void f(std::vector<int>& ids, const Item* begin, const Item* it) {\n"
      "  const std::ptrdiff_t off = it - begin;\n"
      "  std::sort(ids.begin(), ids.end(),\n"
      "            [&](int a, int b) { return a * off < b * off; });\n"
      "}\n");
  EXPECT_EQ(count_rule(r, "tainted-comparator"), 0u) << dump(r);
}

TEST(FlowDeterminism, ValueComparatorIsClean) {
  const AnalysisResult r = lint(
      "src/part/fix.cpp",
      "void f(std::vector<int>& ids, const std::vector<int>& key) {\n"
      "  std::sort(ids.begin(), ids.end(),\n"
      "            [&](int a, int b) { return key[a] < key[b]; });\n"
      "}\n");
  EXPECT_EQ(count_rule(r, "tainted-comparator"), 0u) << dump(r);
}

// ---------------------------------------------------------------------
// dead-store rules

// ---------------------------------------------------------------------
// Rule filter + SARIF shape

TEST(RuleFilter, FamilyNameSelectsAllDataflowRules) {
  const std::string code =
      "void f(const Hypergraph& h) {\n"
      "  const std::size_t n = h.num_vertices();\n"
      "  const auto v = static_cast<unsigned>(n);\n"
      "  use(v);\n"
      "}\n";
  const AnalysisResult fam = lint("src/part/fix.cpp", code, {"index-width"});
  EXPECT_EQ(count_rule(fam, "narrowing-cast"), 1u) << dump(fam);
  // ...and a disjoint family filter turns them off.
  const AnalysisResult off =
      lint("src/part/fix.cpp", code, {"flow-determinism"});
  EXPECT_EQ(count_rule(off, "narrowing-cast"), 0u) << dump(off);
}

TEST(SarifOutput, DataflowFindingGoldenShape) {
  const AnalysisResult r = lint("src/hypergraph/fix.cpp",
                                "void f(const Hypergraph& h) {\n"
                                "  const std::size_t n = h.num_vertices();\n"
                                "  const auto v = static_cast<unsigned>(n);\n"
                                "  use(v);\n"
                                "}\n",
                                {"index-width"});
  ASSERT_EQ(r.findings.size(), 1u) << dump(r);
  const std::string s = render_sarif(r);
  EXPECT_NE(s.find("sarif-schema-2.1.0"), std::string::npos);
  EXPECT_NE(s.find("\"ruleId\": \"narrowing-cast\""), std::string::npos);
  EXPECT_NE(s.find("\"uri\": \"src/hypergraph/fix.cpp\""),
            std::string::npos);
  EXPECT_NE(s.find("\"startLine\": 3"), std::string::npos);
  // The driver catalog advertises both dataflow families, and only them.
  EXPECT_NE(s.find("\"family\": \"index-width\""), std::string::npos);
  EXPECT_NE(s.find("\"family\": \"flow-determinism\""), std::string::npos);
  EXPECT_EQ(s.find("\"family\": \"dead-store\""), std::string::npos);
}

}  // namespace
}  // namespace vlsipart::analysis
