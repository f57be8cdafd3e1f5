// Scope/function extractor and call-graph tests: qualified definition
// parsing, member ownership, lambda capture sites, overload resolution
// by name + arity, recursion cycles, and the hot-path purity rule's
// root-to-offender chains (firing and suppressed).
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/analysis/analyzer.h"
#include "src/analysis/callgraph.h"
#include "src/analysis/lexer.h"
#include "src/analysis/parser.h"
#include "src/analysis/rules_internal.h"

namespace vlsipart::analysis {
namespace {

ParsedFile parse(const std::string& code) {
  return parse_file(lex("src/x.cpp", code));
}

std::string dump_findings(const AnalysisResult& r) {
  std::string out;
  for (const Finding& f : r.findings) out += f.to_string() + "\n";
  return out;
}

const FunctionDef* find_def(const ParsedFile& p, const std::string& name) {
  for (const FunctionDef& d : p.functions) {
    if (d.name == name || d.qualified_name == name) return &d;
  }
  return nullptr;
}

// ---------------------------------------------------------------------
// Parser: definitions, qualification, ownership

TEST(Parser, FreeFunctionAndQualifiedMember) {
  const ParsedFile p = parse(
      "int helper(int a, int b) { return a + b; }\n"
      "int Widget::tick(int n) { return helper(n, 1); }\n");
  const FunctionDef* helper = find_def(p, "helper");
  ASSERT_NE(helper, nullptr);
  EXPECT_EQ(helper->qualified_name, "helper");
  EXPECT_TRUE(helper->owner.empty());
  EXPECT_EQ(helper->min_arity, 2u);
  EXPECT_EQ(helper->max_arity, 2u);

  const FunctionDef* tick = find_def(p, "Widget::tick");
  ASSERT_NE(tick, nullptr);
  EXPECT_EQ(tick->name, "tick");
  EXPECT_EQ(tick->owner, "Widget");
}

TEST(Parser, InlineClassMembersAreOwned) {
  const ParsedFile p = parse(
      "class Counter {\n"
      " public:\n"
      "  void bump() { ++n_; }\n"
      "  int get() const { return n_; }\n"
      " private:\n"
      "  int n_ = 0;\n"
      "};\n");
  const FunctionDef* bump = find_def(p, "bump");
  ASSERT_NE(bump, nullptr);
  EXPECT_EQ(bump->owner, "Counter");
  EXPECT_EQ(bump->qualified_name, "Counter::bump");
  const FunctionDef* get = find_def(p, "get");
  ASSERT_NE(get, nullptr);
  EXPECT_EQ(get->owner, "Counter");
}

TEST(Parser, DefaultArgumentsLowerMinArity) {
  const ParsedFile p = parse("int f(int a, int b = 2, int c = 3) { return a; }\n");
  const FunctionDef* f = find_def(p, "f");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->min_arity, 1u);
  EXPECT_EQ(f->max_arity, 3u);
}

TEST(Parser, ConstructorWithInitList) {
  const ParsedFile p = parse(
      "Widget::Widget(int n) : n_(n), data_(n, 0) { setup(); }\n");
  const FunctionDef* ctor = find_def(p, "Widget::Widget");
  ASSERT_NE(ctor, nullptr);
  EXPECT_EQ(ctor->owner, "Widget");
  EXPECT_EQ(ctor->min_arity, 1u);
}

TEST(Parser, LambdaBodiesWithCaptureSites) {
  const ParsedFile p = parse(
      "void Widget::scan(int n) {\n"
      "  auto body = [this, n](int i) { use(i + n); };\n"
      "  auto untied = [&]() { return 1; };\n"
      "  body(0);\n"
      "}\n");
  const FunctionDef* scan = find_def(p, "Widget::scan");
  ASSERT_NE(scan, nullptr);

  const FunctionDef* body = find_def(p, "body");
  ASSERT_NE(body, nullptr);
  EXPECT_TRUE(body->is_lambda);
  EXPECT_EQ(body->qualified_name, "Widget::scan::body");
  EXPECT_EQ(body->parent, static_cast<int>(scan - p.functions.data()));
  EXPECT_EQ(body->max_arity, 1u);

  const FunctionDef* untied = find_def(p, "untied");
  ASSERT_NE(untied, nullptr);
  EXPECT_TRUE(untied->is_lambda);
  EXPECT_EQ(untied->max_arity, 0u);
}

TEST(Parser, EnclosingFindsInnermostSpan) {
  const std::string code =
      "void outer() {\n"
      "  auto inner = [] { int deep = 1; };\n"
      "  inner();\n"
      "}\n";
  const LexedFile f = lex("src/x.cpp", code);
  const ParsedFile p = parse_file(f);
  std::size_t deep_tok = 0;
  for (std::size_t i = 0; i < f.tokens.size(); ++i) {
    if (f.tokens[i].is_ident("deep")) deep_tok = i;
  }
  ASSERT_GT(deep_tok, 0u);
  const int idx = p.enclosing(deep_tok, /*named_only=*/false);
  ASSERT_GE(idx, 0);
  EXPECT_TRUE(p.functions[idx].is_lambda);
}

// ---------------------------------------------------------------------
// Call graph: resolution by name + arity, cycles

Corpus corpus_of(const std::string& code) {
  Corpus c;
  c.units.push_back(FileUnit{lex("src/x.cpp", code), true});
  return c;
}

const CallSite* find_call(const CallGraph& g, const std::string& caller,
                          const std::string& name) {
  for (std::size_t f = 0; f < g.functions.size(); ++f) {
    if (g.functions[f].qualified_name != caller) continue;
    for (const CallSite& s : g.calls[f]) {
      if (s.name == name) return &s;
    }
  }
  return nullptr;
}

TEST(CallGraphBuild, OverloadResolutionByArity) {
  const Corpus c = corpus_of(
      "int score(int a) { return a; }\n"
      "int score(int a, int b) { return a + b; }\n"
      "int use() { return score(1, 2); }\n");
  const CallGraph g = build_call_graph(c);
  const CallSite* call = find_call(g, "use", "score");
  ASSERT_NE(call, nullptr);
  EXPECT_EQ(call->args, 2u);
  ASSERT_EQ(call->callees.size(), 1u);
  EXPECT_EQ(g.functions[call->callees[0]].max_arity, 2u);
}

TEST(CallGraphBuild, QualifiedCallRestrictsByOwner) {
  const Corpus c = corpus_of(
      "int A::run(int x) { return x; }\n"
      "int B::run(int x) { return 2 * x; }\n"
      "int use(int x) { return B::run(x); }\n");
  const CallGraph g = build_call_graph(c);
  const CallSite* call = find_call(g, "use", "run");
  ASSERT_NE(call, nullptr);
  ASSERT_EQ(call->callees.size(), 1u);
  EXPECT_EQ(g.functions[call->callees[0]].qualified_name, "B::run");
}

TEST(CallGraphBuild, StdCallsNeverResolve) {
  const Corpus c = corpus_of(
      "int move(int x) { return x; }\n"
      "int use(int x) { return std::move(x); }\n");
  const CallGraph g = build_call_graph(c);
  const CallSite* call = find_call(g, "use", "move");
  ASSERT_NE(call, nullptr);
  EXPECT_TRUE(call->callees.empty());
}

TEST(CallGraphBuild, RecursionCycleDoesNotLoop) {
  const Corpus c = corpus_of(
      "int even(int n);\n"
      "int odd(int n) { return n == 0 ? 0 : even(n - 1); }\n"
      "int even(int n) { return n == 0 ? 1 : odd(n - 1); }\n"
      "int self(int n) { return n <= 1 ? n : self(n - 1); }\n");
  const CallGraph g = build_call_graph(c);
  const CallSite* odd_call = find_call(g, "odd", "even");
  ASSERT_NE(odd_call, nullptr);
  EXPECT_EQ(odd_call->callees.size(), 1u);
  const CallSite* self_call = find_call(g, "self", "self");
  ASSERT_NE(self_call, nullptr);
  ASSERT_EQ(self_call->callees.size(), 1u);
  EXPECT_EQ(g.functions[self_call->callees[0]].name, "self");
}

TEST(CallGraphBuild, DeclarationIsNotACall) {
  const Corpus c = corpus_of(
      "int make(int x) { return x; }\n"
      "int use() {\n"
      "  Widget make(3);\n"  // declaration with ctor args, not a call
      "  return 0;\n"
      "}\n");
  const CallGraph g = build_call_graph(c);
  EXPECT_EQ(find_call(g, "use", "make"), nullptr);
}

TEST(CallGraphBuild, LambdaIsChildOfHost) {
  const Corpus c = corpus_of(
      "void host() {\n"
      "  auto work = [](int i) { return i; };\n"
      "  work(1);\n"
      "}\n");
  const CallGraph g = build_call_graph(c);
  int host = -1;
  for (std::size_t f = 0; f < g.functions.size(); ++f) {
    if (g.functions[f].qualified_name == "host") host = static_cast<int>(f);
  }
  ASSERT_GE(host, 0);
  ASSERT_EQ(g.children[host].size(), 1u);
  EXPECT_TRUE(g.functions[g.children[host][0]].is_lambda);
}

// ---------------------------------------------------------------------
// Hot-path purity: chains, firing vs suppressed

AnalysisResult lint(const std::string& code) {
  AnalyzerOptions options;
  return analyze_buffers({SourceBuffer{"src/part/hot.cpp", code}}, {},
                         options);
}

std::size_t hotpath_count(const AnalysisResult& r) {
  std::size_t n = 0;
  for (const Finding& f : r.findings) {
    if (f.rule == "hot-path-purity") ++n;
  }
  return n;
}

TEST(HotPathRule, FiresTransitivelyWithChain) {
  const AnalysisResult r = lint(
      "// hot-path: root\n"
      "void Refiner::run_pass() { step(1); }\n"
      "void Refiner::step(int n) { grow(n); }\n"
      "void Refiner::grow(int n) { log_.push_back(n); }\n");
  ASSERT_EQ(hotpath_count(r), 1u) << dump_findings(r);
  const std::string& msg = r.findings[0].message;
  EXPECT_NE(msg.find("push_back"), std::string::npos) << msg;
  EXPECT_NE(
      msg.find("Refiner::run_pass -> Refiner::step -> Refiner::grow"),
      std::string::npos)
      << msg;
}

TEST(HotPathRule, DirectNewFires) {
  const AnalysisResult r = lint(
      "// hot-path: root\n"
      "void run_pass() { int* p = new int[4]; use(p); }\n");
  EXPECT_EQ(hotpath_count(r), 1u) << dump_findings(r);
}

TEST(HotPathRule, LambdaInsideHotFunctionIsWalked) {
  const AnalysisResult r = lint(
      "// hot-path: root\n"
      "void run_pass() {\n"
      "  auto cmp = [&](int a, int b) { scratch_.resize(a); return a < b; };\n"
      "  cmp(1, 2);\n"
      "}\n");
  ASSERT_EQ(hotpath_count(r), 1u) << dump_findings(r);
  EXPECT_NE(r.findings[0].message.find("resize"), std::string::npos);
}

TEST(HotPathRule, AllowWithReasonSuppresses) {
  const AnalysisResult r = lint(
      "// hot-path: root\n"
      "void run_pass() {\n"
      "  log_.push_back(1);  // hot-path: allow(amortized growth)\n"
      "}\n");
  EXPECT_EQ(hotpath_count(r), 0u) << dump_findings(r);
  EXPECT_GE(r.suppressed, 1u);
}

TEST(HotPathRule, EmptyAllowReasonDoesNotSuppress) {
  const AnalysisResult r = lint(
      "// hot-path: root\n"
      "void run_pass() {\n"
      "  log_.push_back(1);  // hot-path: allow()\n"
      "}\n");
  EXPECT_EQ(hotpath_count(r), 1u) << dump_findings(r);
}

TEST(HotPathRule, AllowPrunesCallEdge) {
  const AnalysisResult r = lint(
      "// hot-path: root\n"
      "void run_pass() {\n"
      "  audit();  // hot-path: allow(audit mode only)\n"
      "}\n"
      "void audit() { std::cout << \"state\"; }\n");
  EXPECT_EQ(hotpath_count(r), 0u) << dump_findings(r);
}

// The mutant of DESIGN.md §12 that no rule, test or warning caught: a
// per-move copy of the incident nets, spelled as a range constructor.
TEST(HotPathRule, RangeConstructedContainerFires) {
  const AnalysisResult r = analyze_buffers(
      {SourceBuffer{"src/part/core/fm_refiner.cpp",
                    "// hot-path: root\n"
                    "void FmRefiner::run_pass() {\n"
                    "  const auto nets = h.incident_edges(v);\n"
                    "  const std::vector<EdgeId> net_copy(nets.begin(), "
                    "nets.end());\n"
                    "}\n"}},
      {}, AnalyzerOptions{});
  ASSERT_EQ(hotpath_count(r), 1u) << dump_findings(r);
  EXPECT_EQ(r.findings[0].line, 4);
  EXPECT_NE(r.findings[0].message.find("vector constructed with arguments"),
            std::string::npos)
      << r.findings[0].message;
}

// The same copy, spelled as a copy-initialisation.
TEST(HotPathRule, CopyInitialisedContainerFires) {
  const AnalysisResult r = analyze_buffers(
      {SourceBuffer{"src/part/core/fm_refiner.cpp",
                    "// hot-path: root\n"
                    "void FmRefiner::run_pass() {\n"
                    "  const std::vector<EdgeId>& nets = incident_;\n"
                    "  std::vector<EdgeId> net_copy = nets;\n"
                    "}\n"}},
      {}, AnalyzerOptions{});
  ASSERT_EQ(hotpath_count(r), 1u) << dump_findings(r);
  EXPECT_EQ(r.findings[0].line, 4);
  EXPECT_NE(r.findings[0].message.find("vector constructed with arguments"),
            std::string::npos)
      << r.findings[0].message;
}

TEST(HotPathRule, MovedCalledAndReferenceInitialisedContainersAreClean) {
  const AnalysisResult r = lint(
      "// hot-path: root\n"
      "void run_pass(std::vector<int>& nets) {\n"
      "  std::vector<int> taken = std::move(nets);\n"
      "  std::vector<int> made = make_scratch();\n"
      "  const std::vector<int>& view = nets;\n"
      "  std::string* name = label;\n"
      "}\n");
  EXPECT_EQ(hotpath_count(r), 0u) << dump_findings(r);
}

TEST(HotPathRule, SizedBracedAndTemporaryContainersFire) {
  const AnalysisResult r = lint(
      "// hot-path: root\n"
      "void run_pass() {\n"
      "  std::vector<std::pair<int, int>> scratch(n);\n"
      "  std::set<int> seen{1, 2};\n"
      "  std::string label(name);\n"
      "  auto copy = std::vector<EdgeId>(nets.begin(), nets.end());\n"
      "}\n");
  EXPECT_EQ(hotpath_count(r), 4u) << dump_findings(r);
}

TEST(HotPathRule, ContainerReferencesAndEmptyDeclarationsAreClean) {
  const AnalysisResult r = lint(
      "// hot-path: root\n"
      "void run_pass(const std::vector<int>& nets) {\n"
      "  const std::vector<int>& view(nets);\n"
      "  std::vector<int>* p = nullptr;\n"
      "  std::vector<int> empty;\n"
      "  std::vector<int> braced{};\n"
      "  std::map<int, int>::const_iterator it(begin_);\n"
      "  set(1);\n"
      "  table.list(2);\n"
      "}\n");
  EXPECT_EQ(hotpath_count(r), 0u) << dump_findings(r);
}

TEST(HotPathRule, AllowSuppressesContainerConstruction) {
  const AnalysisResult r = lint(
      "// hot-path: root\n"
      "void run_pass() {\n"
      "  std::vector<int> once(n);  // hot-path: allow(cold first call)\n"
      "}\n");
  EXPECT_EQ(hotpath_count(r), 0u) << dump_findings(r);
  EXPECT_GE(r.suppressed, 1u);
}

TEST(HotPathRule, UnreachedFunctionIsNotChecked) {
  const AnalysisResult r = lint(
      "// hot-path: root\n"
      "void run_pass() { step(); }\n"
      "void step() { counter_ += 1; }\n"
      "void cold_setup() { table_.resize(100); }\n");
  EXPECT_EQ(hotpath_count(r), 0u) << dump_findings(r);
}

}  // namespace
}  // namespace vlsipart::analysis
