// vpart_lint analyzer tests: lexer behavior, a fixture corpus with a
// firing / suppressed / clean case for every rule, false-positive
// regressions for the keyword-in-string/comment class the regex lint
// had, output renderers, and a self-test that lints the repository's
// own sources (the acceptance gate: the repo is clean).
#include <algorithm>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/analysis/analyzer.h"
#include "src/analysis/finding.h"
#include "src/analysis/lexer.h"
#include "src/analysis/output.h"
#include "src/analysis/rules_internal.h"

namespace vlsipart::analysis {
namespace {

AnalysisResult lint(const std::string& path, const std::string& code,
                    const std::vector<SourceBuffer>& context = {}) {
  AnalyzerOptions options;
  return analyze_buffers({SourceBuffer{path, code}}, context, options);
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
// Lexer

TEST(Lexer, TokensCarryLineAndColumn) {
  const LexedFile f = lex("a.cpp", "int x = 42;\nreturn x;\n");
  ASSERT_GE(f.tokens.size(), 8u);
  EXPECT_TRUE(f.tokens[0].is_ident("int"));
  EXPECT_EQ(f.tokens[0].line, 1);
  EXPECT_EQ(f.tokens[0].col, 1);
  EXPECT_EQ(f.tokens[3].kind, TokenKind::kNumber);
  EXPECT_TRUE(f.tokens[5].is_ident("return"));
  EXPECT_EQ(f.tokens[5].line, 2);
}

TEST(Lexer, CommentsAreCapturedNotTokenized) {
  const LexedFile f = lex("a.cpp",
                          "int a; // trailing note\n"
                          "/* block\n   spanning */ int b;\n");
  ASSERT_EQ(f.comments.size(), 2u);
  EXPECT_NE(f.comments[0].text.find("trailing note"), std::string::npos);
  EXPECT_EQ(f.comments[0].line, 1);
  EXPECT_EQ(f.comments[1].line, 2);  // block comment: start line
  for (const Token& t : f.tokens) {
    EXPECT_NE(t.text, "trailing");
    EXPECT_NE(t.text, "spanning");
  }
}

TEST(Lexer, StringAndCharLiteralsAreOpaque) {
  const LexedFile f =
      lex("a.cpp", "const char* s = \"rand() \\\" mt19937\"; char c = '\\'';");
  std::size_t strings = 0;
  for (const Token& t : f.tokens) {
    if (t.kind == TokenKind::kString) ++strings;
    EXPECT_NE(t.text, "rand");
    EXPECT_NE(t.text, "mt19937");
  }
  EXPECT_EQ(strings, 1u);
}

TEST(Lexer, RawStringsAreOpaque) {
  const LexedFile f = lex(
      "a.cpp", "auto r = R\"x(rand() \")\" unordered_map<int,int>)x\"; int z;");
  bool saw_z = false;
  for (const Token& t : f.tokens) {
    EXPECT_NE(t.text, "rand");
    EXPECT_NE(t.text, "unordered_map");
    if (t.is_ident("z")) saw_z = true;
  }
  EXPECT_TRUE(saw_z);  // lexing resumed correctly after the raw string
}

TEST(Lexer, PreprocessorLinesAreSingleTokens) {
  const LexedFile f = lex("a.cpp",
                          "#include <random>\n"
                          "#define TWO \\\n  2\n"
                          "int x;\n");
  std::size_t pp = 0;
  for (const Token& t : f.tokens) {
    if (t.kind == TokenKind::kPreprocessor) ++pp;
    EXPECT_NE(t.text, "random");
  }
  EXPECT_EQ(pp, 2u);  // the continuation line folds into one token
}

TEST(Lexer, DigitSeparatorsStaySingleNumber) {
  const LexedFile f = lex("a.cpp", "long n = 1'000'000; int m = 0x7f'ff;");
  std::size_t numbers = 0;
  for (const Token& t : f.tokens) {
    if (t.kind == TokenKind::kNumber) ++numbers;
  }
  EXPECT_EQ(numbers, 2u);
  EXPECT_EQ(f.tokens[3].text, "1'000'000");
}

TEST(Lexer, EncodingPrefixedStringsAreOneToken) {
  const LexedFile f = lex(
      "a.cpp", "auto a = u8\"rand()\"; auto b = L\"x\"; auto c = U\"y\";");
  std::size_t strings = 0;
  for (const Token& t : f.tokens) {
    if (t.kind == TokenKind::kString) ++strings;
    EXPECT_NE(t.text, "rand");
    EXPECT_FALSE(t.is_ident("u8"));
    EXPECT_FALSE(t.is_ident("L"));
  }
  EXPECT_EQ(strings, 3u);
}

TEST(Lexer, EncodingPrefixedCharLiteralsAreOneToken) {
  const LexedFile f = lex("a.cpp", "auto a = u8'x'; auto b = L'y';");
  std::size_t chars = 0;
  for (const Token& t : f.tokens) {
    if (t.kind == TokenKind::kCharLiteral) ++chars;
    EXPECT_FALSE(t.is_ident("u8"));
    EXPECT_FALSE(t.is_ident("L"));
  }
  EXPECT_EQ(chars, 2u);
  EXPECT_EQ(f.tokens[3].text, "u8'x'");
}

TEST(Lexer, RawStringContainingCommentClosersIsOpaque) {
  const LexedFile f = lex("a.cpp",
                          "auto r = R\"(a */ b /* c // d)\"; int after;\n"
                          "// real comment\n");
  bool saw_after = false;
  for (const Token& t : f.tokens) {
    if (t.is_ident("after")) saw_after = true;
  }
  EXPECT_TRUE(saw_after);
  ASSERT_EQ(f.comments.size(), 1u);  // only the real one
  EXPECT_NE(f.comments[0].text.find("real comment"), std::string::npos);
}

TEST(Lexer, PreprocessorStringWithSlashesKeepsWholeLine) {
  // A URL inside a #define used to truncate the directive at "//" and
  // turn the tail into a phantom comment.
  const LexedFile f = lex("a.cpp",
                          "#define URL \"http://example.com\"\n"
                          "int x;\n");
  ASSERT_FALSE(f.tokens.empty());
  EXPECT_EQ(f.tokens[0].kind, TokenKind::kPreprocessor);
  EXPECT_NE(f.tokens[0].text.find("example.com\""), std::string::npos);
  EXPECT_TRUE(f.comments.empty());
}

TEST(Lexer, PreprocessorRawStringWithCommentCloserKeepsWholeLine) {
  const LexedFile f = lex("a.cpp",
                          "#define PAT R\"(a */ b)\"\n"
                          "int y;\n");
  ASSERT_FALSE(f.tokens.empty());
  EXPECT_EQ(f.tokens[0].kind, TokenKind::kPreprocessor);
  EXPECT_NE(f.tokens[0].text.find(")\""), std::string::npos);
  EXPECT_TRUE(f.comments.empty());
  bool saw_y = false;
  for (const Token& t : f.tokens) {
    if (t.is_ident("y")) saw_y = true;
  }
  EXPECT_TRUE(saw_y);
}

// ---------------------------------------------------------------------
// Determinism rules: firing / suppressed / clean per rule

TEST(RuleWallClock, Fires) {
  const AnalysisResult r =
      lint("src/util/f.cpp", "auto t = Clock::now();\n");
  EXPECT_EQ(count_rule(r, "wall-clock"), 1u) << dump(r);
}

TEST(RuleWallClock, SuppressedListSyntax) {
  const AnalysisResult r = lint(
      "src/util/f.cpp",
      "// det-lint: allow(wall-clock, unordered-iter) reporting only\n"
      "auto t = Clock::now();\n");
  EXPECT_EQ(r.findings.size(), 0u) << dump(r);
  EXPECT_EQ(r.suppressed, 1u);
}

TEST(RuleWallClock, CleanOnPlainNowIdentifier) {
  const AnalysisResult r = lint("src/util/f.cpp", "int now = 5; use(now);\n");
  EXPECT_EQ(r.findings.size(), 0u) << dump(r);
}

TEST(RuleUnorderedInCore, Fires) {
  const AnalysisResult r =
      lint("src/part/f.cpp", "std::unordered_map<int, int> m;\n");
  EXPECT_EQ(count_rule(r, "unordered-in-core"), 1u) << dump(r);
}

TEST(RuleUnorderedInCore, Suppressed) {
  const AnalysisResult r = lint(
      "src/part/f.cpp",
      "std::unordered_map<int, int> m;  // det-lint: "
      "allow(unordered-in-core) never iterated\n");
  EXPECT_EQ(count_rule(r, "unordered-in-core"), 0u) << dump(r);
}

TEST(RuleUnorderedInCore, CleanOutsideCoreDirs) {
  const AnalysisResult r =
      lint("src/util/f.cpp", "std::unordered_map<int, int> m;\n");
  EXPECT_EQ(count_rule(r, "unordered-in-core"), 0u) << dump(r);
}

TEST(RuleUnorderedIter, Fires) {
  const AnalysisResult r = lint("src/util/f.cpp",
                                "std::unordered_set<int> items;\n"
                                "void f() { for (int v : items) use(v); }\n");
  EXPECT_EQ(count_rule(r, "unordered-iter"), 1u) << dump(r);
}

TEST(RuleUnorderedIter, Suppressed) {
  const AnalysisResult r =
      lint("src/util/f.cpp",
           "std::unordered_set<int> items;\n"
           "// det-lint: allow(unordered-iter) order-insensitive fold\n"
           "void f() { for (int v : items) use(v); }\n");
  EXPECT_EQ(count_rule(r, "unordered-iter"), 0u) << dump(r);
}

TEST(RuleUnorderedIter, CleanOverVector) {
  const AnalysisResult r = lint("src/util/f.cpp",
                                "std::vector<int> items;\n"
                                "void f() { for (int v : items) use(v); }\n");
  EXPECT_EQ(r.findings.size(), 0u) << dump(r);
}

TEST(RulePointerSortKey, Fires) {
  const AnalysisResult r = lint(
      "src/part/f.cpp",
      "void f(std::vector<Node*>& v) {\n"
      "  std::sort(v.begin(), v.end(),\n"
      "            [](const Node* a, const Node* b) { return a < b; });\n"
      "}\n");
  EXPECT_EQ(count_rule(r, "pointer-sort-key"), 1u) << dump(r);
}

TEST(RulePointerSortKey, Suppressed) {
  const AnalysisResult r = lint(
      "src/part/f.cpp",
      "void f(std::vector<Node*>& v) {\n"
      "  // det-lint: allow(pointer-sort-key) ids proven unique upstream\n"
      "  std::sort(v.begin(), v.end(),\n"
      "            [](const Node* a, const Node* b) { return a < b; });\n"
      "}\n");
  EXPECT_EQ(count_rule(r, "pointer-sort-key"), 0u) << dump(r);
}

TEST(RulePointerSortKey, CleanOnValueComparator) {
  const AnalysisResult r = lint(
      "src/part/f.cpp",
      "void f(std::vector<int>& v) {\n"
      "  std::sort(v.begin(), v.end(),\n"
      "            [](const int a, const int b) { return a < b; });\n"
      "}\n");
  EXPECT_EQ(r.findings.size(), 0u) << dump(r);
}

TEST(RuleFloatAccumulateUnordered, Fires) {
  const AnalysisResult r = lint("src/util/f.cpp",
                                "std::unordered_map<int, double> weights;\n"
                                "double total = 0.0;\n"
                                "void f() {\n"
                                "  for (auto& kv : weights) {\n"
                                "    total += kv.second;\n"
                                "  }\n"
                                "}\n");
  EXPECT_EQ(count_rule(r, "float-accumulate-unordered"), 1u) << dump(r);
}

TEST(RuleFloatAccumulateUnordered, Suppressed) {
  const AnalysisResult r =
      lint("src/util/f.cpp",
           "std::unordered_map<int, double> weights;\n"
           "double total = 0.0;\n"
           "void f() {\n"
           "  for (auto& kv : weights) {\n"
           "    // det-lint: allow(float-accumulate-unordered) stats only\n"
           "    total += kv.second;\n"
           "  }\n"
           "}\n");
  EXPECT_EQ(count_rule(r, "float-accumulate-unordered"), 0u) << dump(r);
}

TEST(RuleFloatAccumulateUnordered, CleanOnIntegerAccumulator) {
  const AnalysisResult r = lint("src/util/f.cpp",
                                "std::unordered_map<int, int> weights;\n"
                                "long total = 0;\n"
                                "void f() {\n"
                                "  for (auto& kv : weights) {\n"
                                "    total += kv.second;\n"
                                "  }\n"
                                "}\n");
  EXPECT_EQ(count_rule(r, "float-accumulate-unordered"), 0u) << dump(r);
}

TEST(RulePointerKeyedContainer, Fires) {
  const AnalysisResult r =
      lint("src/hypergraph/f.cpp", "std::map<Node*, int> by_node;\n");
  EXPECT_EQ(count_rule(r, "pointer-keyed-container"), 1u) << dump(r);
}

TEST(RulePointerKeyedContainer, Suppressed) {
  const AnalysisResult r = lint(
      "src/hypergraph/f.cpp",
      "std::map<Node*, int> by_node;  // det-lint: "
      "allow(pointer-keyed-container) never iterated, lookup only\n");
  EXPECT_EQ(count_rule(r, "pointer-keyed-container"), 0u) << dump(r);
}

TEST(RulePointerKeyedContainer, CleanOnPointerValueAndOutsideCore) {
  // Pointer in the *mapped* type is fine; pointer keys outside the core
  // directories are out of scope.
  const AnalysisResult in_core =
      lint("src/part/f.cpp", "std::map<int, Node*> owners;\n");
  EXPECT_EQ(in_core.findings.size(), 0u) << dump(in_core);
  const AnalysisResult outside =
      lint("src/util/f.cpp", "std::map<Node*, int> by_node;\n");
  EXPECT_EQ(outside.findings.size(), 0u) << dump(outside);
}

TEST(RulePointerCompare, Fires) {
  const AnalysisResult r = lint(
      "src/eval/f.cpp",
      "bool operator<(const Node* a, const Node* b) { return a < b; }\n");
  EXPECT_EQ(count_rule(r, "pointer-compare"), 1u) << dump(r);
}

TEST(RulePointerCompare, Suppressed) {
  const AnalysisResult r = lint(
      "src/eval/f.cpp",
      "// det-lint: allow(pointer-compare) arena-ordered by construction\n"
      "bool operator<(const Node* a, const Node* b) { return a < b; }\n");
  EXPECT_EQ(count_rule(r, "pointer-compare"), 0u) << dump(r);
}

TEST(RulePointerCompare, CleanOnReferencesAndStreams) {
  const AnalysisResult r = lint(
      "src/eval/f.cpp",
      "bool operator<(const Node& a, const Node& b) { return a.id < b.id; }\n"
      "std::ostream& operator<<(std::ostream& os, const Node* n);\n");
  EXPECT_EQ(r.findings.size(), 0u) << dump(r);
}

// ---------------------------------------------------------------------
// False-positive regressions: the regex lint flagged keywords inside
// strings and comments; the token-level port must not.

TEST(FalsePositives, KeywordsInCommentsAndStrings) {
  const AnalysisResult r = lint(
      "src/part/f.cpp",
      "// rand() mt19937 random_device unordered_map<int,int> ::now()\n"
      "/* for (int v : items) total += w; std::map<Node*, int> */\n"
      "const char* help = \"use srand(time(nullptr)) to seed rand()\";\n"
      "auto re = R\"(std::unordered_set<int> items; Clock::now())\";\n"
      "int x = 0;\n");
  EXPECT_EQ(r.findings.size(), 0u) << dump(r);
}

TEST(FalsePositives, AllowAnnotationForOtherRuleDoesNotSuppress) {
  const AnalysisResult r = lint(
      "src/part/f.cpp",
      "auto t = Clock::now();  // det-lint: allow(unordered-iter) wrong "
      "rule\n");
  EXPECT_EQ(count_rule(r, "wall-clock"), 1u) << dump(r);
}

// ---------------------------------------------------------------------
// Knob completeness (synthetic corpus)

const char* const kKnobStruct =
    "struct FmConfig {\n"
    "  int alpha = 1;\n"
    "  bool beta = false;\n"
    "  std::string to_string() const;\n"  // member function: not a field
    "};\n"
    "struct OtherConfig { int gamma = 0; };\n";  // not a target struct

std::vector<SourceBuffer> knob_context(const std::string& tool_code,
                                       const std::string& docs) {
  return {SourceBuffer{"tools/fixture_tool.cpp", tool_code},
          SourceBuffer{"DESIGN.md", docs}};
}

TEST(RuleKnobCompleteness, FiresOnUnreachableField) {
  // alpha is parsed + documented; beta is documented but no CLI parse
  // site ever touches it.
  const AnalysisResult r = lint(
      "src/part/core/knob_fixture.h", kKnobStruct,
      knob_context("void f(FmConfig& c, const CliArgs& a) {\n"
                   "  a.check_known({\"alpha\"});\n"
                   "  c.alpha = a.get_int(\"alpha\", 1);\n"
                   "}\n",
                   "The alpha and beta knobs."));
  EXPECT_EQ(count_rule(r, "knob-completeness"), 1u) << dump(r);
  ASSERT_FALSE(r.findings.empty());
  EXPECT_NE(r.findings[0].message.find("FmConfig::beta"), std::string::npos);
}

TEST(RuleKnobCompleteness, FiresOnUndocumentedField) {
  const AnalysisResult r = lint(
      "src/part/core/knob_fixture.h", kKnobStruct,
      knob_context("void f(FmConfig& c, const CliArgs& a) {\n"
                   "  a.check_known({\"alpha\", \"beta\"});\n"
                   "  c.alpha = a.get_int(\"alpha\", 1);\n"
                   "  c.beta = a.get_bool(\"beta\");\n"
                   "}\n",
                   "Only alpha is documented."));
  EXPECT_EQ(count_rule(r, "knob-completeness"), 1u) << dump(r);
  ASSERT_FALSE(r.findings.empty());
  EXPECT_NE(r.findings[0].message.find("FmConfig::beta"), std::string::npos);
  EXPECT_NE(r.findings[0].message.find("DESIGN.md"), std::string::npos);
}

TEST(RuleKnobCompleteness, CleanWhenReachableAndDocumented) {
  const AnalysisResult r = lint(
      "src/part/core/knob_fixture.h", kKnobStruct,
      knob_context("void f(FmConfig& c, const CliArgs& a) {\n"
                   "  a.check_known({\"alpha\", \"beta\"});\n"
                   "  c.alpha = a.get_int(\"alpha\", 1);\n"
                   "  c.beta = a.get_bool(\"beta\");\n"
                   "}\n",
                   "The alpha and beta knobs."));
  EXPECT_EQ(r.findings.size(), 0u) << dump(r);
}

TEST(RuleKnobCompleteness, MemberAccessWithoutParseSiteDoesNotCount) {
  // The tool touches c.beta but never parses CLI options, so beta stays
  // unreachable.
  const AnalysisResult r =
      lint("src/part/core/knob_fixture.h", kKnobStruct,
           knob_context("void f(FmConfig& c) { c.alpha = 1; c.beta = true; }\n",
                        "The alpha and beta knobs."));
  EXPECT_EQ(count_rule(r, "knob-completeness"), 2u) << dump(r);
}

TEST(RuleKnobCompleteness, SuppressedByAllowOnFieldLine) {
  const AnalysisResult r = lint(
      "src/part/core/knob_fixture.h",
      "struct FmConfig {\n"
      "  int alpha = 1;\n"
      "  // det-lint: allow(knob-completeness) internal-only switch\n"
      "  bool beta = false;\n"
      "};\n",
      knob_context("void f(FmConfig& c, const CliArgs& a) {\n"
                   "  a.check_known({\"alpha\"});\n"
                   "  c.alpha = a.get_int(\"alpha\", 1);\n"
                   "}\n",
                   "The alpha knob."));
  EXPECT_EQ(r.findings.size(), 0u) << dump(r);
  EXPECT_EQ(r.suppressed, 1u);
}

TEST(RuleKnobCompleteness, DocWordMatchIsWholeWord) {
  // "alphabet" must not satisfy the documentation leg for "alpha".
  const AnalysisResult r = lint(
      "src/part/core/knob_fixture.h", "struct FmConfig { int alpha = 1; };\n",
      knob_context("void f(FmConfig& c, const CliArgs& a) {\n"
                   "  c.alpha = a.get_int(\"alpha\", 1);\n"
                   "}\n",
                   "The alphabet of knobs."));
  EXPECT_EQ(count_rule(r, "knob-completeness"), 1u) << dump(r);
}

// ---------------------------------------------------------------------
// Lock discipline (synthetic corpus)

AnalysisResult lint_lock(const std::string& body) {
  const std::string header =
      "class Widget {\n"
      " public:\n"
      "  void touch();\n"
      " private:\n"
      "  std::mutex mutex_;\n"
      "  int count_ = 0;  // guarded_by(mutex_)\n"
      "};\n";
  AnalyzerOptions options;
  return analyze_buffers({SourceBuffer{"src/service/widget.h", header},
                          SourceBuffer{"src/service/widget.cpp", body}},
                         {}, options);
}

TEST(RuleLockDiscipline, FiresOnUnlockedAccess) {
  const AnalysisResult r =
      lint_lock("void Widget::touch() { count_ += 1; }\n");
  EXPECT_EQ(count_rule(r, "lock-discipline"), 1u) << dump(r);
}

TEST(RuleLockDiscipline, CleanUnderLockGuard) {
  const AnalysisResult r = lint_lock(
      "void Widget::touch() {\n"
      "  std::lock_guard<std::mutex> lock(mutex_);\n"
      "  count_ += 1;\n"
      "}\n");
  EXPECT_EQ(r.findings.size(), 0u) << dump(r);
}

TEST(RuleLockDiscipline, CleanUnderUniqueAndScopedLock) {
  const AnalysisResult r = lint_lock(
      "void Widget::touch() {\n"
      "  std::unique_lock<std::mutex> lock(mutex_);\n"
      "  count_ += 1;\n"
      "}\n"
      "void Widget::touch2() {\n"
      "  std::scoped_lock lock(mutex_);\n"
      "  count_ += 1;\n"
      "}\n");
  EXPECT_EQ(r.findings.size(), 0u) << dump(r);
}

TEST(RuleLockDiscipline, LockScopeEndsAtBrace) {
  const AnalysisResult r = lint_lock(
      "void Widget::touch() {\n"
      "  { std::lock_guard<std::mutex> lock(mutex_); count_ = 1; }\n"
      "  count_ = 2;\n"  // lock released with its scope
      "}\n");
  EXPECT_EQ(count_rule(r, "lock-discipline"), 1u) << dump(r);
  ASSERT_FALSE(r.findings.empty());
  EXPECT_EQ(r.findings[0].line, 3);
}

TEST(RuleLockDiscipline, HoldsAnnotationCoversHelper) {
  const AnalysisResult r = lint_lock(
      "void Widget::bump_locked() {\n"
      "  // det-lint: holds(mutex_)\n"
      "  count_ += 1;\n"
      "}\n");
  EXPECT_EQ(r.findings.size(), 0u) << dump(r);
}

TEST(RuleLockDiscipline, MemberMutexMatchesBySuffix) {
  // A lock of shared.mutex_ satisfies guarded_by(mutex_).
  const AnalysisResult r = lint_lock(
      "void Widget::touch(Shared& shared) {\n"
      "  std::lock_guard<std::mutex> lock(shared.mutex_);\n"
      "  count_ += 1;\n"
      "}\n");
  EXPECT_EQ(r.findings.size(), 0u) << dump(r);
}

TEST(RuleLockDiscipline, WrongMutexDoesNotSatisfy) {
  const AnalysisResult r = lint_lock(
      "void Widget::touch() {\n"
      "  std::lock_guard<std::mutex> lock(other_mutex_);\n"
      "  count_ += 1;\n"
      "}\n");
  EXPECT_EQ(count_rule(r, "lock-discipline"), 1u) << dump(r);
}

TEST(RuleLockDiscipline, SuppressedByAllow) {
  const AnalysisResult r = lint_lock(
      "void Widget::init() {\n"
      "  // det-lint: allow(lock-discipline) pre-publication init\n"
      "  count_ = 0;\n"
      "}\n");
  EXPECT_EQ(r.findings.size(), 0u) << dump(r);
  EXPECT_EQ(r.suppressed, 1u);
}

TEST(RuleLockDiscipline, OutOfScopeDirsAreIgnored) {
  AnalyzerOptions options;
  const AnalysisResult r = analyze_buffers(
      {SourceBuffer{"src/part/widget.h",
                    "class W { int count_ = 0;  // guarded_by(mutex_)\n};\n"},
       SourceBuffer{"src/part/widget.cpp",
                    "void W::touch() { count_ += 1; }\n"}},
      {}, options);
  EXPECT_EQ(count_rule(r, "lock-discipline"), 0u) << dump(r);
}

// Interprocedural propagation: a helper whose in-scope call sites all
// hold the mutex is checked as if it held it.

TEST(RuleLockDiscipline, HoldsPropagatesThroughCallGraph) {
  const AnalysisResult r = lint_lock(
      "void Widget::touch() {\n"
      "  std::lock_guard<std::mutex> lock(mutex_);\n"
      "  bump();\n"
      "}\n"
      "void Widget::bump() { count_ += 1; }\n");
  EXPECT_EQ(r.findings.size(), 0u) << dump(r);
}

TEST(RuleLockDiscipline, HoldsPropagatesTwoLevels) {
  const AnalysisResult r = lint_lock(
      "void Widget::touch() {\n"
      "  std::lock_guard<std::mutex> lock(mutex_);\n"
      "  bump();\n"
      "}\n"
      "void Widget::bump() { inc(); }\n"
      "void Widget::inc() { count_ += 1; }\n");
  EXPECT_EQ(r.findings.size(), 0u) << dump(r);
}

TEST(RuleLockDiscipline, UnlockedCallSiteBreaksPropagation) {
  const AnalysisResult r = lint_lock(
      "void Widget::touch() {\n"
      "  std::lock_guard<std::mutex> lock(mutex_);\n"
      "  bump();\n"
      "}\n"
      "void Widget::careless() { bump(); }\n"  // no lock here
      "void Widget::bump() { count_ += 1; }\n");
  EXPECT_EQ(count_rule(r, "lock-discipline"), 1u) << dump(r);
}

TEST(RuleLockDiscipline, ExplicitHoldsStillPropagates) {
  // An annotated helper's lockset flows onward to ITS callees.
  const AnalysisResult r = lint_lock(
      "void Widget::bump_locked() {\n"
      "  // det-lint: holds(mutex_)\n"
      "  inc();\n"
      "}\n"
      "void Widget::inc() { count_ += 1; }\n");
  EXPECT_EQ(r.findings.size(), 0u) << dump(r);
}

TEST(RuleLockDiscipline, WorkerLambdaInheritsCaptureContext) {
  const AnalysisResult r = lint_lock(
      "void Widget::touch() {\n"
      "  std::lock_guard<std::mutex> lock(mutex_);\n"
      "  auto body = [&] { count_ += 1; };\n"
      "  body();\n"
      "}\n");
  EXPECT_EQ(r.findings.size(), 0u) << dump(r);
}

// ---------------------------------------------------------------------
// The mutant table (DESIGN.md §12): every kept rule fires on the
// violation that was planted at a real site to show that no compiler
// warning, sanitizer or tier-1 test catches it, one test per rule.

struct RuleMutant {
  std::string rule;
  std::vector<SourceBuffer> files;    // analyzed
  std::vector<SourceBuffer> context;  // read by the cross-file rules only
};

void PrintTo(const RuleMutant& m, std::ostream* os) { *os << m.rule; }

std::vector<RuleMutant> kept_rule_mutants() {
  struct SingleFile {
    const char* rule;
    const char* path;
    const char* code;
  };
  const SingleFile single_file_mutants[] = {
      {"wall-clock", "src/part/core/fm_refiner.cpp",
       "FmResult FmRefiner::refine(PartitionState& state, Rng& rng) {\n"
       "  const auto t0 = std::chrono::steady_clock::now();\n"
       "  while (true) {\n"
       "    if (!improved) break;\n"
       "    if (std::chrono::steady_clock::now() - t0 > "
       "std::chrono::seconds(30)) break;\n"
       "  }\n"
       "}\n"},
      {"unordered-in-core", "src/part/ml/coarsen.cpp",
       "void coarsen_level() {\n"
       "  std::unordered_set<VertexId> touched;\n"
       "  touched.insert(c);\n"
       "}\n"},
      {"unordered-iter", "src/util/stats.cpp",
       "double Sample::mean() const {\n"
       "  std::unordered_multiset<double> bag(values_.begin(), "
       "values_.end());\n"
       "  double s = 0.0;\n"
       "  for (double v : bag) s += v;\n"
       "  return s;\n"
       "}\n"},
      {"float-accumulate-unordered", "src/util/stats.cpp",
       "double Sample::mean() const {\n"
       "  std::unordered_multiset<double> bag(values_.begin(), "
       "values_.end());\n"
       "  double s = 0.0;\n"
       "  for (double v : bag) s += v;\n"
       "  return s;\n"
       "}\n"},
      {"pointer-sort-key", "src/part/evo/evo_partitioner.cpp",
       "void rank(std::vector<const Individual*>& ranked) {\n"
       "  std::sort(ranked.begin(), ranked.end(),\n"
       "            [](const Individual* x, const Individual* y) {\n"
       "              return x->cut != y->cut ? x->cut < y->cut : x < y;\n"
       "            });\n"
       "}\n"},
      {"pointer-keyed-container", "src/part/evo/evo_partitioner.cpp",
       "void count_parents() {\n"
       "  std::map<const Individual*, std::size_t> parent_uses;\n"
       "}\n"},
      {"pointer-compare", "src/eval/pareto.h",
       "struct PerfPoint {\n"
       "  bool operator<(const PerfPoint* other) const { return this < "
       "other; }\n"
       "};\n"},
      {"narrowing-cast", "src/part/nlevel/nlevel_graph.cpp",
       "void NlevelGraph::reset(const Hypergraph& h) {\n"
       "  const auto pins = h.pins(e);\n"
       "  pin_size_[e] = static_cast<std::uint32_t>(pins.size());\n"
       "}\n"},
      {"tainted-comparator", "src/part/evo/evo_partitioner.cpp",
       "void rank(std::vector<std::size_t>& order) {\n"
       "  const Individual* base = population.data();\n"
       "  std::sort(order.begin(), order.end(), [&](std::size_t a, "
       "std::size_t b) {\n"
       "    if (population[a].cut != population[b].cut) return "
       "population[a].cut < population[b].cut;\n"
       "    return base + a < base + b;\n"
       "  });\n"
       "}\n"},
      {"hot-path-purity", "src/part/core/fm_refiner.cpp",
       "// hot-path: root\n"
       "void FmRefiner::run_pass() {\n"
       "  const auto nets = h.incident_edges(v);\n"
       "  std::vector<EdgeId> net_copy;\n"
       "  net_copy.assign(nets.begin(), nets.end());\n"
       "}\n"},
  };
  std::vector<RuleMutant> mutants;
  for (const SingleFile& m : single_file_mutants) {
    mutants.push_back({m.rule, {SourceBuffer{m.path, m.code}}, {}});
  }

  // FmConfig gains a field that no CLI parse site sets and no document
  // names.
  mutants.push_back(
      {"knob-completeness",
       {SourceBuffer{"src/part/core/fm_config.h",
                     "struct FmConfig {\n"
                     "  bool clip = false;\n"
                     "  int pass_time_budget_ms = 0;\n"
                     "};\n"}},
       knob_context("void f(FmConfig& c, const CliArgs& a) {\n"
                    "  a.check_known({\"clip\"});\n"
                    "  c.clip = a.get_bool(\"clip\");\n"
                    "}\n",
                    "The clip knob.")});

  // PartitionService::find_job without its lock_guard.
  mutants.push_back(
      {"lock-discipline",
       {SourceBuffer{"src/service/server.h",
                     "class PartitionService {\n"
                     "  std::shared_ptr<Job> find_job(std::int64_t id);\n"
                     "  std::mutex jobs_mutex_;\n"
                     "  std::map<std::uint64_t, std::shared_ptr<Job>> jobs_;"
                     "  // guarded_by(jobs_mutex_)\n"
                     "};\n"},
        SourceBuffer{"src/service/server.cpp",
                     "std::shared_ptr<PartitionService::Job> "
                     "PartitionService::find_job(std::int64_t id) {\n"
                     "  if (id <= 0) return nullptr;\n"
                     "  auto it = jobs_.find(static_cast<std::uint64_t>(id));"
                     "\n"
                     "  return it == jobs_.end() ? nullptr : it->second;\n"
                     "}\n"}},
       {}});
  return mutants;
}

class MutantTable : public ::testing::TestWithParam<RuleMutant> {};

TEST_P(MutantTable, KeptRuleFiresOnItsRealSiteMutant) {
  const RuleMutant& m = GetParam();
  AnalyzerOptions options;
  const AnalysisResult r = analyze_buffers(m.files, m.context, options);
  EXPECT_GE(count_rule(r, m.rule), 1u) << dump(r);
}

INSTANTIATE_TEST_SUITE_P(
    KeptRules, MutantTable, ::testing::ValuesIn(kept_rule_mutants()),
    [](const ::testing::TestParamInfo<RuleMutant>& info) {
      std::string name = info.param.rule;
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

TEST(Catalog, EveryRuleHasAMutantFixture) {
  std::set<std::string> covered;
  for (const RuleMutant& m : kept_rule_mutants()) covered.insert(m.rule);
  for (const RuleInfo& info : rule_catalog()) {
    EXPECT_EQ(covered.count(info.id), 1u) << info.id;
  }
  EXPECT_EQ(covered.size(), rule_catalog().size());
}

// ---------------------------------------------------------------------
// Rule filter: family names

TEST(RuleFilterFamily, FamilyNameEnablesItsRules) {
  AnalyzerOptions options;
  options.only_rules = {"determinism"};
  const AnalysisResult r = analyze_buffers(
      {SourceBuffer{"src/part/f.cpp", "auto t = Clock::now();\n"}}, {},
      options);
  EXPECT_EQ(count_rule(r, "wall-clock"), 1u) << dump(r);
}

TEST(RuleFilterFamily, OtherFamiliesAreExcluded) {
  AnalyzerOptions options;
  options.only_rules = {"hotpath"};
  const AnalysisResult r = analyze_buffers(
      {SourceBuffer{"src/part/f.cpp", "auto t = Clock::now();\n"}}, {},
      options);
  EXPECT_EQ(r.findings.size(), 0u) << dump(r);
}

TEST(RuleFilterFamily, UnknownFamilyIsAnError) {
  AnalyzerOptions options;
  options.only_rules = {"fastpath"};
  const AnalysisResult r = analyze_buffers(
      {SourceBuffer{"src/part/f.cpp", "int x;\n"}}, {}, options);
  ASSERT_EQ(r.errors.size(), 1u);
  EXPECT_NE(r.errors[0].find("fastpath"), std::string::npos);
}

// ---------------------------------------------------------------------
// Options

TEST(Options, UnknownRuleFilterIsAnError) {
  AnalyzerOptions options;
  options.only_rules = {"wall-clock", "bogus-rule"};
  const AnalysisResult r = analyze_buffers(
      {SourceBuffer{"src/part/f.cpp", "int x = 0;\n"}}, {}, options);
  ASSERT_FALSE(r.errors.empty());
  EXPECT_NE(r.errors[0].find("bogus-rule"), std::string::npos);
}

TEST(Options, CompilerGatedRuleFilterIsAnError) {
  // narrowing-assign and narrow-loop-counter are compiler errors now
  // (-Werror=conversion / -Werror=sign-compare), and so are dead-store
  // and use-before-init in the CI build (-Werror=unused-but-set-variable
  // / -Werror=maybe-uninitialized), so naming them in a filter is a
  // configuration error rather than a silently empty run.
  for (const char* gone : {"narrowing-assign", "narrow-loop-counter",
                           "dead-store", "use-before-init"}) {
    AnalyzerOptions options;
    options.only_rules = {gone};
    const AnalysisResult r = analyze_buffers(
        {SourceBuffer{"src/part/f.cpp", "int x = 0;\n"}}, {}, options);
    ASSERT_FALSE(r.errors.empty()) << gone;
    EXPECT_NE(r.errors[0].find(gone), std::string::npos) << r.errors[0];
  }
}

TEST(Options, RuleFilterRestrictsFindings) {
  AnalyzerOptions options;
  options.only_rules = {"unordered-in-core"};
  const AnalysisResult r = analyze_buffers(
      {SourceBuffer{"src/part/f.cpp",
                    "auto t = Clock::now();\nstd::unordered_set<int> s;\n"}},
      {}, options);
  EXPECT_EQ(r.findings.size(), 1u) << dump(r);
  EXPECT_EQ(r.findings[0].rule, "unordered-in-core");
}

// ---------------------------------------------------------------------
// Catalog and renderers

TEST(Catalog, EveryRuleIsFindable) {
  EXPECT_EQ(rule_catalog().size(), 12u);
  for (const RuleInfo& info : rule_catalog()) {
    EXPECT_EQ(find_rule(info.id), &info);
  }
  EXPECT_EQ(find_rule("no-such-rule"), nullptr);
}

TEST(Catalog, CompilerGatedRulesAreGone) {
  for (const char* gone : {"narrowing-assign", "narrow-loop-counter",
                           "dead-store", "use-before-init"}) {
    EXPECT_EQ(find_rule(gone), nullptr) << gone;
  }
  EXPECT_FALSE(is_rule_family("dead-store"));
  const RuleInfo* cast = find_rule("narrowing-cast");
  ASSERT_NE(cast, nullptr);
  EXPECT_STREQ(cast->family, "index-width");
}

TEST(Catalog, TestGatedRulesAreGone) {
  // A seed drawn from rand(), std::random_device, a <random> engine, the
  // clock or an address, and a round-protocol breach, change answers
  // that the golden traces and the thread-count invariance tests pin.
  for (const char* gone :
       {"rand", "random-device", "std-engine", "time-seed", "tainted-seed",
        "round-frozen-write", "round-rng-in-shard"}) {
    EXPECT_EQ(find_rule(gone), nullptr) << gone;
  }
  EXPECT_FALSE(is_rule_family("round"));
}

TEST(Renderers, HumanAndSarif) {
  const AnalysisResult r =
      lint("src/part/f.cpp",
           "auto t = Clock::now();\nstd::unordered_set<int> s;\n");
  ASSERT_EQ(r.findings.size(), 2u) << dump(r);

  const std::string human = render_human(r);
  EXPECT_NE(human.find("src/part/f.cpp:1:17: [wall-clock]"),
            std::string::npos)
      << human;
  EXPECT_NE(human.find("2 findings"), std::string::npos) << human;

  const std::string sarif = render_sarif(r);
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\": \"unordered-in-core\""),
            std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\": 1"), std::string::npos);
  // The full catalog rides along as reportingDescriptors.
  EXPECT_NE(sarif.find("\"id\": \"lock-discipline\""), std::string::npos);
}

TEST(Renderers, FindingsAreSortedByPathLineCol) {
  AnalyzerOptions options;
  const AnalysisResult r = analyze_buffers(
      {SourceBuffer{"src/part/b.cpp", "auto t = Clock::now();\n"},
       SourceBuffer{"src/part/a.cpp",
                    "std::unordered_set<int> s;\nauto t = Clock::now();\n"}},
      {}, options);
  ASSERT_EQ(r.findings.size(), 3u) << dump(r);
  EXPECT_EQ(r.findings[0].path, "src/part/a.cpp");
  EXPECT_EQ(r.findings[0].line, 1);
  EXPECT_EQ(r.findings[1].path, "src/part/a.cpp");
  EXPECT_EQ(r.findings[1].line, 2);
  EXPECT_EQ(r.findings[2].path, "src/part/b.cpp");
}

// ---------------------------------------------------------------------
// Repository self-test: the acceptance gate.  The repo's own sources
// must lint clean — determinism, knob completeness (every config field
// CLI-reachable and documented) and lock discipline all pass.

TEST(RepoSelfTest, RepositoryLintsClean) {
  AnalyzerOptions options;
  options.repo_root = VLSIPART_SOURCE_DIR;
  // Absolute paths: a relative "src" would resolve against the build
  // tree (the test's cwd), which also has a src/ directory.
  const std::string root = std::string(VLSIPART_SOURCE_DIR) + "/";
  const AnalysisResult r = analyze_paths(
      {root + "src", root + "tools", root + "bench", root + "examples",
       root + "tests"},
      options);
  EXPECT_TRUE(r.errors.empty()) << dump(r);
  EXPECT_EQ(r.findings.size(), 0u) << dump(r);
  EXPECT_GT(r.files_scanned, 100u);  // really scanned the tree
  EXPECT_GT(r.suppressed, 0u);       // the annotated clock reads
}

// ---------------------------------------------------------------------
// Helpers shared by the rule passes (rules_internal.h)

TEST(SharedHelpers, EndsWith) {
  EXPECT_TRUE(ends_with("src/part/fm.cpp", ".cpp"));
  EXPECT_TRUE(ends_with("a.h", "a.h"));
  EXPECT_TRUE(ends_with("x", ""));
  EXPECT_FALSE(ends_with("fm.cpp", ".h"));
  EXPECT_FALSE(ends_with(".h", "a.h"));
}

TEST(SharedHelpers, MatchCloseSkipsNestedPairs) {
  const LexedFile f = lex("src/part/f.cpp", "f(a, g(b), (c)) + d;");
  const std::vector<Token>& T = f.tokens;
  ASSERT_GE(T.size(), 2u);
  ASSERT_TRUE(T[1].is_punct("("));
  const std::size_t close = match_close(T, 1, "(", ")");
  ASSERT_LT(close, T.size());
  EXPECT_TRUE(T[close].is_punct(")"));
  ASSERT_LT(close + 1, T.size());
  EXPECT_TRUE(T[close + 1].is_punct("+"));
}

TEST(SharedHelpers, MatchCloseUnbalancedReturnsEnd) {
  const LexedFile f = lex("src/part/f.cpp", "{ if (x) { y(); }");
  ASSERT_FALSE(f.tokens.empty());
  ASSERT_TRUE(f.tokens[0].is_punct("{"));
  EXPECT_EQ(match_close(f.tokens, 0, "{", "}"), f.tokens.size());
}

}  // namespace
}  // namespace vlsipart::analysis
