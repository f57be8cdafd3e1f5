#include "src/analysis/parser.h"

#include <algorithm>
#include <set>

namespace vlsipart::analysis {

namespace {

const std::set<std::string>& non_function_keywords() {
  static const std::set<std::string> kSet = {
      "if",      "for",          "while",      "switch",     "catch",
      "return",  "sizeof",       "alignof",    "alignas",    "decltype",
      "noexcept", "new",         "delete",     "throw",      "static_cast",
      "dynamic_cast", "reinterpret_cast", "const_cast", "typeid",
      "co_await", "co_yield",    "co_return",  "defined",    "requires",
      "static_assert", "assert", "and",        "or",         "not"};
  return kSet;
}

class Parser {
 public:
  explicit Parser(const LexedFile& file) : T_(file.tokens) {}

  ParsedFile run() {
    parse_decls(0, T_.size());
    std::sort(out_.functions.begin(), out_.functions.end(),
              [](const FunctionDef& a, const FunctionDef& b) {
                return a.body_begin < b.body_begin;
              });
    return std::move(out_);
  }

 private:
  bool is(std::size_t i, const char* p) const {
    return i < T_.size() && T_[i].is_punct(p);
  }
  bool is_ident(std::size_t i) const {
    return i < T_.size() && T_[i].kind == TokenKind::kIdentifier;
  }

  /// Index of the '}' matching the '{' at `open` (or end of stream).
  std::size_t match_brace(std::size_t open) const {
    int depth = 0;
    for (std::size_t i = open; i < T_.size(); ++i) {
      if (T_[i].is_punct("{")) ++depth;
      if (T_[i].is_punct("}") && --depth == 0) return i;
    }
    return T_.size();
  }

  /// Index of the ')'/']' matching the opener at `open`.
  std::size_t match_paren(std::size_t open, const char* o,
                          const char* c) const {
    int depth = 0;
    for (std::size_t i = open; i < T_.size(); ++i) {
      if (T_[i].is_punct(o)) ++depth;
      if (T_[i].is_punct(c) && --depth == 0) return i;
    }
    return T_.size();
  }

  /// Skip past a balanced template argument list starting at '<'.
  /// Returns the index after the closing '>', or `open` when the
  /// angle run does not look like template arguments.
  std::size_t skip_angles(std::size_t open) const {
    int depth = 0;
    std::size_t steps = 0;
    for (std::size_t i = open; i < T_.size() && steps < 64; ++i, ++steps) {
      if (T_[i].is_punct("<")) ++depth;
      if (T_[i].is_punct(">") && --depth == 0) return i + 1;
      if (T_[i].is_punct(";") || T_[i].is_punct("{")) break;
      if (T_[i].is_punct("(")) i = match_paren(i, "(", ")");
    }
    return open;
  }

  std::size_t skip_to_semicolon(std::size_t i) const {
    for (; i < T_.size(); ++i) {
      if (T_[i].is_punct(";")) return i + 1;
      if (T_[i].is_punct("{")) i = match_brace(i);
      if (T_[i].is_punct("(")) i = match_paren(i, "(", ")");
    }
    return i;
  }

  std::string scope_qualifier() const {
    std::string q;
    for (const std::string& s : class_scopes_) {
      if (s.empty()) continue;
      if (!q.empty()) q += "::";
      q += s;
    }
    return q;
  }

  /// Declaration-scope walker: namespaces, classes, and function
  /// definitions.  `end` points at the matching '}' of the caller (or
  /// the end of the stream); returns the index of that '}'.
  std::size_t parse_decls(std::size_t i, std::size_t end) {
    while (i < end && i < T_.size()) {
      const Token& t = T_[i];
      if (t.is_punct("}")) return i;
      if (t.kind == TokenKind::kPreprocessor) {
        ++i;
        continue;
      }
      if (t.is_punct("[")) {  // [[attribute]]
        i = match_paren(i, "[", "]") + 1;
        continue;
      }
      if (t.is_ident("namespace")) {
        i = parse_namespace(i, end);
        continue;
      }
      if (t.is_ident("class") || t.is_ident("struct") || t.is_ident("union")) {
        i = parse_class(i, end);
        continue;
      }
      if (t.is_ident("enum")) {
        i = skip_to_semicolon(i);
        continue;
      }
      if (t.is_ident("using") || t.is_ident("typedef") ||
          t.is_ident("friend") || t.is_ident("static_assert")) {
        i = skip_to_semicolon(i);
        continue;
      }
      if (t.is_ident("template")) {
        ++i;
        if (is(i, "<")) i = skip_angles(i);
        continue;
      }
      if (t.is_ident("extern") && i + 2 < T_.size() &&
          T_[i + 1].kind == TokenKind::kString && T_[i + 2].is_punct("{")) {
        const std::size_t close = match_brace(i + 2);
        parse_decls(i + 3, close);
        i = close + 1;
        continue;
      }
      if (t.is_punct("{")) {  // stray block at decl scope
        i = match_brace(i) + 1;
        continue;
      }
      if (t.is_punct(";")) {
        ++i;
        continue;
      }
      i = parse_declaration(i, end);
    }
    return std::min(i, T_.size());
  }

  std::size_t parse_namespace(std::size_t i, std::size_t end) {
    std::size_t j = i + 1;
    std::vector<std::string> names;
    while (j < end && (is_ident(j) || is(j, "::"))) {
      if (is_ident(j)) names.push_back(T_[j].text);
      ++j;
    }
    if (is(j, "=")) return skip_to_semicolon(j);  // namespace alias
    if (!is(j, "{")) return j + 1;
    // Namespace names do not qualify: repo code lives in one project
    // namespace and rules match the class-qualified name.
    const std::size_t close = match_brace(j);
    parse_decls(j + 1, close);
    return close + 1;
  }

  std::size_t parse_class(std::size_t i, std::size_t end) {
    std::size_t j = i + 1;
    std::string name;
    int angle = 0;
    while (j < end) {
      const Token& u = T_[j];
      if (angle == 0 && (u.is_punct(";") || u.is_punct("{") ||
                         u.is_punct(":") || u.is_punct("("))) {
        break;
      }
      if (u.is_punct("<")) ++angle;
      if (u.is_punct(">")) --angle;
      if (u.kind == TokenKind::kIdentifier && u.text != "final" &&
          u.text != "alignas") {
        name = u.text;
      }
      ++j;
    }
    if (is(j, ":")) {  // base clause
      int a = 0;
      while (j < end && !(a == 0 && T_[j].is_punct("{")) &&
             !T_[j].is_punct(";")) {
        if (T_[j].is_punct("<")) ++a;
        if (T_[j].is_punct(">")) --a;
        ++j;
      }
    }
    if (!is(j, "{")) return skip_to_semicolon(j);  // forward declaration
    const std::size_t close = match_brace(j);
    class_scopes_.push_back(name);
    parse_decls(j + 1, close);
    class_scopes_.pop_back();
    return skip_to_semicolon(close + 1);  // past `} name;` / `};`
  }

  /// Generic declaration at namespace/class scope: find a declarator
  /// `name ( params ) trailer {` before the statement ends, else skip
  /// the statement.
  std::size_t parse_declaration(std::size_t i, std::size_t end) {
    std::size_t j = i;
    int angle = 0;
    while (j < end) {
      const Token& u = T_[j];
      if (u.is_punct(";")) return j + 1;
      if (angle == 0 && u.is_punct("=")) return skip_to_semicolon(j);
      if (u.is_punct("<")) ++angle;
      if (u.is_punct(">")) --angle;
      if (u.is_ident("operator")) {
        // `operator()` / `operator<` / `operator bool`: jump to the
        // parameter list that follows the operator name.
        std::size_t k = j + 1;
        if (is(k, "(") && is(k + 1, ")")) {
          k += 2;  // operator()
        } else {
          while (k < end && T_[k].kind == TokenKind::kPunct &&
                 !T_[k].is_punct("(")) {
            ++k;
          }
          while (k < end && T_[k].kind == TokenKind::kIdentifier) ++k;
        }
        if (is(k, "(") && k > 0) {
          const std::size_t r = try_function(i, k - 1, k, end);
          if (r != 0) return r;
        }
        return skip_to_semicolon(j);
      }
      if (angle == 0 && u.is_punct("(") && j > i) {
        std::size_t name_tok = j - 1;
        if (T_[name_tok].kind == TokenKind::kIdentifier &&
            non_function_keywords().count(T_[name_tok].text) == 0) {
          const std::size_t r = try_function(i, name_tok, j, end);
          if (r != 0) return r;
        }
        // Not a function definition here; skip the parens and keep
        // scanning the same statement (e.g. `int x(5), y(6);`).
        j = match_paren(j, "(", ")") + 1;
        continue;
      }
      if (u.is_punct("{")) return match_brace(j) + 1;
      ++j;
    }
    return j;
  }

  /// Try to complete a function definition whose name token is at
  /// `name_tok` and whose parameter list opens at `open_paren`.
  /// Returns the index past the body, or 0 when this is not a
  /// function definition.
  std::size_t try_function(std::size_t stmt_begin, std::size_t name_tok,
                           std::size_t open_paren, std::size_t end) {
    (void)stmt_begin;
    const std::size_t close_paren = match_paren(open_paren, "(", ")");
    if (close_paren >= T_.size()) return 0;
    const std::size_t body = find_body(close_paren + 1, end);
    if (body == 0) return 0;

    FunctionDef def;
    def.body_begin = body;
    def.body_end = match_brace(body);

    // Name and explicit qualifiers (`A::B::name`, `~name`).
    std::size_t k = name_tok;
    if (T_[k].kind == TokenKind::kIdentifier) {
      def.name = T_[k].text;
      if (k > 0 && T_[k - 1].is_punct("~")) def.name = "~" + def.name;
      if (k > 0 && T_[k - 1].is_ident("operator")) {
        def.name = "operator " + def.name;  // conversion operator
        k -= 1;
      }
    } else {
      // operator symbol form: collect `operator` + punctuation.
      std::size_t op = name_tok;
      while (op > 0 && T_[op].kind == TokenKind::kPunct) --op;
      if (!T_[op].is_ident("operator")) return 0;
      def.name = "operator";
      for (std::size_t p = op + 1; p <= name_tok; ++p) def.name += T_[p].text;
      k = op;
    }
    def.line = T_[name_tok].line;
    def.col = T_[name_tok].col;

    std::vector<std::string> quals;
    std::size_t q = k;
    while (q >= 2 && T_[q - 1].is_punct("::") &&
           T_[q - 2].kind == TokenKind::kIdentifier) {
      quals.insert(quals.begin(), T_[q - 2].text);
      q -= 2;
    }
    std::string qualified = scope_qualifier();
    for (const std::string& s : quals) {
      if (!qualified.empty()) qualified += "::";
      qualified += s;
    }
    def.owner = !quals.empty() ? quals.back()
                : !class_scopes_.empty() ? class_scopes_.back()
                                         : "";
    def.qualified_name =
        qualified.empty() ? def.name : qualified + "::" + def.name;

    def.params_begin = open_paren;
    def.params_end = close_paren;
    parse_params(open_paren, close_paren, def);
    const int self = static_cast<int>(out_.functions.size());
    out_.functions.push_back(def);
    parse_body(def.body_begin + 1, def.body_end, self);
    return def.body_end + 1;
  }

  /// Scan a declarator trailer after the parameter list; return the
  /// index of the body '{' or 0 when the declarator has no body.
  std::size_t find_body(std::size_t j, std::size_t end) {
    while (j < end) {
      const Token& u = T_[j];
      if (u.is_punct("{")) return j;
      if (u.is_punct(";") || u.is_punct(",") || u.is_punct(")")) return 0;
      if (u.is_punct("=")) return 0;  // = default / = delete / initializer
      if (u.is_ident("const") || u.is_ident("noexcept") ||
          u.is_ident("override") || u.is_ident("final") ||
          u.is_ident("mutable") || u.is_ident("try") ||
          u.is_ident("requires") || u.is_punct("&") || u.is_punct("&&")) {
        ++j;
        if (is(j, "(")) j = match_paren(j, "(", ")") + 1;
        continue;
      }
      if (u.is_punct("->")) {  // trailing return type
        ++j;
        while (j < end && !T_[j].is_punct("{") && !T_[j].is_punct(";")) {
          if (T_[j].is_punct("(")) {
            j = match_paren(j, "(", ")");
          }
          ++j;
        }
        continue;
      }
      if (u.is_punct(":")) {  // constructor initializer list
        ++j;
        while (j < end) {
          // member or base name (possibly qualified / templated)
          while (j < end && (T_[j].kind == TokenKind::kIdentifier ||
                             T_[j].is_punct("::"))) {
            ++j;
          }
          if (is(j, "<")) j = skip_angles(j);
          if (is(j, "(")) {
            j = match_paren(j, "(", ")") + 1;
          } else if (is(j, "{")) {
            j = match_brace(j) + 1;
          } else {
            return 0;
          }
          if (is(j, ",")) {
            ++j;
            continue;
          }
          break;
        }
        continue;
      }
      return 0;  // unexpected token: not a function definition
    }
    return 0;
  }

  void parse_params(std::size_t open, std::size_t close, FunctionDef& def) {
    if (close <= open + 1) return;  // ()
    std::size_t params = 0;
    std::size_t defaults = 0;
    int pdepth = 0;
    bool any_token = false;
    bool in_default = false;
    auto finish = [&] {
      if (!any_token) return;
      ++params;
      if (in_default) ++defaults;
      any_token = false;
      in_default = false;
    };
    for (std::size_t j = open + 1; j < close; ++j) {
      const Token& u = T_[j];
      if (u.is_punct("(") || u.is_punct("[") || u.is_punct("{")) ++pdepth;
      if (u.is_punct(")") || u.is_punct("]") || u.is_punct("}")) --pdepth;
      if (pdepth == 0 && u.is_punct(",")) {
        finish();
        continue;
      }
      any_token = true;
      if (pdepth == 0 && u.is_punct("=")) in_default = true;
    }
    finish();
    if (close == open + 2 && T_[open + 1].is_ident("void")) {
      params = 0;  // f(void)
    }
    def.max_arity = params;
    def.min_arity = params - defaults;
  }

  /// Function-body walker: finds lambda expressions and records them
  /// as nested FunctionDefs.
  void parse_body(std::size_t i, std::size_t end, int parent) {
    while (i < end && i < T_.size()) {
      const Token& t = T_[i];
      if (!t.is_punct("[")) {
        ++i;
        continue;
      }
      if (is(i + 1, "[")) {  // [[attribute]]
        i = match_paren(i + 1, "[", "]") + 2;
        continue;
      }
      // A '[' opens a lambda only in expression-start position.
      if (i > 0) {
        const Token& p = T_[i - 1];
        const bool expr_start =
            p.kind == TokenKind::kPunct
                ? !(p.is_punct("]") || p.is_punct(")"))
                : (p.is_ident("return") || p.is_ident("co_return") ||
                   p.is_ident("case") || p.is_ident("else") ||
                   p.is_ident("do"));
        if (!expr_start) {  // subscript
          i = match_paren(i, "[", "]") + 1;
          continue;
        }
      }
      const std::size_t close_cap = match_paren(i, "[", "]");
      if (close_cap >= T_.size()) return;
      FunctionDef def;
      def.is_lambda = true;
      def.parent = parent;
      def.line = T_[i].line;
      def.col = T_[i].col;
      std::size_t j = close_cap + 1;
      std::size_t op = 0;
      std::size_t cp = 0;
      if (is(j, "(")) {
        op = j;
        cp = match_paren(j, "(", ")");
        j = cp + 1;
      }
      // lambda trailer: mutable/noexcept/attributes/-> type
      while (j < end) {
        if (T_[j].is_ident("mutable") || T_[j].is_ident("noexcept") ||
            T_[j].is_ident("constexpr")) {
          ++j;
          if (is(j, "(")) j = match_paren(j, "(", ")") + 1;
          continue;
        }
        if (T_[j].is_punct("->")) {
          ++j;
          while (j < end && !T_[j].is_punct("{") && !T_[j].is_punct(";")) ++j;
          continue;
        }
        break;
      }
      if (!is(j, "{")) {  // not a lambda after all
        i = close_cap + 1;
        continue;
      }
      if (op != 0) {
        def.params_begin = op;
        def.params_end = cp;
        parse_params(op, cp, def);
      }
      def.body_begin = j;
      def.body_end = match_brace(j);
      // `auto name = [..]` binds the lambda to a local name.
      def.name = "<lambda>";
      if (i >= 2 && T_[i - 1].is_punct("=") &&
          T_[i - 2].kind == TokenKind::kIdentifier) {
        def.name = T_[i - 2].text;
      }
      const FunctionDef& host = out_.functions[parent];
      def.qualified_name = host.qualified_name + "::" + def.name;
      def.owner = host.owner;
      const int self = static_cast<int>(out_.functions.size());
      out_.functions.push_back(def);
      parse_body(def.body_begin + 1, def.body_end, self);
      i = def.body_end + 1;
    }
  }

  const std::vector<Token>& T_;
  std::vector<std::string> class_scopes_;
  ParsedFile out_;
};

}  // namespace

int ParsedFile::enclosing(std::size_t tok, bool named_only) const {
  int best = -1;
  std::size_t best_span = 0;
  for (std::size_t f = 0; f < functions.size(); ++f) {
    const FunctionDef& d = functions[f];
    if (tok < d.body_begin || tok > d.body_end) continue;
    if (named_only && d.is_lambda) continue;
    const std::size_t span = d.body_end - d.body_begin;
    if (best == -1 || span < best_span) {
      best = static_cast<int>(f);
      best_span = span;
    }
  }
  return best;
}

ParsedFile parse_file(const LexedFile& file) { return Parser(file).run(); }

}  // namespace vlsipart::analysis
