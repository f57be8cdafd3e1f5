#include "src/analysis/dataflow.h"

#include <map>
#include <set>

namespace vlsipart::analysis {

namespace {

bool is_decl_qualifier(const std::string& s) {
  return s == "const" || s == "constexpr" || s == "static" ||
         s == "volatile" || s == "mutable" || s == "register" ||
         s == "thread_local" || s == "inline";
}

bool is_builtin_type_word(const std::string& s) {
  return s == "unsigned" || s == "signed" || s == "long" || s == "short";
}

/// Statements that can never open a declaration.
bool stmt_start_blocklist(const std::string& s) {
  return s == "return" || s == "break" || s == "continue" || s == "goto" ||
         s == "case" || s == "default" || s == "else" || s == "delete" ||
         s == "throw" || s == "using" || s == "typedef" || s == "if" ||
         s == "while" || s == "switch" || s == "do" || s == "co_return" ||
         s == "new" || s == "sizeof" || s == "public" || s == "private" ||
         s == "protected" || s == "template" || s == "friend" ||
         s == "extern" || s == "static_assert";
}

bool is_assign_punct(const Token& t) {
  return t.is_punct("=") || t.is_punct("+=") || t.is_punct("-=") ||
         t.is_punct("*=") || t.is_punct("/=") || t.is_punct("%=") ||
         t.is_punct("&=") || t.is_punct("|=") || t.is_punct("^=") ||
         t.is_punct("<<=") || t.is_punct(">>=");
}

class DefCollector {
 public:
  DefCollector(const std::vector<Token>& tokens, const ParsedFile& parsed,
               int fn, const Cfg& cfg)
      : T(tokens), parsed_(parsed), fn_(fn), cfg_(cfg) {}

  LocalDefs run() {
    collect_lambda_ranges();
    collect_params();
    for (std::size_t s = 0; s < cfg_.stmts.size(); ++s) {
      collect_declarations(static_cast<int>(s));
    }
    for (std::size_t s = 0; s < cfg_.stmts.size(); ++s) {
      collect_defs(static_cast<int>(s));
    }
    return std::move(r_);
  }

 private:
  bool in_lambda(std::size_t tok) const {
    for (const auto& [b, e] : lambda_ranges_) {
      if (tok > b && tok < e) return true;
    }
    return false;
  }

  void collect_lambda_ranges() {
    const FunctionDef& self = parsed_.functions[fn_];
    for (const FunctionDef& g : parsed_.functions) {
      if (&g == &self) continue;
      if (g.body_begin > self.body_begin && g.body_end < self.body_end) {
        lambda_ranges_.push_back({g.body_begin, g.body_end});
      }
    }
  }

  int add_var(VarInfo info) {
    const auto it = var_of_.find(info.name);
    if (it != var_of_.end()) return it->second;  // shadowing: merged
    const int id = static_cast<int>(r_.vars.size());
    var_of_[info.name] = id;
    r_.vars.push_back(std::move(info));
    return id;
  }

  void add_def(Def d) { r_.defs.push_back(d); }

  void collect_params() {
    const FunctionDef& def = parsed_.functions[fn_];
    if (def.params_end <= def.params_begin) return;
    std::size_t seg_begin = def.params_begin + 1;
    int depth = 0;
    for (std::size_t i = seg_begin; i <= def.params_end; ++i) {
      const bool closes = i == def.params_end;
      if (!closes) {
        const Token& t = T[i];
        if (t.is_punct("(") || t.is_punct("[") || t.is_punct("{") ||
            t.is_punct("<")) {
          ++depth;
          continue;
        }
        if (t.is_punct(")") || t.is_punct("]") || t.is_punct("}") ||
            t.is_punct(">")) {
          --depth;
          continue;
        }
        if (!(depth == 0 && t.is_punct(","))) continue;
      }
      finish_param(seg_begin, i);
      seg_begin = i + 1;
    }
  }

  void finish_param(std::size_t begin, std::size_t end) {
    // Name = last identifier at angle/paren depth 0 before any '='.
    std::size_t name_tok = T.size();
    std::string type_name;
    bool pointer = false;
    int depth = 0;
    for (std::size_t i = begin; i < end; ++i) {
      const Token& t = T[i];
      if (t.is_punct("=")) break;
      if (t.is_punct("<") || t.is_punct("(") || t.is_punct("[")) ++depth;
      if (t.is_punct(">") || t.is_punct(")") || t.is_punct("]")) --depth;
      if (depth != 0) continue;
      if (t.is_punct("*")) pointer = true;
      if (t.kind == TokenKind::kIdentifier && !is_decl_qualifier(t.text)) {
        if (name_tok < T.size()) {
          const Token& prev = T[name_tok];
          if (!is_builtin_type_word(prev.text) || is_builtin_type_word(t.text)) {
            type_name = prev.text;
          }
        }
        name_tok = i;
      }
    }
    if (name_tok >= T.size()) return;  // unnamed parameter
    VarInfo info;
    info.name = T[name_tok].text;
    info.type_name = type_name;
    info.is_pointer = pointer;
    const int var = add_var(std::move(info));
    Def d;
    d.var = var;
    d.stmt = -1;
    d.token = name_tok;
    add_def(d);
    decl_name_tokens_.insert(name_tok);
  }

  /// Scan one statement for local-variable declarations:
  /// `qualifiers type declarator [= init] [, declarator ...]`.
  void collect_declarations(int s) {
    const CfgStmt& stmt = cfg_.stmts[s];
    std::size_t i = stmt.begin;
    std::size_t end = stmt.end;
    if (i < end && T[i].is_ident("for")) {
      // Range-for header: the declaration sits between '(' and the
      // top-level ':'.  (Classic-for init clauses are their own
      // statements and never reach here starting with `for`.)
      if (i + 1 >= end || !T[i + 1].is_punct("(")) return;
      std::size_t colon = end;
      int depth = 0;
      for (std::size_t k = i + 2; k < end; ++k) {
        if (T[k].is_punct("(") || T[k].is_punct("[") || T[k].is_punct("{")) {
          ++depth;
        } else if (T[k].is_punct(")") || T[k].is_punct("]") ||
                   T[k].is_punct("}")) {
          --depth;
        } else if (depth == 0 && T[k].is_punct(":")) {
          colon = k;
          break;
        } else if (depth == -1) {
          break;
        }
      }
      if (colon == end) return;
      i += 2;
      end = colon;
    }
    if (i >= end) return;
    if (T[i].kind == TokenKind::kPreprocessor) return;
    if (T[i].kind == TokenKind::kIdentifier &&
        stmt_start_blocklist(T[i].text)) {
      return;
    }

    while (i < end && T[i].kind == TokenKind::kIdentifier &&
           is_decl_qualifier(T[i].text)) {
      ++i;
    }
    // Type: identifier chain with optional :: and template arguments.
    if (i >= end || T[i].kind != TokenKind::kIdentifier) return;
    std::string type_name = T[i].text;
    ++i;
    while (i < end) {
      if (T[i].is_punct("::") && i + 1 < end &&
          T[i + 1].kind == TokenKind::kIdentifier) {
        type_name = T[i + 1].text;
        i += 2;
        continue;
      }
      if (T[i].kind == TokenKind::kIdentifier &&
          is_builtin_type_word(type_name) &&
          (is_builtin_type_word(T[i].text) || T[i].text == "int" ||
           T[i].text == "char" || T[i].text == "double")) {
        type_name = T[i].text;  // `unsigned long`, `long long`, ...
        ++i;
        continue;
      }
      if (T[i].is_punct("<")) {
        int depth = 0;
        std::size_t k = i;
        for (; k < end; ++k) {
          if (T[k].is_punct("<")) ++depth;
          if (T[k].is_punct(">") && --depth == 0) break;
          if (T[k].is_punct(";") || T[k].is_punct("=")) break;
        }
        if (k >= end || !T[k].is_punct(">")) return;  // comparison
        i = k + 1;
        continue;
      }
      break;
    }
    // Declarator list.
    while (i < end) {
      bool pointer = false;
      while (i < end && (T[i].is_punct("*") || T[i].is_punct("&") ||
                         T[i].is_punct("&&") || T[i].is_ident("const"))) {
        if (T[i].is_punct("*")) pointer = true;
        ++i;
      }
      if (i >= end || T[i].kind != TokenKind::kIdentifier) return;
      const std::size_t name_tok = i;
      const std::size_t after = i + 1;
      const bool at_end = after >= end || T[after].is_punct(";");
      const bool inits = after < end && (T[after].is_punct("=") ||
                                         T[after].is_punct("{") ||
                                         T[after].is_punct("("));
      const bool continues = after < end && T[after].is_punct(",");
      if (!at_end && !inits && !continues) return;  // not a declaration
      VarInfo info;
      info.name = T[name_tok].text;
      info.type_name = type_name;
      info.is_pointer = pointer;
      const int var = add_var(std::move(info));
      Def d;
      d.var = var;
      d.stmt = s;
      d.token = name_tok;
      add_def(d);
      decl_name_tokens_.insert(name_tok);
      if (!continues && !inits) return;
      // Skip the initializer to a top-level ',' or the end.
      i = after;
      int depth = 0;
      while (i < end) {
        const Token& t = T[i];
        if (t.is_punct("(") || t.is_punct("[") || t.is_punct("{")) ++depth;
        if (t.is_punct(")") || t.is_punct("]") || t.is_punct("}")) --depth;
        if (depth == 0 && t.is_punct(",")) break;
        if (depth == 0 && t.is_punct(";")) return;
        ++i;
      }
      if (i >= end) return;
      ++i;  // past the ','
    }
  }

  /// True when '&' at `k` reads as address-of (prefix), not binary and.
  bool is_address_of(std::size_t k) const {
    if (k == 0) return true;
    const Token& p = T[k - 1];
    if (p.kind == TokenKind::kIdentifier) {
      return p.text == "return" || is_decl_qualifier(p.text);
    }
    if (p.kind == TokenKind::kNumber || p.kind == TokenKind::kString) {
      return false;
    }
    return !(p.is_punct(")") || p.is_punct("]"));
  }

  /// True when the token at `k` sits directly inside a call's argument
  /// list as a bare argument (neighbors are '(' or ',' and ',' or ')'),
  /// which may bind to a non-const reference out-parameter.
  bool is_bare_call_arg(std::size_t k, std::size_t begin,
                        std::size_t end) const {
    const bool left_ok =
        k > begin && (T[k - 1].is_punct("(") || T[k - 1].is_punct(","));
    const bool right_ok = k + 1 < end && (T[k + 1].is_punct(",") ||
                                          T[k + 1].is_punct(")"));
    if (!left_ok || !right_ok) return false;
    // Walk back to the innermost unmatched '(' and require a call-like
    // prefix (identifier or '>').
    int depth = 0;
    for (std::size_t j = k; j > begin; --j) {
      const Token& t = T[j - 1];
      if (t.is_punct(")")) ++depth;
      if (t.is_punct("(")) {
        if (depth == 0) {
          if (j - 1 == begin) return false;
          const Token& before = T[j - 2];
          return before.kind == TokenKind::kIdentifier ||
                 before.is_punct(">");
        }
        --depth;
      }
    }
    return false;
  }

  /// Definitions in one statement: assignments, ++/--, and conservative
  /// writes through '&name' or a bare call argument (a potential
  /// out-parameter).
  void collect_defs(int s) {
    const CfgStmt& stmt = cfg_.stmts[s];
    for (std::size_t k = stmt.begin; k < stmt.end; ++k) {
      if (T[k].kind != TokenKind::kIdentifier) continue;
      const auto it = var_of_.find(T[k].text);
      if (it == var_of_.end()) continue;
      if (in_lambda(k)) continue;
      if (k > stmt.begin &&
          (T[k - 1].is_punct(".") || T[k - 1].is_punct("->") ||
           T[k - 1].is_punct("::"))) {
        continue;  // member or qualified name, not this local
      }
      if (decl_name_tokens_.count(k) != 0) continue;  // the decl itself

      const bool assigned = k + 1 < stmt.end && is_assign_punct(T[k + 1]);
      const bool incr = (k + 1 < stmt.end && (T[k + 1].is_punct("++") ||
                                              T[k + 1].is_punct("--"))) ||
                        (k > stmt.begin && (T[k - 1].is_punct("++") ||
                                            T[k - 1].is_punct("--")));
      const bool addr = k > stmt.begin && T[k - 1].is_punct("&") &&
                        is_address_of(k - 1);
      if (assigned || incr || addr ||
          is_bare_call_arg(k, stmt.begin, stmt.end)) {
        Def d;
        d.var = it->second;
        d.stmt = s;
        d.token = k;
        add_def(d);
      }
    }
  }

  const std::vector<Token>& T;
  const ParsedFile& parsed_;
  int fn_;
  const Cfg& cfg_;
  LocalDefs r_;
  std::map<std::string, int> var_of_;
  std::set<std::size_t> decl_name_tokens_;
  std::vector<std::pair<std::size_t, std::size_t>> lambda_ranges_;
};

}  // namespace

int LocalDefs::var_index(const std::string& name) const {
  for (std::size_t i = 0; i < vars.size(); ++i) {
    if (vars[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

LocalDefs collect_local_defs(const std::vector<Token>& tokens,
                             const ParsedFile& parsed, int fn,
                             const Cfg& cfg) {
  return DefCollector(tokens, parsed, fn, cfg).run();
}

}  // namespace vlsipart::analysis
