// Dataflow rule families over the CFG and the local-definition list.
//
// Two clients of src/analysis/{cfg,dataflow}, both intraprocedural:
//
//   * index-width — the compact-CSR gate.  A value is "size-derived"
//     when it comes from .size()/num_vertices()/... directly or through
//     assignments; a static_cast of such a value to int/uint32_t
//     truncates silently past 2^32 pins.  Sites wrapped in
//     vp::checked_narrow<T>() or dominated by a VP_CHECK that mentions
//     the narrowed value are exempt: the dominance query is what the
//     CFG exists for.  Implicit narrowing assignments and narrow loop
//     counters are not lint rules: src/part and src/hypergraph build
//     with -Werror=conversion and -Werror=sign-compare.
//   * flow-determinism — taint propagation of pointer values (T* decls,
//     &x, .data(), reinterpret_cast) and clock reads (::now(),
//     clock_gettime) through assignments into sort comparators.  This
//     upgrades the token-level determinism rules, which only see the
//     comparator's parameter types and miss one hop of indirection.
//     A pointer or clock value in an RNG seed is no lint rule: it
//     changes answers that tier-1's golden traces pin.
//
// Dead stores and reads before initialization are GCC's job
// (-Wunused-but-set-variable, -Wmaybe-uninitialized under the CI
// build's -Werror; ctest compiler_gate.*).
//
// Both heuristics are deliberately biased against false positives:
// pointer differences (p - q, the index-recovery idiom) do not
// propagate pointer taint, and only bare (non-dereferenced) tainted
// names count as comparator operands — keys[a] < keys[b] compares
// values, keys + a < keys + b compares addresses.
#include <algorithm>
#include <cstddef>
#include <set>
#include <string>
#include <vector>

#include "src/analysis/cfg.h"
#include "src/analysis/dataflow.h"
#include "src/analysis/parser.h"
#include "src/analysis/rules_internal.h"

namespace vlsipart::analysis {

namespace {

// Directories gated by the index-width family (the compact-CSR core).
const char* const kIndexDirs[] = {"src/part", "src/hypergraph"};
// Directories whose values flow into reported results.
const char* const kFlowDirs[] = {"src/part", "src/hypergraph", "src/eval"};

bool in_dirs(const std::string& path, const char* const (&dirs)[2]) {
  return path_under(path, dirs[0]) || path_under(path, dirs[1]);
}

bool in_dirs(const std::string& path, const char* const (&dirs)[3]) {
  return path_under(path, dirs[0]) || path_under(path, dirs[1]) ||
         path_under(path, dirs[2]);
}

/// Member calls returning container/graph sizes: the index-width taint
/// sources.  Matched as `name (` — qualifier agnostic.
bool is_size_call_name(const std::string& s) {
  return s == "size" || s == "capacity" || s == "length" ||
         s == "num_vertices" || s == "num_edges" || s == "num_pins" ||
         s == "edge_size" || s == "degree";
}

/// Integer types that cannot hold a 64-bit size.
bool is_narrow_int(const std::string& s) {
  return s == "int" || s == "unsigned" || s == "short" || s == "char" ||
         s == "int32_t" || s == "uint32_t" || s == "int16_t" ||
         s == "uint16_t" || s == "int8_t" || s == "uint8_t" ||
         s == "VertexId" || s == "EdgeId";
}

/// Integer types wide enough to carry a size; taint flows through them.
bool is_wide_int(const std::string& s) {
  return s == "size_t" || s == "uint64_t" || s == "int64_t" ||
         s == "ptrdiff_t" || s == "uintptr_t" || s == "intptr_t" ||
         s == "long" || s == "auto" || s == "Weight" || s == "Gain";
}

bool is_sort_name(const std::string& s) {
  return s == "sort" || s == "stable_sort" || s == "partial_sort" ||
         s == "nth_element";
}

bool is_comparison(const Token& t) {
  return t.is_punct("<") || t.is_punct(">") || t.is_punct("<=") ||
         t.is_punct(">=");
}

class DataflowPass {
 public:
  DataflowPass(const FileUnit& unit, const RuleFilter& filter,
               std::vector<Finding>& out)
      : lexed_(unit.lexed),
        T(unit.lexed.tokens),
        path_(unit.lexed.path),
        filter_(filter),
        out_(out) {}

  void run() {
    index_scope_ = in_dirs(path_, kIndexDirs);
    flow_scope_ = in_dirs(path_, kFlowDirs);
    const bool any_index = index_scope_ && filter_.enabled("narrowing-cast");
    const bool any_flow =
        flow_scope_ && filter_.enabled("tainted-comparator");
    if (!any_index && !any_flow) return;

    parsed_ = parse_file(lexed_);
    for (int fn = 0; fn < static_cast<int>(parsed_.functions.size()); ++fn) {
      analyze_function(fn, any_index, any_flow);
    }
  }

 private:
  void report(std::size_t tok, const char* rule, std::string message) {
    if (!filter_.enabled(rule)) return;
    out_.push_back(Finding{path_, T[tok].line, T[tok].col, rule,
                           std::move(message)});
  }

  void analyze_function(int fn, bool any_index, bool any_flow) {
    const FunctionDef& def = parsed_.functions[fn];
    if (def.body_end <= def.body_begin + 1) return;
    cfg_ = build_cfg(T, parsed_, fn);
    if (cfg_.stmts.empty()) return;
    rd_ = collect_local_defs(T, parsed_, fn, cfg_);
    fn_ = fn;
    collect_guards();

    if (any_index) {
      compute_size_taint();
      check_narrowing_casts();
    }
    if (any_flow) {
      compute_flow_taint();
      check_sort_comparators();
    }
  }

  // -- shared helpers -------------------------------------------------

  /// Statement containing token index `tok`, or -1.
  int stmt_of_token(std::size_t tok) const {
    for (std::size_t s = 0; s < cfg_.stmts.size(); ++s) {
      if (tok >= cfg_.stmts[s].begin && tok < cfg_.stmts[s].end) {
        return static_cast<int>(s);
      }
    }
    return -1;
  }

  /// VP_CHECK / VP_DCHECK / assert statements and the identifiers they
  /// mention — the range-guard vocabulary for dominance exemptions.
  void collect_guards() {
    guards_.clear();
    for (std::size_t s = 0; s < cfg_.stmts.size(); ++s) {
      const CfgStmt& stmt = cfg_.stmts[s];
      if (stmt.begin >= stmt.end) continue;
      const Token& first = T[stmt.begin];
      if (!(first.is_ident("VP_CHECK") || first.is_ident("VP_DCHECK") ||
            first.is_ident("assert"))) {
        continue;
      }
      Guard g;
      g.stmt = static_cast<int>(s);
      for (std::size_t i = stmt.begin + 1; i < stmt.end; ++i) {
        if (T[i].kind == TokenKind::kIdentifier) g.names.insert(T[i].text);
      }
      guards_.push_back(std::move(g));
    }
  }

  /// True when a guard mentioning one of `names` dominates statement s.
  bool guarded(int s, const std::set<std::string>& names) const {
    if (s < 0) return false;
    for (const Guard& g : guards_) {
      if (!cfg_.stmt_dominates(g.stmt, s)) continue;
      for (const std::string& n : names) {
        if (g.names.count(n) != 0) return true;
      }
    }
    return false;
  }

  /// Identifier at `i` used as a plain value: not a member access on
  /// something else, not itself dereferenced or called.
  bool is_bare_value(std::size_t i) const {
    if (T[i].kind != TokenKind::kIdentifier) return false;
    if (i > 0 && (T[i - 1].is_punct(".") || T[i - 1].is_punct("->") ||
                  T[i - 1].is_punct("::") || T[i - 1].is_punct("*"))) {
      return false;
    }
    if (i + 1 < T.size() &&
        (T[i + 1].is_punct("[") || T[i + 1].is_punct("(") ||
         T[i + 1].is_punct(".") || T[i + 1].is_punct("->") ||
         T[i + 1].is_punct("::"))) {
      return false;
    }
    return true;
  }

  /// `name (` with the call shape at index i.
  bool is_call_at(std::size_t i) const {
    return T[i].kind == TokenKind::kIdentifier && i + 1 < T.size() &&
           T[i + 1].is_punct("(");
  }

  std::size_t match_paren(std::size_t open) const {
    int depth = 0;
    for (std::size_t i = open; i < T.size(); ++i) {
      if (T[i].is_punct("(")) ++depth;
      if (T[i].is_punct(")") && --depth == 0) return i;
    }
    return T.size();
  }

  /// Collect identifier names in [begin, end).
  std::set<std::string> idents_in(std::size_t begin, std::size_t end) const {
    std::set<std::string> names;
    for (std::size_t i = begin; i < end && i < T.size(); ++i) {
      if (T[i].kind == TokenKind::kIdentifier) names.insert(T[i].text);
    }
    return names;
  }

  /// RHS token range of a definition: everything after the defined name
  /// within its statement (covers `= expr`, `+= expr`, `{expr}` and the
  /// `: range` of a range-for header).
  std::pair<std::size_t, std::size_t> rhs_of(const Def& d) const {
    if (d.stmt < 0) return {0, 0};
    return {d.token + 1, cfg_.stmts[d.stmt].end};
  }

  // -- index-width ----------------------------------------------------

  /// Subscript contents produce elements, not sizes: `arr[i]` yields
  /// arr's element type regardless of i, so taint inside `[...]` never
  /// makes the surrounding expression size-derived.
  bool range_has_size_call(std::size_t begin, std::size_t end) const {
    int sub = 0;
    for (std::size_t i = begin; i < end && i < T.size(); ++i) {
      if (T[i].is_punct("[")) ++sub;
      if (T[i].is_punct("]") && sub > 0) --sub;
      if (sub > 0) continue;
      if (is_call_at(i) && is_size_call_name(T[i].text)) return true;
    }
    return false;
  }

  bool range_has_taint(std::size_t begin, std::size_t end,
                       const std::set<int>& tainted) const {
    int sub = 0;
    for (std::size_t i = begin; i < end && i < T.size(); ++i) {
      if (T[i].is_punct("[")) ++sub;
      if (T[i].is_punct("]") && sub > 0) --sub;
      if (sub > 0 || T[i].kind != TokenKind::kIdentifier) continue;
      const int v = var_at(i);
      if (v >= 0 && tainted.count(v) != 0 && is_bare_value(i)) return true;
    }
    return false;
  }

  /// One hop of definition sources: for each variable named in `names`,
  /// add the identifiers of its defining RHSs.  A VP_CHECK over `n`
  /// then covers a counter bounded by `n` and a cast of a value drawn
  /// from `rng.below(n)` — the one-hop version of a range analysis.
  void augment_with_sources(std::set<std::string>& names) const {
    std::set<std::string> extra;
    for (const std::string& nm : names) {
      const int v = rd_.var_index(nm);
      if (v < 0) continue;
      for (const Def& d : rd_.defs) {
        if (d.var != v || d.stmt < 0) continue;
        const auto [b, e] = rhs_of(d);
        for (std::size_t i = b; i < e && i < T.size(); ++i) {
          if (T[i].kind == TokenKind::kIdentifier) extra.insert(T[i].text);
        }
      }
    }
    names.insert(extra.begin(), extra.end());
  }

  /// `static_cast < wide-int > (` inside the range: the author computed
  /// in 64 bits on purpose, so truncating the result is suspect.
  bool range_has_wide_cast(std::size_t begin, std::size_t end) const {
    for (std::size_t i = begin; i < end && i < T.size(); ++i) {
      if (!T[i].is_ident("static_cast")) continue;
      const auto [type, open] = cast_type_at(i);
      if (open != 0 && is_wide_int(type)) return true;
    }
    return false;
  }

  int var_at(std::size_t i) const {
    if (T[i].kind != TokenKind::kIdentifier) return -1;
    return rd_.var_index(T[i].text);
  }

  /// Size-derived wide variables, to a fixed point over assignments.
  void compute_size_taint() {
    size_tainted_.clear();
    bool changed = true;
    while (changed) {
      changed = false;
      for (const Def& d : rd_.defs) {
        if (d.stmt < 0) continue;
        if (size_tainted_.count(d.var) != 0) continue;
        if (!is_wide_int(rd_.vars[d.var].type_name)) continue;
        const auto [b, e] = rhs_of(d);
        if (range_has_size_call(b, e) ||
            range_has_taint(b, e, size_tainted_)) {
          size_tainted_.insert(d.var);
          changed = true;
        }
      }
    }
  }

  /// Type name and operand '(' index of `static_cast<...>(`, or {"",0}.
  std::pair<std::string, std::size_t> cast_type_at(std::size_t i) const {
    if (!T[i].is_ident("static_cast") || i + 1 >= T.size() ||
        !T[i + 1].is_punct("<")) {
      return {"", 0};
    }
    std::string type;
    std::size_t j = i + 2;
    for (; j < T.size(); ++j) {
      if (T[j].is_punct(">")) break;
      if (T[j].is_punct(";") || T[j].is_punct("{")) return {"", 0};
      if (T[j].kind == TokenKind::kIdentifier && !T[j].is_ident("const")) {
        type = T[j].text;
      }
    }
    if (j >= T.size() || j + 1 >= T.size() || !T[j + 1].is_punct("(")) {
      return {"", 0};
    }
    return {type, j + 1};
  }

  void check_narrowing_casts() {
    const FunctionDef& def = parsed_.functions[fn_];
    for (std::size_t i = def.body_begin; i < def.body_end; ++i) {
      if (!T[i].is_ident("static_cast")) continue;
      if (parsed_.enclosing(i, false) != fn_) continue;  // nested lambda
      const auto [type, open] = cast_type_at(i);
      if (open == 0 || !is_narrow_int(type)) continue;
      const std::size_t close = match_paren(open);
      if (close >= T.size()) continue;
      if (!range_has_size_call(open + 1, close) &&
          !range_has_taint(open + 1, close, size_tainted_) &&
          !range_has_wide_cast(open + 1, close)) {
        continue;
      }
      const int s = stmt_of_token(i);
      std::set<std::string> names = idents_in(open + 1, close);
      if (s >= 0) {
        // The assigned-to name, for guards phrased over the result.
        const CfgStmt& stmt = cfg_.stmts[s];
        if (stmt.begin < T.size() &&
            T[stmt.begin].kind == TokenKind::kIdentifier) {
          names.insert(T[stmt.begin].text);
        }
      }
      augment_with_sources(names);
      if (guarded(s, names)) continue;
      report(i, "narrowing-cast",
             "static_cast<" + type +
                 "> of a size-derived 64-bit expression truncates "
                 "silently — use vp::checked_narrow<" +
                 type + ">() or prove the range with a dominating VP_CHECK");
    }
  }

  // -- flow-determinism -----------------------------------------------

  bool rhs_is_pointer_source(std::size_t b, std::size_t e) const {
    for (std::size_t i = b; i < e && i < T.size(); ++i) {
      if (is_call_at(i) && T[i].is_ident("data") && i > b &&
          (T[i - 1].is_punct(".") || T[i - 1].is_punct("->"))) {
        return true;
      }
      if (T[i].is_ident("reinterpret_cast")) return true;
      if (T[i].is_punct("&") && i + 1 < e &&
          T[i + 1].kind == TokenKind::kIdentifier &&
          (i == b || !(T[i - 1].kind == TokenKind::kIdentifier ||
                       T[i - 1].kind == TokenKind::kNumber ||
                       T[i - 1].is_punct(")") || T[i - 1].is_punct("]")))) {
        return true;  // address-of, not binary and
      }
    }
    return false;
  }

  bool rhs_is_clock_source(std::size_t b, std::size_t e) const {
    for (std::size_t i = b; i < e && i < T.size(); ++i) {
      if (T[i].is_ident("now") && i > b && T[i - 1].is_punct("::") &&
          i + 1 < e && T[i + 1].is_punct("(")) {
        return true;
      }
      if ((T[i].is_ident("clock_gettime") || T[i].is_ident("gettimeofday")) &&
          i + 1 < e && T[i + 1].is_punct("(")) {
        return true;
      }
    }
    return false;
  }

  /// Pointer difference recovers an index deterministically; such an
  /// RHS does not propagate pointer taint.
  bool is_pointer_difference(std::size_t b, std::size_t e) const {
    int tainted_count = 0;
    bool minus = false;
    int depth = 0;
    for (std::size_t i = b; i < e && i < T.size(); ++i) {
      if (T[i].is_punct("(")) ++depth;
      if (T[i].is_punct(")")) --depth;
      if (depth == 0 && T[i].is_punct("-")) minus = true;
      const int v = var_at(i);
      if (v >= 0 && ptr_tainted_.count(v) != 0 && is_bare_value(i)) {
        ++tainted_count;
      }
    }
    return minus && tainted_count >= 2;
  }

  void compute_flow_taint() {
    ptr_tainted_.clear();
    clock_tainted_.clear();
    for (std::size_t v = 0; v < rd_.vars.size(); ++v) {
      const VarInfo& var = rd_.vars[v];
      if (var.is_pointer || var.type_name == "uintptr_t" ||
          var.type_name == "intptr_t") {
        ptr_tainted_.insert(static_cast<int>(v));
      }
    }
    bool changed = true;
    while (changed) {
      changed = false;
      for (const Def& d : rd_.defs) {
        if (d.stmt < 0) continue;
        const auto [b, e] = rhs_of(d);
        if (ptr_tainted_.count(d.var) == 0) {
          const bool src = rhs_is_pointer_source(b, e);
          const bool prop =
              range_has_taint(b, e, ptr_tainted_) &&
              !is_pointer_difference(b, e);
          if (src || prop) {
            ptr_tainted_.insert(d.var);
            changed = true;
          }
        }
        if (clock_tainted_.count(d.var) == 0 &&
            (rhs_is_clock_source(b, e) ||
             range_has_taint(b, e, clock_tainted_))) {
          clock_tainted_.insert(d.var);
          changed = true;
        }
      }
    }
  }

  /// Comparator body ranges of std::sort-family calls whose call token
  /// belongs to this function: inline lambdas, or locals that name a
  /// lambda bound earlier (`auto cmp = [..](..){..}`).
  std::vector<std::pair<std::size_t, std::size_t>> comparator_bodies() {
    std::vector<std::pair<std::size_t, std::size_t>> bodies;
    const FunctionDef& def = parsed_.functions[fn_];
    for (std::size_t i = def.body_begin; i < def.body_end; ++i) {
      if (!is_call_at(i) || !is_sort_name(T[i].text)) continue;
      if (parsed_.enclosing(i, false) != fn_) continue;
      const std::size_t close = match_paren(i + 1);
      if (close >= T.size()) continue;
      for (std::size_t j = i + 2; j < close; ++j) {
        if (T[j].is_punct("[")) {
          // Inline comparator lambda: its body is a nested FunctionDef.
          for (const FunctionDef& g : parsed_.functions) {
            if (g.is_lambda && g.body_begin > j && g.body_begin < close &&
                g.parent == fn_) {
              bodies.push_back({g.body_begin + 1, g.body_end});
            }
          }
          break;
        }
        // Named comparator: last bare argument naming a local lambda.
        if (T[j].kind == TokenKind::kIdentifier && j + 1 <= close &&
            (T[j + 1].is_punct(")") || T[j + 1].is_punct(","))) {
          for (const FunctionDef& g : parsed_.functions) {
            if (g.is_lambda && g.parent == fn_ && g.name == T[j].text) {
              bodies.push_back({g.body_begin + 1, g.body_end});
            }
          }
        }
      }
    }
    std::sort(bodies.begin(), bodies.end());
    bodies.erase(std::unique(bodies.begin(), bodies.end()), bodies.end());
    return bodies;
  }

  void check_sort_comparators() {
    if (ptr_tainted_.empty() && clock_tainted_.empty()) return;
    for (const auto& [b, e] : comparator_bodies()) {
      for (std::size_t j = b; j < e && j < T.size(); ++j) {
        if (!is_comparison(T[j])) continue;
        // Operand ranges: scan out to the enclosing expression edges.
        const std::size_t lo = operand_begin(j, b);
        const std::size_t hi = operand_end(j, e);
        for (std::size_t k = lo; k < hi; ++k) {
          if (k == j) continue;
          const int v = var_at(k);
          if (v < 0 || !is_bare_value(k)) continue;
          const bool ptr = ptr_tainted_.count(v) != 0;
          const bool clk = clock_tainted_.count(v) != 0;
          if (!ptr && !clk) continue;
          report(k, "tainted-comparator",
                 std::string(ptr ? "pointer-derived '" : "clock-derived '") +
                     rd_.vars[v].name +
                     "' is a sort-comparator operand — ordering becomes " +
                     (ptr ? "allocation" : "time") +
                     "-dependent; compare by id or value");
          j = hi;  // one finding per comparison
          break;
        }
      }
    }
  }

  std::size_t operand_begin(std::size_t cmp, std::size_t lo) const {
    int depth = 0;
    std::size_t i = cmp;
    while (i > lo) {
      const Token& t = T[i - 1];
      if (t.is_punct(")") || t.is_punct("]")) ++depth;
      if (t.is_punct("(") || t.is_punct("[")) {
        if (depth == 0) break;
        --depth;
      }
      if (depth == 0 &&
          (t.is_punct(";") || t.is_punct(",") || t.is_punct("{") ||
           t.is_punct("&&") || t.is_punct("||") || t.is_punct("?") ||
           t.is_punct(":") || t.is_ident("return"))) {
        break;
      }
      --i;
    }
    return i;
  }

  std::size_t operand_end(std::size_t cmp, std::size_t hi) const {
    int depth = 0;
    std::size_t i = cmp + 1;
    while (i < hi) {
      const Token& t = T[i];
      if (t.is_punct("(") || t.is_punct("[")) ++depth;
      if (t.is_punct(")") || t.is_punct("]")) {
        if (depth == 0) break;
        --depth;
      }
      if (depth == 0 &&
          (t.is_punct(";") || t.is_punct(",") || t.is_punct("&&") ||
           t.is_punct("||") || t.is_punct("?") || t.is_punct(":"))) {
        break;
      }
      ++i;
    }
    return i;
  }

  struct Guard {
    int stmt = -1;
    std::set<std::string> names;
  };

  const LexedFile& lexed_;
  const std::vector<Token>& T;
  const std::string& path_;
  const RuleFilter& filter_;
  std::vector<Finding>& out_;
  ParsedFile parsed_;
  Cfg cfg_;
  LocalDefs rd_;
  int fn_ = -1;
  bool index_scope_ = false;
  bool flow_scope_ = false;
  std::vector<Guard> guards_;
  std::set<int> size_tainted_;
  std::set<int> ptr_tainted_;
  std::set<int> clock_tainted_;
};

}  // namespace

void run_dataflow_rules(const FileUnit& unit, const RuleFilter& filter,
                        std::vector<Finding>& out) {
  DataflowPass(unit, filter, out).run();
}

}  // namespace vlsipart::analysis
