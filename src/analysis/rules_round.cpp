// Parallel-round protocol rules for the synchronous-round engines
// (parallel_refine.cpp, parallel_coarsen.cpp — any `parallel_*` unit).
//
// The round protocol's determinism lemma (src/util/shard.h) requires
// that worker shards write only to slots they own: every write to a
// captured array must be indexed by a variable derived from the
// shard's contiguous range (the lambda's shard parameter, a loop
// variable seeded from `range.begin`, or a value computed from one).
// It also forbids RNG draws inside worker lambdas — per-shard draws
// make the stream depend on the shard count.
//
//   round-frozen-write  captured-array write not indexed by the
//                       shard's range variable (or growth of a
//                       captured container) inside a worker lambda
//   round-rng-in-shard  RNG type/object use inside a worker lambda
//
// Worker lambdas are those passed (directly or by name) to
// `parallel_for_dynamic` / `submit` / `submit_with_slot`, plus any
// lambda bound to a `*_shard` name.
#include <cctype>
#include <cstddef>
#include <set>
#include <string>
#include <vector>

#include "src/analysis/callgraph.h"
#include "src/analysis/rules_internal.h"

namespace vlsipart::analysis {

namespace {

constexpr char kFrozenRule[] = "round-frozen-write";
constexpr char kRngRule[] = "round-rng-in-shard";

bool in_round_scope(const std::string& path) {
  if (!path_under(path, "src")) return false;
  const std::size_t slash = path.rfind('/');
  const std::string base =
      slash == std::string::npos ? path : path.substr(slash + 1);
  return base.compare(0, 9, "parallel_") == 0;
}

bool is_dispatch_name(const std::string& s) {
  return s == "parallel_for_dynamic" || s == "submit" ||
         s == "submit_with_slot";
}

bool rng_object_name(const std::string& s) {
  std::string lower;
  for (char c : s) {
    lower.push_back(static_cast<char>(
        std::tolower(static_cast<unsigned char>(c))));
  }
  return lower == "rng" || lower == "rng_" || ends_with(lower, "_rng") ||
         ends_with(lower, "_rng_") || ends_with(lower, "rng");
}

const std::set<std::string>& growth_calls() {
  static const std::set<std::string> kSet = {
      "push_back", "emplace_back", "emplace", "insert", "resize",
      "reserve",   "assign",       "clear",   "erase",  "push_front"};
  return kSet;
}

/// Identifiers that introduce declarations when seen before a name.
bool decl_prev_blocklist(const std::string& s) {
  return s == "return" || s == "else" || s == "case" || s == "do" ||
         s == "goto" || s == "break" || s == "continue" || s == "new" ||
         s == "delete" || s == "sizeof" || s == "co_return";
}

bool is_assign_op(const Token& t) {
  return t.is_punct("=") || t.is_punct("+=") || t.is_punct("-=") ||
         t.is_punct("*=") || t.is_punct("/=") || t.is_punct("%=") ||
         t.is_punct("&=") || t.is_punct("|=") || t.is_punct("^=") ||
         t.is_punct("++") || t.is_punct("--");
}

class RoundPass {
 public:
  RoundPass(const Corpus& corpus, const CallGraph& graph,
            const RuleFilter& filter, std::vector<Finding>& out)
      : corpus_(corpus), graph_(graph), filter_(filter), out_(out) {}

  void run() {
    for (std::size_t f = 0; f < graph_.functions.size(); ++f) {
      const FunctionDef& def = graph_.functions[f];
      if (!def.is_lambda || def.parent < 0) continue;
      const int unit = graph_.unit_of[f];
      if (!corpus_.units[unit].linted) continue;
      if (!in_round_scope(corpus_.units[unit].lexed.path)) continue;
      if (!is_worker_lambda(static_cast<int>(f))) continue;
      check_lambda(static_cast<int>(f));
    }
  }

 private:
  /// A lambda is a worker when its body sits inside the argument list
  /// of a dispatch call, its bound name is passed to one, or its bound
  /// name ends in `_shard`.
  bool is_worker_lambda(int f) {
    const FunctionDef& def = graph_.functions[f];
    if (ends_with(def.name, "_shard")) return true;
    const int unit = graph_.unit_of[f];
    const std::vector<Token>& T = corpus_.units[unit].lexed.tokens;
    // Dispatch calls anywhere in this unit.
    for (int g : graph_.unit_functions[unit]) {
      for (const CallSite& site : graph_.calls[g]) {
        if (!is_dispatch_name(site.name)) continue;
        const std::size_t open = site.token + 1 < T.size() &&
                                         T[site.token + 1].is_punct("(")
                                     ? site.token + 1
                                     : 0;
        if (open == 0) continue;
        const std::size_t close = match_close(T, open, "(", ")");
        if (def.body_begin > open && def.body_end < close) return true;
        if (def.name != "<lambda>") {
          for (std::size_t i = open + 1; i < close && i < T.size(); ++i) {
            if (T[i].is_ident(def.name.c_str())) return true;
          }
        }
      }
    }
    return false;
  }

  void check_lambda(int f) {
    const FunctionDef& def = graph_.functions[f];
    const int unit = graph_.unit_of[f];
    const std::vector<Token>& T = corpus_.units[unit].lexed.tokens;
    const std::string& path = corpus_.units[unit].lexed.path;

    // Names owned by the shard: parameters plus anything derived from
    // the range (`v = r.begin`, `u = static_cast<...>(v)`).  Iterate
    // to a fixed point so chained derivations resolve regardless of
    // pass order.
    std::set<std::string> derived(def.param_names.begin(),
                                  def.param_names.end());
    std::set<std::string> locals;
    for (int round = 0; round < 3; ++round) {
      const std::size_t before = derived.size() + locals.size();
      collect_names(T, def, derived, locals);
      if (derived.size() + locals.size() == before) break;
    }

    for (std::size_t i = def.body_begin + 1; i < def.body_end; ++i) {
      const Token& t = T[i];
      if (t.kind != TokenKind::kIdentifier) continue;

      // RNG use: type token or method call on an rng-named object.
      if (filter_.enabled(kRngRule)) {
        const bool rng_type = t.text == "Rng";
        const bool rng_call =
            (rng_object_name(t.text) && i + 1 < T.size() &&
             (T[i + 1].is_punct(".") || T[i + 1].is_punct("->"))) ||
            ((t.text == "splitmix64" || t.text == "rand") && i + 1 < T.size() &&
             T[i + 1].is_punct("("));
        if (rng_type || rng_call) {
          out_.push_back(Finding{
              path, t.line, t.col, kRngRule,
              "RNG use ('" + t.text + "') inside worker-shard lambda '" +
                  graph_.functions[f].qualified_name +
                  "' — per-shard draws make results depend on the shard "
                  "count; draw before the round or fork a per-vertex "
                  "stream outside the pool"});
          continue;
        }
      }

      if (!filter_.enabled(kFrozenRule)) continue;
      const bool object_pos =
          i == 0 || !(T[i - 1].is_punct(".") || T[i - 1].is_punct("->"));
      if (!object_pos) continue;
      if (locals.count(t.text) != 0 || derived.count(t.text) != 0) continue;

      // Captured-container growth: obj.push_back(...) etc.
      if (i + 2 < T.size() &&
          (T[i + 1].is_punct(".") || T[i + 1].is_punct("->")) &&
          T[i + 2].kind == TokenKind::kIdentifier &&
          growth_calls().count(T[i + 2].text) != 0 && i + 3 < T.size() &&
          T[i + 3].is_punct("(")) {
        report_frozen(path, t, f,
                      "'" + t.text + "." + T[i + 2].text +
                          "' mutates a captured container");
        continue;
      }

      // Subscripted write: obj[index...] <assign>.
      if (i + 1 >= T.size() || !T[i + 1].is_punct("[")) continue;
      const std::size_t close = match_close(T, i + 1, "[", "]");
      if (close >= T.size() || close >= def.body_end) continue;
      const bool pre_incr = i >= 1 && is_assign_op(T[i - 1]) &&
                            (T[i - 1].is_punct("++") || T[i - 1].is_punct("--"));
      const bool post_op =
          close + 1 < T.size() && is_assign_op(T[close + 1]) &&
          !(T[close + 1].is_punct("=") && close + 2 < T.size() &&
            T[close + 2].is_punct("="));
      if (!pre_incr && !post_op) continue;
      bool indexed_by_range = false;
      for (std::size_t j = i + 2; j < close; ++j) {
        if (T[j].kind == TokenKind::kIdentifier &&
            derived.count(T[j].text) != 0) {
          indexed_by_range = true;
          break;
        }
      }
      if (indexed_by_range) continue;
      report_frozen(path, t, f,
                    "write to captured array '" + t.text +
                        "' is not indexed by the shard's range variable");
    }
  }

  void report_frozen(const std::string& path, const Token& t, int f,
                     const std::string& what) {
    out_.push_back(Finding{
        path, t.line, t.col, kFrozenRule,
        what + " inside worker-shard lambda '" +
            graph_.functions[f].qualified_name +
            "' — shards may only write slots they own (indexed by the "
            "shard range); merge per-shard buffers serially instead"});
  }

  /// One pass of local-declaration and range-derivation collection.
  void collect_names(const std::vector<Token>& T, const FunctionDef& def,
                     std::set<std::string>& derived,
                     std::set<std::string>& locals) {
    for (std::size_t i = def.body_begin + 1; i < def.body_end; ++i) {
      const Token& t = T[i];
      if (t.kind != TokenKind::kIdentifier) continue;
      if (i == 0) continue;
      const Token& p = T[i - 1];
      const bool decl_pos =
          (p.kind == TokenKind::kIdentifier && !decl_prev_blocklist(p.text)) ||
          p.is_punct("&") || p.is_punct("*") || p.is_punct(">");
      if (!decl_pos || i + 1 >= T.size()) continue;
      const Token& n = T[i + 1];
      // ':' covers range-for declarations (`for (const T x : xs)`); the
      // element is local scratch but deliberately NOT range-derived —
      // net ids reached through a vertex's pin list are shared across
      // shards.
      const bool declares = n.is_punct("=") || n.is_punct(";") ||
                            n.is_punct("{") || n.is_punct(",") ||
                            n.is_punct(":");
      if (!declares) continue;
      locals.insert(t.text);
      if (!n.is_punct("=")) continue;
      // Initializer tokens up to ';' (or ',' in a for-init) at depth 0.
      int depth = 0;
      for (std::size_t j = i + 2; j < def.body_end; ++j) {
        const Token& u = T[j];
        if (u.is_punct("(") || u.is_punct("[") || u.is_punct("{")) ++depth;
        if (u.is_punct(")") || u.is_punct("]") || u.is_punct("}")) --depth;
        if (depth < 0) break;
        if (depth == 0 && (u.is_punct(";") || u.is_punct(","))) break;
        const bool from_range =
            (u.is_ident("begin") && j >= 1 &&
             (T[j - 1].is_punct(".") || T[j - 1].is_punct("->"))) ||
            (u.kind == TokenKind::kIdentifier && derived.count(u.text) != 0);
        if (from_range) {
          derived.insert(t.text);
          break;
        }
      }
    }
  }

  const Corpus& corpus_;
  const CallGraph& graph_;
  const RuleFilter& filter_;
  std::vector<Finding>& out_;
};

}  // namespace

void run_round_rules(const Corpus& corpus, const CallGraph& graph,
                     const RuleFilter& filter, std::vector<Finding>& out) {
  if (!filter.enabled(kFrozenRule) && !filter.enabled(kRngRule)) return;
  RoundPass(corpus, graph, filter, out).run();
}

}  // namespace vlsipart::analysis
