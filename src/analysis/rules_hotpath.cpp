// Hot-path purity rule: every function reachable from a
// `// hot-path: root` annotation must not allocate, lock, throw or do
// IO.  The FM inner loop's speed contract (DESIGN.md §8) is exactly
// "no per-move heap traffic"; this rule makes the contract checkable.
//
// Mechanics:
//   * `// hot-path: root` on (or directly above) a function definition
//     line seeds a reachability walk over the call graph.  Lambdas
//     defined inside a reached function are walked too — the FM loop
//     runs its comparators and shard bodies inline.
//   * Calls that resolve to repo functions are followed, not flagged;
//     unresolved calls are treated as opaque primitives and checked
//     against the banned-name list (growing container ops, allocating
//     algorithms, malloc family, IO, lock methods).
//   * Banned tokens inside a reached body (`new`, `throw`, mutex/lock
//     types, stream objects) are flagged with the root-to-offender
//     call chain in the message, and so is a standard container
//     constructed with arguments, declared or as a temporary
//     (`std::vector<EdgeId> copy(nets.begin(), nets.end())`, a count or
//     a copy, also `std::vector<EdgeId> copy = nets;`): the constructor
//     allocates.
//   * `// hot-path: allow(<reason>)` on the line (or the line above)
//     suppresses a site AND prunes call edges from that line — the
//     reason documents an amortized or cold branch (e.g. geometric
//     vector growth, audit-mode-only calls).  An empty reason does not
//     suppress.
#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/analysis/callgraph.h"
#include "src/analysis/rules_internal.h"

namespace vlsipart::analysis {

namespace {

constexpr char kRule[] = "hot-path-purity";

/// Unresolved call names that allocate, lock or perform IO.
const std::set<std::string>& banned_calls() {
  static const std::set<std::string> kSet = {
      // container growth
      "push_back", "emplace_back", "emplace", "resize", "reserve", "assign",
      "insert", "append", "push_front", "emplace_front", "shrink_to_fit",
      // allocating algorithms / factories
      "stable_sort", "inplace_merge", "stable_partition", "make_unique",
      "make_shared", "to_string",
      // C allocation
      "malloc", "calloc", "realloc", "strdup", "aligned_alloc",
      // IO
      "printf", "fprintf", "fopen", "fwrite", "fread", "puts", "fputs",
      "getline"};
  return kSet;
}

/// Mutex member functions, banned only as `obj.lock()` style calls so
/// that plain functions named `lock` in unrelated code do not trip.
const std::set<std::string>& banned_member_calls() {
  static const std::set<std::string> kSet = {"lock", "unlock", "try_lock"};
  return kSet;
}

/// Identifier tokens banned anywhere in a hot body.
const std::set<std::string>& banned_idents() {
  static const std::set<std::string> kSet = {
      "new",        "delete",      "throw",        "mutex",  "lock_guard",
      "unique_lock", "scoped_lock", "condition_variable",
      "cout",       "cerr",        "clog",         "ofstream",
      "ifstream",   "fstream",     "stringstream", "ostringstream",
      "istringstream"};
  return kSet;
}

/// Owning standard containers: declaring one with constructor arguments
/// (a range, a count, a copy) allocates.
const std::set<std::string>& container_types() {
  static const std::set<std::string> kSet = {
      "vector", "deque", "list", "forward_list", "set", "multiset", "map",
      "multimap", "unordered_set", "unordered_multiset", "unordered_map",
      "unordered_multimap", "string", "basic_string"};
  return kSet;
}

/// True when T[i] names a container type constructed here with
/// arguments: declared (`vector<...> name(args)`, `name{args}`,
/// `name = other;`) or as a temporary (`auto copy = vector<...>(args)`).
/// References, pointers and default construction do not allocate.
bool constructs_container(const std::vector<Token>& T, std::size_t i) {
  if (container_types().count(T[i].text) == 0) return false;
  // A temporary needs `std::` or template arguments to be told apart
  // from a call of a function named `set` or `list`.
  bool type_spelled =
      i >= 2 && T[i - 1].is_punct("::") && T[i - 2].is_ident("std");
  std::size_t j = i + 1;
  if (j < T.size() && T[j].is_punct("<")) {
    j = match_close(T, j, "<", ">") + 1;
    type_spelled = true;
  }
  const bool declared = j < T.size() && T[j].kind == TokenKind::kIdentifier;
  if (declared) {
    ++j;  // the declared name
  } else if (!type_spelled) {
    return false;
  }
  if (j + 1 >= T.size()) return false;
  const Token& open = T[j];
  if (open.is_punct("(")) return !T[j + 1].is_punct(")");
  if (open.is_punct("{")) return !T[j + 1].is_punct("}");
  // Copy-initialised from a named container (`vector<...> c = nets;`).
  // A move, a call or any other expression may not copy, so it passes.
  return declared && open.is_punct("=") && j + 2 < T.size() &&
         T[j + 1].kind == TokenKind::kIdentifier && T[j + 2].is_punct(";");
}

/// Per-line `hot-path:` annotations of one unit.
struct HotAnnotations {
  std::set<int> root_lines;                 ///< lines carrying `root`
  std::map<int, std::string> allow_reason;  ///< covered line -> reason
};

HotAnnotations collect_annotations(const LexedFile& file) {
  HotAnnotations a;
  for (const Comment& c : file.comments) {
    const std::size_t tag = c.text.find("hot-path:");
    if (tag == std::string::npos) continue;
    std::size_t pos = c.text.find_first_not_of(" \t", tag + 9);
    if (pos == std::string::npos) continue;
    if (c.text.compare(pos, 4, "root") == 0) {
      a.root_lines.insert(c.line);
      continue;
    }
    if (c.text.compare(pos, 5, "allow") == 0) {
      const std::size_t open = c.text.find('(', pos + 5);
      if (open == std::string::npos) continue;
      const std::size_t close = c.text.find(')', open);
      if (close == std::string::npos) continue;
      std::string reason = c.text.substr(open + 1, close - open - 1);
      const std::size_t b = reason.find_first_not_of(" \t");
      if (b == std::string::npos) continue;  // empty reason: no suppression
      const std::size_t e = reason.find_last_not_of(" \t");
      reason = reason.substr(b, e - b + 1);
      a.allow_reason[c.line] = reason;
      a.allow_reason[c.line + 1] = reason;
    }
  }
  return a;
}

class HotPathPass {
 public:
  HotPathPass(const Corpus& corpus, const CallGraph& graph,
              const RuleFilter& filter, std::vector<Finding>& out,
              std::size_t& suppressed)
      : corpus_(corpus),
        graph_(graph),
        filter_(filter),
        out_(out),
        suppressed_(suppressed) {}

  void run() {
    annotations_.reserve(corpus_.units.size());
    for (const FileUnit& unit : corpus_.units) {
      annotations_.push_back(collect_annotations(unit.lexed));
    }
    seed_roots();
    while (!queue_.empty()) {
      const int f = queue_.back();
      queue_.pop_back();
      visit(f);
    }
  }

 private:
  void seed_roots() {
    for (std::size_t f = 0; f < graph_.functions.size(); ++f) {
      const FunctionDef& def = graph_.functions[f];
      if (def.is_lambda) continue;
      const HotAnnotations& a = annotations_[graph_.unit_of[f]];
      // Annotation on the definition line or the line directly above.
      if (a.root_lines.count(def.line) == 0 &&
          a.root_lines.count(def.line - 1) == 0) {
        continue;
      }
      enqueue(static_cast<int>(f), /*pred=*/-1);
    }
  }

  void enqueue(int f, int pred) {
    if (visited_.count(f) != 0) return;
    visited_.insert(f);
    pred_[f] = pred;
    queue_.push_back(f);
  }

  /// Root-to-`f` chain of qualified names, " -> " joined.
  std::string chain(int f) const {
    std::vector<const std::string*> names;
    for (int cur = f; cur >= 0; cur = pred_.at(cur)) {
      names.push_back(&graph_.functions[cur].qualified_name);
    }
    std::string s;
    for (auto it = names.rbegin(); it != names.rend(); ++it) {
      if (!s.empty()) s += " -> ";
      s += **it;
    }
    return s;
  }

  void report(int f, int line, int col, const std::string& what) {
    if (!filter_.enabled(kRule)) return;
    const int unit = graph_.unit_of[f];
    if (!corpus_.units[unit].linted) return;
    if (!reported_.insert({unit, line}).second) return;  // one per line
    out_.push_back(Finding{
        corpus_.units[unit].lexed.path, line, col, kRule,
        "hot path reaches '" + what + "' via " + chain(f) +
            " — code reachable from a // hot-path: root must not "
            "allocate, lock, throw or do IO; restructure or justify "
            "with // hot-path: allow(<reason>)"});
  }

  /// True (and counted) when an allow annotation covers `line`.
  bool allowed(int unit, int line) {
    const auto& reasons = annotations_[unit].allow_reason;
    if (reasons.count(line) == 0) return false;
    ++suppressed_;
    return true;
  }

  void visit(int f) {
    const FunctionDef& def = graph_.functions[f];
    const int unit = graph_.unit_of[f];
    const std::vector<Token>& T = corpus_.units[unit].lexed.tokens;

    // Lambdas defined in a hot body execute in it.
    for (int child : graph_.children[f]) enqueue(child, f);

    // Call sites: follow resolved edges, check opaque names.
    std::set<std::size_t> call_tokens;
    for (const CallSite& site : graph_.calls[f]) {
      call_tokens.insert(site.token);
      if (allowed(unit, site.line)) continue;
      if (!site.callees.empty()) {
        for (int callee : site.callees) enqueue(callee, f);
        continue;
      }
      if (banned_calls().count(site.name) != 0 ||
          (site.member && banned_member_calls().count(site.name) != 0)) {
        report(f, site.line, site.col, site.name);
      }
    }

    // Banned identifier tokens in the function's direct body (child
    // lambda bodies are visited as their own functions).
    std::vector<std::pair<std::size_t, std::size_t>> holes;
    for (int child : graph_.children[f]) {
      holes.push_back({graph_.functions[child].body_begin,
                       graph_.functions[child].body_end});
    }
    for (std::size_t i = def.body_begin; i <= def.body_end && i < T.size();
         ++i) {
      bool in_hole = false;
      for (const auto& [b, e] : holes) in_hole |= (i >= b && i <= e);
      if (in_hole) continue;
      const Token& t = T[i];
      if (t.kind != TokenKind::kIdentifier) continue;
      if (constructs_container(T, i)) {
        if (!allowed(unit, t.line)) {
          report(f, t.line, t.col,
                 t.text + " constructed with arguments or copied");
        }
        continue;
      }
      if (banned_idents().count(t.text) == 0) continue;
      if (call_tokens.count(i) != 0) continue;  // handled as call site
      if (allowed(unit, t.line)) continue;
      report(f, t.line, t.col, t.text);
    }
  }

  const Corpus& corpus_;
  const CallGraph& graph_;
  const RuleFilter& filter_;
  std::vector<Finding>& out_;
  std::size_t& suppressed_;
  std::vector<HotAnnotations> annotations_;
  std::set<int> visited_;
  std::map<int, int> pred_;
  std::vector<int> queue_;
  std::set<std::pair<int, int>> reported_;  // (unit, line)
};

}  // namespace

void run_hotpath_rule(const Corpus& corpus, const CallGraph& graph,
                      const RuleFilter& filter, std::vector<Finding>& out,
                      std::size_t& suppressed) {
  if (!filter.enabled("hot-path-purity")) return;
  HotPathPass(corpus, graph, filter, out, suppressed).run();
}

}  // namespace vlsipart::analysis
