// Determinism rule family: token-level port of the 8 rules of the
// retired regex lint plus three new
// token-aware rules.  Matching against the token stream (never against
// string literals, comments or preprocessor text) eliminates the false-
// positive class the regex lint had, and token patterns make the new
// rules (pointer-keyed ordered containers, operator< on pointers,
// float accumulation over unordered iteration) expressible at all.
#include <cstddef>
#include <set>
#include <string>
#include <vector>

#include "src/analysis/rules_internal.h"

namespace vlsipart::analysis {

namespace {

// Directories whose code is the deterministic partitioning core.
const char* const kCoreDirs[] = {"src/part", "src/hypergraph"};
// Directories whose values flow into reported results (core + metrics).
const char* const kResultDirs[] = {"src/part", "src/hypergraph", "src/eval"};

bool in_any_dir(const std::string& path, const char* const (&dirs)[2]) {
  return path_under(path, dirs[0]) || path_under(path, dirs[1]);
}

bool in_any_dir(const std::string& path, const char* const (&dirs)[3]) {
  return path_under(path, dirs[0]) || path_under(path, dirs[1]) ||
         path_under(path, dirs[2]);
}

bool is_unordered_container(const std::string& s) {
  return s == "unordered_map" || s == "unordered_set" ||
         s == "unordered_multimap" || s == "unordered_multiset";
}

bool is_std_engine(const std::string& s) {
  return s == "mt19937" || s == "mt19937_64" || s == "minstd_rand" ||
         s == "minstd_rand0" || s == "default_random_engine" ||
         s == "ranlux24" || s == "ranlux48" || s == "ranlux24_base" ||
         s == "ranlux48_base" || s == "knuth_b";
}

bool is_sort_algorithm(const std::string& s) {
  return s == "sort" || s == "stable_sort" || s == "partial_sort" ||
         s == "nth_element";
}

bool contains_seed_word(const std::string& s) {
  return s.find("seed") != std::string::npos ||
         s.find("Seed") != std::string::npos || s == "Rng";
}

/// Index of the punct matching T[open] (one of () [] {} <>), or
/// T.size() when unbalanced.  For <> any ; or { aborts the match (a
/// comparison, not a template argument list).
std::size_t match_close(const std::vector<Token>& T, std::size_t open,
                        const char* open_p, const char* close_p) {
  const bool angles = open_p[0] == '<';
  int depth = 0;
  for (std::size_t i = open; i < T.size(); ++i) {
    if (T[i].is_punct(open_p)) {
      ++depth;
    } else if (T[i].is_punct(close_p)) {
      if (--depth == 0) return i;
    } else if (angles &&
               (T[i].is_punct(";") || T[i].is_punct("{"))) {
      return T.size();
    }
  }
  return T.size();
}

bool range_contains_star(const std::vector<Token>& T, std::size_t begin,
                         std::size_t end) {
  for (std::size_t i = begin; i < end && i < T.size(); ++i) {
    if (T[i].is_punct("*")) return true;
  }
  return false;
}

class DeterminismPass {
 public:
  DeterminismPass(const FileUnit& unit, const RuleFilter& filter,
                  std::vector<Finding>& out)
      : T(unit.lexed.tokens),
        path_(unit.lexed.path),
        filter_(filter),
        out_(out) {}

  void run() {
    collect_declarations();
    for (std::size_t i = 0; i < T.size(); ++i) {
      check_rand(i);
      check_random_device(i);
      check_std_engine(i);
      check_wall_clock_and_time_seed(i);
      check_unordered_in_core(i);
      check_range_for(i);
      check_pointer_sort_key(i);
      check_pointer_keyed_container(i);
      check_pointer_compare(i);
    }
  }

 private:
  void report(const Token& at, const char* rule, std::string message) {
    if (!filter_.enabled(rule)) return;
    out_.push_back(Finding{path_, at.line, at.col, rule, std::move(message)});
  }

  bool prev_is_member_access(std::size_t i) const {
    return i > 0 && (T[i - 1].is_punct(".") || T[i - 1].is_punct("->"));
  }

  /// Variables declared as unordered containers and as float/double —
  /// the cross-statement facts the range-for rules need.
  void collect_declarations() {
    for (std::size_t i = 0; i + 1 < T.size(); ++i) {
      if (T[i].kind != TokenKind::kIdentifier) continue;
      if (is_unordered_container(T[i].text) && T[i + 1].is_punct("<")) {
        std::size_t close = match_close(T, i + 1, "<", ">");
        std::size_t j = close + 1;
        while (j < T.size() && (T[j].is_punct("&") || T[j].is_punct("*") ||
                                T[j].is_punct("&&") ||
                                T[j].is_ident("const"))) {
          ++j;
        }
        if (j < T.size() && T[j].kind == TokenKind::kIdentifier) {
          unordered_vars_.insert(T[j].text);
        }
      }
      if ((T[i].is_ident("double") || T[i].is_ident("float")) &&
          !prev_is_member_access(i)) {
        std::size_t j = i + 1;
        while (j < T.size() && (T[j].is_punct("&") || T[j].is_punct("*"))) {
          ++j;
        }
        if (j < T.size() && T[j].kind == TokenKind::kIdentifier &&
            !(j + 1 < T.size() && T[j + 1].is_punct("("))) {
          float_vars_.insert(T[j].text);
        }
      }
    }
  }

  void check_rand(std::size_t i) {
    if (T[i].kind != TokenKind::kIdentifier) return;
    if (T[i].text != "rand" && T[i].text != "srand") return;
    if (i + 1 >= T.size() || !T[i + 1].is_punct("(")) return;
    if (prev_is_member_access(i)) return;  // some_obj.rand() is not libc
    report(T[i], "rand",
           "C library rand()/srand() is global, unseeded, nondeterministic "
           "state");
  }

  void check_random_device(std::size_t i) {
    if (!T[i].is_ident("random_device")) return;
    report(T[i], "random-device",
           "std::random_device draws hardware entropy and is never "
           "reproducible");
  }

  void check_std_engine(std::size_t i) {
    if (T[i].kind != TokenKind::kIdentifier || !is_std_engine(T[i].text)) {
      return;
    }
    report(T[i], "std-engine",
           "use the explicitly seeded vlsipart::Rng instead of <random> "
           "engines");
  }

  /// One scan serves both clock rules: any clock read fires wall-clock;
  /// a clock read on a line that also mentions seeding fires time-seed.
  void check_wall_clock_and_time_seed(std::size_t i) {
    bool clock_read = false;
    if (T[i].is_ident("now") && i > 0 && T[i - 1].is_punct("::") &&
        i + 1 < T.size() && T[i + 1].is_punct("(")) {
      clock_read = true;
    }
    if ((T[i].is_ident("clock_gettime") || T[i].is_ident("gettimeofday")) &&
        i + 1 < T.size() && T[i + 1].is_punct("(")) {
      clock_read = true;
    }
    if (clock_read) {
      report(T[i], "wall-clock",
             "wall-clock read: annotate to affirm timing feeds only "
             "observability or admission policy (timers, deadlines, idle "
             "timeouts), never a partitioning result");
      if (line_mentions_seed(T[i].line)) {
        report(T[i], "time-seed",
               "seeding from the clock ties results to the wall clock");
      }
      return;
    }
    // time()/clock() calls are not wall-clock by themselves in the
    // legacy rule set, but seeding from them is a time-seed.
    if ((T[i].is_ident("time") || T[i].is_ident("clock")) &&
        i + 1 < T.size() && T[i + 1].is_punct("(") &&
        !prev_is_member_access(i) && line_mentions_seed(T[i].line)) {
      report(T[i], "time-seed",
             "seeding from the clock ties results to the wall clock");
    }
  }

  bool line_mentions_seed(int line) const {
    for (const Token& t : T) {
      if (t.line != line) continue;
      if (t.kind == TokenKind::kIdentifier && contains_seed_word(t.text)) {
        return true;
      }
    }
    return false;
  }

  void check_unordered_in_core(std::size_t i) {
    if (!in_any_dir(path_, kCoreDirs)) return;
    if (T[i].kind != TokenKind::kIdentifier ||
        !is_unordered_container(T[i].text)) {
      return;
    }
    report(T[i], "unordered-in-core",
           "hash containers are banned in the partitioning core (src/part, "
           "src/hypergraph): bucket layout is stdlib state");
  }

  /// Range-for over an unordered container: iteration-order rule, plus
  /// the float-accumulation rule inside the loop body.
  void check_range_for(std::size_t i) {
    if (!T[i].is_ident("for") || i + 1 >= T.size() ||
        !T[i + 1].is_punct("(")) {
      return;
    }
    const std::size_t close = match_close(T, i + 1, "(", ")");
    if (close >= T.size()) return;
    // The range expression begins after the last top-level ':'.
    std::size_t colon = T.size();
    int depth = 0;
    for (std::size_t j = i + 2; j < close; ++j) {
      if (T[j].is_punct("(") || T[j].is_punct("[") || T[j].is_punct("{")) {
        ++depth;
      } else if (T[j].is_punct(")") || T[j].is_punct("]") ||
                 T[j].is_punct("}")) {
        --depth;
      } else if (depth == 0 && T[j].is_punct(":")) {
        colon = j;
      }
    }
    if (colon >= close) return;
    // Plain-variable range only (same scope as the regex lint had).
    if (colon + 2 != close || T[colon + 1].kind != TokenKind::kIdentifier) {
      return;
    }
    const std::string& var = T[colon + 1].text;
    if (unordered_vars_.count(var) == 0) return;
    report(T[colon + 1], "unordered-iter",
           "iterating unordered container '" + var +
               "': order is a property of the standard library, not the "
               "input");
    check_float_accumulation(close + 1);
  }

  /// Body of a range-for over an unordered container starts at `begin`:
  /// accumulating into a float/double there makes the result depend on
  /// hash-bucket order (float addition is not associative).
  void check_float_accumulation(std::size_t begin) {
    if (begin >= T.size()) return;
    std::size_t end;
    if (T[begin].is_punct("{")) {
      end = match_close(T, begin, "{", "}");
    } else {  // single-statement body
      end = begin;
      while (end < T.size() && !T[end].is_punct(";")) ++end;
    }
    for (std::size_t j = begin + 1; j < end && j < T.size(); ++j) {
      if (!(T[j].is_punct("+=") || T[j].is_punct("-="))) continue;
      if (j == 0 || T[j - 1].kind != TokenKind::kIdentifier) continue;
      if (float_vars_.count(T[j - 1].text) == 0) continue;
      report(T[j - 1], "float-accumulate-unordered",
             "accumulating into floating-point '" + T[j - 1].text +
                 "' while iterating an unordered container: float addition "
                 "is not associative, so the sum depends on hash-bucket "
                 "order");
    }
  }

  void check_pointer_sort_key(std::size_t i) {
    if (T[i].kind != TokenKind::kIdentifier ||
        !is_sort_algorithm(T[i].text)) {
      return;
    }
    if (i < 2 || !T[i - 1].is_punct("::") || !T[i - 2].is_ident("std")) {
      return;
    }
    if (i + 1 >= T.size() || !T[i + 1].is_punct("(")) return;
    const std::size_t close = match_close(T, i + 1, "(", ")");
    // A lambda comparator with a pointer parameter: [...] ( ...*... )
    for (std::size_t j = i + 2; j < close && j < T.size(); ++j) {
      if (!T[j].is_punct("[")) continue;
      const std::size_t cap_close = match_close(T, j, "[", "]");
      if (cap_close >= T.size() || cap_close + 1 >= T.size() ||
          !T[cap_close + 1].is_punct("(")) {
        continue;
      }
      const std::size_t par_close = match_close(T, cap_close + 1, "(", ")");
      if (range_contains_star(T, cap_close + 2, par_close)) {
        report(T[i], "pointer-sort-key",
               "sort comparator takes pointer parameters; pointer order is "
               "allocation order (ASLR-dependent) — compare by id or value "
               "instead");
        return;
      }
      j = cap_close;
    }
  }

  /// std::map/std::set keyed on a pointer type in the partitioning
  /// core: ordered iteration over pointer keys is allocation order.
  void check_pointer_keyed_container(std::size_t i) {
    if (!in_any_dir(path_, kCoreDirs)) return;
    if (T[i].kind != TokenKind::kIdentifier) return;
    const std::string& s = T[i].text;
    if (s != "map" && s != "set" && s != "multimap" && s != "multiset") {
      return;
    }
    if (i < 2 || !T[i - 1].is_punct("::") || !T[i - 2].is_ident("std")) {
      return;
    }
    if (i + 1 >= T.size() || !T[i + 1].is_punct("<")) return;
    // Scan the key type: up to the first ',' at angle depth 1, or the
    // closing '>' for std::set<Key>.
    int depth = 0;
    for (std::size_t j = i + 1; j < T.size(); ++j) {
      if (T[j].is_punct("<")) {
        ++depth;
      } else if (T[j].is_punct(">")) {
        if (--depth == 0) break;
      } else if (T[j].is_punct(";") || T[j].is_punct("{")) {
        break;  // not a template argument list after all
      } else if (depth == 1 && T[j].is_punct(",")) {
        break;
      } else if (depth >= 1 && T[j].is_punct("*")) {
        report(T[i], "pointer-keyed-container",
               "std::" + s +
                   " keyed on a pointer in the partitioning core: ordered "
                   "iteration over pointer keys is allocation order "
                   "(ASLR-dependent) — key by id instead");
        return;
      }
    }
  }

  /// operator< taking pointer parameters in result paths: such a
  /// comparison orders by address, which is ASLR-dependent.
  void check_pointer_compare(std::size_t i) {
    if (!in_any_dir(path_, kResultDirs)) return;
    if (!T[i].is_ident("operator")) return;
    if (i + 2 >= T.size() || !T[i + 1].is_punct("<")) return;
    if (T[i + 2].is_punct("<")) return;  // operator<<
    const std::size_t open = i + 2;
    if (!T[open].is_punct("(")) return;
    const std::size_t close = match_close(T, open, "(", ")");
    if (range_contains_star(T, open + 1, close)) {
      report(T[i], "pointer-compare",
             "operator< over pointer parameters in a result path orders by "
             "address (ASLR-dependent) — compare by id or value instead");
    }
  }

  const std::vector<Token>& T;
  const std::string& path_;
  const RuleFilter& filter_;
  std::vector<Finding>& out_;
  std::set<std::string> unordered_vars_;
  std::set<std::string> float_vars_;
};

}  // namespace

void run_determinism_rules(const FileUnit& unit, const RuleFilter& filter,
                           std::vector<Finding>& out) {
  DeterminismPass(unit, filter, out).run();
}

}  // namespace vlsipart::analysis
