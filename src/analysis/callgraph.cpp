#include "src/analysis/callgraph.h"

#include <map>
#include <set>

namespace vlsipart::analysis {

namespace {

const std::set<std::string>& call_keyword_blocklist() {
  static const std::set<std::string> kSet = {
      "if",      "for",      "while",       "switch",       "catch",
      "return",  "sizeof",   "alignof",     "alignas",      "decltype",
      "noexcept", "new",     "delete",      "throw",        "typeid",
      "static_cast", "dynamic_cast", "reinterpret_cast", "const_cast",
      "co_await", "co_yield", "co_return",  "defined",      "requires",
      "static_assert", "and", "or",         "not",          "operator"};
  return kSet;
}

/// Identifiers that read as declaration context before a name: a call
/// after one of these is still a call (`return f(x)`), anything else
/// (`Type name(args)`) is a declaration with constructor arguments.
bool decl_context_exempt(const std::string& s) {
  return s == "return" || s == "co_return" || s == "case" || s == "else" ||
         s == "do" || s == "co_yield" || s == "co_await" || s == "throw";
}

/// After `name`, skip a balanced template argument list if one leads
/// to a '(' within a short window.  Returns the index of the '(' or 0.
std::size_t paren_after_optional_angles(const std::vector<Token>& T,
                                        std::size_t i) {
  if (i < T.size() && T[i].is_punct("(")) return i;
  if (i >= T.size() || !T[i].is_punct("<")) return 0;
  int depth = 0;
  std::size_t steps = 0;
  for (std::size_t j = i; j < T.size() && steps < 48; ++j, ++steps) {
    if (T[j].is_punct("<")) ++depth;
    if (T[j].is_punct(">") && --depth == 0) {
      return (j + 1 < T.size() && T[j + 1].is_punct("(")) ? j + 1 : 0;
    }
    if (T[j].is_punct(";") || T[j].is_punct("{") || T[j].is_punct("}")) break;
  }
  return 0;
}

std::size_t count_args(const std::vector<Token>& T, std::size_t open,
                       std::size_t close) {
  if (close <= open + 1) return 0;
  std::size_t commas = 0;
  int depth = 0;
  for (std::size_t j = open + 1; j < close; ++j) {
    if (T[j].is_punct("(") || T[j].is_punct("[") || T[j].is_punct("{")) {
      ++depth;
    }
    if (T[j].is_punct(")") || T[j].is_punct("]") || T[j].is_punct("}")) {
      --depth;
    }
    if (depth == 0 && T[j].is_punct(",")) ++commas;
  }
  return commas + 1;
}

}  // namespace

int CallGraph::function_at(int unit, std::size_t tok) const {
  if (unit < 0 || unit >= static_cast<int>(unit_functions.size())) return -1;
  int best = -1;
  std::size_t best_span = 0;
  for (int f : unit_functions[unit]) {
    const FunctionDef& d = functions[f];
    if (tok < d.body_begin || tok > d.body_end) continue;
    const std::size_t span = d.body_end - d.body_begin;
    if (best == -1 || span < best_span) {
      best = f;
      best_span = span;
    }
  }
  return best;
}

CallGraph build_call_graph(const Corpus& corpus) {
  CallGraph g;
  g.unit_functions.resize(corpus.units.size());

  // Parse every unit; flatten definitions into one table.
  for (std::size_t u = 0; u < corpus.units.size(); ++u) {
    ParsedFile parsed = parse_file(corpus.units[u].lexed);
    const int base = static_cast<int>(g.functions.size());
    for (FunctionDef& def : parsed.functions) {
      if (def.parent >= 0) def.parent += base;
      g.functions.push_back(std::move(def));
      g.unit_of.push_back(static_cast<int>(u));
      g.unit_functions[u].push_back(static_cast<int>(g.functions.size()) - 1);
    }
  }
  g.children.resize(g.functions.size());
  g.calls.resize(g.functions.size());
  for (std::size_t f = 0; f < g.functions.size(); ++f) {
    if (g.functions[f].parent >= 0) {
      g.children[g.functions[f].parent].push_back(static_cast<int>(f));
    }
  }

  // Candidate index: unqualified name -> definitions (lambdas excluded).
  std::map<std::string, std::vector<int>> by_name;
  for (std::size_t f = 0; f < g.functions.size(); ++f) {
    if (!g.functions[f].is_lambda) {
      by_name[g.functions[f].name].push_back(static_cast<int>(f));
    }
  }

  // Extract and resolve call sites per unit.
  for (std::size_t u = 0; u < corpus.units.size(); ++u) {
    const std::vector<Token>& T = corpus.units[u].lexed.tokens;
    if (g.unit_functions[u].empty()) continue;
    for (std::size_t i = 0; i < T.size(); ++i) {
      if (T[i].kind != TokenKind::kIdentifier) continue;
      if (call_keyword_blocklist().count(T[i].text) != 0) continue;
      const std::size_t open = paren_after_optional_angles(T, i + 1);
      if (open == 0) continue;
      const int caller = g.function_at(static_cast<int>(u), i);
      if (caller < 0) continue;

      CallSite site;
      site.name = T[i].text;
      site.token = i;
      site.line = T[i].line;
      site.col = T[i].col;
      if (i > 0) {
        const Token& p = T[i - 1];
        if (p.is_punct(".") || p.is_punct("->")) {
          site.member = true;
        } else if (p.is_punct("::") && i >= 2 &&
                   T[i - 2].kind == TokenKind::kIdentifier) {
          site.qualifier = T[i - 2].text;
        } else if (p.kind == TokenKind::kIdentifier &&
                   !decl_context_exempt(p.text)) {
          continue;  // `Type name(args)` — a declaration, not a call
        } else if (p.is_punct(">") || p.is_punct("*") || p.is_punct("&")) {
          // `Type<T>* name(` / `Type& name(`: declarator position.  A
          // '>' can also close a comparison, but resolving through one
          // is far more often a declaration than a call.
          continue;
        }
      }
      const std::size_t close = match_close(T, open, "(", ")");
      site.args = count_args(T, open, close);

      if (site.qualifier != "std") {
        const auto it = by_name.find(site.name);
        if (it != by_name.end()) {
          std::vector<int> candidates;
          for (int f : it->second) {
            const FunctionDef& d = g.functions[f];
            if (site.args < d.min_arity || site.args > d.max_arity) continue;
            candidates.push_back(f);
          }
          if (!site.qualifier.empty()) {
            std::vector<int> owned;
            for (int f : candidates) {
              const FunctionDef& d = g.functions[f];
              if (d.owner == site.qualifier ||
                  d.qualified_name.find(site.qualifier + "::") !=
                      std::string::npos) {
                owned.push_back(f);
              }
            }
            if (!owned.empty()) candidates = owned;
          }
          std::vector<int> local;
          for (int f : candidates) {
            if (g.unit_of[f] == static_cast<int>(u)) local.push_back(f);
          }
          site.callees = local.empty() ? candidates : local;
        }
      }
      g.calls[caller].push_back(std::move(site));
    }
  }
  return g;
}

}  // namespace vlsipart::analysis
