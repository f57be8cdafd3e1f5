// Scope/function extractor over the lexer's token stream.
//
// Recovers, without a real C++ frontend:
//   * function definitions with their scope-qualified name, owning
//     class (lexical class scope or explicit `Class::` qualifier),
//     parameter count range (default arguments lower the minimum) and
//     the token range of the body;
//   * lambda bodies, attributed to the enclosing function, with (when
//     written as `auto name = [..]`) the local name they were bound to.
//
// This is a heuristic single-pass recognizer: it tracks namespace /
// class / function brace scopes and recognizes the declarator shape
// `name ( params ) trailer {`.  Templates are recognized by skipping
// the `template<...>` header; overload sets are kept (one FunctionDef
// per definition).  Known limits are documented in DESIGN.md §12.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "src/analysis/token.h"

namespace vlsipart::analysis {

struct FunctionDef {
  std::string name;            ///< unqualified ("run_pass", "operator<")
  std::string qualified_name;  ///< scope-qualified ("FmRefiner::run_pass")
  std::string owner;           ///< owning class when known, else ""
  std::size_t min_arity = 0;   ///< parameters without default arguments
  std::size_t max_arity = 0;   ///< all parameters
  int line = 0;  ///< line of the name token (annotation anchor)
  int col = 0;
  std::size_t params_begin = 0;  ///< token index of the parameter-list '('
  std::size_t params_end = 0;    ///< token index of the matching ')'
  std::size_t body_begin = 0;  ///< token index of the body '{'
  std::size_t body_end = 0;    ///< token index of the matching '}'
  bool is_lambda = false;
  int parent = -1;  ///< index of the enclosing FunctionDef, -1 at top level
};

struct ParsedFile {
  std::vector<FunctionDef> functions;  ///< in body_begin order

  /// Innermost function whose body range contains token index `tok`;
  /// -1 at namespace/class scope.  With `named_only`, lambdas are
  /// skipped and their enclosing named function is returned.
  int enclosing(std::size_t tok, bool named_only) const;
};

ParsedFile parse_file(const LexedFile& file);

}  // namespace vlsipart::analysis
