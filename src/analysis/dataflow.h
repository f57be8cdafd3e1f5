// Local-variable definitions over the token stream of one function, the
// def list the dataflow rules (narrowing-cast, tainted-comparator) read.
//
// A definition is a declaration, an assignment, ++/--, or a conservative
// write through & or an out-parameter.  Rules walk every def of a
// variable and its right-hand side, and use the CFG's dominators for
// guards; no rule needs which defs reach which statement, so none is
// computed.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "src/analysis/cfg.h"
#include "src/analysis/parser.h"
#include "src/analysis/token.h"

namespace vlsipart::analysis {

/// What the declaration scan could tell about one local variable.
struct VarInfo {
  std::string name;
  std::string type_name;   ///< last type identifier ("size_t", "int", ...)
  bool is_pointer = false;  ///< declarator contained '*'
};

struct Def {
  int var = -1;
  int stmt = -1;          ///< -1 for parameter entry definitions
  std::size_t token = 0;  ///< the defined name's token index
};

struct LocalDefs {
  std::vector<VarInfo> vars;
  std::vector<Def> defs;

  int var_index(const std::string& name) const;
};

/// Collect the locals and their definitions of function `fn`, statement
/// by statement over its CFG.  Nested lambda body ranges (from `parsed`)
/// are treated as opaque: writes inside them are ignored.
LocalDefs collect_local_defs(const std::vector<Token>& tokens,
                             const ParsedFile& parsed, int fn,
                             const Cfg& cfg);

}  // namespace vlsipart::analysis
