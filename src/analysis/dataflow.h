// Generic forward dataflow over a Cfg, and its first client: reaching
// definitions with def-use chains over the token stream.
//
// The solver is a classic iterative gen-kill fixed point for may-
// analyses: each basic block carries a GEN and a KILL bit set over an
// abstract fact space, IN[b] is the union of predecessors' OUT, and
// OUT[b] = GEN[b] | (IN[b] & ~KILL[b]).
// Blocks are iterated in reverse postorder until no OUT changes, which
// terminates because the transfer functions are monotone over a finite
// lattice.
//
// ReachingDefs instantiates it with facts = definitions of function-
// local variables (declarations, assignments, ++/--, conservative
// writes through & / out-parameters).  Statement-level precision is
// recovered from block-level IN by replaying the block's statements in
// order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/analysis/cfg.h"
#include "src/analysis/parser.h"
#include "src/analysis/token.h"

namespace vlsipart::analysis {

/// Dense bit set sized at construction; the solver's fact container.
class BitSet {
 public:
  BitSet() = default;
  explicit BitSet(std::size_t bits) : bits_(bits), w_((bits + 63) / 64, 0) {}

  std::size_t size() const { return bits_; }
  bool test(std::size_t i) const {
    return (w_[i >> 6] >> (i & 63)) & 1u;
  }
  void set(std::size_t i) { w_[i >> 6] |= std::uint64_t{1} << (i & 63); }
  void reset(std::size_t i) {
    w_[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
  }

  /// this |= other.  Returns true when a bit changed.
  bool merge_union(const BitSet& other);
  /// this = gen | (in & ~kill).  Returns true when a bit changed.
  bool transfer(const BitSet& in, const BitSet& gen, const BitSet& kill);

  bool operator==(const BitSet& other) const { return w_ == other.w_; }

 private:
  std::size_t bits_ = 0;
  std::vector<std::uint64_t> w_;
};

/// Per-block transfer functions for a forward problem.
struct GenKill {
  std::vector<BitSet> gen;   ///< one per block
  std::vector<BitSet> kill;  ///< one per block
};

struct DataflowResult {
  std::vector<BitSet> in;   ///< facts at block entry
  std::vector<BitSet> out;  ///< facts at block exit
};

/// Solve the forward union problem.  `num_facts` sizes every bit set;
/// every IN, the entry block's included, starts empty.
DataflowResult solve_forward(const Cfg& cfg, const GenKill& problem,
                             std::size_t num_facts);

// ---------------------------------------------------------------------
// Reaching definitions

/// What the declaration scan could tell about one local variable.
struct VarInfo {
  std::string name;
  std::string type_name;   ///< last type identifier ("size_t", "int", ...)
  bool is_pointer = false;     ///< declarator contained '*'
  bool address_taken = false;  ///< '&name' seen anywhere in the function
  bool is_param = false;
  int decl_stmt = -1;  ///< statement of the declaration, -1 for params
};

struct Def {
  int var = -1;
  int stmt = -1;          ///< -1 for parameter entry definitions
  std::size_t token = 0;  ///< the defined name's token index
  /// Conservative definition: '&name' or bare name as a call argument
  /// (a potential out-parameter).  Counts as a def AND a use.
  bool conservative = false;
};

struct Use {
  int var = -1;
  int stmt = -1;
  std::size_t token = 0;
};

struct ReachingDefs {
  std::vector<VarInfo> vars;
  std::vector<Def> defs;
  std::vector<Use> uses;
  /// Definitions reaching the start of each statement (bit = def id).
  std::vector<BitSet> in_stmt;
  std::vector<std::vector<int>> defs_of_use;  ///< use-def chains

  int var_index(const std::string& name) const;
};

/// Compute reaching definitions for function `fn` over its CFG.
/// Nested lambda body ranges (from `parsed`) are treated as opaque:
/// reads and writes inside them are ignored.
ReachingDefs compute_reaching_defs(const std::vector<Token>& tokens,
                                   const ParsedFile& parsed, int fn,
                                   const Cfg& cfg);

}  // namespace vlsipart::analysis
