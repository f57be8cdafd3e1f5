// Internal interface between the analyzer driver and the rule passes.
// Not installed; include only from src/analysis/ sources and tests that
// exercise individual passes.
#pragma once

#include <cstddef>
#include <set>
#include <string>
#include <vector>

#include "src/analysis/analyzer.h"
#include "src/analysis/finding.h"
#include "src/analysis/token.h"

namespace vlsipart::analysis {

struct FileUnit {
  LexedFile lexed;
  bool linted = true;  ///< false = context only (cross-file facts)
};

/// Everything one analysis run can see: lexed C++ units (linted and
/// context) plus raw documentation text for the knob rule.
struct Corpus {
  std::vector<FileUnit> units;
  std::vector<SourceBuffer> docs;
};

struct RuleFilter {
  std::set<std::string> only;  ///< empty = all rules enabled
  /// A rule is enabled when the filter is empty, names the rule id, or
  /// names the rule's family ("determinism", "hotpath", "lock", ...).
  bool enabled(const char* id) const {
    if (only.empty() || only.count(id) != 0) return true;
    const RuleInfo* info = find_rule(id);
    return info != nullptr && only.count(info->family) != 0;
  }
};

/// True when `path` is `prefix` itself or lies underneath it.
bool path_under(const std::string& path, const std::string& prefix);

bool ends_with(const std::string& s, const std::string& suffix);

/// Index of the punct `c` matching the punct `o` at T[open], or
/// T.size() when unbalanced.
std::size_t match_close(const std::vector<Token>& T, std::size_t open,
                        const char* o, const char* c);

/// Per-file token rules: the determinism family.
void run_determinism_rules(const FileUnit& unit, const RuleFilter& filter,
                           std::vector<Finding>& out);

/// CFG + definition-taint rule families (index-width, flow-determinism)
/// over one linted unit.
void run_dataflow_rules(const FileUnit& unit, const RuleFilter& filter,
                        std::vector<Finding>& out);

/// Cross-file knob-completeness pass over the whole corpus.
void run_knob_rule(const Corpus& corpus, const RuleFilter& filter,
                   std::vector<Finding>& out);

struct CallGraph;  // callgraph.h

/// Lockset-lite lock-discipline pass over the whole corpus.  `holds()`
/// facts propagate through the call graph: a helper whose in-scope call
/// sites all hold a mutex is checked as if it held it too.
void run_lock_rule(const Corpus& corpus, const CallGraph& graph,
                   const RuleFilter& filter, std::vector<Finding>& out);

/// Hot-path purity: no allocation/locking/IO/throw token reachable from
/// a `// hot-path: root` function.  `// hot-path: allow(<reason>)`
/// suppressions are counted in `suppressed`.
void run_hotpath_rule(const Corpus& corpus, const CallGraph& graph,
                      const RuleFilter& filter, std::vector<Finding>& out,
                      std::size_t& suppressed);

}  // namespace vlsipart::analysis
