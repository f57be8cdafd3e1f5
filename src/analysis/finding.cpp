#include "src/analysis/finding.h"

namespace vlsipart::analysis {

std::string Finding::to_string() const {
  return path + ":" + std::to_string(line) + ":" + std::to_string(col) +
         ": [" + rule + "] " + message;
}

const std::vector<RuleInfo>& rule_catalog() {
  static const std::vector<RuleInfo> kCatalog = {
      {"wall-clock", "determinism",
       "wall-clock read (chrono ::now(), clock_gettime, gettimeofday) — "
       "results must not depend on time; allowed only for reporting, with "
       "an annotation"},
      {"unordered-in-core", "determinism",
       "unordered container in core partitioning code (src/part/, "
       "src/hypergraph/) — iteration order is unspecified; use sorted or "
       "index-keyed containers"},
      {"unordered-iter", "determinism",
       "range-for over a variable declared as an unordered container — "
       "iteration order is unspecified"},
      {"pointer-sort-key", "determinism",
       "sort with a pointer-typed comparator parameter — pointer order is "
       "allocation order; compare by id or value"},
      {"float-accumulate-unordered", "determinism",
       "floating-point accumulation inside iteration over an unordered "
       "container — summation order changes the result"},
      {"pointer-keyed-container", "determinism",
       "std::map/std::set keyed by pointer in core partitioning code — "
       "iteration order is allocation order; key by id"},
      {"pointer-compare", "determinism",
       "operator< over pointer parameters in a result path — pointer order "
       "is allocation order"},
      {"knob-completeness", "knob",
       "config struct field not reachable from CLI parsing or not "
       "documented — every knob must be sweepable and documented"},
      {"lock-discipline", "lock",
       "field annotated guarded_by(<mutex>) accessed without holding that "
       "mutex"},
      {"hot-path-purity", "hotpath",
       "allocation, locking, IO or throw in code reachable from a "
       "// hot-path: root function — the FM inner loop must not touch the "
       "heap; justify amortized sites with // hot-path: allow(<reason>)"},
      {"narrowing-cast", "index-width",
       "static_cast of a size-derived or explicitly widened expression to "
       "a narrower integer — use vp::checked_narrow<T>() or prove the "
       "range with a dominating VP_CHECK"},
      {"tainted-comparator", "flow-determinism",
       "pointer- or clock-derived value flows into a sort comparator — "
       "ordering becomes allocation- or time-dependent; compare by id or "
       "value"},
  };
  return kCatalog;
}

const RuleInfo* find_rule(const std::string& id) {
  for (const RuleInfo& r : rule_catalog()) {
    if (id == r.id) return &r;
  }
  return nullptr;
}

bool is_rule_family(const std::string& name) {
  for (const RuleInfo& r : rule_catalog()) {
    if (name == r.family) return true;
  }
  return false;
}

}  // namespace vlsipart::analysis
