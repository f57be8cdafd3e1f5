// Finding model and rule catalog for vpart_lint.
#pragma once

#include <string>
#include <vector>

namespace vlsipart::analysis {

struct Finding {
  std::string path;
  int line = 0;
  int col = 0;
  std::string rule;
  std::string message;

  std::string to_string() const;
};

/// One rule in the catalog (drives --list-rules and the SARIF rule
/// table).  `family` is "determinism", "knob", "lock", "hotpath",
/// "index-width" or "flow-determinism".
struct RuleInfo {
  const char* id;
  const char* family;
  const char* description;
};

/// Every rule the analyzer knows, in stable catalog order.
const std::vector<RuleInfo>& rule_catalog();

/// nullptr when `id` names no known rule.
const RuleInfo* find_rule(const std::string& id);

/// True when `name` is the family of at least one catalog rule
/// (--rules accepts family names as well as rule ids).
bool is_rule_family(const std::string& name);

}  // namespace vlsipart::analysis
