// Knob-completeness rule: mechanizes the repo's "no implicit decisions"
// contract (paper, Sec. 2.2).  Every field of the partitioning and
// service configuration structs must be
//   (a) reachable from command-line parsing — some source under tools/,
//       examples/ or bench/ that parses options (get_int / get_double /
//       get_bool / check_known / parse_options) also touches the field
//       as a member access; and
//   (b) mentioned by name in DESIGN.md or README.md.
// A field failing either leg is an implicit implementation decision: it
// changes results but cannot be swept or cited from the documentation.
//
// Matching is by field *name* (token-level member access `.name` /
// `->name`), not by type — a documented lockset-lite-style limitation:
// a same-named member of an unrelated struct can satisfy the check.
#include <algorithm>
#include <cstddef>
#include <set>
#include <string>
#include <vector>

#include "src/analysis/rules_internal.h"

namespace vlsipart::analysis {

namespace {

/// The structs under contract — the knobs of the FM engine, the
/// multilevel pipeline, the multistart harness and the service layer.
const char* const kTargetStructs[] = {
    "FmConfig",    "MlConfig",    "CoarsenConfig", "PruneConfig",
    "AuditConfig", "ServiceConfig", "NlevelConfig", "EvoConfig",
    "EngineSpec",
};

bool is_target_struct(const std::string& name) {
  for (const char* s : kTargetStructs) {
    if (name == s) return true;
  }
  return false;
}

bool is_cli_parse_ident(const std::string& s) {
  return s == "get_int" || s == "get_double" || s == "get_bool" ||
         s == "get_list" || s == "check_known" || s == "parse_options";
}

bool is_cli_dir(const std::string& path) {
  return path_under(path, "tools") || path_under(path, "examples") ||
         path_under(path, "bench");
}

struct ConfigField {
  std::string struct_name;
  std::string field;
  std::string path;
  int line = 0;
  int col = 0;
};

/// Statement classifier: tokens [begin, end) form one member
/// declaration at struct depth 1 (terminated by ';').  A field has no
/// '(' before the '=' (or before the ';' when there is no initializer)
/// and is named by the last identifier before '='/';' — skipping any
/// trailing array extent.
bool extract_field_name(const std::vector<Token>& T, std::size_t begin,
                        std::size_t end, std::size_t* name_idx) {
  if (begin >= end) return false;
  if (T[begin].kind == TokenKind::kIdentifier &&
      (T[begin].text == "using" || T[begin].text == "static" ||
       T[begin].text == "friend" || T[begin].text == "typedef" ||
       T[begin].text == "enum" || T[begin].text == "struct" ||
       T[begin].text == "class")) {
    return false;
  }
  std::size_t eq = end;
  for (std::size_t i = begin; i < end; ++i) {
    if (T[i].is_punct("=")) {
      eq = i;
      break;
    }
  }
  const std::size_t scan_end = eq;
  std::size_t last_ident = end;
  for (std::size_t i = begin; i < scan_end; ++i) {
    if (T[i].is_punct("(")) return false;  // a function declaration
    if (T[i].is_punct("[")) break;         // name precedes the extent
    if (T[i].kind == TokenKind::kIdentifier) last_ident = i;
  }
  if (last_ident >= end) return false;
  *name_idx = last_ident;
  return true;
}

/// Collect every field of every target struct defined in `unit`.
void collect_fields(const FileUnit& unit, std::vector<ConfigField>& out) {
  const std::vector<Token>& T = unit.lexed.tokens;
  for (std::size_t i = 0; i + 2 < T.size(); ++i) {
    if (!T[i].is_ident("struct")) continue;
    if (T[i + 1].kind != TokenKind::kIdentifier ||
        !is_target_struct(T[i + 1].text)) {
      continue;
    }
    if (!T[i + 2].is_punct("{")) continue;
    const std::string& struct_name = T[i + 1].text;
    int depth = 1;
    std::size_t stmt_begin = i + 3;
    for (std::size_t j = i + 3; j < T.size() && depth > 0; ++j) {
      if (T[j].is_punct("{")) {
        ++depth;
      } else if (T[j].is_punct("}")) {
        --depth;
        if (depth == 1) stmt_begin = j + 1;  // end of a member function
      } else if (T[j].is_punct(";") && depth == 1) {
        std::size_t name_idx = 0;
        if (extract_field_name(T, stmt_begin, j, &name_idx)) {
          out.push_back(ConfigField{struct_name, T[name_idx].text,
                                    unit.lexed.path, T[name_idx].line,
                                    T[name_idx].col});
        }
        stmt_begin = j + 1;
      }
    }
  }
}

/// Identifiers used as member accesses (`.x` / `->x`) in sources under
/// tools/, examples/ or bench/ that also parse CLI options.
std::set<std::string> collect_cli_members(const Corpus& corpus) {
  std::set<std::string> members;
  for (const FileUnit& unit : corpus.units) {
    if (!is_cli_dir(unit.lexed.path)) continue;
    const std::vector<Token>& T = unit.lexed.tokens;
    bool parses_cli = false;
    for (const Token& t : T) {
      if (t.kind == TokenKind::kIdentifier && is_cli_parse_ident(t.text)) {
        parses_cli = true;
        break;
      }
    }
    if (!parses_cli) continue;
    for (std::size_t i = 0; i + 1 < T.size(); ++i) {
      if ((T[i].is_punct(".") || T[i].is_punct("->")) &&
          T[i + 1].kind == TokenKind::kIdentifier) {
        members.insert(T[i + 1].text);
      }
    }
  }
  return members;
}

bool word_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_';
}

/// Whole-word occurrence of `word` in `text`.
bool mentions_word(const std::string& text, const std::string& word) {
  std::size_t pos = 0;
  while ((pos = text.find(word, pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || !word_char(text[pos - 1]);
    const std::size_t end = pos + word.size();
    const bool right_ok = end >= text.size() || !word_char(text[end]);
    if (left_ok && right_ok) return true;
    pos += 1;
  }
  return false;
}

}  // namespace

void run_knob_rule(const Corpus& corpus, const RuleFilter& filter,
                   std::vector<Finding>& out) {
  if (!filter.enabled("knob-completeness")) return;

  std::vector<ConfigField> fields;
  for (const FileUnit& unit : corpus.units) {
    if (unit.linted) collect_fields(unit, fields);
  }
  if (fields.empty()) return;

  const std::set<std::string> cli_members = collect_cli_members(corpus);
  std::string docs;
  for (const SourceBuffer& doc : corpus.docs) {
    docs += doc.content;
    docs += '\n';
  }

  for (const ConfigField& f : fields) {
    const bool reachable = cli_members.count(f.field) != 0;
    const bool documented = mentions_word(docs, f.field);
    if (reachable && documented) continue;
    std::string missing;
    if (!reachable) {
      missing +=
          "not reachable from any CLI parse site under tools/, examples/ or "
          "bench/";
    }
    if (!documented) {
      if (!missing.empty()) missing += " and ";
      missing += "not mentioned in DESIGN.md or README.md";
    }
    out.push_back(Finding{
        f.path, f.line, f.col, "knob-completeness",
        "config field '" + f.struct_name + "::" + f.field + "' is " +
            missing +
            " — every knob must be sweepable and documented (no implicit "
            "decisions)"});
  }
}

}  // namespace vlsipart::analysis
