#include "src/analysis/analyzer.h"

#include <algorithm>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/analysis/callgraph.h"
#include "src/analysis/lexer.h"
#include "src/analysis/rules_internal.h"

namespace vlsipart::analysis {

bool path_under(const std::string& path, const std::string& prefix) {
  if (path.size() < prefix.size()) return false;
  if (path.compare(0, prefix.size(), prefix) != 0) return false;
  return path.size() == prefix.size() || path[prefix.size()] == '/' ||
         prefix.back() == '/';
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

std::size_t match_close(const std::vector<Token>& T, std::size_t open,
                        const char* o, const char* c) {
  int depth = 0;
  for (std::size_t i = open; i < T.size(); ++i) {
    if (T[i].is_punct(o)) ++depth;
    if (T[i].is_punct(c) && --depth == 0) return i;
  }
  return T.size();
}

namespace {

namespace fs = std::filesystem;

bool is_cpp_source(const std::string& path) {
  return ends_with(path, ".h") || ends_with(path, ".hpp") ||
         ends_with(path, ".cpp") || ends_with(path, ".cc") ||
         ends_with(path, ".cxx");
}

/// Lines silenced per rule by "det-lint: allow(<rule>[, <rule>...])"
/// annotations.  An annotation on line C covers findings on C (trailing
/// comment) and C + 1 (comment on the line above).
std::map<std::string, std::set<int>> collect_allows(const LexedFile& file) {
  std::map<std::string, std::set<int>> allows;
  for (const Comment& c : file.comments) {
    const std::size_t tag = c.text.find("det-lint:");
    if (tag == std::string::npos) continue;
    std::size_t pos = c.text.find("allow", tag);
    if (pos == std::string::npos) continue;
    pos += 5;
    while (pos < c.text.size() &&
           (c.text[pos] == ' ' || c.text[pos] == '\t')) {
      ++pos;
    }
    if (pos >= c.text.size() || c.text[pos] != '(') continue;
    const std::size_t close = c.text.find(')', pos);
    if (close == std::string::npos) continue;
    std::string args = c.text.substr(pos + 1, close - pos - 1);
    std::string rule;
    std::istringstream stream(args);
    while (std::getline(stream, rule, ',')) {
      const std::size_t b = rule.find_first_not_of(" \t");
      const std::size_t e = rule.find_last_not_of(" \t");
      if (b == std::string::npos) continue;
      rule = rule.substr(b, e - b + 1);
      allows[rule].insert(c.line);
      allows[rule].insert(c.line + 1);
    }
  }
  return allows;
}

std::string normalize_slashes(std::string s) {
  std::replace(s.begin(), s.end(), '\\', '/');
  return s;
}

/// Path shown in findings: relative to the repo root when the file lies
/// underneath it, with '/' separators.
std::string display_path(const fs::path& file, const fs::path& root) {
  std::error_code ec;
  const fs::path abs_file = fs::weakly_canonical(file, ec);
  if (!ec && !root.empty()) {
    const fs::path abs_root = fs::weakly_canonical(root, ec);
    if (!ec) {
      const fs::path rel = abs_file.lexically_relative(abs_root);
      if (!rel.empty() && rel.native()[0] != '.') {
        return normalize_slashes(rel.generic_string());
      }
    }
  }
  return normalize_slashes(file.generic_string());
}

bool read_file(const fs::path& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  out = buffer.str();
  return true;
}

/// Files under `dir`, sorted, filtered by `pred`.
template <typename Pred>
std::vector<fs::path> sorted_files_under(const fs::path& dir, Pred pred) {
  std::vector<fs::path> files;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_regular_file(ec) && pred(it->path().generic_string())) {
      files.push_back(it->path());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

}  // namespace

AnalysisResult analyze_buffers(const std::vector<SourceBuffer>& files,
                               const std::vector<SourceBuffer>& context,
                               const AnalyzerOptions& options) {
  AnalysisResult result;

  RuleFilter filter;
  for (const std::string& id : options.only_rules) {
    if (find_rule(id) == nullptr && !is_rule_family(id)) {
      result.errors.push_back("unknown rule or family: " + id);
    }
    filter.only.insert(id);
  }
  if (!result.errors.empty()) return result;

  Corpus corpus;
  for (const SourceBuffer& f : files) {
    corpus.units.push_back(FileUnit{lex(f.path, f.content), true});
  }
  for (const SourceBuffer& c : context) {
    if (ends_with(c.path, ".md")) {
      corpus.docs.push_back(c);
    } else {
      corpus.units.push_back(FileUnit{lex(c.path, c.content), false});
    }
  }
  result.files_scanned = files.size();

  std::vector<Finding> raw;
  for (const FileUnit& unit : corpus.units) {
    if (unit.linted) {
      run_determinism_rules(unit, filter, raw);
      run_dataflow_rules(unit, filter, raw);
    }
  }
  run_knob_rule(corpus, filter, raw);

  // The semantic rule families share one call graph over the corpus.
  const CallGraph graph = build_call_graph(corpus);
  run_lock_rule(corpus, graph, filter, raw);
  run_hotpath_rule(corpus, graph, filter, raw, result.suppressed);

  // Per-file allow() maps, built once.
  std::map<std::string, std::map<std::string, std::set<int>>> allows;
  for (const FileUnit& unit : corpus.units) {
    if (unit.linted) allows[unit.lexed.path] = collect_allows(unit.lexed);
  }

  for (Finding& f : raw) {
    const auto file_it = allows.find(f.path);
    if (file_it != allows.end()) {
      const auto rule_it = file_it->second.find(f.rule);
      if (rule_it != file_it->second.end() &&
          rule_it->second.count(f.line) != 0) {
        ++result.suppressed;
        continue;
      }
    }
    result.findings.push_back(std::move(f));
  }

  std::sort(result.findings.begin(), result.findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.path != b.path) return a.path < b.path;
              if (a.line != b.line) return a.line < b.line;
              if (a.col != b.col) return a.col < b.col;
              return a.rule < b.rule;
            });
  return result;
}

AnalysisResult analyze_paths(const std::vector<std::string>& paths,
                             const AnalyzerOptions& options) {
  const fs::path root = options.repo_root.empty()
                            ? fs::current_path()
                            : fs::path(options.repo_root);

  AnalysisResult bad;
  std::vector<fs::path> lint_files;
  for (const std::string& p : paths) {
    fs::path candidate(p);
    if (candidate.is_relative() && !fs::exists(candidate)) {
      const fs::path under_root = root / candidate;
      if (fs::exists(under_root)) candidate = under_root;
    }
    std::error_code ec;
    if (fs::is_directory(candidate, ec)) {
      for (fs::path& f : sorted_files_under(candidate, is_cpp_source)) {
        lint_files.push_back(std::move(f));
      }
    } else if (fs::is_regular_file(candidate, ec)) {
      lint_files.push_back(candidate);
    } else {
      bad.errors.push_back("no such file or directory: " + p);
    }
  }
  if (!bad.errors.empty()) return bad;

  std::vector<SourceBuffer> files;
  std::set<std::string> lint_paths;
  for (const fs::path& f : lint_files) {
    std::string content;
    if (!read_file(f, content)) {
      bad.errors.push_back("cannot read: " + f.generic_string());
      continue;
    }
    const std::string shown = display_path(f, root);
    if (!lint_paths.insert(shown).second) continue;  // listed twice
    files.push_back(SourceBuffer{shown, std::move(content)});
  }
  if (!bad.errors.empty()) return bad;

  // Cross-file context the knob rule needs even when linting only a
  // subset: CLI parse sites under tools/, examples/ and bench/, plus
  // the documentation files.  Files already in the lint set are not
  // duplicated.
  std::vector<SourceBuffer> context;
  for (const char* dir : {"tools", "examples", "bench"}) {
    std::error_code ec;
    const fs::path d = root / dir;
    if (!fs::is_directory(d, ec)) continue;
    for (const fs::path& f : sorted_files_under(d, is_cpp_source)) {
      const std::string shown = display_path(f, root);
      if (lint_paths.count(shown) != 0) continue;
      std::string content;
      if (read_file(f, content)) {
        context.push_back(SourceBuffer{shown, std::move(content)});
      }
    }
  }
  for (const char* doc : {"DESIGN.md", "README.md"}) {
    std::string content;
    if (read_file(root / doc, content)) {
      context.push_back(SourceBuffer{doc, std::move(content)});
    }
  }

  return analyze_buffers(files, context, options);
}

}  // namespace vlsipart::analysis
