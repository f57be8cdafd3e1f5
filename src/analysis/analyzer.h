// vpart_lint analyzer: orchestration, suppressions, baseline.
//
// Three rule families (see DESIGN.md §12 for the catalog):
//   * determinism — token-level rules for nondeterministic constructs;
//   * knob completeness — cross-file check that every field of the
//     partitioning/service config structs is reachable from CLI parsing
//     and mentioned in the docs ("no implicit decisions");
//   * lock discipline — lockset-lite checking of // guarded_by(<mutex>)
//     annotations in the concurrent service layer.
//
// Suppressions: append "// det-lint: allow(<rule>[, <rule>...])" to the
// offending line or the line directly above it, with a justification.
// Baseline: a checked-in file of known findings (rule|path|justification
// per line) silences whole-rule/file pairs during incremental adoption;
// the repo ships an empty baseline and intends to keep it empty.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "src/analysis/finding.h"
#include "src/analysis/token.h"

namespace vlsipart::analysis {

/// An in-memory source file.  Paths use '/' separators; rules that are
/// scoped by directory (e.g. unordered-in-core) test path prefixes, so
/// fixture tests pick paths like "src/part/fixture.cpp" to opt in.
struct SourceBuffer {
  std::string path;
  std::string content;
};

struct AnalyzerOptions {
  /// Repository root: relative lint paths resolve against it, and the
  /// knob rule loads its cross-file context (tools/examples/bench
  /// sources, DESIGN.md, README.md) from it.  Empty = current directory.
  std::string repo_root;
  /// Restrict to these rule ids (empty = all rules).
  std::vector<std::string> only_rules;
  /// Baseline file path ("" = no baseline).
  std::string baseline_path;
};

struct AnalysisResult {
  std::vector<Finding> findings;  ///< surviving findings, sorted
  std::size_t files_scanned = 0;  ///< linted files (context excluded)
  std::size_t suppressed = 0;     ///< silenced by allow() annotations
  std::size_t baselined = 0;      ///< silenced by baseline entries
  /// Fatal configuration problems (unknown rule, malformed baseline,
  /// unreadable path).  Non-empty means "exit 2", not "findings".
  std::vector<std::string> errors;

  bool clean() const { return findings.empty() && errors.empty(); }
};

/// Lint `files`.  `context` supplies cross-file facts (CLI parse sites
/// for the knob rule, pair headers for the lock rule, .md docs) without
/// being linted itself.  Entries of `context` whose path ends in ".md"
/// are treated as documentation text, everything else is lexed as C++.
AnalysisResult analyze_buffers(const std::vector<SourceBuffer>& files,
                               const std::vector<SourceBuffer>& context,
                               const AnalyzerOptions& options);

/// Expand `paths` (files or directories, relative paths resolved
/// against options.repo_root) into C++ sources, auto-load the knob
/// rule's context from the repo root, and lint.  Directory traversal is
/// sorted, so output order is deterministic.
AnalysisResult analyze_paths(const std::vector<std::string>& paths,
                             const AnalyzerOptions& options);

}  // namespace vlsipart::analysis
