// vpart_lint: static analyzer for the repo's methodology contracts —
// determinism, knob completeness, lock discipline, hot-path purity and
// the parallel-round protocol.
//
// Usage:
//   vpart_lint [options] [path ...]
//     paths            files or directories to lint (default: src,
//                      tools, bench, examples, tests — those that exist)
//   --repo-root DIR    repository root for context + relative paths
//                      (default: current directory)
//   --format FMT       human | json | sarif (default: human)
//   --output FILE      write the report to FILE instead of stdout
//   --baseline FILE    baseline file (default: tools/vpart_lint_baseline.txt
//                      under the repo root, when present; "none" disables)
//   --rules a,b,...    run only these rules or families
//                      (e.g. --rules hotpath,lock,round)
//   --list-rules       print the rule catalog and exit
//
// Exit codes: 0 clean, 1 findings, 2 usage/configuration error —
// the same contract the Python lint had.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "src/analysis/analyzer.h"
#include "src/analysis/finding.h"
#include "src/analysis/output.h"
#include "src/util/cli.h"

namespace {

int list_rules() {
  for (const vlsipart::analysis::RuleInfo& r :
       vlsipart::analysis::rule_catalog()) {
    std::printf("%-28s %-12s %s\n", r.id, r.family, r.description);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using vlsipart::analysis::AnalysisResult;
  using vlsipart::analysis::AnalyzerOptions;

  vlsipart::CliArgs args(argc, argv);
  try {
    args.check_known({"repo-root", "format", "output", "baseline", "rules",
                      "list-rules", "help"});
  } catch (const std::exception& e) {
    std::cerr << "vpart_lint: " << e.what() << "\n";
    return 2;
  }
  if (args.get_bool("help")) {
    std::cout << "usage: vpart_lint [--repo-root DIR] [--format "
                 "human|json|sarif] [--output FILE]\n"
                 "                  [--baseline FILE|none] [--rules a,b,...] "
                 "[--list-rules] [path ...]\n";
    return 0;
  }
  if (args.get_bool("list-rules")) return list_rules();

  AnalyzerOptions options;
  options.repo_root = args.get("repo-root", ".");
  if (args.has("rules")) {
    options.only_rules = args.get_list("rules", "");
  }

  const std::string baseline = args.get("baseline", "");
  if (baseline == "none") {
    options.baseline_path.clear();
  } else if (!baseline.empty()) {
    options.baseline_path = baseline;
  } else {
    const std::filesystem::path default_baseline =
        std::filesystem::path(options.repo_root) / "tools" /
        "vpart_lint_baseline.txt";
    std::error_code ec;
    if (std::filesystem::is_regular_file(default_baseline, ec)) {
      options.baseline_path = default_baseline.generic_string();
    }
  }

  std::vector<std::string> paths = args.positional();
  if (paths.empty()) {
    // Default scope: every C++ tree of the repo that exists.  src/ is
    // required; the tool, bench and test trees are linted too so their
    // code meets the same determinism bar.
    for (const char* dir : {"src", "tools", "bench", "examples", "tests"}) {
      const std::filesystem::path d =
          std::filesystem::path(options.repo_root) / dir;
      std::error_code ec;
      if (std::filesystem::is_directory(d, ec)) paths.push_back(dir);
    }
  }

  const std::string format = args.get("format", "human");
  if (format != "human" && format != "json" && format != "sarif") {
    std::cerr << "vpart_lint: unknown --format '" << format
              << "' (want human, json or sarif)\n";
    return 2;
  }

  const AnalysisResult result =
      vlsipart::analysis::analyze_paths(paths, options);
  if (!result.errors.empty()) {
    for (const std::string& e : result.errors) {
      std::cerr << "vpart_lint: error: " << e << "\n";
    }
    return 2;
  }

  std::string report;
  if (format == "json") {
    report = vlsipart::analysis::render_json(result);
  } else if (format == "sarif") {
    report = vlsipart::analysis::render_sarif(result);
  } else {
    report = vlsipart::analysis::render_human(result);
  }

  const std::string output = args.get("output", "");
  if (output.empty()) {
    std::cout << report;
  } else {
    std::ofstream out(output, std::ios::binary);
    if (!out) {
      std::cerr << "vpart_lint: cannot write " << output << "\n";
      return 2;
    }
    out << report;
    // A findings summary still goes to the terminal when the report is
    // redirected, so CI logs show why the job failed.
    if (!result.findings.empty()) {
      std::cerr << vlsipart::analysis::render_human(result);
    }
  }
  return result.findings.empty() ? 0 : 1;
}
