// Output renderers for vpart_lint: human-readable and SARIF 2.1.0.
#pragma once

#include <string>

#include "src/analysis/analyzer.h"

namespace vlsipart::analysis {

/// One finding per line ("path:line:col: [rule] message") followed by a
/// summary line.
std::string render_human(const AnalysisResult& result);

/// Minimal SARIF 2.1.0 log: one run, the rule catalog as
/// reportingDescriptors, one result per finding.
std::string render_sarif(const AnalysisResult& result);

}  // namespace vlsipart::analysis
