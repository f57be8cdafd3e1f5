// End-to-end metrics of a run, computed from its passes.
#pragma once

#include <string>
#include <vector>

#include "src/measure.h"
#include "src/workloads.h"

namespace e2ebench {

/// Passes 0 .. kCutPasses-1 are the ones the cut metrics and the digest
/// read: an op list the seed alone fixes, which every run makes in full
/// even when its last passes are cut at the deadline.
constexpr std::size_t kCutPasses = 3;

/// Per (instance, engine, k) group: op count and median time over every
/// pass, best and mean cut over the cut passes.
struct GroupRow {
  std::string group;
  std::size_t ops = 0;
  double ms_p50 = 0.0;
  Weight cut_best = 0;
  double cut_mean = 0.0;
};

struct RunSummary {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::string cut_digest;  ///< FNV-1a over the cut passes' (group, kind, cut)
  Tail tail;               ///< op_ms_tail with its percentile and samples
  Metrics metrics;         ///< every end-to-end metric, by name
  std::vector<GroupRow> groups;
  std::vector<std::string> errors;  ///< first few failure descriptions
};

/// Summarize the passes of one run.  A failed op is one whose check
/// failed, or whose cut differs from the same op of an earlier pass with
/// the same index (a replay).  Cut metrics and the digest read the cut
/// passes; timing metrics read every pass.  `setup_s` holds one sample per set-up.
RunSummary summarize(const std::vector<PassResult>& passes,
                     const std::vector<double>& setup_s);

}  // namespace e2ebench
