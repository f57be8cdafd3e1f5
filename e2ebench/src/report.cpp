#include "src/report.h"

#include <limits>
#include <map>
#include <set>

namespace e2ebench {

RunSummary summarize(const std::vector<PassResult>& passes,
                     const std::vector<double>& setup_s) {
  constexpr std::size_t kMaxErrors = 5;
  RunSummary out;
  std::vector<double> op_ms;
  std::map<std::string, std::vector<double>> group_ms;
  // Throughput and CPU per op are medians over passes: a pass the host
  // slowed (or the first, which warms caches) does not move them.
  std::vector<double> pass_rate;
  std::vector<double> pass_cpu_ms;
  std::map<std::size_t, std::size_t> first_with_index;
  for (std::size_t p = 0; p < passes.size(); ++p) {
    const std::size_t first_p =
        first_with_index.emplace(passes[p].pass, p).first->second;
    const auto n = static_cast<double>(passes[p].ops.size());
    if (n > 0 && passes[p].wall_s > 0.0) {
      pass_rate.push_back(n / passes[p].wall_s);
      pass_cpu_ms.push_back(1e3 * passes[p].cpu_s / n);
    }
    for (std::size_t i = 0; i < passes[p].ops.size(); ++i) {
      const OpRecord& op = passes[p].ops[i];
      std::string error = op.error;
      if (op.ok && first_p != p) {
        const std::vector<OpRecord>& first = passes[first_p].ops;
        if (i >= first.size() || first[i].group != op.group ||
            first[i].cut != op.cut) {
          error = "replay of pass " + std::to_string(passes[p].pass) +
                  " differs at op " + std::to_string(i);
        }
      }
      ++out.attempted;
      op_ms.push_back(op.wall_ms);
      group_ms[op.group].push_back(op.wall_ms);
      if (!op.ok || !error.empty()) {
        ++out.failed;
        if (out.errors.size() < kMaxErrors) {
          out.errors.push_back(op.group + " " + op.kind + ": " + error);
        }
      }
    }
  }

  Digest digest;
  std::map<std::string, Weight> best;
  std::map<std::string, std::pair<double, std::size_t>> group_cuts;
  double cut_sum = 0.0;
  std::size_t cut_count = 0;
  std::set<std::size_t> cut_passes;
  for (const PassResult& pass : passes) {
    // First run of each of the leading pass indices; replays are skipped.
    if (pass.pass >= kCutPasses || !cut_passes.insert(pass.pass).second) {
      continue;
    }
    for (const OpRecord& op : pass.ops) {
      digest.add(op.group);
      digest.add(op.kind);
      digest.add(static_cast<std::uint64_t>(op.cut));
      if (!op.ok) continue;
      const auto it = best.find(op.group);
      if (it == best.end() || op.cut < it->second) best[op.group] = op.cut;
      cut_sum += static_cast<double>(op.cut);
      ++cut_count;
      group_cuts[op.group].first += static_cast<double>(op.cut);
      ++group_cuts[op.group].second;
    }
  }
  for (const auto& [group, ms] : group_ms) {
    GroupRow row;
    row.group = group;
    row.ops = ms.size();
    row.ms_p50 = median(ms);
    const auto it = best.find(group);
    if (it != best.end()) row.cut_best = it->second;
    const auto& [sum, n] = group_cuts[group];
    row.cut_mean = n > 0 ? sum / static_cast<double>(n) : 0.0;
    out.groups.push_back(row);
  }
  double cut_best = 0.0;
  for (const auto& [group, cut] : best) cut_best += static_cast<double>(cut);
  out.cut_digest = digest.hex();
  out.tail = tail_ten_beyond(op_ms);

  const double ops = static_cast<double>(out.attempted);
  const auto put = [&out](const char* name, double value, const char* unit) {
    out.metrics[name] = Metric{value, unit};
  };
  put("setup_s", median(setup_s), "s");
  put("ops_per_s", median(pass_rate), "ops/s");
  put("op_ms_p50", median(op_ms), "ms");
  put("op_ms_tail", out.tail.value, "ms");
  put("cpu_ms_per_op", median(pass_cpu_ms), "ms");
  put("cut_best", cut_best, "cut");
  put("cut_mean",
      cut_count > 0 ? cut_sum / static_cast<double>(cut_count) : 0.0, "cut");
  put("failed_frac", ops > 0.0 ? static_cast<double>(out.failed) / ops : 0.0,
      "ratio");
  put("peak_rss_mb", peak_rss_mb(), "MB");
  return out;
}

}  // namespace e2ebench
