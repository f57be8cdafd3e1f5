// e2ebench: run one workload of the end-to-end benchmark and print its
// metrics.  Normally started through run.py, which builds this binary
// and turns its result line into the benchmark's JSON answer.
//
//   e2ebench --workload flat-fm|multilevel|service --seed N --seconds S
//            --trace 0|1 [--commit SHA] [--trace-dir DIR]
//
// --trace 0 measures the end-to-end metrics with tracing off.  --trace 1
// is the separate traced run: one traced pass of each other workload so
// every layer's metrics appear, then this workload's time split between
// untraced and traced passes (their difference is trace.overhead_frac);
// spans go to --trace-dir.  Either run ends within --seconds of its
// start, set-ups included, unless a single pass is longer than that.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "src/measure.h"
#include "src/report.h"
#include "src/trace.h"
#include "src/workloads.h"

#ifndef E2EBENCH_BUILD_TYPE
#define E2EBENCH_BUILD_TYPE "unknown"
#endif
#ifndef E2EBENCH_CXX_FLAGS
#define E2EBENCH_CXX_FLAGS ""
#endif
#ifndef E2EBENCH_COMPILER
#define E2EBENCH_COMPILER "unknown"
#endif

namespace e2ebench {
namespace {

/// Set-ups timed per run; setup_s is their median.
constexpr int kSetupReps = 5;
/// Share of --seconds the untraced run plans passes for (at each
/// workload's nominal pass time); the rest covers the set-ups and a host
/// somewhat slower than the one the nominal times come from.
constexpr double kPassShare = 0.75;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string commit = "unknown";
  std::string trace_dir = ".";
};

bool parse_args(int argc, char** argv, Args& args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || args.seconds <= 0.0) {
        return false;
      }
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args.trace = value == "1";
    } else if (key == "--commit") {
      args.commit = value;
    } else if (key == "--trace-dir") {
      args.trace_dir = value;
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out + "\"";
}

void print_stamp(const Args& args) {
  std::printf(
      "e2ebench stamp {\"workload\":%s,\"seed\":%llu,\"seconds\":%g,"
      "\"trace\":%d,\"num_cpus\":%zu,\"hardware_cpus\":%zu,"
      "\"build_type\":%s,\"cxx_flags\":%s,\"compiler\":%s,\"commit\":%s}\n",
      json_str(args.workload).c_str(),
      static_cast<unsigned long long>(args.seed), args.seconds,
      args.trace ? 1 : 0, usable_cpus(), hardware_cpus(),
      json_str(E2EBENCH_BUILD_TYPE).c_str(),
      json_str(E2EBENCH_CXX_FLAGS).c_str(), json_str(E2EBENCH_COMPILER).c_str(),
      json_str(args.commit).c_str());
}

/// The run's wall-clock budget: --seconds from the start of the run.
/// Set-ups, passes and the traced run's extra passes all end within it.
class Deadline {
 public:
  explicit Deadline(double seconds) : end_s_(wall_s() + seconds) {}
  double end_s() const { return end_s_; }

 private:
  double end_s_;
};

std::vector<double> timed_setups(Workload& workload) {
  std::vector<double> samples;
  for (int r = 0; r < kSetupReps; ++r) {
    const double t0 = wall_s();
    {
      const ScopedSpan span("setup");
      workload.setup();
    }
    samples.push_back(wall_s() - t0);
  }
  return samples;
}

/// Passes the untraced run makes: a fixed count for a given --seconds,
/// so the op count (and with it op_ms_tail's percentile and the
/// service's registry memory) does not depend on the host's speed.
std::size_t planned_passes(const Workload& workload, double seconds) {
  const double n = kPassShare * seconds / workload.nominal_pass_s();
  return std::max<std::size_t>(1, static_cast<std::size_t>(n));
}

/// Run up to `count` passes with indices first, first+1, ..., at least
/// one, but none that would end after `end_s`: a pass is started only if
/// the longest pass so far (checks included) still fits.  Returns the
/// passes' timed wall times.
std::vector<double> run_passes(Workload& workload, std::size_t first,
                               std::size_t count, double end_s,
                               std::vector<PassResult>& passes) {
  std::vector<double> wall;
  double longest = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    if (i > 0 && wall_s() + longest > end_s) break;
    const double t0 = wall_s();
    passes.push_back(workload.run_pass(first + i));
    longest = std::max(longest, wall_s() - t0);
    wall.push_back(passes.back().wall_s);
  }
  return wall;
}

/// Sum of probe-span time recorded after span index `from`.
double probe_seconds(const Tracer& tracer, std::size_t from) {
  const std::vector<Span> spans = tracer.spans();
  double total = 0.0;
  for (std::size_t i = from; i < spans.size(); ++i) {
    if (spans[i].probe) total += spans[i].seconds();
  }
  return total;
}

void print_metrics(const Metrics& metrics) {
  for (const auto& [name, m] : metrics) {
    std::printf("metric %-34s %.6g %s\n", name.c_str(), m.value,
                m.unit.c_str());
  }
}

void print_result(const RunSummary& summary, const Metrics& metrics) {
  std::printf("E2EBENCH_RESULT {\"correct\":%s,\"attempted\":%zu,"
              "\"failed\":%zu,\"metrics\":{",
              summary.failed == 0 ? "true" : "false", summary.attempted,
              summary.failed);
  bool first = true;
  for (const auto& [name, m] : metrics) {
    std::printf("%s%s:{\"value\":%.17g,\"unit\":%s}", first ? "" : ",",
                json_str(name).c_str(), m.value, json_str(m.unit).c_str());
    first = false;
  }
  std::printf("}}\n");
}

void print_passes(const std::vector<PassResult>& passes) {
  for (const PassResult& p : passes) {
    std::printf("pass %-4zu ops=%-6zu wall_s=%.4f cpu_s=%.4f\n", p.pass,
                p.ops.size(), p.wall_s, p.cpu_s);
  }
}

void print_summary(const std::string& workload, std::size_t passes,
                   const RunSummary& summary) {
  std::printf(
      "e2ebench workload=%s passes=%zu ops=%zu failed=%zu failed_frac=%.6g "
      "cut_digest=%s op_ms_tail_percentile=%.2f op_ms_tail_samples=%zu\n",
      workload.c_str(), passes, summary.attempted, summary.failed,
      summary.metrics.at("failed_frac").value, summary.cut_digest.c_str(),
      summary.tail.percentile, summary.tail.samples);
  for (const GroupRow& g : summary.groups) {
    std::printf("group %-28s ops=%-5zu ms_p50=%-10.4g cut_best=%-6lld "
                "cut_mean=%.6g\n",
                g.group.c_str(), g.ops, g.ms_p50,
                static_cast<long long>(g.cut_best), g.cut_mean);
  }
  for (const std::string& error : summary.errors) {
    std::printf("e2ebench failed-op %s\n", error.c_str());
  }
}

int run(const Args& args) {
  const Deadline deadline(args.seconds);
  std::unique_ptr<Workload> workload = make_workload(args.workload, args.seed);
  if (workload == nullptr) {
    std::fprintf(stderr, "e2ebench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  std::vector<PassResult> passes;
  if (!args.trace) {
    const std::vector<double> setups = timed_setups(*workload);
    const std::size_t planned = planned_passes(*workload, args.seconds);
    run_passes(*workload, 0, planned, deadline.end_s(), passes);
    workload->teardown();
    const RunSummary summary = summarize(passes, setups);
    print_passes(passes);
    std::printf("e2ebench passes planned=%zu run=%zu%s\n", planned,
                passes.size(),
                passes.size() < planned ? " (stopped at the deadline)" : "");
    print_summary(args.workload, passes.size(), summary);
    print_metrics(summary.metrics);
    print_result(summary, summary.metrics);
    return 0;
  }

  // Traced run.  First one traced set-up and pass of every other
  // workload, for the layers this one does not exercise; then traced
  // set-ups of this workload, and the time left split between untraced
  // and traced passes.  Traced passes replay the untraced pass indices
  // where the workload allows, so their cuts are checked against the
  // untraced ones.
  const std::string base =
      args.trace_dir + "/trace-" + args.workload + "-" + std::to_string(args.seed);
  std::size_t extra_attempted = 0;
  std::size_t extra_failed = 0;
  std::vector<std::string> extra_errors;
  Metrics extra_layers;
  for (const std::string& other : workload_names()) {
    if (other == args.workload) continue;
    std::unique_ptr<Workload> extra = make_workload(other, args.seed);
    Tracer extra_tracer;
    set_active_tracer(&extra_tracer);
    {
      const ScopedSpan span("setup");
      extra->setup();
    }
    const RunSummary extra_summary = summarize({extra->run_pass(0)}, {0.0});
    set_active_tracer(nullptr);
    extra->layer_metrics(extra_tracer.spans(), extra_tracer.counters(),
                         extra_layers);
    extra->teardown();
    extra_tracer.write_json(base + "." + other + ".json");
    extra_attempted += extra_summary.attempted;
    extra_failed += extra_summary.failed;
    for (const std::string& e : extra_summary.errors) extra_errors.push_back(e);
  }

  Tracer tracer;
  set_active_tracer(&tracer);
  const std::vector<double> setups = timed_setups(*workload);
  set_active_tracer(nullptr);
  const double half_end_s = 0.5 * (wall_s() + deadline.end_s());
  const std::vector<double> untraced_s =
      run_passes(*workload, 0, SIZE_MAX, half_end_s, passes);
  const std::size_t first_traced = workload->replayable() ? 0 : passes.size();
  std::vector<double> traced_s;
  double longest = 0.0;
  set_active_tracer(&tracer);
  do {
    const std::size_t from = tracer.spans().size();
    const double t0 = wall_s();
    passes.push_back(workload->run_pass(first_traced + traced_s.size()));
    longest = std::max(longest, wall_s() - t0);
    traced_s.push_back(passes.back().wall_s - probe_seconds(tracer, from));
  } while (wall_s() + longest <= deadline.end_s());
  set_active_tracer(nullptr);
  RunSummary summary = summarize(passes, setups);
  Metrics layers;
  workload->layer_metrics(tracer.spans(), tracer.counters(), layers);
  workload->teardown();
  layers["trace.overhead_frac"] =
      Metric{median(traced_s) / median(untraced_s) - 1.0, "ratio"};
  tracer.write_json(base + ".json");
  // This workload's own numbers take precedence over the extra passes'.
  for (const auto& [name, m] : extra_layers) layers.emplace(name, m);
  summary.attempted += extra_attempted;
  summary.failed += extra_failed;
  for (const std::string& e : extra_errors) summary.errors.push_back(e);
  print_passes(passes);
  print_summary(args.workload, passes.size(), summary);
  print_metrics(layers);
  print_result(summary, layers);
  return 0;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) {
  e2ebench::Args args;
  if (!e2ebench::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: e2ebench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--commit SHA] [--trace-dir DIR]\n");
    return 2;
  }
  // Timings from anything but an optimized build mean nothing; refuse
  // them rather than print numbers someone might compare.
  if (std::string(E2EBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr,
                 "e2ebench: refusing to measure a '%s' build; configure with "
                 "-DCMAKE_BUILD_TYPE=Release\n",
                 E2EBENCH_BUILD_TYPE);
    return 3;
  }
  e2ebench::print_stamp(args);
  std::fflush(stdout);
  try {
    return e2ebench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s\n", e.what());
    return 1;
  }
}
