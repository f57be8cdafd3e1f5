// The benchmark's three workloads.
//
//   flat-fm     serial multistart of flat LIFO FM and CLIP FM on ibm01-03
//               at full preset size (2% balance, actual areas).
//   multilevel  the hMetis-like protocol (ML starts, then V-cycles on the
//               best) on ibm18 at scale 0.3, plus k=4 recursive
//               bisection with the direct k-way polish on a mid-size
//               preset.
//   service     an in-process PartitionService on loopback driven by
//               three closed-loop clients through the public protocol.
//
// A workload is a fixed op list per pass, made from the workload seed:
// the same seed gives the same instances, the same ops and the same cuts.
// An op is one start, V-cycle or k-way run (batch workloads) or one
// request (service).  main.cpp runs a fixed number of whole passes for
// the run's --seconds, so every pass runs the identical op mix.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/hypergraph/hypergraph.h"
#include "src/part/core/partition_state.h"
#include "src/trace.h"

namespace e2ebench {

using vlsipart::PartId;
using vlsipart::PartitionProblem;
using vlsipart::Weight;

/// One op as the end-to-end metrics see it.
struct OpRecord {
  std::string group;  ///< "<instance>/<engine>/k<k>": cut_best groups
  /// start | vcycle | rb (batch); hit | hit_parts | hit_parts_small |
  /// cold | fresh (service)
  std::string kind;
  double wall_ms = 0.0;
  vlsipart::Weight cut = 0;
  bool ok = false;
  std::string error;  ///< why the op failed (empty when ok)
};

struct PassResult {
  std::size_t pass = 0;  ///< index the pass was run with
  std::vector<OpRecord> ops;
  double wall_s = 0.0;  ///< wall time of the pass's timed region
  double cpu_s = 0.0;   ///< process CPU over the same region
};

/// A named measurement: value and unit, as printed.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

class Workload {
 public:
  virtual ~Workload() = default;
  /// Build instances and engines (or start the server and prime its
  /// caches).  May be called again; each call replaces the previous
  /// set-up, so a run can time several and keep the last.
  virtual void setup() = 0;
  /// Run pass `pass` of the op list and check every result.  Each pass
  /// index has its own ops (start indices, request seeds), fixed by the
  /// seed, so a run samples more distinct ops as it makes more passes.
  virtual PassResult run_pass(std::size_t pass) = 0;
  /// Per-layer metrics from the spans and counters of traced set-ups and
  /// passes.  Adds only the layers this workload exercises.
  virtual void layer_metrics(const std::vector<Span>& spans,
                             const std::map<std::string, double>& counters,
                             Metrics& out) const = 0;
  /// Wall time of one untraced pass on the host the benchmark was tuned
  /// on (README); main.cpp sizes the run's pass count from it.
  virtual double nominal_pass_s() const = 0;
  /// Release threads, sockets and memory held by the last set-up.
  virtual void teardown() {}
  /// True when running a pass index again reproduces it exactly, so the
  /// traced run can replay the untraced passes and compare their cuts.
  /// False for the service: its result cache remembers the first run.
  virtual bool replayable() const { return true; }
};

/// The workload names, in the order a traced run visits them.
std::vector<std::string> workload_names();

/// nullptr for an unknown name.  `size` multiplies every instance's
/// scale: 1 in every measured run; the unit tests use small sizes to run
/// whole passes in milliseconds.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, double size = 1.0);

/// Seed derivation shared by all workloads: a pure function of the
/// workload seed, a tag and an index, in [1, 2^53).
std::uint64_t derive_seed(std::uint64_t seed, const std::string& tag,
                          std::uint64_t index = 0);

/// A generated instance, round-tripped through the .hgr format: the
/// generator writes it, read_hmetis parses it back, and the parsed graph
/// is what every engine sees.  Traced spans: gen.generate, io.hgr_parse.
struct Instance {
  std::string name;
  vlsipart::Hypergraph graph;
  PartitionProblem problem;  ///< graph = &this->graph, free vertices
};

/// Generate `preset` at `scale` with generator seed `gen_seed` (0 = the
/// preset's own), then, unless `relabel_seed` is 0, renumber its vertices
/// and reorder its nets by a permutation drawn from `relabel_seed`.  The
/// relabelled instance is isomorphic to the generated one, so seeds
/// change the instance every engine sees without changing its size,
/// macro cells or cluster structure -- the properties run time and cut
/// depend on.
std::unique_ptr<Instance> build_instance(const std::string& preset,
                                         double scale, std::uint64_t gen_seed,
                                         std::uint64_t relabel_seed,
                                         double tolerance);

}  // namespace e2ebench
