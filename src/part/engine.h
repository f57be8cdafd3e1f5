// Engine front door: the one place an engine name and its knobs become
// an audited run.  vpart, vpartd and the benches fill an EngineSpec and
// call run_engine(); the registry is the only list of engine names.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/part/evo/evo_partitioner.h"
#include "src/part/kway/recursive_bisection.h"
#include "src/part/nlevel/nlevel_partitioner.h"

namespace vlsipart {

enum class EngineKind : std::uint8_t { kMl, kFlat, kClip, kNlevel, kEvo };

struct EngineInfo {
  const char* name;
  EngineKind kind;
  const char* blurb;    ///< one line for --help
  bool bisection_only;  ///< k must be 2 (no recursive bisection)
};

/// The engine vocabulary, in --help order (ml, the default, first).
std::span<const EngineInfo> engine_registry();
std::vector<std::string> engine_names();
/// Empty when `engine` is registered and can produce a k-way answer;
/// else the reason.
std::string engine_spec_error(const std::string& engine, std::size_t k);

struct EngineSpec {
  std::string engine = "ml";
  std::size_t k = 2;       ///< > 2 runs recursive bisection
  double tolerance = 0.02;  ///< k > 2: check_kway's per-part band
  std::size_t starts = 4;  ///< k > 2: per bisection
  std::size_t vcycles = 1;  ///< on the best start; k = 2, ml only
  std::uint64_t seed = 1;
  /// The run's thread budget, spent at exactly one level so fan-outs
  /// never nest: across starts (k = 2, starts >= 2), across evo's
  /// offspring (evo, one start), or across bisection starts and RB
  /// subtrees (k > 2, KwayConfig::threads).  A single-start
  /// ml/flat/clip/nlevel run stays serial.  The answer is
  /// bit-identical at every budget.
  std::size_t threads = 1;
  /// Every engine's refine policy and initial-solution generator (clip
  /// adds CLIP keys).
  FmConfig fm;
  MlConfig ml;  ///< ml, ml bisections and evo's nested ML
  NlevelConfig nlevel;
  EvoConfig evo;
};

struct EngineResult {
  Weight cut = 0;
  std::vector<PartId> parts;
  /// Non-empty: no answer (bad spec, fm.refine_threads or
  /// ml.coarsen.coarsen_threads other than 1, nothing feasible, failed
  /// audit); cut and parts are then only diagnostics.
  std::string error;
  MultistartResult multistart;  ///< k = 2 per-start record
};

/// The recursive-bisection configuration run_engine runs for k > 2: the
/// spec's k, tolerance, starts per bisection, seed and thread budget,
/// its ml settings, and its FM policy as the engine refines (clip adds
/// CLIP keys and the corking fix).  The direct k-way polish keeps
/// KwayConfig's default pass count.  spec.engine must be registered.
KwayConfig kway_config(const EngineSpec& spec);

/// Build the engine, run it under run_hmetis_like (ml), run_multistart
/// (other bipartitioners) or recursive_bisection (k > 2) with the thread
/// budget placed as EngineSpec::threads says, and audit the answer with
/// check_solution (k = 2) or check_kway (k > 2).  `fixed` is empty or
/// holds one side (0, 1 or kNoPart) per vertex; it becomes the k = 2
/// problem's fixed vertices, which the audit checks.  Recursive
/// bisection does not propagate fixed vertices, so k > 2 with a
/// non-empty `fixed` is an error.
EngineResult run_engine(const EngineSpec& spec, const Hypergraph& h,
                        std::vector<PartId> fixed = {});

}  // namespace vlsipart
