#include "src/part/engine.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "src/util/logging.h"

namespace vlsipart {
namespace {

constexpr EngineInfo kEngines[] = {
    {"ml", EngineKind::kMl,
     "multilevel FM (hMetis-like: coarsen, refine, V-cycle the best)", false},
    {"flat", EngineKind::kFlat,
     "flat FM with LIFO gain buckets (the paper's baseline)", false},
    {"clip", EngineKind::kClip, "flat FM with CLIP gain keys and corking",
     false},
    {"nlevel", EngineKind::kNlevel,
     "n-level: one contraction per level, localized FM per uncontraction",
     true},
    {"evo", EngineKind::kEvo,
     "memetic: population of ml starts evolved by recombination V-cycles",
     true},
};

const EngineInfo* find_engine(const std::string& name) {
  for (const EngineInfo& e : kEngines) {
    if (name == e.name) return &e;
  }
  return nullptr;
}

std::string join_names(bool with_bisection_only) {
  std::string out;
  for (const EngineInfo& e : kEngines) {
    if (e.bisection_only && !with_bisection_only) continue;
    if (!out.empty()) out += '|';
    out += e.name;
  }
  return out;
}

std::size_t thread_budget(const EngineSpec& spec) {
  return std::max<std::size_t>(1, spec.threads);
}

/// The k = 2 engines other than ml (which needs run_hmetis_like).
std::unique_ptr<Bipartitioner> make_bipartitioner(const EngineSpec& spec,
                                                  EngineKind kind,
                                                  const FmConfig& fm) {
  if (kind == EngineKind::kNlevel) {
    NlevelConfig config = spec.nlevel;
    config.refine = fm;
    return std::make_unique<NlevelPartitioner>(config);
  }
  if (kind == EngineKind::kEvo) {
    EvoConfig config = spec.evo;
    config.ml = spec.ml;
    config.ml.refine = fm;
    // One start: the budget goes to the offspring; more: to the starts.
    return std::make_unique<EvoPartitioner>(
        config, spec.starts == 1 ? thread_budget(spec) : 1);
  }
  return std::make_unique<FlatFmPartitioner>(fm);
}

/// The FM policy `kind` refines with: spec.fm, plus CLIP keys and the
/// corking fix for clip.
FmConfig engine_fm(const EngineSpec& spec, EngineKind kind) {
  FmConfig fm = spec.fm;
  if (kind == EngineKind::kClip) {
    fm.clip = true;
    fm.exclude_oversized = true;
  }
  return fm;
}

std::string fixed_error(const std::vector<PartId>& fixed, std::size_t k,
                        const Hypergraph& h) {
  if (fixed.empty()) return {};
  if (k > 2) {
    return "fixed vertices need k = 2: recursive bisection does not "
           "propagate them";
  }
  if (fixed.size() != h.num_vertices()) {
    return "fixed vector has " + std::to_string(fixed.size()) +
           " entries for " + std::to_string(h.num_vertices()) + " vertices";
  }
  for (const PartId p : fixed) {
    if (p != 0 && p != 1 && p != kNoPart) {
      return "fixed side must be 0, 1 or free";
    }
  }
  return {};
}

}  // namespace

std::span<const EngineInfo> engine_registry() { return kEngines; }

std::vector<std::string> engine_names() {
  std::vector<std::string> names;
  for (const EngineInfo& e : kEngines) names.emplace_back(e.name);
  return names;
}

std::string engine_spec_error(const std::string& engine, std::size_t k) {
  const EngineInfo* info = find_engine(engine);
  if (info == nullptr) {
    return "engine must be one of " + join_names(true) + ": " + engine;
  }
  if (k < 2 || k > 128) return "k must be in [2, 128]";
  if (info->bisection_only && k != 2) {
    return "engine " + engine +
           " is a bipartitioner; k > 2 (recursive bisection) supports " +
           join_names(false);
  }
  return {};
}

KwayConfig kway_config(const EngineSpec& spec) {
  const EngineInfo* info = find_engine(spec.engine);
  VP_CHECK(info != nullptr, "kway_config: unregistered engine");
  KwayConfig config;
  config.k = spec.k;
  config.tolerance = spec.tolerance;
  config.use_ml = info->kind == EngineKind::kMl;
  config.fm = engine_fm(spec, info->kind);
  config.ml = spec.ml;
  config.starts_per_level = spec.starts;
  config.seed = spec.seed;
  config.threads = thread_budget(spec);
  return config;
}

EngineResult run_engine(const EngineSpec& spec, const Hypergraph& h,
                        std::vector<PartId> fixed) {
  EngineResult out;
  out.error = engine_spec_error(spec.engine, spec.k);
  if (out.error.empty()) out.error = fixed_error(fixed, spec.k, h);
  if (!out.error.empty()) return out;
  const EngineKind kind = find_engine(spec.engine)->kind;
  const FmConfig fm = engine_fm(spec, kind);
  // No served answer depends on a width: the round engines are left
  // only for the probes and tests that call them directly.
  if (fm.refine_threads != 1 || spec.ml.coarsen.coarsen_threads != 1) {
    out.error =
        "refine_threads and coarsen_threads must be 1: run_engine runs "
        "only the serial refiner and coarsener";
    return out;
  }

  std::string violation;
  if (spec.k > 2) {
    KwayResult r = recursive_bisection(h, kway_config(spec));
    violation = check_kway(h, r.parts, spec.k, spec.tolerance);
    out.cut = r.cut;
    out.parts = std::move(r.parts);
  } else {
    PartitionProblem problem;
    problem.graph = &h;
    problem.balance = BalanceConstraint::from_tolerance(
        h.total_vertex_weight(), spec.tolerance);
    problem.fixed = std::move(fixed);
    MultistartResult& r = out.multistart;
    // Across starts; run_multistart runs a single start inline, and an
    // evo single start took the budget in make_bipartitioner.
    const std::size_t start_threads =
        spec.starts >= 2 ? thread_budget(spec) : 1;
    if (kind == EngineKind::kMl) {
      MlConfig config = spec.ml;
      config.refine = fm;
      MlPartitioner engine(config);
      r = run_hmetis_like(problem, engine, spec.starts, spec.vcycles,
                          spec.seed, start_threads);
    } else {
      r = run_multistart(problem, *make_bipartitioner(spec, kind, fm),
                         spec.starts, spec.seed, start_threads);
    }
    if (r.best_parts.empty()) {
      out.error = "no feasible solution found";
      return out;
    }
    violation = check_solution(problem, r.best_parts, r.best_cut);
    out.cut = r.best_cut;
    out.parts = r.best_parts;
  }
  if (!violation.empty()) {
    out.error = "solution audit failed: " + violation;
  }
  return out;
}

}  // namespace vlsipart
