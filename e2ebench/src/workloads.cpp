#include "src/workloads.h"

#include <algorithm>
#include <exception>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "src/check.h"
#include "src/gen/netlist_gen.h"
#include "src/io/hmetis_io.h"
#include "src/measure.h"
#include "src/part/core/initial.h"
#include "src/part/core/partitioner.h"
#include "src/part/kway/recursive_bisection.h"
#include "src/part/ml/coarsen.h"
#include "src/part/ml/ml_partitioner.h"
#include "src/part/ml/parallel_coarsen.h"
#include "src/service/client.h"
#include "src/service/server.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"

namespace e2ebench {

using vlsipart::FlatFmPartitioner;
using vlsipart::FmConfig;
using vlsipart::FmRefiner;
using vlsipart::FmResult;
using vlsipart::MlConfig;
using vlsipart::MlPartitioner;
using vlsipart::PartitionState;
using vlsipart::Rng;

namespace {

/// The paper's traditional 2% balance (parts within 49%-51% of area).
constexpr double kBisectTolerance = 0.02;
/// k=4 parts within +-5% of a quarter of the area (KwayConfig default).
constexpr double kKwayTolerance = 0.10;

bool tracing() { return active_tracer() != nullptr; }

std::string group_name(const std::string& instance, const std::string& engine,
                       std::size_t k) {
  return instance + "/" + engine + "/k" + std::to_string(k);
}

/// Durations in ms of every span with this name.
std::vector<double> span_ms(const std::vector<Span>& spans,
                            const std::string& name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (s.name == name) out.push_back(1e3 * s.seconds());
  }
  return out;
}

/// Per set-up total of the named child spans, ms; one value per traced
/// set-up (spans named "setup", opened by main.cpp).
std::vector<double> per_setup_ms(const std::vector<Span>& spans,
                                 const std::string& child) {
  std::map<std::uint32_t, double> by_setup;
  for (const Span& s : spans) {
    if (s.name == "setup") by_setup[s.id] += 0.0;
  }
  for (const Span& s : spans) {
    const auto it = by_setup.find(s.parent);
    if (s.name == child && it != by_setup.end()) {
      it->second += 1e3 * s.seconds();
    }
  }
  std::vector<double> out;
  for (const auto& [id, ms] : by_setup) {
    if (ms > 0.0) out.push_back(ms);
  }
  return out;
}

double counter(const std::map<std::string, double>& counters,
               const std::string& name) {
  const auto it = counters.find(name);
  return it == counters.end() ? 0.0 : it->second;
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

void put(Metrics& out, const std::string& name, double value,
         const std::string& unit) {
  out[name] = Metric{value, unit};
}

/// Set-up layer metrics shared by every workload that generates inputs.
void setup_layer_metrics(const std::vector<Span>& spans, Metrics& out) {
  const std::vector<double> gen = per_setup_ms(spans, "gen.generate");
  if (!gen.empty()) put(out, "gen.generate_ms", median(gen), "ms");
  const std::vector<double> parse = per_setup_ms(spans, "io.hgr_parse");
  if (!parse.empty()) put(out, "io.hgr_parse_ms", median(parse), "ms");
  const std::vector<double> check = span_ms(spans, "core.check");
  if (!check.empty()) put(out, "core.check_ms", median(check), "ms");
}

OpRecord make_op(std::string group, std::string kind, double wall_ms,
                 vlsipart::Weight cut) {
  OpRecord rec;
  rec.group = std::move(group);
  rec.kind = std::move(kind);
  rec.wall_ms = wall_ms;
  rec.cut = cut;
  return rec;
}

/// The result check of one op, run after the pass's timed region so the
/// pass's wall and CPU time are the engines' alone.
using Check = std::function<std::string()>;

/// Run checks[i] for ops[i]; an op whose check fails is a failed op.
void apply_checks(std::vector<OpRecord>& ops, const std::vector<Check>& checks) {
  for (std::size_t i = 0; i < ops.size(); ++i) {
    ops[i].error = checks[i]();
    ops[i].ok = ops[i].error.empty();
  }
}

/// Isomorphic copy of `h`: vertex v becomes perm[v] (a permutation drawn
/// from `rng`), and nets are added in a shuffled order.
vlsipart::Hypergraph relabel(const vlsipart::Hypergraph& h, Rng& rng) {
  const std::size_t n = h.num_vertices();
  std::vector<vlsipart::VertexId> perm(n);
  for (std::size_t v = 0; v < n; ++v) {
    perm[v] = static_cast<vlsipart::VertexId>(v);
  }
  rng.shuffle(perm);
  std::vector<vlsipart::EdgeId> order(h.num_edges());
  for (std::size_t e = 0; e < order.size(); ++e) {
    order[e] = static_cast<vlsipart::EdgeId>(e);
  }
  rng.shuffle(order);
  vlsipart::HypergraphBuilder builder(n);
  for (std::size_t v = 0; v < n; ++v) {
    builder.set_vertex_weight(perm[v],
                              h.vertex_weight(static_cast<vlsipart::VertexId>(v)));
  }
  std::vector<vlsipart::VertexId> pins;
  for (const vlsipart::EdgeId e : order) {
    pins.clear();
    for (const vlsipart::VertexId v : h.pins(e)) pins.push_back(perm[v]);
    builder.add_edge(pins, h.edge_weight(e));
  }
  return builder.finalize(h.name());
}

// ---------------------------------------------------------------- flat-fm

class FlatFmWorkload final : public Workload {
 public:
  FlatFmWorkload(std::uint64_t seed, double size) : seed_(seed), size_(size) {}

  void setup() override {
    teardown();
    for (const char* preset : {"ibm01", "ibm02", "ibm03"}) {
      instances_.push_back(build_instance(
          preset, size_, 0, derive_seed(seed_, preset), kBisectTolerance));
    }
    for (const auto& inst : instances_) {
      for (const bool clip : {false, true}) {
        Slot slot;
        slot.inst = inst.get();
        // CLIP with the corking fix of Sec. 2.3, as vpartd serves it: a
        // corked start makes no moves, so without the fix the share of
        // near-empty starts, and with it the run's time and cut, would
        // swing with the seed.
        slot.config.clip = clip;
        slot.config.exclude_oversized = clip;
        slot.group = group_name(inst->name, clip ? "flat-clip" : "flat-lifo", 2);
        slot.engine = std::make_unique<FlatFmPartitioner>(slot.config);
        slots_.push_back(std::move(slot));
      }
    }
  }

  PassResult run_pass(std::size_t pass) override {
    PassResult out;
    out.pass = pass;
    std::vector<Check> checks;
    const double w0 = wall_s();
    const double c0 = process_cpu_s();
    std::uint64_t op = 0;
    for (Slot& slot : slots_) {
      // Start j of a slot always uses base.fork(j), as run_multistart
      // does; pass p runs starts p*kStarts .. p*kStarts + kStarts - 1.
      Rng base(derive_seed(seed_, slot.group));
      for (std::size_t i = 0; i < kStarts; ++i) {
        const std::size_t j = pass * kStarts + i;
        set_current_op(++op);
        Rng rng = base.fork(j);
        std::vector<PartId> parts;
        const double t0 = wall_s();
        const Weight cut =
            tracing() ? traced_start(slot, rng, parts, j)
                      : slot.engine->run_start(slot.inst->problem, rng, parts, j);
        const double wall_ms = 1e3 * (wall_s() - t0);
        out.ops.push_back(make_op(slot.group, "start", wall_ms, cut));
        checks.push_back([&problem = slot.inst->problem,
                          parts = std::move(parts), cut] {
          return check_bipartition(problem, parts, cut);
        });
      }
    }
    out.wall_s = wall_s() - w0;
    out.cpu_s = process_cpu_s() - c0;
    apply_checks(out.ops, checks);
    return out;
  }

  double nominal_pass_s() const override { return kNominalPassS; }

  void layer_metrics(const std::vector<Span>& spans,
                     const std::map<std::string, double>& counters,
                     Metrics& out) const override {
    setup_layer_metrics(spans, out);
    const std::vector<double> refine = span_ms(spans, "core.fm.refine");
    if (refine.empty()) return;
    double refine_total_s = 0.0;
    for (const double ms : refine) refine_total_s += ms / 1e3;
    const double starts = static_cast<double>(refine.size());
    const double moves = counter(counters, "core.fm.moves");
    const double skipped = counter(counters, "core.fm.nets_skipped");
    const double walked = counter(counters, "core.fm.nets_walked");
    put(out, "core.fm.refine_ms", median(refine), "ms");
    put(out, "core.fm.moves", moves / starts, "count");
    put(out, "core.fm.moves_per_s", ratio(moves, refine_total_s), "1/s");
    put(out, "core.fm.kept_frac",
        ratio(counter(counters, "core.fm.moves_kept"), moves), "ratio");
    put(out, "core.fm.passes", counter(counters, "core.fm.passes") / starts,
        "count");
    put(out, "core.fm.zero_move_passes",
        counter(counters, "core.fm.zero_move_passes") / starts, "count");
    put(out, "core.fm.skip_rate", ratio(skipped, skipped + walked), "ratio");
  }

  void teardown() override {
    slots_.clear();
    instances_.clear();
  }

 private:
  /// Starts per (instance, engine) slot and pass: 24 starts a pass.
  static constexpr std::size_t kStarts = 4;
  static constexpr double kNominalPassS = 3.4;

  struct Slot {
    Instance* inst = nullptr;
    FmConfig config;
    std::string group;
    std::unique_ptr<FlatFmPartitioner> engine;
    // Traced path: the same steps FlatFmPartitioner::run_start takes,
    // made here so FmRefiner::refine gets its own span.
    std::unique_ptr<PartitionState> state;
    std::unique_ptr<FmRefiner> refiner;
  };

  Weight traced_start(Slot& slot, Rng& rng, std::vector<PartId>& parts,
                      std::size_t start_index) {
    const ScopedSpan start("core.fm.start");
    const PartitionProblem& problem = slot.inst->problem;
    if (slot.state == nullptr) {
      slot.state = std::make_unique<PartitionState>(*problem.graph);
      slot.refiner = std::make_unique<FmRefiner>(problem, slot.config);
    }
    {
      const ScopedSpan span("core.initial");
      parts = vlsipart::make_initial(problem, vlsipart::InitialScheme::kRandom,
                                     start_index, rng);
    }
    slot.state->assign(parts);
    FmResult result;
    {
      const ScopedSpan span("core.fm.refine");
      result = slot.refiner->refine(*slot.state, rng);
    }
    std::size_t kept = 0;
    for (const auto& pass : result.pass_stats) kept += pass.moves_kept;
    const vlsipart::UpdateWork work = result.update_work();
    trace_count("core.fm.moves", static_cast<double>(result.total_moves));
    trace_count("core.fm.moves_kept", static_cast<double>(kept));
    trace_count("core.fm.passes", static_cast<double>(result.passes));
    trace_count("core.fm.zero_move_passes",
                static_cast<double>(result.zero_move_passes));
    trace_count("core.fm.nets_skipped",
                static_cast<double>(work.nets_skipped_noncritical));
    trace_count("core.fm.nets_walked", static_cast<double>(work.nets_walked));
    parts = slot.state->parts();
    return slot.state->cut();
  }

  std::uint64_t seed_;
  double size_;
  std::vector<std::unique_ptr<Instance>> instances_;
  std::vector<Slot> slots_;
};

// ------------------------------------------------------------- multilevel

class MultilevelWorkload final : public Workload {
 public:
  MultilevelWorkload(std::uint64_t seed, double size)
      : seed_(seed), size_(size) {}

  void setup() override {
    teardown();
    ml_inst_ = build_instance(kMlPreset, kMlScale * size_, 0,
                              derive_seed(seed_, kMlPreset), kBisectTolerance);
    rb_inst_ = build_instance(kRbPreset, kRbScale * size_, 0,
                              derive_seed(seed_, kRbPreset), kKwayTolerance);
    ml_ = std::make_unique<MlPartitioner>(MlConfig{});
    ml_group_ = group_name(ml_inst_->name, "ml", 2);
    rb_group_ = group_name(rb_inst_->name, "rb-ml", 4);
  }

  PassResult run_pass(std::size_t pass) override {
    PassResult out;
    out.pass = pass;
    const PartitionProblem& problem = ml_inst_->problem;
    std::vector<Check> checks;
    const double w0 = wall_s();
    const double c0 = process_cpu_s();
    std::uint64_t op = 0;

    // hMetis-like protocol: ML starts from base.fork(j), then V-cycles on
    // the best start (lowest cut, then lowest index), stopping at the
    // first V-cycle that does not improve -- as run_hmetis_like does.
    // Each pass is one such protocol over its own start indices.
    Rng base(derive_seed(seed_, ml_group_));
    std::vector<PartId> best_parts;
    Weight best_cut = 0;
    for (std::size_t i = 0; i < kMlStarts; ++i) {
      set_current_op(++op);
      Rng rng = base.fork(pass * kMlStarts + i);
      if (tracing()) coarsen_probe(rng);
      std::vector<PartId> parts;
      const double t0 = wall_s();
      Weight cut = 0;
      {
        const ScopedSpan span("ml.start");
        cut = ml_->run(problem, rng, parts);
      }
      const double wall_ms = 1e3 * (wall_s() - t0);
      out.ops.push_back(make_op(ml_group_, "start", wall_ms, cut));
      if (best_parts.empty() || cut < best_cut) {
        best_parts = parts;
        best_cut = cut;
      }
      checks.push_back([&problem, parts = std::move(parts), cut] {
        return check_bipartition(problem, parts, cut);
      });
    }
    if (!best_parts.empty()) {
      Rng rng(derive_seed(seed_, ml_group_, 1 + pass));
      for (std::size_t c = 0; c < kVcycles; ++c) {
        set_current_op(++op);
        const double t0 = wall_s();
        Weight improved = 0;
        {
          const ScopedSpan span("ml.vcycle");
          improved = ml_->vcycle(problem, rng, best_parts);
        }
        const double wall_ms = 1e3 * (wall_s() - t0);
        trace_count("ml.vcycles", 1.0);
        trace_count("ml.vcycles_improved", improved < best_cut ? 1.0 : 0.0);
        out.ops.push_back(make_op(ml_group_, "vcycle", wall_ms, improved));
        checks.push_back([&problem, parts = best_parts, improved] {
          return check_bipartition(problem, parts, improved);
        });
        if (improved >= best_cut) break;
        best_cut = improved;
      }
    }

    // k=4 recursive bisection with the direct k-way polish.
    for (std::size_t r = 0; r < kRbOps; ++r) {
      set_current_op(++op);
      vlsipart::KwayConfig config;
      config.k = 4;
      config.tolerance = kKwayTolerance;
      config.seed = derive_seed(seed_, rb_group_, pass * kRbOps + r);
      const double t0 = wall_s();
      vlsipart::KwayResult result;
      {
        const ScopedSpan span("kway.rb");
        result = vlsipart::recursive_bisection(rb_inst_->graph, config);
      }
      const double wall_ms = 1e3 * (wall_s() - t0);
      out.ops.push_back(make_op(rb_group_, "rb", wall_ms, result.cut));
      if (tracing()) polish_probe(config, result);
      checks.push_back([&graph = rb_inst_->graph, config,
                        parts = std::move(result.parts), cut = result.cut] {
        return check_kway_partition(graph, parts, config.k, config.tolerance,
                                    cut);
      });
    }
    if (tracing()) parallel_probe();

    out.wall_s = wall_s() - w0;
    out.cpu_s = process_cpu_s() - c0;
    apply_checks(out.ops, checks);
    return out;
  }

  double nominal_pass_s() const override { return kNominalPassS; }

  void layer_metrics(const std::vector<Span>& spans,
                     const std::map<std::string, double>& counters,
                     Metrics& out) const override {
    setup_layer_metrics(spans, out);
    const std::vector<double> start = span_ms(spans, "ml.start");
    const std::vector<double> coarsen = span_ms(spans, "ml.coarsen");
    if (!start.empty() && !coarsen.empty()) {
      const double n = static_cast<double>(coarsen.size());
      put(out, "ml.start_ms", median(start), "ms");
      put(out, "ml.coarsen_ms", median(coarsen), "ms");
      put(out, "ml.coarsen_share", median(coarsen) / median(start), "ratio");
      put(out, "ml.levels", counter(counters, "ml.levels") / n, "count");
      put(out, "ml.coarsest_vertices",
          counter(counters, "ml.coarsest_vertices") / n, "count");
    }
    const std::vector<double> vcycle = span_ms(spans, "ml.vcycle");
    if (!vcycle.empty()) {
      put(out, "ml.vcycle_ms", median(vcycle), "ms");
      put(out, "ml.vcycle_improved_frac",
          ratio(counter(counters, "ml.vcycles_improved"),
                counter(counters, "ml.vcycles")),
          "ratio");
    }
    const std::vector<double> par_start = span_ms(spans, "ml.par.start_refine2t");
    const std::vector<double> par_coarsen = span_ms(spans, "ml.par.coarsen2t");
    if (!par_start.empty() && !start.empty()) {
      put(out, "ml.par.refine_speedup_2t", median(start) / median(par_start),
          "x");
    }
    if (!par_coarsen.empty() && !coarsen.empty()) {
      put(out, "ml.par.coarsen_speedup_2t",
          median(coarsen) / median(par_coarsen), "x");
    }
    const std::vector<double> rb = span_ms(spans, "kway.rb");
    const std::vector<double> rb_bare = span_ms(spans, "kway.rb_nopolish");
    if (!rb.empty()) {
      const double n = static_cast<double>(rb.size());
      put(out, "kway.rb_ms", median(rb), "ms");
      put(out, "kway.bisections", counter(counters, "kway.bisections") / n,
          "count");
      if (!rb_bare.empty()) {
        put(out, "kway.polish_ms", median(rb) - median(rb_bare), "ms");
        put(out, "kway.polish_recovered_frac",
            ratio(counter(counters, "kway.cut_unpolished") -
                      counter(counters, "kway.cut_polished"),
                  counter(counters, "kway.cut_unpolished")),
            "ratio");
      }
    }
  }

  void teardown() override {
    ml_.reset();
    ml_par_.reset();
    pool_.reset();
    ml_inst_.reset();
    rb_inst_.reset();
  }

 private:
  static constexpr const char* kMlPreset = "ibm18";
  static constexpr double kMlScale = 0.3;
  static constexpr const char* kRbPreset = "ibm10";
  static constexpr double kRbScale = 0.3;
  static constexpr std::size_t kMlStarts = 5;
  static constexpr std::size_t kVcycles = 2;
  static constexpr std::size_t kRbOps = 3;
  static constexpr double kNominalPassS = 4.4;

  /// Time the hierarchy this start builds: MlPartitioner::run calls
  /// build_hierarchy first with the start's Rng, so a copy of that Rng
  /// reproduces the same levels.
  void coarsen_probe(const Rng& start_rng) {
    Rng rng = start_rng;
    const PartitionProblem& problem = ml_inst_->problem;
    std::vector<vlsipart::CoarsenLevel> levels;
    {
      const ScopedSpan span("ml.coarsen", /*probe=*/true);
      levels = vlsipart::build_hierarchy(*problem.graph, ml_->config().coarsen,
                                         problem.fixed, {}, rng, &memory_);
    }
    trace_count("ml.levels", static_cast<double>(levels.size()));
    trace_count("ml.coarsest_vertices",
                static_cast<double>(levels.empty()
                                        ? problem.graph->num_vertices()
                                        : levels.back().coarse.num_vertices()));
  }

  /// The same RB op without the k-way polish, to split its time and the
  /// cut it recovers.
  void polish_probe(const vlsipart::KwayConfig& polished,
                    const vlsipart::KwayResult& result) {
    vlsipart::KwayConfig bare = polished;
    bare.refine_passes = 0;
    vlsipart::KwayResult unpolished;
    {
      const ScopedSpan span("kway.rb_nopolish", /*probe=*/true);
      unpolished = vlsipart::recursive_bisection(rb_inst_->graph, bare);
    }
    trace_count("kway.bisections", static_cast<double>(result.bisections));
    trace_count("kway.cut_polished", static_cast<double>(result.cut));
    trace_count("kway.cut_unpolished", static_cast<double>(unpolished.cut));
  }

  /// Round-engine probe: one ML start with refine_threads=2 and one
  /// hierarchy with coarsen_threads=2, against the serial ml.start and
  /// ml.coarsen spans.  No op or end-to-end metric depends on these knobs.
  void parallel_probe() {
    const PartitionProblem& problem = ml_inst_->problem;
    if (pool_ == nullptr) {
      pool_ = std::make_unique<vlsipart::ThreadPool>(2);
      MlConfig config;
      config.refine.refine_threads = 2;
      ml_par_ = std::make_unique<MlPartitioner>(config);
    }
    Rng rng(derive_seed(seed_, ml_group_));
    rng = rng.fork(0);
    std::vector<PartId> parts;
    Weight cut = 0;
    {
      const ScopedSpan span("ml.par.start_refine2t", /*probe=*/true);
      cut = ml_par_->run(problem, rng, parts);
    }
    const std::string error = check_bipartition(problem, parts, cut);
    if (!error.empty()) {
      throw std::runtime_error("refine_threads=2 probe: " + error);
    }
    vlsipart::CoarsenConfig coarsen = ml_->config().coarsen;
    coarsen.coarsen_threads = 2;
    const ScopedSpan span("ml.par.coarsen2t", /*probe=*/true);
    vlsipart::parallel_build_hierarchy(*problem.graph, coarsen, problem.fixed,
                                       {}, pool_.get(), &memory_);
  }

  std::uint64_t seed_;
  double size_;
  std::unique_ptr<Instance> ml_inst_;
  std::unique_ptr<Instance> rb_inst_;
  std::unique_ptr<MlPartitioner> ml_;
  std::string ml_group_;
  std::string rb_group_;
  vlsipart::ContractionMemory memory_;
  std::unique_ptr<vlsipart::ThreadPool> pool_;
  std::unique_ptr<MlPartitioner> ml_par_;
};

// ---------------------------------------------------------------- service

namespace svc = vlsipart::service;

/// One request of a client's sequence.
struct ServiceOp {
  svc::SubmitRequest req;
  std::string kind;   ///< as OpRecord::kind
  std::string group;  ///< cut_best group
  std::string engine_class;  ///< flat|clip|ml|nlevel|evo|kway4 (cold ops)
  int hit_index = -1;        ///< into the primed hit set, for hits
};

struct ServiceRecord {
  const ServiceOp* op = nullptr;
  svc::PartitionReply reply;
  double wall_ms = 0.0;
  std::size_t response_bytes = 0;
  std::string transport_error;
};

class ServiceWorkload final : public Workload {
 public:
  ServiceWorkload(std::uint64_t seed, double size)
      : seed_(seed), scale_(kScale * size) {}
  ~ServiceWorkload() override { teardown(); }

  bool replayable() const override { return false; }
  double nominal_pass_s() const override { return kNominalPassS; }

  void setup() override {
    teardown();
    // Client-side copies of every standing instance, for recounts.
    for (const auto& [preset, scale] : standing_instances()) {
      const svc::InstanceSpec spec = instance_spec(preset, scale, 0);
      graphs_[spec.descriptor()] =
          build_instance(preset, scale, 0, 0, kBisectTolerance);
    }
    svc::ServiceConfig config;
    config.workers = kWorkers;
    config.queue_capacity = 64;
    // Both caches evict the least recently used entry.  Every standing
    // instance and primed answer is used in every pass, while a pass adds
    // 36 results and 18 fresh instances, so the capacities keep the
    // standing set resident: whether a request hits is fixed by the op
    // list and not by timing, and memory stops growing after a few
    // passes.
    config.instance_cache_capacity = 64;
    config.result_cache_capacity = 256;
    config.idle_timeout_ms = 600000;
    server_ = std::make_unique<svc::PartitionService>(config);
    server_->start();
    const svc::Endpoint endpoint = server_->bound_endpoint();
    for (std::size_t c = 0; c < kClients; ++c) {
      clients_.push_back(std::make_unique<svc::ServiceClient>());
      if (!clients_.back()->connect(endpoint)) {
        throw std::runtime_error("service: connect failed: " +
                                 clients_.back()->error());
      }
    }
    // Prime the hit set: the first reply of each hit request is computed
    // cold here; every later one must be a result-cache hit with the same
    // cut.
    hit_set_ = make_hit_set();
    hit_cut_.assign(hit_set_.size(), 0);
    hit_parts_.assign(hit_set_.size(), 0);
    for (std::size_t h = 0; h < hit_set_.size(); ++h) {
      svc::SubmitRequest req = hit_set_[h];
      req.include_parts = true;
      const svc::PartitionReply reply = clients_[0]->submit_and_wait(req);
      const std::string error = check_reply(req, reply);
      if (!error.empty()) throw std::runtime_error("service prime: " + error);
      hit_cut_[h] = reply.cut;
      hit_parts_[h] = reply.parts.size();
    }
  }

  PassResult run_pass(std::size_t pass) override {
    const std::vector<std::vector<ServiceOp>> sequences = make_sequences(pass);
    std::vector<std::vector<ServiceRecord>> records(kClients);
    const bool traced = tracing();
    vlsipart::service::JsonValue stats_before;
    if (traced) {
      const ScopedSpan span("service.stats");
      clients_[0]->stats(stats_before);
    }

    PassResult out;
    out.pass = pass;
    const double w0 = wall_s();
    const double c0 = process_cpu_s();
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        run_client(*clients_[c], sequences[c], c, pass, traced, records[c]);
      });
    }
    for (std::thread& t : threads) t.join();
    out.wall_s = wall_s() - w0;
    out.cpu_s = process_cpu_s() - c0;

    if (traced) {
      vlsipart::service::JsonValue stats_after;
      {
        const ScopedSpan span("service.stats");
        clients_[0]->stats(stats_after);
      }
      for (const char* key : {"submitted", "result_cache_hits",
                              "instance_cache_hits", "shed", "expired"}) {
        trace_count((std::string("service.stats.") + key).c_str(),
                    static_cast<double>(stat(stats_after, key) -
                                        stat(stats_before, key)));
      }
    }

    // Verify after the timed region: recounts need client-side graphs,
    // and fresh instances are generated here, outside the closed loop.
    std::map<std::string, std::unique_ptr<Instance>> fresh;
    for (std::size_t c = 0; c < kClients; ++c) {
      for (ServiceRecord& rec : records[c]) {
        OpRecord op;
        op.group = rec.op->group;
        op.kind = rec.op->kind;
        op.wall_ms = rec.wall_ms;
        op.cut = rec.reply.cut;
        op.error = rec.transport_error.empty() ? verify(rec, fresh)
                                               : rec.transport_error;
        op.ok = op.error.empty();
        if (traced) trace_record(rec);
        out.ops.push_back(std::move(op));
      }
    }
    return out;
  }

  void layer_metrics(const std::vector<Span>& spans,
                     const std::map<std::string, double>& counters,
                     Metrics& out) const override {
    if (span_ms(spans, "service.submit").empty()) return;
    setup_layer_metrics(spans, out);
    for (const char* engine : {"flat", "clip", "ml", "nlevel", "evo", "kway4"}) {
      const auto it = run_ms_.find(engine);
      if (it != run_ms_.end()) {
        put(out, std::string("service.run_ms.") + engine, median(it->second),
            "ms");
      }
    }
    const double hit = median(kind_ms("hit"));
    const double hit_parts = median(kind_ms("hit_parts"));
    put(out, "service.hit_ms", hit, "ms");
    put(out, "service.hit_parts_ms", hit_parts, "ms");
    put(out, "service.parts_us_per_part",
        1e3 * (hit_parts - hit) /
            static_cast<double>(std::max<std::size_t>(1, hit_parts_[0])),
        "us");
    double bytes = 0.0;
    for (const std::size_t b : response_bytes_) bytes += static_cast<double>(b);
    put(out, "service.resp_kb_mean",
        ratio(bytes, static_cast<double>(response_bytes_.size())) / 1024.0,
        "KiB");
    put(out, "service.queue_wait_ms_p50", median(queue_wait_ms_), "ms");
    put(out, "service.queue_wait_ms_tail",
        tail_ten_beyond(queue_wait_ms_).value, "ms");
    const double submitted = counter(counters, "service.stats.submitted");
    put(out, "service.result_hit_frac",
        ratio(counter(counters, "service.stats.result_cache_hits"), submitted),
        "ratio");
    put(out, "service.instance_hit_frac",
        ratio(counter(counters, "service.stats.instance_cache_hits"),
              submitted),
        "ratio");
    put(out, "service.shed", counter(counters, "service.stats.shed"), "count");
    put(out, "service.expired", counter(counters, "service.stats.expired"),
        "count");
  }

  void teardown() override {
    for (auto& client : clients_) client->close();
    clients_.clear();
    if (server_ != nullptr) server_->stop();
    server_.reset();
    graphs_.clear();
  }

 private:
  static constexpr std::size_t kWorkers = 2;
  static constexpr std::size_t kClients = 3;
  static constexpr double kScale = 0.3;
  /// Requests of each kind (hit, cold, fresh) per pass.  The mix is
  /// synthetic: no measured vpartd traffic exists to take it from, so
  /// the three kinds of the workload's definition get equal shares.  18
  /// is the cold set's size (6 engine classes on 3 instances).
  static constexpr std::size_t kPerKind = 18;
  static constexpr std::size_t kSizeSample = 16;
  static constexpr double kNominalPassS = 2.0;
  /// Instances the server builds from presets with their own generator
  /// seeds (the protocol cannot relabel), so every workload seed serves
  /// the same standing set; the seed drives request seeds, client order
  /// and the fresh slice's generator seeds.
  std::vector<std::pair<std::string, double>> standing_instances() const {
    return {{"ibm18", scale_}, {"ibm01", scale_}, {"ibm02", scale_},
            {"ibm03", scale_}};
  }

  static svc::InstanceSpec instance_spec(const std::string& preset,
                                         double scale, std::uint64_t gen) {
    svc::InstanceSpec spec;
    spec.preset = preset;
    spec.scale = scale;
    spec.gen_seed = gen;
    return spec;
  }

  static std::string instance_label(const svc::InstanceSpec& spec) {
    return spec.preset + "@" + std::to_string(spec.scale).substr(0, 3);
  }

  /// Hit set: the ~63k-cell ibm18 ML answer and a flat answer per small
  /// instance.  Its request seeds do not depend on the workload seed: a
  /// third of the ops are hits, and a per-seed hit set would make
  /// cut_mean swing with the cuts of four requests.
  std::vector<svc::SubmitRequest> make_hit_set() const {
    std::vector<svc::SubmitRequest> set;
    for (const auto& [preset, scale] : standing_instances()) {
      svc::SubmitRequest req;
      req.instance = instance_spec(preset, scale, 0);
      req.engine = preset == "ibm18" ? "ml" : "flat";
      req.starts = preset == "ibm18" ? 1 : 4;
      req.vcycles = 1;
      req.seed = derive_seed(1, "service/hit/" + preset);
      set.push_back(req);
    }
    return set;
  }

  /// One pass: kPerKind requests of each kind -- cold requests for
  /// every engine class on ibm01-03, fresh-generator-seed requests on
  /// ibm01-03 that miss the instance cache, and hits that cycle through
  /// the primed answers, with and without their parts.  The pass's
  /// requests are shuffled by a seeded Rng and dealt to the clients in
  /// turn; pass p uses request seeds derived from p, so its cold and
  /// fresh requests miss the result cache in every pass.
  std::vector<std::vector<ServiceOp>> make_sequences(std::size_t pass) const {
    std::vector<ServiceOp> ops;
    std::uint64_t n = 0;
    const char* presets[] = {"ibm01", "ibm02", "ibm03"};
    for (const char* preset : presets) {
      for (const char* engine : {"flat", "clip", "ml", "nlevel", "evo", "kway4"}) {
        ServiceOp op;
        op.kind = "cold";
        op.engine_class = engine;
        op.req.instance = instance_spec(preset, scale_, 0);
        op.req.engine = std::string(engine) == "kway4" ? "ml" : engine;
        op.req.k = std::string(engine) == "kway4" ? 4 : 2;
        op.req.tolerance = op.req.k == 4 ? kKwayTolerance : kBisectTolerance;
        op.req.starts = cold_starts(engine);
        op.req.vcycles = 1;
        op.req.population = 4;
        op.req.generations = 2;
        op.req.include_parts = true;
        op.req.seed = derive_seed(seed_, "service/cold", pass * 1000 + n++);
        op.group = group_name(instance_label(op.req.instance), engine, op.req.k);
        ops.push_back(op);
      }
    }
    for (std::size_t i = 0; i < kPerKind; ++i) {
      const std::string preset = presets[i % 3];
      ServiceOp op;
      op.kind = "fresh";
      op.req.instance = instance_spec(
          preset, scale_, derive_seed(seed_, "service/fresh", pass * 1000 + n));
      op.req.engine = "flat";
      op.req.starts = 2;
      op.req.include_parts = true;
      op.req.seed = derive_seed(seed_, "service/fresh-req", pass * 1000 + n++);
      op.group = group_name(preset + "@fresh", "flat", 2);
      ops.push_back(op);
    }
    for (std::size_t i = 0; i < kPerKind; ++i) {
      // Answer i % 4 (0 = ibm18's); parts on the even rounds of four.
      const std::size_t h = i % hit_set_.size();
      const bool parts = (i / hit_set_.size()) % 2 == 0;
      ServiceOp op;
      op.kind = !parts ? "hit" : (h == 0 ? "hit_parts" : "hit_parts_small");
      op.hit_index = static_cast<int>(h);
      op.req = hit_set_[h];
      op.req.include_parts = parts;
      op.group = group_name(instance_label(op.req.instance), op.req.engine, 2);
      ops.push_back(op);
    }
    Rng rng(derive_seed(seed_, "service/order", pass));
    rng.shuffle(ops);
    std::vector<std::vector<ServiceOp>> seqs(kClients);
    for (std::size_t i = 0; i < ops.size(); ++i) {
      seqs[i % kClients].push_back(ops[i]);
    }
    return seqs;
  }

  static std::size_t cold_starts(const std::string& engine) {
    if (engine == "flat" || engine == "clip") return 4;
    if (engine == "ml") return 2;
    return 1;  // nlevel, evo, kway4 (per level)
  }

  static void run_client(svc::ServiceClient& client,
                         const std::vector<ServiceOp>& seq, std::size_t c,
                         std::size_t pass, bool traced,
                         std::vector<ServiceRecord>& out) {
    out.reserve(seq.size());
    for (std::size_t i = 0; i < seq.size(); ++i) {
      set_current_op(((pass * kClients + c) << 20) + i + 1);
      ServiceRecord rec;
      rec.op = &seq[i];
      const double t0 = wall_s();
      std::int64_t job = -1;
      {
        const ScopedSpan span("service.submit");
        job = client.submit(seq[i].req);
      }
      svc::JsonValue response;
      bool fetched = false;
      if (job < 0) {
        rec.transport_error = "submit: " + client.error();
      } else {
        svc::JsonValue request = svc::JsonValue::object();
        request.set("op", svc::JsonValue::string("result"));
        request.set("job", svc::JsonValue::integer(job));
        request.set("wait", svc::JsonValue::boolean(true));
        {
          const ScopedSpan span("service.fetch");
          fetched = client.request(request, response);
        }
        if (fetched) {
          rec.reply = svc::parse_reply(response);
        } else {
          rec.transport_error = "fetch: " + client.error();
        }
      }
      rec.wall_ms = 1e3 * (wall_s() - t0);
      // Reply size, from every 16th reply: re-serializing each one would
      // slow the closed loop the traced run is measuring.
      if (traced && fetched && i % kSizeSample == 0) {
        rec.response_bytes = response.dump().size();
      }
      out.push_back(std::move(rec));
    }
  }

  static std::int64_t stat(const svc::JsonValue& stats, const char* key) {
    const svc::JsonValue* v = stats.find(key);
    return v == nullptr ? 0 : v->as_int(0);
  }

  /// Recount a reply's parts against a client-side copy of its instance.
  std::string check_reply(const svc::SubmitRequest& req,
                          const svc::PartitionReply& reply) const {
    if (!reply.ok) {
      return "request failed: " + reply.state + " " + reply.error + " " +
             reply.message;
    }
    if (reply.parts.empty()) return {};
    const auto it = graphs_.find(req.instance.descriptor());
    if (it == graphs_.end()) return "no client-side instance to recount";
    return recount(req, reply, *it->second);
  }

  static std::string recount(const svc::SubmitRequest& req,
                             const svc::PartitionReply& reply,
                             const Instance& inst) {
    if (req.k == 2) {
      PartitionProblem problem = inst.problem;
      problem.balance = vlsipart::BalanceConstraint::from_tolerance(
          inst.graph.total_vertex_weight(), req.tolerance);
      return check_bipartition(problem, reply.parts, reply.cut);
    }
    return check_kway_partition(inst.graph, reply.parts, req.k, req.tolerance,
                                reply.cut);
  }

  std::string verify(const ServiceRecord& rec,
                     std::map<std::string, std::unique_ptr<Instance>>& fresh) {
    const ServiceOp& op = *rec.op;
    const svc::PartitionReply& reply = rec.reply;
    if (!reply.ok) {
      return "request failed: " + reply.state + " " + reply.error + " " +
             reply.message;
    }
    // Hits come from the primed result cache; cold requests find their
    // instance resident; fresh ones miss both.
    const bool is_hit = op.hit_index >= 0;
    const char* expected =
        is_hit ? "result" : (op.kind == "fresh" ? "none" : "instance");
    if (reply.cache != expected) {
      return "cache outcome '" + reply.cache + "' for a " + op.kind +
             " request, expected '" + expected + "'";
    }
    if (is_hit && reply.cut != hit_cut_[static_cast<std::size_t>(op.hit_index)]) {
      return "cached cut " + std::to_string(reply.cut) + " differs from first " +
             std::to_string(hit_cut_[static_cast<std::size_t>(op.hit_index)]);
    }
    if (op.req.include_parts && reply.parts.empty()) return "parts missing";
    if (reply.parts.empty()) return {};
    if (op.kind != "fresh") return check_reply(op.req, reply);
    const std::string key = op.req.instance.descriptor();
    if (fresh.find(key) == fresh.end()) {
      fresh[key] = build_instance(op.req.instance.preset, op.req.instance.scale,
                                  op.req.instance.gen_seed, 0, op.req.tolerance);
    }
    return recount(op.req, reply, *fresh[key]);
  }

  void trace_record(const ServiceRecord& rec) {
    if (rec.response_bytes > 0) response_bytes_.push_back(rec.response_bytes);
    queue_wait_ms_.push_back(1e3 * rec.reply.queue_wait_s);
    // Round trip less the server-reported queue wait: in the equal mix a
    // hit often waits for a worker busy with a cold run, and the wait is
    // measured on its own (queue_wait_ms_*).
    kind_ms_[rec.op->kind].push_back(rec.wall_ms -
                                     1e3 * rec.reply.queue_wait_s);
    if (rec.op->kind == "cold") {
      run_ms_[rec.op->engine_class].push_back(1e3 * rec.reply.run_s);
    }
  }

  std::vector<double> kind_ms(const std::string& kind) const {
    const auto it = kind_ms_.find(kind);
    return it == kind_ms_.end() ? std::vector<double>{} : it->second;
  }

  std::uint64_t seed_;
  double scale_;
  std::map<std::string, std::unique_ptr<Instance>> graphs_;
  std::unique_ptr<svc::PartitionService> server_;
  std::vector<std::unique_ptr<svc::ServiceClient>> clients_;
  std::vector<svc::SubmitRequest> hit_set_;
  std::vector<Weight> hit_cut_;
  std::vector<std::size_t> hit_parts_;
  // Traced passes only.
  std::vector<std::size_t> response_bytes_;
  std::vector<double> queue_wait_ms_;
  std::map<std::string, std::vector<double>> kind_ms_;
  std::map<std::string, std::vector<double>> run_ms_;
};

}  // namespace

std::vector<std::string> workload_names() {
  return {"flat-fm", "multilevel", "service"};
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, double size) {
  if (name == "flat-fm") return std::make_unique<FlatFmWorkload>(seed, size);
  if (name == "multilevel") {
    return std::make_unique<MultilevelWorkload>(seed, size);
  }
  if (name == "service") return std::make_unique<ServiceWorkload>(seed, size);
  return nullptr;
}

std::uint64_t derive_seed(std::uint64_t seed, const std::string& tag,
                          std::uint64_t index) {
  Digest digest;
  digest.add(seed);
  digest.add(tag);
  digest.add(index);
  std::uint64_t state = digest.value();
  // 53 bits: seeds travel through the service protocol, whose JSON
  // numbers are doubles.
  const std::uint64_t out = vlsipart::splitmix64(state) & ((1ULL << 53) - 1);
  return out == 0 ? 1 : out;
}

std::unique_ptr<Instance> build_instance(const std::string& preset,
                                         double scale, std::uint64_t gen_seed,
                                         std::uint64_t relabel_seed,
                                         double tolerance) {
  vlsipart::GenConfig config = vlsipart::preset(preset);
  if (scale != 1.0) config = config.scaled(scale);
  if (gen_seed != 0) config.seed = gen_seed;
  vlsipart::Hypergraph generated;
  {
    const ScopedSpan span("gen.generate");
    generated = vlsipart::generate_netlist(config);
    if (relabel_seed != 0) {
      Rng rng(relabel_seed);
      generated = relabel(generated, rng);
    }
  }
  std::ostringstream text;
  vlsipart::write_hmetis(generated, text);
  auto inst = std::make_unique<Instance>();
  inst->name = scale == 1.0 ? preset
                            : preset + "@" + std::to_string(scale).substr(0, 3);
  {
    const ScopedSpan span("io.hgr_parse");
    std::istringstream in(text.str());
    inst->graph = vlsipart::read_hmetis(in, inst->name);
  }
  const vlsipart::Hypergraph& g = inst->graph;
  if (g.num_vertices() != generated.num_vertices() ||
      g.num_edges() != generated.num_edges() ||
      g.num_pins() != generated.num_pins() ||
      g.total_vertex_weight() != generated.total_vertex_weight() ||
      g.total_edge_weight() != generated.total_edge_weight()) {
    throw std::runtime_error("hgr round trip changed instance " + inst->name);
  }
  inst->problem.graph = &inst->graph;
  inst->problem.balance = vlsipart::BalanceConstraint::from_tolerance(
      g.total_vertex_weight(), tolerance);
  return inst;
}

}  // namespace e2ebench
