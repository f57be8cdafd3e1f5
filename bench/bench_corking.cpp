// Corking incidence traces (Sec. 2.3).
//
// "Traces of CLIP executions show that corking actually occurs fairly
// often, particularly with the more modern ISPD98 actual-area
// benchmarks."  This bench measures, per instance and tolerance, the
// fraction of CLIP runs that suffer at least one zero-move (corked)
// pass, contrasting actual-area instances with unit-area versions of the
// same topology (the MCNC-style setting where corking stays hidden).
//
// Expected shape: frequent corking on actual areas at tight (2%)
// tolerance; none on unit areas; the fix eliminates it everywhere.
#include "bench/bench_common.h"

using namespace vlsipart;
using namespace vlsipart::bench;

namespace {

Hypergraph unit_area_copy(const Hypergraph& h) {
  HypergraphBuilder b(h.num_vertices());
  std::vector<VertexId> pins;
  for (std::size_t e = 0; e < h.num_edges(); ++e) {
    const auto span = h.pins(static_cast<EdgeId>(e));
    pins.assign(span.begin(), span.end());
    b.add_edge(pins, h.edge_weight(static_cast<EdgeId>(e)));
  }
  return b.finalize(h.name() + ".unit");
}

struct CorkStats {
  std::size_t corked_runs = 0;
  std::size_t stalled_passes = 0;
  double avg_cut = 0.0;
};

CorkStats measure(const PartitionProblem& problem, const FmConfig& cfg,
                  std::size_t runs, std::uint64_t seed) {
  CorkStats stats;
  FlatFmPartitioner engine(cfg);
  Rng base(seed);
  std::vector<PartId> parts;
  double total_cut = 0.0;
  for (std::size_t i = 0; i < runs; ++i) {
    Rng rng = base.fork(i);
    total_cut += static_cast<double>(engine.run(problem, rng, parts));
    const FmResult& r = engine.last_result();
    if (r.zero_move_passes > 0) ++stats.corked_runs;
    stats.stalled_passes += r.stalled_passes;
  }
  stats.avg_cut = total_cut / static_cast<double>(runs);
  return stats;
}

}  // namespace

static int run(int argc, char** argv) {
  const BenchOptions opt = parse_options(argc, argv, "ibm01,ibm02,ibm03",
                                         /*default_runs=*/20,
                                         /*default_scale=*/0.5);

  TextTable table({"case", "areas", "tol", "variant", "corked runs",
                   "stalled passes", "avg cut"});

  for (const auto& name : opt.cases) {
    const Hypergraph actual = make_instance(name, opt.scale);
    const Hypergraph unit = unit_area_copy(actual);
    for (const Hypergraph* h : {&actual, &unit}) {
      const bool is_unit = (h == &unit);
      for (const double tol : {0.02, 0.10}) {
        const PartitionProblem problem = make_problem(*h, tol);
        struct Variant {
          const char* label;
          FmConfig cfg;
        };
        const Variant variants[] = {
            {"CLIP as published", reported_clip()},
            {"CLIP + fix", our_clip()},
        };
        for (const Variant& v : variants) {
          const CorkStats s = measure(problem, v.cfg, opt.runs, opt.seed);
          table.add_row({name, is_unit ? "unit" : "actual",
                         fmt_fixed(tol * 100.0, 0) + "%", v.label,
                         std::to_string(s.corked_runs) + "/" +
                             std::to_string(opt.runs),
                         std::to_string(s.stalled_passes),
                         fmt_fixed(s.avg_cut, 1)});
        }
      }
    }
  }

  std::printf("Corking traces: CLIP zero-move passes by area model and "
              "tolerance (%zu runs, scale %.2f)\n\n",
              opt.runs, opt.scale);
  emit(table, opt, "Corking incidence");
  return 0;
}

int main(int argc, char** argv) {
  return cli_main(argc, argv, run);
}
