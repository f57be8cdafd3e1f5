// Google-benchmark microbenchmarks for the performance-critical kernels:
// gain-container operations, incremental partition-state moves, one FM
// pass, the k-way polish, one coarsening level, the .hgr reader and
// writer, and a vpartd reply with parts through the JSON layer.  These
// guard the "Do make it fast enough / Do measure CPU time" maxims [19] —
// a slow testbed invalidates runtime-regime conclusions.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "src/gen/netlist_gen.h"
#include "src/io/hmetis_io.h"
#include "src/part/core/fm_refiner.h"
#include "src/part/core/gain_container.h"
#include "src/part/core/initial.h"
#include "src/part/core/parallel_refine.h"
#include "src/part/evo/evo_partitioner.h"
#include "src/part/kway/kway_refiner.h"
#include "src/part/kway/recursive_bisection.h"
#include "src/part/ml/coarsen.h"
#include "src/part/ml/parallel_coarsen.h"
#include "src/part/nlevel/nlevel_graph.h"
#include "src/part/nlevel/nlevel_partitioner.h"
#include "src/service/client.h"
#include "src/service/json.h"
#include "src/util/prefetch.h"
#include "src/util/thread_pool.h"

namespace vlsipart {
namespace {

void BM_GainContainerInsertRemove(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  GainContainer c(n, InsertOrder::kLifo);
  Rng rng(1);
  for (auto _ : state) {
    c.reset(64);
    for (VertexId v = 0; v < n; ++v) {
      c.insert(v, static_cast<PartId>(v & 1),
               static_cast<Gain>(v % 129) - 64, rng);
    }
    for (VertexId v = 0; v < n; ++v) c.remove(v);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n));
}
BENCHMARK(BM_GainContainerInsertRemove)->Arg(1024)->Arg(16384);

void BM_GainContainerUpdateKey(benchmark::State& state) {
  constexpr std::size_t kN = 4096;
  GainContainer c(kN, InsertOrder::kLifo);
  Rng rng(2);
  c.reset(64);
  for (VertexId v = 0; v < kN; ++v) {
    c.insert(v, static_cast<PartId>(v & 1), 0, rng);
  }
  VertexId v = 0;
  for (auto _ : state) {
    c.update_key(v, (v & 1) ? 3 : -3, rng);
    v = (v + 1) % kN;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_GainContainerUpdateKey);

void BM_PartitionStateMove(benchmark::State& state) {
  const Hypergraph h = generate_netlist(preset("medium"));
  PartitionState s(h);
  Rng rng(3);
  std::vector<PartId> parts(h.num_vertices());
  for (auto& p : parts) p = static_cast<PartId>(rng.below(2));
  s.assign(parts);
  VertexId v = 0;
  for (auto _ : state) {
    s.move(v);
    v = static_cast<VertexId>((v + 17) % h.num_vertices());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PartitionStateMove);

void BM_FmFullRefine(benchmark::State& state) {
  const Hypergraph h = generate_netlist(preset("medium"));
  PartitionProblem p;
  p.graph = &h;
  p.balance =
      BalanceConstraint::from_tolerance(h.total_vertex_weight(), 0.02);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    Rng rng(++seed);
    auto parts = random_initial(p, rng);
    PartitionState s(h);
    s.assign(parts);
    FmRefiner refiner(p, FmConfig{});
    benchmark::DoNotOptimize(refiner.refine(s, rng));
  }
}
BENCHMARK(BM_FmFullRefine)->Unit(benchmark::kMillisecond);

// The direct k-way polish as recursive bisection runs it (two passes)
// on the unpolished RB parts of ibm10@0.3, k = 4: an instance with
// clock-class nets, whose every move touches thousands of pins.
void BM_KwayPolish(benchmark::State& state) {
  const Hypergraph h = generate_netlist(preset("ibm10").scaled(0.3));
  KwayConfig config;
  config.k = 4;
  config.refine_passes = 0;
  const std::vector<PartId> rb_parts = recursive_bisection(h, config).parts;
  const KwayProblem p = KwayProblem::uniform(h, config.k, config.tolerance);
  for (auto _ : state) {
    KwayState s(h, config.k);
    s.assign(rb_parts);
    KwayFmRefiner refiner(p, /*max_passes=*/2);
    benchmark::DoNotOptimize(refiner.refine(s));
  }
}
BENCHMARK(BM_KwayPolish)->Unit(benchmark::kMillisecond);

// Delta-gain-heavy scenario: a medium instance with many huge clock/
// reset-class nets (the shape vlsipart::gen deliberately produces).  The
// classic per-pin gain-update walk makes every move O(pins of all
// incident nets); the net-state-aware inner loop skips nets whose pin
// counts stay >= 2 on both sides across the move.  Reported rate is
// FM *moves per second* (items/s).
void BM_FmDeltaGainLargeNets(benchmark::State& state) {
  GenConfig cfg = preset("medium");
  cfg.name = "medium-hugenets";
  cfg.num_huge_nets = 16;
  cfg.huge_net_span_fraction = 0.10;
  const Hypergraph h = generate_netlist(cfg);
  PartitionProblem p;
  p.graph = &h;
  p.balance =
      BalanceConstraint::from_tolerance(h.total_vertex_weight(), 0.10);
  FmRefiner refiner(p, FmConfig{});
  PartitionState s(h);
  std::uint64_t seed = 0;
  std::size_t moves = 0;
  for (auto _ : state) {
    Rng rng(++seed);
    auto parts = random_initial(p, rng);
    s.assign(parts);
    const FmResult r = refiner.refine(s, rng);
    moves += r.total_moves;
    benchmark::DoNotOptimize(r.final_cut);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(moves));
}
BENCHMARK(BM_FmDeltaGainLargeNets)->Unit(benchmark::kMillisecond);

// Sparse-reset cost of the SoA gain container: a pass touches a handful
// of buckets out of a key range sized for the max weighted degree, and
// reset() must pay O(touched + contained), not O(key range).  The key
// range here is deliberately huge (max_abs_key = 32768 -> 65537 buckets
// per side) while only Arg(0) vertices are inserted; throughput is
// reported per inserted vertex, so a reset secretly sweeping the bucket
// array would crater the rate at the small Arg.
void BM_GainBucketSparseReset(benchmark::State& state) {
  const auto touched = static_cast<std::size_t>(state.range(0));
  constexpr Gain kMaxAbsKey = 32768;
  GainContainer c(touched, InsertOrder::kLifo);
  Rng rng(7);
  c.reset(kMaxAbsKey);  // first reset pays the full initialization
  for (auto _ : state) {
    for (VertexId v = 0; v < touched; ++v) {
      const Gain key =
          static_cast<Gain>((static_cast<Gain>(v) * 2654435761LL) %
                            (2 * kMaxAbsKey + 1)) -
          kMaxAbsKey;
      c.insert(v, static_cast<PartId>(v & 1), key, rng);
    }
    c.reset(kMaxAbsKey);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(touched));
}
BENCHMARK(BM_GainBucketSparseReset)->Arg(64)->Arg(1024);

// CSR pin-walk gather with and without software prefetch, modelling the
// FM pass's delta-gain inner loop on an ibm18-class instance: for each
// net, gather the one per-vertex stream the walk reads per pin, the
// gain container's bucket slot (membership and side both derive from
// it).  Arg(0) = plain walk, Arg(1) = prefetched walk with the
// refiner's gating (distance 8, nets >= 16 pins only).  The slot array
// exceeds L1/L2 on this instance so the gathers genuinely miss; on
// hardware where they do not (or with a compiler that ignores the
// hint) the two variants simply track.
template <bool kPrefetch>
std::int64_t pin_walk_sum(const Hypergraph& h,
                          const std::vector<std::uint32_t>& bucket) {
  constexpr std::size_t kDistance = 8;
  constexpr std::size_t kMinPins = 16;
  std::int64_t sum = 0;
  for (std::size_t e = 0; e < h.num_edges(); ++e) {
    const auto pins = h.pins(static_cast<EdgeId>(e));
    if constexpr (kPrefetch) {
      const std::size_t prefetch_end =
          pins.size() >= kMinPins ? pins.size() - kDistance : 0;
      for (std::size_t j = 0; j < pins.size(); ++j) {
        if (j < prefetch_end) VP_PREFETCH_READ(&bucket[pins[j + kDistance]]);
        sum += bucket[pins[j]];
      }
    } else {
      for (const VertexId v : pins) sum += bucket[v];
    }
  }
  return sum;
}

void BM_PinWalkPrefetch(benchmark::State& state) {
  GenConfig cfg = preset("ibm18");
  cfg.num_huge_nets = 16;
  cfg.huge_net_span_fraction = 0.10;
  static const Hypergraph h = generate_netlist(cfg);
  Rng rng(11);
  std::vector<std::uint32_t> bucket(h.num_vertices());
  for (std::size_t v = 0; v < h.num_vertices(); ++v) {
    bucket[v] = static_cast<std::uint32_t>(rng.below(1 << 16));
  }
  const bool prefetch = state.range(0) != 0;
  std::int64_t pins_walked = 0;
  for (auto _ : state) {
    const std::int64_t sum = prefetch ? pin_walk_sum<true>(h, bucket)
                                      : pin_walk_sum<false>(h, bucket);
    benchmark::DoNotOptimize(sum);
    pins_walked += static_cast<std::int64_t>(h.num_pins());
  }
  state.SetItemsProcessed(pins_walked);
}
BENCHMARK(BM_PinWalkPrefetch)->Arg(0)->Arg(1);

// Synchronous-round parallel refinement at Arg(0) threads on a medium
// instance.  The result is bit-identical at every arg (the determinism
// ctest enforces that); the arg sweep measures the round protocol's
// scaling — freeze/propose fan out over vertex shards, the prefix-scan
// commit stays serial.  On single-core runners the >1 args measure pure
// round-protocol overhead over the 1-thread-pool case.
void BM_ParallelRefine(benchmark::State& state) {
  const Hypergraph h = generate_netlist(preset("medium"));
  PartitionProblem p;
  p.graph = &h;
  p.balance =
      BalanceConstraint::from_tolerance(h.total_vertex_weight(), 0.02);
  ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  std::uint64_t seed = 0;
  for (auto _ : state) {
    Rng rng(++seed);
    auto parts = random_initial(p, rng);
    PartitionState s(h);
    s.assign(parts);
    ParallelFmRefiner refiner(p, FmConfig{}, &pool);
    benchmark::DoNotOptimize(refiner.refine(s, rng));
  }
}
BENCHMARK(BM_ParallelRefine)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

// Deterministic parallel heavy-edge coarsening, one level, at Arg(0)
// threads: the rating phase shards over vertices, resolution is serial.
void BM_ParallelCoarsenOneLevel(benchmark::State& state) {
  const Hypergraph h = generate_netlist(preset("medium"));
  ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  ContractionMemory memory;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        parallel_coarsen_once(h, CoarsenConfig{}, {}, {}, &pool, &memory));
  }
}
BENCHMARK(BM_ParallelCoarsenOneLevel)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_CoarsenOneLevel(benchmark::State& state) {
  const Hypergraph h = generate_netlist(preset("medium"));
  std::uint64_t seed = 0;
  for (auto _ : state) {
    Rng rng(++seed);
    benchmark::DoNotOptimize(
        coarsen_once(h, CoarsenConfig{}, {}, {}, rng));
  }
}
BENCHMARK(BM_CoarsenOneLevel)->Unit(benchmark::kMillisecond);

// The n-level undo log: contract a random half of the medium instance
// one vertex at a time (untimed), then time the full uncontraction
// unwind — the per-uncontraction cost is what keeps n-level viable
// (O(degree of the split vertex), no graph rebuilds).
void BM_NlevelUncontract(benchmark::State& state) {
  const Hypergraph h = generate_netlist(preset("medium"));
  NlevelGraph g;
  // Deterministic contraction schedule, precomputed once: pair vertex
  // 2i+1 into 2i (both always active at contraction time).
  std::vector<std::pair<VertexId, VertexId>> schedule;
  for (VertexId u = 0; u + 1 < h.num_vertices(); u += 2) {
    schedule.push_back({u, static_cast<VertexId>(u + 1)});
  }
  std::vector<EdgeId> reactivated;
  for (auto _ : state) {
    state.PauseTiming();
    g.bind(h);
    for (const auto& [u, v] : schedule) g.contract(u, v);
    state.ResumeTiming();
    while (g.num_contractions() > 0) {
      reactivated.clear();
      benchmark::DoNotOptimize(g.uncontract(&reactivated));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(schedule.size()));
}
BENCHMARK(BM_NlevelUncontract)->Unit(benchmark::kMillisecond);

// One full n-level start on the medium instance: heavy-edge contraction
// down to 96 clusters, the coarsest FM solve, then one localized
// delta-gain FM search per uncontraction and the final flat sweep.  The
// local searches dominate; this is the per-start cost nlevel pays in
// every multistart and vpartd request.
void BM_NlevelRun(benchmark::State& state) {
  const Hypergraph h = generate_netlist(preset("medium"));
  PartitionProblem problem;
  problem.graph = &h;
  problem.balance =
      BalanceConstraint::from_tolerance(h.total_vertex_weight(), 0.10);
  NlevelPartitioner engine(NlevelConfig{});
  std::vector<PartId> parts;
  for (auto _ : state) {
    Rng rng(1);  // same start every iteration: fixed work per iteration
    benchmark::DoNotOptimize(engine.run(problem, rng, parts));
  }
}
BENCHMARK(BM_NlevelRun)->Unit(benchmark::kMillisecond);

// One memetic generation over a seeded population on the tiny instance:
// the steady-state cost of the evolutionary loop (offspring V-cycles +
// elitist replacement), dominated by the recombination descents.
void BM_EvoGeneration(benchmark::State& state) {
  const Hypergraph h = generate_netlist(preset("tiny"));
  PartitionProblem problem;
  problem.graph = &h;
  problem.balance =
      BalanceConstraint::from_tolerance(h.total_vertex_weight(), 0.10);
  EvoConfig config;
  config.population = 4;
  config.generations = 1;
  EvoPartitioner engine(config);
  std::uint64_t seed = 0;
  std::vector<PartId> parts;
  for (auto _ : state) {
    Rng rng(++seed);
    benchmark::DoNotOptimize(engine.run(problem, rng, parts));
  }
  // Four offspring per generation (the engine's constant).
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 4);
}
BENCHMARK(BM_EvoGeneration)->Unit(benchmark::kMillisecond);

// Instance set-up: the .hgr text of ibm18@0.3 (~1.1 MB, the multilevel
// e2ebench instance) parsed from memory, and written back to memory.
std::string ibm18_hgr_text() {
  std::ostringstream out;
  write_hmetis(generate_netlist(preset("ibm18").scaled(0.3)), out);
  return out.str();
}

void BM_HmetisRead(benchmark::State& state) {
  const std::string text = ibm18_hgr_text();
  for (auto _ : state) {
    std::istringstream in(text);
    benchmark::DoNotOptimize(read_hmetis(in));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_HmetisRead)->Unit(benchmark::kMillisecond);

void BM_HmetisWrite(benchmark::State& state) {
  const std::string text = ibm18_hgr_text();
  std::istringstream in(text);
  const Hypergraph h = read_hmetis(in);
  for (auto _ : state) {
    std::ostringstream out;
    write_hmetis(h, out);
    benchmark::DoNotOptimize(&out);
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_HmetisWrite)->Unit(benchmark::kMillisecond);

// A vpartd result reply carrying the 63,184 parts of ibm18@0.3, as a
// result-cache hit with parts serves it: the server builds the reply
// object and dumps it, the client parses the text and reads the reply.
void BM_JsonPartsRoundTrip(benchmark::State& state) {
  constexpr std::size_t kParts = 63184;
  std::vector<PartId> parts(kParts);
  Rng rng(18);
  for (PartId& p : parts) p = static_cast<PartId>(rng.below(2));
  std::size_t bytes = 0;
  for (auto _ : state) {
    service::JsonValue reply = service::JsonValue::object();
    reply.set("ok", service::JsonValue::boolean(true));
    reply.set("job", service::JsonValue::integer(1));
    reply.set("state", service::JsonValue::string("done"));
    reply.set("cut", service::JsonValue::integer(1234));
    reply.set("cache", service::JsonValue::string("result"));
    reply.set("queue_wait_s", service::JsonValue::number(1.5e-5));
    reply.set("run_s", service::JsonValue::number(0.0));
    reply.set("run_cpu_s", service::JsonValue::number(0.0));
    service::JsonValue array = service::JsonValue::array();
    for (const PartId p : parts) array.push(service::JsonValue::integer(p));
    reply.set("parts", std::move(array));
    const std::string text = reply.dump();
    service::JsonValue parsed;
    if (!service::parse_json(text, parsed, nullptr)) {
      state.SkipWithError("reply did not parse");
      break;
    }
    const service::PartitionReply back = service::parse_reply(parsed);
    benchmark::DoNotOptimize(back.parts.data());
    bytes = text.size();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_JsonPartsRoundTrip)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace vlsipart

#ifndef VLSIPART_BUILD_TYPE
#define VLSIPART_BUILD_TYPE "unknown"
#endif
#ifndef VLSIPART_CXX_FLAGS
#define VLSIPART_CXX_FLAGS ""
#endif

// Custom main instead of BENCHMARK_MAIN(): stamp the *repository's*
// build type and optimization flags into the JSON context.  The
// library_build_type field google-benchmark emits describes how
// libbenchmark itself was compiled (the system package is a debug
// build), not this code — comparisons must key off vlsipart_build_type.
int main(int argc, char** argv) {
  benchmark::AddCustomContext("vlsipart_build_type", VLSIPART_BUILD_TYPE);
  benchmark::AddCustomContext("vlsipart_cxx_flags", VLSIPART_CXX_FLAGS);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
