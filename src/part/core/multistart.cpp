#include "src/part/core/multistart.h"

#include <algorithm>
#include <limits>
#include <memory>

#include "src/util/thread_pool.h"
#include "src/util/timer.h"

namespace vlsipart {

namespace {

constexpr Weight kNoCut = std::numeric_limits<Weight>::max();
constexpr std::size_t kNoIndex = std::numeric_limits<std::size_t>::max();

/// Thread-local best of the starts one worker executed.  Merging worker
/// bests by lexicographic (cut, index) min reproduces the serial
/// selection rule — lowest start index among the minimum-cut feasible
/// starts — independent of how starts were scheduled.
struct LocalBest {
  Weight cut = kNoCut;
  std::size_t index = kNoIndex;
  std::vector<PartId> parts;

  void offer(Weight c, std::size_t i, const std::vector<PartId>& p) {
    if (c < cut || (c == cut && i < index)) {
      cut = c;
      index = i;
      parts = p;
    }
  }
};

LocalBest merge_bests(std::vector<LocalBest>& bests) {
  LocalBest merged;
  for (LocalBest& b : bests) {
    if (b.index == kNoIndex) continue;
    if (b.cut < merged.cut || (b.cut == merged.cut && b.index < merged.index)) {
      merged.cut = b.cut;
      merged.index = b.index;
      merged.parts = std::move(b.parts);
    }
  }
  return merged;
}

}  // namespace

Weight MultistartResult::min_cut() const {
  Weight best = std::numeric_limits<Weight>::max();
  for (const auto& s : starts) {
    if (s.feasible) best = std::min(best, s.cut);
  }
  if (best == std::numeric_limits<Weight>::max()) {
    // No feasible start: report the raw minimum so tables stay readable.
    for (const auto& s : starts) best = std::min(best, s.cut);
  }
  return best;
}

double MultistartResult::avg_cut() const {
  if (starts.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& s : starts) sum += static_cast<double>(s.cut);
  return sum / static_cast<double>(starts.size());
}

double MultistartResult::avg_cpu_seconds() const {
  if (starts.empty()) return 0.0;
  return total_cpu_seconds / static_cast<double>(starts.size());
}

Sample MultistartResult::cut_sample() const {
  Sample s;
  s.reserve(starts.size());
  for (const auto& r : starts) s.add(static_cast<double>(r.cut));
  return s;
}

MultistartResult run_multistart(const PartitionProblem& problem,
                                Bipartitioner& partitioner,
                                std::size_t num_starts, std::uint64_t seed,
                                std::size_t num_threads) {
  const std::size_t workers =
      std::max<std::size_t>(1, std::min(num_threads, num_starts));

  MultistartResult result;
  WallTimer wall;
  Rng base(seed);
  result.starts.resize(num_starts);
  std::vector<LocalBest> bests(workers);
  std::vector<std::vector<PartId>> parts_buf(workers);

  // The one per-start body: start i is a pure function of base.fork(i)
  // and its index, whichever engine and worker slot execute it.
  auto run_one = [&](Bipartitioner& engine, std::size_t w, std::size_t i) {
    Rng rng = base.fork(i);
    const UpdateWork work_before = engine.update_work();
    ThreadCpuTimer timer;
    const Weight cut = engine.run_start(problem, rng, parts_buf[w], i);
    StartRecord& record = result.starts[i];  // distinct index: race-free
    record.cut = cut;
    record.cpu_seconds = timer.elapsed();
    record.work = UpdateWork::delta(engine.update_work(), work_before);
    record.feasible = check_solution(problem, parts_buf[w]).empty();
    if (record.feasible) bests[w].offer(cut, i, parts_buf[w]);
  };

  if (workers == 1) {
    // One worker runs inline on the caller's engine: no pool, no clone.
    for (std::size_t i = 0; i < num_starts; ++i) run_one(partitioner, 0, i);
  } else {
    std::vector<std::unique_ptr<Bipartitioner>> engines;
    engines.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      engines.push_back(partitioner.clone());
    }
    ThreadPool pool(workers);
    pool.parallel_for_dynamic(num_starts, [&](std::size_t w, std::size_t i) {
      run_one(*engines[w], w, i);
    });
  }

  for (const StartRecord& r : result.starts) {
    result.total_cpu_seconds += r.cpu_seconds;
    result.update_work.absorb(r.work);
  }
  LocalBest merged = merge_bests(bests);
  result.best_cut = (merged.index == kNoIndex) ? 0 : merged.cut;
  result.best_parts = std::move(merged.parts);
  result.wall_seconds = wall.elapsed();
  result.threads_used = workers;
  return result;
}

PrunedMultistartResult run_multistart_pruned(const PartitionProblem& problem,
                                             const FmConfig& config,
                                             std::size_t num_starts,
                                             std::uint64_t seed,
                                             const PruneConfig& prune) {
  PrunedMultistartResult out;
  MultistartResult& result = out.result;
  WallTimer wall;
  Rng base(seed);

  FmConfig pass1_config = config;
  pass1_config.max_passes = 1;

  result.starts.reserve(num_starts);
  Weight best = kNoCut;
  Weight best_pass1 = kNoCut;
  for (std::size_t i = 0; i < num_starts; ++i) {
    Rng rng = base.fork(i);
    ThreadCpuTimer timer;

    auto parts = make_initial(problem, config.initial_scheme, i, rng);
    PartitionState state(*problem.graph);
    state.assign(parts);
    FmRefiner pass1(problem, pass1_config);
    pass1.refine(state, rng);
    const Weight pass1_cut = state.cut();

    StartRecord record;
    const bool doomed =
        best_pass1 != kNoCut &&
        static_cast<double>(pass1_cut) >
            prune.factor * static_cast<double>(best_pass1);
    best_pass1 = std::min(best_pass1, pass1_cut);

    if (doomed) {
      record.cut = pass1_cut;
      record.cpu_seconds = timer.elapsed();
      record.feasible = false;  // discarded; never competes for best
      ++out.pruned_starts;
      out.pruned_cpu_seconds += record.cpu_seconds;
    } else {
      FmRefiner rest(problem, config);
      rest.refine(state, rng);
      record.cut = state.cut();
      record.cpu_seconds = timer.elapsed();
      record.feasible = check_solution(problem, state.parts()).empty();
      if (record.feasible && record.cut < best) {
        best = record.cut;
        result.best_parts = state.parts();
      }
    }
    result.total_cpu_seconds += record.cpu_seconds;
    result.starts.push_back(record);
  }
  result.best_cut = (best == kNoCut) ? 0 : best;
  result.wall_seconds = wall.elapsed();
  return out;
}

}  // namespace vlsipart
