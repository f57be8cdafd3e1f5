#include "src/part/evo/evo_partitioner.h"

#include <algorithm>
#include <numeric>

#include "src/util/logging.h"

namespace vlsipart {
namespace {

// The operator settings are constants: in the knobs audit (EXPERIMENTS.md)
// no alternative (2 or 8 offspring, mutation every 2nd or never, 2 or 32
// flips) gave a significantly lower cut on ibm01-03.
/// Offspring produced per generation.
constexpr std::size_t kOffspring = 4;
/// Every kMutationPeriod-th offspring is a mutation instead of a
/// recombination.
constexpr std::size_t kMutationPeriod = 4;
/// Free vertices flipped (uniformly, with replacement) before the
/// mutation V-cycle.
constexpr std::size_t kMutationSize = 8;

}  // namespace

EvoPartitioner::EvoPartitioner(EvoConfig config, std::size_t threads)
    : config_(config), threads_(threads) {}

std::unique_ptr<Bipartitioner> EvoPartitioner::clone() const {
  return std::make_unique<EvoPartitioner>(config_, threads_);
}

UpdateWork EvoPartitioner::update_work() const {
  UpdateWork total;
  for (const auto& e : engines_) {
    if (e != nullptr) total.absorb(e->update_work());
  }
  return total;
}

MlPartitioner* EvoPartitioner::engine(std::size_t worker) {
  if (worker >= engines_.size()) engines_.resize(worker + 1);
  if (engines_[worker] == nullptr) {
    engines_[worker] = std::make_unique<MlPartitioner>(config_.ml);
  }
  return engines_[worker].get();
}

ThreadPool* EvoPartitioner::acquire_pool() {
  if (threads_ <= 1) return nullptr;
  if (pool_ == nullptr) pool_ = std::make_unique<ThreadPool>(threads_);
  return pool_.get();
}

bool EvoPartitioner::rank_less(const Individual& a, const Individual& b) {
  const bool a_feasible = a.excess == 0;
  const bool b_feasible = b.excess == 0;
  if (a_feasible != b_feasible) return a_feasible;
  if (a.cut != b.cut) return a.cut < b.cut;
  if (a.excess != b.excess) return a.excess < b.excess;
  return a.id < b.id;
}

void EvoPartitioner::evaluate(const PartitionProblem& problem,
                              Individual& ind) const {
  const Hypergraph& h = *problem.graph;
  ind.cut = compute_cut(h, ind.parts);
  Weight w[2] = {0, 0};
  for (std::size_t v = 0; v < h.num_vertices(); ++v) {
    w[ind.parts[v] & 1] += h.vertex_weight(static_cast<VertexId>(v));
  }
  const BalanceConstraint& b = problem.balance;
  Weight excess = 0;
  for (int p = 0; p < 2; ++p) {
    if (w[p] > b.max_part()) excess += w[p] - b.max_part();
    if (w[p] < b.min_part()) excess += b.min_part() - w[p];
  }
  ind.excess = excess;
}

Weight EvoPartitioner::run(const PartitionProblem& problem, Rng& rng,
                           std::vector<PartId>& parts) {
  const Hypergraph& h = *problem.graph;
  const std::size_t n = h.num_vertices();
  const std::size_t pop_size = std::max<std::size_t>(1, config_.population);
  const std::vector<PartId>& fixed = problem.fixed;

  // Run body(i) for i in [0, count) on the evo workers (or inline when
  // serial).  Each body draws only from its own fork stream and a
  // per-worker engine, so the schedule never reaches the result.
  ThreadPool* pool = acquire_pool();
  const auto for_each = [&](std::size_t count,
                            const std::function<void(std::size_t worker,
                                                     std::size_t i)>& body) {
    if (pool != nullptr) {
      pool->parallel_for_dynamic(count, body);
    } else {
      for (std::size_t i = 0; i < count; ++i) body(0, i);
    }
  };
  // Engines must exist before the parallel section: engine() resizes the
  // vector, which two workers may not do concurrently.
  for (std::size_t w = 0; w < (pool != nullptr ? pool->num_threads() : 1); ++w) {
    engine(w);
  }

  // --- Seeding: population independent ML starts, streams 0..P-1. ---
  std::vector<Individual> population(pop_size);
  for_each(pop_size, [&](std::size_t worker, std::size_t i) {
    Rng child = rng.fork(i);
    engine(worker)->run(problem, child, population[i].parts);
    population[i].id = i;
    evaluate(problem, population[i]);
  });

  struct OffspringSpec {
    bool mutate = false;
    std::size_t parent1 = 0;  // the better-ranked parent; offspring start
    std::size_t parent2 = 0;  // second parent of a recombination
    std::uint64_t stream = 0;
    std::uint64_t id = 0;
  };
  std::uint64_t next_id = pop_size;
  std::vector<std::size_t> order(pop_size);
  std::vector<OffspringSpec> specs(kOffspring);
  std::vector<Individual> offspring(kOffspring);

  for (std::size_t g = 0; g < config_.generations; ++g) {
    // Rank snapshot of the current population (total order — the sort is
    // deterministic regardless of algorithm stability).
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return rank_less(population[a], population[b]);
    });

    // Offspring specs are fixed BEFORE the parallel section: stream ids
    // continue the fork counter, parents walk the rank order so the best
    // individuals recombine most often but everyone participates.
    for (std::size_t j = 0; j < kOffspring; ++j) {
      OffspringSpec& s = specs[j];
      s.mutate = (j + 1) % kMutationPeriod == 0;
      s.parent1 = order[j % pop_size];
      s.parent2 = order[(j + 1) % pop_size];
      s.stream = pop_size + g * kOffspring + j;
      s.id = next_id++;
    }

    for_each(kOffspring, [&](std::size_t worker, std::size_t j) {
      const OffspringSpec& s = specs[j];
      Individual& kid = offspring[j];
      Rng child = rng.fork(s.stream);
      kid.parts = population[s.parent1].parts;
      if (s.mutate) {
        // Perturb, then let a V-cycle repair: the engine only accepts
        // the V-cycle result when feasible and not worse than the
        // PERTURBED solution, so mutants can be worse than their parent
        // (that is the point — elitist replacement discards failures).
        for (std::size_t t = 0; t < kMutationSize; ++t) {
          const VertexId v = static_cast<VertexId>(child.below(n));
          if (fixed.empty() || fixed[v] == kNoPart) kid.parts[v] ^= 1;
        }
        engine(worker)->vcycle(problem, child, kid.parts);
      } else {
        // Recombination: coarsening may only cluster vertices on which
        // BOTH parents agree, so the V-cycle explores the subspace
        // spanned by the parents.  The guide refines kid.parts (= the
        // first parent) by construction.
        const std::vector<PartId>& p1 = population[s.parent1].parts;
        const std::vector<PartId>& p2 = population[s.parent2].parts;
        std::vector<PartId> guide(n);
        for (std::size_t v = 0; v < n; ++v) {
          guide[v] = static_cast<PartId>(2 * (p1[v] & 1) + (p2[v] & 1));
        }
        engine(worker)->vcycle_guided(problem, child, kid.parts, guide);
      }
      kid.id = s.id;
      evaluate(problem, kid);
    });

    // Elitist replacement: parents and offspring compete as one pool.
    for (Individual& kid : offspring) population.push_back(std::move(kid));
    std::sort(population.begin(), population.end(), rank_less);
    population.resize(pop_size);
  }

  std::size_t best = 0;
  for (std::size_t i = 1; i < population.size(); ++i) {
    if (rank_less(population[i], population[best])) best = i;
  }
  parts = std::move(population[best].parts);
  return population[best].cut;
}

}  // namespace vlsipart
