#include "src/part/core/partitioner.h"

namespace vlsipart {

FlatFmPartitioner::FlatFmPartitioner(FmConfig config) : config_(config) {}

Weight FlatFmPartitioner::run(const PartitionProblem& problem, Rng& rng,
                              std::vector<PartId>& parts) {
  return run_start(problem, rng, parts, run_index_++);
}

Weight FlatFmPartitioner::run_start(const PartitionProblem& problem, Rng& rng,
                                    std::vector<PartId>& parts,
                                    std::size_t start_index) {
  parts = make_initial(problem, config_.initial_scheme, start_index, rng);
  if (&problem != bound_problem_ || problem.graph != bound_graph_) {
    state_ = std::make_unique<PartitionState>(*problem.graph);
    refiner_ = std::make_unique<FmRefiner>(problem, config_);
    bound_problem_ = &problem;
    bound_graph_ = problem.graph;
  }
  state_->assign(parts);
  work_.absorb(refiner_->refine(*state_, rng).update_work());
  parts = state_->parts();
  return state_->cut();
}

std::unique_ptr<Bipartitioner> FlatFmPartitioner::clone() const {
  return std::make_unique<FlatFmPartitioner>(config_);
}

}  // namespace vlsipart
