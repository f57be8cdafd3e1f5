// A best-so-far key initialized on one path only, then compared on every
// path.  GCC's -Wmaybe-uninitialized (in -Wall) reports it once the
// optimiser runs, and the CI build's -Werror makes it an error; this
// stands in for the retired use-before-init lint rule.
#include <cstddef>
#include <cstdint>
#include <vector>

std::int64_t imbalance(std::int64_t part_weight);

std::size_t best_prefix(const std::vector<std::int64_t>& weights,
                        std::int64_t cut_before) {
  std::int64_t best_imb;
  if (cut_before > 0) best_imb = imbalance(weights[0]);
  std::size_t best = 0;
  for (std::size_t i = 1; i < weights.size(); ++i) {
    const std::int64_t imb = imbalance(weights[i]);
    if (imb < best_imb) {
      best_imb = imb;
      best = i;
    }
  }
  return best;
}
