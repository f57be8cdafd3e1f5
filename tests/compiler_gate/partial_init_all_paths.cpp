// The control for partial_init: the same best-so-far key, initialized on
// both paths before the loop compares it.  It must compile under -Werror
// at the Release optimisation level, so the gate cannot pass on options
// that reject the loop itself.
#include <cstddef>
#include <cstdint>
#include <vector>

std::int64_t imbalance(std::int64_t part_weight);

std::size_t best_prefix(const std::vector<std::int64_t>& weights,
                        std::int64_t cut_before) {
  std::int64_t best_imb;
  if (cut_before > 0) {
    best_imb = imbalance(weights[0]);
  } else {
    best_imb = 0;
  }
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
