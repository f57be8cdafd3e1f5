// The control for lost_update: the same best-prefix loop with the
// comparison reading the stored best_cut, so every store is read.  It
// must compile under -Werror, so the gate cannot pass on options that
// reject the loop itself.
#include <cstddef>
#include <cstdint>
#include <vector>

std::size_t best_prefix(const std::vector<std::int64_t>& cuts,
                        std::int64_t cut_before) {
  std::int64_t best_cut = cut_before;
  std::size_t best = 0;
  for (std::size_t i = 0; i < cuts.size(); ++i) {
    if (cuts[i] < best_cut) {
      best_cut = cuts[i];
      best = i + 1;
    }
  }
  return best;
}
