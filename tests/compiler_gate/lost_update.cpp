// A lost update in a best-prefix loop: the loop stores best_cut, but the
// comparison still reads the pass-start cut, so the stored value is
// never read.  GCC's -Wunused-but-set-variable (in -Wall) reports it,
// and the CI build's -Werror makes it an error; this stands in for the
// retired dead-store lint rule.
#include <cstddef>
#include <cstdint>
#include <vector>

std::size_t best_prefix(const std::vector<std::int64_t>& cuts,
                        std::int64_t cut_before) {
  std::int64_t best_cut = cut_before;
  std::size_t best = 0;
  for (std::size_t i = 0; i < cuts.size(); ++i) {
    if (cuts[i] < cut_before) {
      best_cut = cuts[i];
      best = i + 1;
    }
  }
  return best;
}
