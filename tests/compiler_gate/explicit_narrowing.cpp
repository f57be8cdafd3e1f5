// The control for the gate fixtures: the same narrowing and the same
// loop, spelled the way src/part and src/hypergraph spell them
// (vp::checked_narrow and a std::size_t counter), must compile under
// -Werror=conversion -Werror=sign-compare.
#include <cstddef>

#include "src/util/checked_narrow.h"

struct Hypergraph {
  std::size_t num_vertices() const { return 0; }
};

void use(int) {}

void f(const Hypergraph& h) {
  const std::size_t n = h.num_vertices();
  const int small = vp::checked_narrow<int>(n);
  use(small);
  for (std::size_t i = 0; i < h.num_vertices(); ++i) {
    use(static_cast<int>(i));
  }
}
