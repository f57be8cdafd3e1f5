// A size-derived 64-bit value assigned to a 32-bit int: src/part and
// src/hypergraph build with -Werror=conversion, so this must not compile.
#include <cstddef>

struct Hypergraph {
  std::size_t num_vertices() const { return 0; }
};

void use(int) {}

void f(const Hypergraph& h) {
  const std::size_t n = h.num_vertices();
  int small = n;
  use(small);
}
