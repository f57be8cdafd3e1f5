// An int loop counter bounded by a 64-bit size: src/part and
// src/hypergraph build with -Werror=sign-compare, so this must not
// compile.
#include <cstddef>

struct Hypergraph {
  std::size_t num_vertices() const { return 0; }
};

void use(int) {}

void f(const Hypergraph& h) {
  for (int i = 0; i < h.num_vertices(); ++i) {
    use(i);
  }
}
