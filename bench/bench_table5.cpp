// Table 5: hMetis-1.5-like ML partitioner, configurations 1-6, 10% balance.
#include "bench/bench_table45.h"

static int run(int argc, char** argv) {
  return vlsipart::bench::run_table45(argc, argv, 0.10,
                                      "Table 5 (10% balance)");
}

int main(int argc, char** argv) {
  return vlsipart::cli_main(argc, argv, run);
}
