// Tests for the engine front door's thread budget: run_engine spends
// EngineSpec::threads at exactly one level (starts, evo offspring or RB
// subtrees) and every engine's answer is bit-identical at every budget.
// The budgets are fixed numbers, not the host's CPU count, so these
// tests check the same schedules on any machine.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/gen/netlist_gen.h"
#include "src/part/engine.h"

namespace vlsipart {
namespace {

EngineSpec small_spec(const std::string& engine, std::size_t k,
                      std::size_t starts) {
  EngineSpec spec;
  spec.engine = engine;
  spec.k = k;
  spec.tolerance = k == 2 ? 0.1 : 0.2;
  spec.starts = starts;
  spec.seed = 7;
  spec.evo.population = 3;
  spec.evo.generations = 2;
  spec.evo.offspring = 3;
  return spec;
}

TEST(Engine, IdenticalAnswersAtEveryThreadBudget) {
  const Hypergraph h = generate_netlist(preset("tiny"));
  for (const std::string& engine : engine_names()) {
    for (const std::size_t starts : {1u, 3u}) {
      EngineSpec spec = small_spec(engine, 2, starts);
      const EngineResult serial = run_engine(spec, h);
      ASSERT_EQ(serial.error, "") << engine << " starts=" << starts;
      for (const std::size_t threads : {2u, 4u}) {
        spec.threads = threads;
        const EngineResult r = run_engine(spec, h);
        ASSERT_EQ(r.error, "") << engine;
        EXPECT_EQ(r.cut, serial.cut)
            << engine << " starts=" << starts << " threads=" << threads;
        EXPECT_EQ(r.parts, serial.parts)
            << engine << " starts=" << starts << " threads=" << threads;
      }
    }
  }
}

TEST(Engine, KwayIdenticalAnswersAtEveryThreadBudget) {
  const Hypergraph h = generate_netlist(preset("tiny"));
  for (const char* engine : {"ml", "flat", "clip"}) {
    EngineSpec spec = small_spec(engine, 4, 2);
    const EngineResult serial = run_engine(spec, h);
    ASSERT_EQ(serial.error, "") << engine;
    for (const std::size_t threads : {2u, 4u}) {
      spec.threads = threads;
      const EngineResult r = run_engine(spec, h);
      ASSERT_EQ(r.error, "") << engine;
      EXPECT_EQ(r.cut, serial.cut) << engine << " threads=" << threads;
      EXPECT_EQ(r.parts, serial.parts) << engine << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace vlsipart
