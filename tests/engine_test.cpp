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

// The round refiner has no CLIP mode, so CLIP with refine_threads > 1 is
// an error naming why, whether it comes from the clip engine or from
// fm.clip, at k = 2 and k > 2.  nlevel refines serially and keeps CLIP.
TEST(Engine, RejectsClipWithRoundRefiner) {
  const Hypergraph h = generate_netlist(preset("tiny"));
  for (const char* engine : {"clip", "flat", "ml", "evo"}) {
    for (const std::size_t k : {2u, 4u}) {
      if (k > 2 && std::string(engine) == "evo") continue;
      EngineSpec spec = small_spec(engine, k, 2);
      spec.fm.clip = true;
      ASSERT_EQ(run_engine(spec, h).error, "") << engine << " k=" << k;
      spec.fm.refine_threads = 2;
      const EngineResult r = run_engine(spec, h);
      EXPECT_NE(r.error.find("no CLIP mode"), std::string::npos)
          << engine << " k=" << k << ": " << r.error;
      EXPECT_TRUE(r.parts.empty()) << engine << " k=" << k;
    }
  }
  EngineSpec clip = small_spec("clip", 2, 2);
  clip.fm.refine_threads = 2;
  EXPECT_NE(run_engine(clip, h).error, "");
  EngineSpec flat = small_spec("flat", 2, 2);
  flat.fm.refine_threads = 2;
  EXPECT_EQ(run_engine(flat, h).error, "");
  EngineSpec nlevel = small_spec("nlevel", 2, 2);
  nlevel.fm.clip = true;
  nlevel.fm.refine_threads = 2;
  EXPECT_EQ(run_engine(nlevel, h).error, "");
}

}  // namespace
}  // namespace vlsipart
