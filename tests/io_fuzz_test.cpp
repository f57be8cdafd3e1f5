// Seeded byte-mutation fuzzing of the vp_io readers.  Seeds are the
// writers' output for three presets; each case applies one to three
// mutations drawn from a fixed Rng seed: flip a byte, insert a digit,
// space, newline or letter, delete a byte, or truncate.  Property: the
// reader returns a valid object (Hypergraph::validate() passes; every
// part id is below kNoPart) or throws std::runtime_error.  Any other
// exception fails here; a crash or sanitizer report fails the run.
//
// Count header lines are left unmutated: isolated vertices carry no
// pins, so the format makes a reader trust the vertex count, and a
// mutated count could ask for gigabytes legally.  The readers' bound on
// that count has its own tests in io_test.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "src/gen/netlist_gen.h"
#include "src/io/hmetis_io.h"
#include "src/io/ispd98_io.h"
#include "src/io/partition_io.h"
#include "src/util/logging.h"
#include "src/util/rng.h"

namespace vlsipart {
namespace {

constexpr int kCasesPerSeed = 150;

struct Seed {
  std::string name;
  std::string hgr;
  std::string net;
  std::string are;
  std::string part;
};

const std::vector<Seed>& seeds() {
  static const std::vector<Seed> all = [] {
    std::vector<Seed> out;
    for (const GenConfig& config :
         {preset("tiny"), preset("small"), preset("ibm01").scaled(0.1)}) {
      Ispd98Instance inst;
      inst.hypergraph = generate_netlist(config);
      inst.num_cells = config.num_cells;
      inst.num_pads = config.num_pads;
      const Hypergraph& h = inst.hypergraph;
      std::ostringstream hgr;
      write_hmetis(h, hgr);
      std::ostringstream net;
      std::ostringstream are;
      write_ispd98(inst, net, are);
      std::vector<PartId> parts(h.num_vertices());
      for (std::size_t v = 0; v < parts.size(); ++v) {
        parts[v] = static_cast<PartId>(v % 4);
      }
      std::ostringstream part;
      write_partition(parts, part);
      out.push_back({config.name, hgr.str(), net.str(), are.str(),
                     part.str()});
    }
    return out;
  }();
  return all;
}

/// Offset just past the first `lines` lines of `text`.
std::size_t after_lines(const std::string& text, int lines) {
  std::size_t at = 0;
  for (int i = 0; i < lines; ++i) at = text.find('\n', at) + 1;
  return at;
}

/// `text` with one to three mutations at offsets >= `keep`.
std::string mutate(std::string text, std::size_t keep, Rng& rng) {
  static const std::string kInsertable =
      "0123456789 \nabcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ";
  const auto edits = 1 + rng.below(3);
  for (std::uint64_t i = 0; i < edits; ++i) {
    const auto kind = rng.below(4);
    if (kind == 1 || text.size() <= keep) {  // insert
      const std::size_t at = keep + rng.below(text.size() - keep + 1);
      text.insert(at, 1, kInsertable[rng.below(kInsertable.size())]);
      continue;
    }
    const std::size_t at = keep + rng.below(text.size() - keep);
    if (kind == 0) {  // flip a byte
      text[at] = static_cast<char>(text[at] ^ (1 + rng.below(255)));
    } else if (kind == 2) {  // delete a byte
      text.erase(at, 1);
    } else {  // truncate
      text.resize(at);
    }
  }
  return text;
}

/// Counts the two allowed outcomes; any other exception fails the test.
struct Outcomes {
  int valid = 0;
  int rejected = 0;

  template <class Read>
  void run(Read read, const std::string& label) {
    try {
      read();
      ++valid;
    } catch (const std::runtime_error&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << label << ": " << e.what();
    }
  }
};

class IoFuzz : public testing::Test {
 protected:
  // A mutated net count is accepted with a warning; keep the log quiet.
  void SetUp() override {
    saved_level_ = log_level();
    set_log_level(LogLevel::kError);
  }
  void TearDown() override { set_log_level(saved_level_); }

 private:
  LogLevel saved_level_ = LogLevel::kInfo;
};

TEST_F(IoFuzz, HmetisReaderReturnsValidGraphOrRuntimeError) {
  Rng rng(0x1f2e3d4c);
  Outcomes outcomes;
  for (const Seed& seed : seeds()) {
    const std::size_t keep = after_lines(seed.hgr, 1);
    for (int c = 0; c < kCasesPerSeed; ++c) {
      std::istringstream in(mutate(seed.hgr, keep, rng));
      outcomes.run([&] { read_hmetis(in).validate(); },
                   seed.name + " case " + std::to_string(c));
    }
  }
  EXPECT_GT(outcomes.valid, 0);
  EXPECT_GT(outcomes.rejected, 0);
}

TEST_F(IoFuzz, Ispd98ReaderReturnsValidGraphOrRuntimeError) {
  Rng rng(0x5e6f7a8b);
  Outcomes outcomes;
  for (const Seed& seed : seeds()) {
    const std::size_t keep = after_lines(seed.net, 5);
    for (int c = 0; c < kCasesPerSeed; ++c) {
      // Even cases mutate the .netD pin lines, odd cases the .are file.
      std::istringstream net(c % 2 == 0 ? mutate(seed.net, keep, rng)
                                        : seed.net);
      std::istringstream are(c % 2 == 1 ? mutate(seed.are, 0, rng)
                                        : seed.are);
      outcomes.run([&] { read_ispd98(net, are).hypergraph.validate(); },
                   seed.name + " case " + std::to_string(c));
    }
  }
  EXPECT_GT(outcomes.valid, 0);
  EXPECT_GT(outcomes.rejected, 0);
}

TEST_F(IoFuzz, PartitionReaderReturnsPartIdsOrRuntimeError) {
  Rng rng(0x9c0d1e2f);
  Outcomes outcomes;
  for (const Seed& seed : seeds()) {
    for (int c = 0; c < kCasesPerSeed; ++c) {
      std::istringstream in(mutate(seed.part, 0, rng));
      outcomes.run(
          [&] {
            for (const PartId p : read_partition(in)) {
              ASSERT_LT(p, kNoPart);
            }
          },
          seed.name + " case " + std::to_string(c));
    }
  }
  EXPECT_GT(outcomes.valid, 0);
  EXPECT_GT(outcomes.rejected, 0);
}

}  // namespace
}  // namespace vlsipart
