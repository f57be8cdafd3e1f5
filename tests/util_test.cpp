// Unit and property tests for src/util: RNG, statistics, tables, CLI.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <stdexcept>

#include "src/util/cli.h"
#include "src/util/logging.h"
#include "src/util/rng.h"
#include "src/util/stats.h"
#include "src/util/table.h"

namespace vlsipart {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, BelowInRange) {
  Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.below(bound), bound);
    }
  }
}

TEST(Rng, BelowOneAlwaysZero) {
  Rng rng(9);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, RangeInclusive) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    const std::int64_t v = rng.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit over 500 draws
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(13);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, NormalMoments) {
  Rng rng(17);
  RunningStats s;
  for (int i = 0; i < 20000; ++i) s.add(rng.normal());
  EXPECT_NEAR(s.mean(), 0.0, 0.05);
  EXPECT_NEAR(s.stddev(), 1.0, 0.05);
}

TEST(Rng, ParetoAboveScale) {
  Rng rng(19);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(rng.pareto(2.0, 1.5), 2.0);
  }
}

TEST(Rng, TruncatedGeometricBounds) {
  Rng rng(23);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.truncated_geometric(2, 10, 0.5);
    EXPECT_GE(v, 2u);
    EXPECT_LE(v, 10u);
  }
  EXPECT_EQ(rng.truncated_geometric(5, 5, 0.5), 5u);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(29);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, ForkStreamsIndependent) {
  Rng base(31);
  Rng a = base.fork(0);
  Rng b = base.fork(1);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 2);
  // Forking is a const operation: repeated forks with the same id agree.
  Rng a2 = base.fork(0);
  Rng a3 = base.fork(0);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a2.next(), a3.next());
}

TEST(RunningStats, BasicMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
}

TEST(RunningStats, MergeMatchesSequential) {
  Rng rng(37);
  RunningStats all;
  RunningStats left;
  RunningStats right;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(3.0, 2.0);
    all.add(x);
    (i % 2 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(RunningStats, EmptyIsSafe) {
  RunningStats s;
  EXPECT_TRUE(s.empty());
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  RunningStats other;
  s.merge(other);
  EXPECT_TRUE(s.empty());
}

TEST(Sample, OrderStatistics) {
  Sample s;
  for (double x : {5.0, 1.0, 3.0, 2.0, 4.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.median(), 3.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 5.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.25), 2.0);
}

TEST(Sample, ExpectedMinOfOneIsMean) {
  Sample s;
  for (double x : {10.0, 20.0, 30.0}) s.add(x);
  EXPECT_NEAR(s.expected_min_of(1), 20.0, 1e-12);
}

TEST(Sample, ExpectedMinOfAllIsMin) {
  Sample s;
  for (double x : {10.0, 20.0, 30.0, 40.0}) s.add(x);
  EXPECT_NEAR(s.expected_min_of(4), 10.0, 1e-12);
  EXPECT_NEAR(s.expected_min_of(100), 10.0, 1e-12);
}

TEST(Sample, ExpectedMinMatchesBruteForce) {
  // E[min of 2 of {1,2,3,4}] without replacement:
  // pairs (6): min 1 x3, min 2 x2, min 3 x1 -> (3+4+3)/6 = 5/3.
  Sample s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_NEAR(s.expected_min_of(2), 5.0 / 3.0, 1e-12);
  // E[min of 3 of {1,2,3,4}]: triples (4): min 1 x3, min 2 x1 -> 5/4.
  EXPECT_NEAR(s.expected_min_of(3), 5.0 / 4.0, 1e-12);
}

TEST(Sample, ExpectedMinMonotoneInK) {
  Rng rng(41);
  Sample s;
  for (int i = 0; i < 100; ++i) s.add(rng.uniform(10.0, 50.0));
  double prev = s.expected_min_of(1);
  for (std::size_t k = 2; k <= 100; ++k) {
    const double cur = s.expected_min_of(k);
    EXPECT_LE(cur, prev + 1e-9) << "k=" << k;
    prev = cur;
  }
}

TEST(Sample, GeometricMean) {
  Sample s;
  for (double x : {1.0, 4.0, 16.0}) s.add(x);
  EXPECT_NEAR(s.geometric_mean(), 4.0, 1e-12);
  Sample single;
  single.add(7.0);
  EXPECT_NEAR(single.geometric_mean(), 7.0, 1e-12);
  Sample empty;
  EXPECT_DOUBLE_EQ(empty.geometric_mean(), 0.0);
  Sample with_zero;
  with_zero.add(0.0);
  with_zero.add(2.0);
  EXPECT_DOUBLE_EQ(with_zero.geometric_mean(), 0.0);
}

TEST(Sample, ProbMinLeq) {
  Sample s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_NEAR(s.prob_min_leq(1, 2.0), 0.5, 1e-12);
  EXPECT_NEAR(s.prob_min_leq(2, 2.0), 0.75, 1e-12);
  EXPECT_NEAR(s.prob_min_leq(1, 0.5), 0.0, 1e-12);
  EXPECT_NEAR(s.prob_min_leq(3, 4.0), 1.0, 1e-12);
}

TEST(TextTable, AlignedRendering) {
  TextTable t({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"longer", "22"});
  const std::string out = t.to_string();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.columns(), 2u);
}

TEST(TextTable, CsvRendering) {
  TextTable t({"a", "b"});
  t.add_row({"1", "2"});
  EXPECT_EQ(t.to_csv(), "a,b\n1,2\n");
}

TEST(TextTable, ArityMismatchThrows) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(TableFormat, Helpers) {
  EXPECT_EQ(fmt_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_min_avg(219, 283.4), "219/283");
}

TEST(Cli, ParsesAllStyles) {
  // Note the greedy "--name value" rule: a bare option followed by a
  // non-option token consumes it, so boolean flags must precede another
  // option or come last.
  const char* argv[] = {"prog", "pos1",    "--alpha", "3",   "--beta=x",
                        "pos2", "--flag2", "--gamma", "2.5", "--flag"};
  const CliArgs args(10, argv);
  EXPECT_EQ(args.get_int("alpha", 0), 3);
  EXPECT_EQ(args.get("beta", ""), "x");
  EXPECT_TRUE(args.get_bool("flag"));
  EXPECT_TRUE(args.get_bool("flag2"));
  EXPECT_DOUBLE_EQ(args.get_double("gamma", 0.0), 2.5);
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "pos1");
  EXPECT_EQ(args.positional()[1], "pos2");
  EXPECT_FALSE(args.has("missing"));
  EXPECT_EQ(args.get_int("missing", 42), 42);
}

TEST(Cli, ParsesLists) {
  const char* argv[] = {"prog", "--cases", "ibm01,ibm02,ibm03"};
  const CliArgs args(3, argv);
  const auto list = args.get_list("cases", "");
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[0], "ibm01");
  EXPECT_EQ(list[2], "ibm03");
  const auto fallback = args.get_list("other", "a,b");
  ASSERT_EQ(fallback.size(), 2u);
}

TEST(Cli, StrictIntParsing) {
  const char* argv[] = {"prog",       "--starts", "12x",  "--runs", "abc",
                        "--empty-ok", "--big",    "999999999999999999999",
                        "--good",     "17"};
  const CliArgs args(10, argv);
  EXPECT_EQ(args.get_int("good", 0), 17);
  // Trailing garbage, non-numeric text, overflow, and a valueless flag
  // all throw instead of silently becoming 0 or a truncated prefix.
  EXPECT_THROW(args.get_int("starts", 0), std::invalid_argument);
  EXPECT_THROW(args.get_int("runs", 0), std::invalid_argument);
  EXPECT_THROW(args.get_int("big", 0), std::invalid_argument);
  EXPECT_THROW(args.get_int("empty-ok", 0), std::invalid_argument);
  // The error message names the option and the offending text.
  try {
    args.get_int("starts", 0);
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("starts"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("12x"), std::string::npos);
  }
}

TEST(Cli, UnsignedReadsEveryUint64) {
  const char* argv[] = {"prog", "--zero", "0", "--max",
                        "18446744073709551615"};
  const CliArgs args(5, argv);
  EXPECT_EQ(args.get_uint("zero", 7), 0u);
  EXPECT_EQ(args.get_uint("max", 7),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(args.get_uint("missing", 7), 7u);
}

TEST(Cli, UnsignedRejectsSignsOverflowAndGarbage) {
  const char* argv[] = {"prog",     "--neg",  "-1",  "--over",
                        "18446744073709551616", "--plus", "+1",
                        "--junk",   "12x",    "--bare"};
  const CliArgs args(10, argv);
  for (const char* name : {"neg", "over", "plus", "junk", "bare"}) {
    try {
      args.get_uint(name, 1);
      ADD_FAILURE() << "--" << name << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "--" + std::string(name) +
                    " must be an integer in [0, 18446744073709551615]"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Cli, StrictDoubleParsing) {
  const char* argv[] = {"prog", "--tol", "0.02oops", "--scale", "0.25",
                        "--sci", "1e-3"};
  const CliArgs args(7, argv);
  EXPECT_DOUBLE_EQ(args.get_double("scale", 0.0), 0.25);
  EXPECT_DOUBLE_EQ(args.get_double("sci", 0.0), 1e-3);
  EXPECT_THROW(args.get_double("tol", 0.0), std::invalid_argument);
  EXPECT_DOUBLE_EQ(args.get_double("missing", 0.5), 0.5);
}

TEST(Cli, CheckKnownAcceptsVocabulary) {
  const char* argv[] = {"prog", "--threads", "8", "--seed", "3"};
  const CliArgs args(5, argv);
  EXPECT_NO_THROW(args.check_known({"threads", "seed", "scale"}));
}

TEST(Cli, CheckKnownRejectsTypoWithSuggestion) {
  const char* argv[] = {"prog", "--thread", "8"};
  const CliArgs args(3, argv);
  try {
    args.check_known({"threads", "seed", "scale"});
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--thread"), std::string::npos);
    EXPECT_NE(what.find("--threads"), std::string::npos) << what;
  }
}

TEST(Cli, CheckKnownRejectsUnrelatedOption) {
  const char* argv[] = {"prog", "--zzzzzzz", "8"};
  const CliArgs args(3, argv);
  EXPECT_THROW(args.check_known({"threads", "seed"}),
               std::invalid_argument);
}

TEST(Logging, CheckFailureThrows) {
  EXPECT_THROW(VP_CHECK(false, "intentional"), std::logic_error);
  EXPECT_NO_THROW(VP_CHECK(true, "fine"));
}

}  // namespace
}  // namespace vlsipart
