#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "support/args.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

namespace reconfnet::support {
namespace {

TEST(Rng, DeterministicFromSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a.next() == b.next());
  EXPECT_LT(equal, 3);
}

TEST(Rng, SplitStreamsAreIndependentAndDeterministic) {
  Rng parent1(7), parent2(7);
  Rng childa = parent1.split(3);
  Rng childb = parent2.split(3);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(childa.next(), childb.next());

  Rng parent3(7);
  Rng other = parent3.split(4);
  Rng parent4(7);
  Rng same_index = parent4.split(3);
  EXPECT_NE(other.next(), same_index.next());
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(11);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(Rng, BelowIsUniformChiSquare) {
  Rng rng(123);
  constexpr std::size_t kBuckets = 16;
  constexpr std::size_t kDraws = 160000;
  std::vector<std::uint64_t> counts(kBuckets, 0);
  for (std::size_t i = 0; i < kDraws; ++i) ++counts[rng.below(kBuckets)];
  const auto result = chi_square_uniform(counts);
  EXPECT_GT(result.p_value, 1e-4);
}

TEST(Rng, BetweenInclusiveBounds) {
  Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.between(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(9);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, CoinIsFair) {
  Rng rng(17);
  int heads = 0;
  for (int i = 0; i < 20000; ++i) heads += rng.coin();
  EXPECT_NEAR(static_cast<double>(heads) / 20000.0, 0.5, 0.02);
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng rng(21);
  int hits = 0;
  for (int i = 0; i < 50000; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / 50000.0, 0.3, 0.02);
}

TEST(Rng, PermutationIsValid) {
  Rng rng(33);
  const auto perm = rng.permutation(257);
  std::vector<bool> seen(257, false);
  for (std::size_t v : perm) {
    ASSERT_LT(v, 257u);
    ASSERT_FALSE(seen[v]);
    seen[v] = true;
  }
}

TEST(Rng, PermutationLooksUniformAtFirstPosition) {
  Rng rng(77);
  constexpr std::size_t kSize = 8;
  std::vector<std::uint64_t> counts(kSize, 0);
  for (int i = 0; i < 16000; ++i) ++counts[rng.permutation(kSize)[0]];
  EXPECT_GT(chi_square_uniform(counts).p_value, 1e-4);
}

TEST(Stats, SummarizeBasics) {
  const std::vector<double> values{1, 2, 3, 4, 5};
  const auto s = summarize(values);
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_NEAR(s.stddev, std::sqrt(2.5), 1e-12);
  EXPECT_DOUBLE_EQ(s.p50, 3.0);
}

TEST(Stats, SummarizeEmpty) {
  const auto s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
}

TEST(Stats, RegularizedGammaQKnownValues) {
  // Q(1, x) = exp(-x).
  EXPECT_NEAR(regularized_gamma_q(1.0, 2.0), std::exp(-2.0), 1e-10);
  // Q(0.5, x) = erfc(sqrt(x)).
  EXPECT_NEAR(regularized_gamma_q(0.5, 1.0), std::erfc(1.0), 1e-10);
  // Chi-square with 2 dof: Q(1, s/2); median ~1.386 -> 0.5.
  EXPECT_NEAR(regularized_gamma_q(1.0, 1.386 / 2.0 * 2.0 / 2.0), 0.5, 1e-3);
}

TEST(Stats, ChiSquareDetectsSkew) {
  const std::vector<std::uint64_t> skewed{1000, 10, 10, 10};
  EXPECT_LT(chi_square_uniform(skewed).p_value, 1e-6);
}

TEST(Stats, ChiSquareAcceptsUniform) {
  const std::vector<std::uint64_t> flat{1000, 1010, 990, 1001};
  EXPECT_GT(chi_square_uniform(flat).p_value, 0.05);
}

TEST(Stats, ChiSquareValidatesInput) {
  EXPECT_THROW(chi_square_uniform(std::vector<std::uint64_t>{5}),
               std::invalid_argument);
  EXPECT_THROW(chi_square_uniform(std::vector<std::uint64_t>{0, 0}),
               std::invalid_argument);
}

TEST(Stats, TvDistance) {
  EXPECT_DOUBLE_EQ(
      tv_distance_from_uniform(std::vector<std::uint64_t>{10, 10}), 0.0);
  EXPECT_DOUBLE_EQ(
      tv_distance_from_uniform(std::vector<std::uint64_t>{10, 0}), 0.5);
  EXPECT_DOUBLE_EQ(
      tv_distance_from_uniform(std::vector<std::uint64_t>{4, 0, 0, 0}), 0.75);
}

TEST(Stats, ChernoffBoundsMatchLemma1) {
  // Upper: exp(-min(d^2,d) mu / 3).
  EXPECT_NEAR(chernoff_upper_bound(30.0, 0.5), std::exp(-0.25 * 30.0 / 3.0),
              1e-12);
  EXPECT_NEAR(chernoff_upper_bound(30.0, 2.0), std::exp(-2.0 * 30.0 / 3.0),
              1e-12);
  // Lower: exp(-d^2 mu / 2).
  EXPECT_NEAR(chernoff_lower_bound(30.0, 0.5), std::exp(-0.25 * 30.0 / 2.0),
              1e-12);
  // Bounds are probabilities.
  EXPECT_LE(chernoff_upper_bound(100.0, 1.0), 1.0);
  EXPECT_GE(chernoff_upper_bound(100.0, 1.0), 0.0);
}

TEST(Table, FormatsAlignedColumns) {
  Table t({"n", "value"});
  t.add_row({"1", "10.5"});
  t.add_row({"1000", "2.25"});
  std::ostringstream out;
  t.print(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("n"), std::string::npos);
  EXPECT_NE(text.find("1000"), std::string::npos);
  EXPECT_NE(text.find("----"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, RejectsMismatchedRow) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, NumFormatting) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(std::int64_t{-5}), "-5");
  EXPECT_EQ(Table::num(std::uint64_t{7}), "7");
}

TEST(Table, ToCsvQuotesSpecialCells) {
  Table t({"name", "value"});
  t.add_row({"plain", "1"});
  t.add_row({"comma,inside", "say \"hi\""});
  t.add_row({"multi\nline", "trailing"});
  std::ostringstream out;
  t.to_csv(out);
  EXPECT_EQ(out.str(),
            "name,value\n"
            "plain,1\n"
            "\"comma,inside\",\"say \"\"hi\"\"\"\n"
            "\"multi\nline\",trailing\n");
}

TEST(Table, ToCsvEmitsHeaderOnlyForEmptyTable) {
  Table t({"a", "b"});
  std::ostringstream out;
  t.to_csv(out);
  EXPECT_EQ(out.str(), "a,b\n");
}

// --- Args -------------------------------------------------------------------

/// Builds an Args from a literal argv (argv[0] = program, argv[1] = command,
/// parsing starts at index 2 like the bench/sim binaries).
Args make_args(const std::vector<const char*>& tail,
               const std::vector<std::string>& switches = {},
               const std::vector<std::string>& optional_value = {}) {
  std::vector<const char*> argv{"prog", "cmd"};
  argv.insert(argv.end(), tail.begin(), tail.end());
  return Args(static_cast<int>(argv.size()), argv.data(), 2, switches,
              optional_value);
}

TEST(Args, ParsesTypedValuesAndFallbacks) {
  const auto args = make_args({"--n", "256", "--rate", "2.5", "--name", "x"});
  EXPECT_EQ(args.get_size("n", 1), 256u);
  EXPECT_EQ(args.get_u64("n", 1), 256u);
  EXPECT_EQ(args.get_int("n", 1), 256);
  EXPECT_DOUBLE_EQ(args.get_double("rate", 0.0), 2.5);
  EXPECT_EQ(args.get_string("name", ""), "x");
  EXPECT_EQ(args.get_size("missing", 77), 77u);
  EXPECT_FALSE(args.has("missing"));
}

TEST(Args, SwitchesTakeNoValue) {
  const auto args = make_args({"--static", "--n", "64"}, {"static"});
  EXPECT_TRUE(args.has("static"));
  EXPECT_EQ(args.get_size("n", 1), 64u);
}

TEST(Args, OptionalValueFlagConsumesOnlyNonFlagToken) {
  const auto with_value =
      make_args({"--json", "out.json", "--n", "8"}, {}, {"json"});
  EXPECT_EQ(with_value.get_string("json", "?"), "out.json");
  EXPECT_EQ(with_value.get_size("n", 1), 8u);
  const auto without_value = make_args({"--json", "--n", "8"}, {}, {"json"});
  EXPECT_TRUE(without_value.has("json"));
  EXPECT_EQ(without_value.get_string("json", "?"), "");
  EXPECT_EQ(without_value.get_size("n", 1), 8u);
}

TEST(Args, RejectsMalformedNumbersNamingTheFlag) {
  const auto args = make_args({"--n", "12abc", "--rate", "fast", "--neg",
                               "-3", "--big",
                               "99999999999999999999999999999"});
  try {
    (void)args.get_size("n", 0);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("--n"), std::string::npos);
  }
  EXPECT_THROW((void)args.get_double("rate", 0.0), std::invalid_argument);
  EXPECT_THROW((void)args.get_size("neg", 0), std::invalid_argument);
  EXPECT_THROW((void)args.get_u64("big", 0), std::invalid_argument);
  EXPECT_THROW((void)args.get_int("big", 0), std::invalid_argument);
  EXPECT_EQ(args.get_int("neg", 0), -3);
}

TEST(Args, RejectsNonFlagTokensAndMissingValues) {
  EXPECT_THROW(make_args({"stray"}), std::invalid_argument);
  EXPECT_THROW(make_args({"--n"}), std::invalid_argument);
}

}  // namespace
}  // namespace reconfnet::support
