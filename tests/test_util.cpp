#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <sstream>
#include <string>

#include "util/bits.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace qc {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b()) ? 1 : 0;
  EXPECT_LT(same, 4);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.next_below(17), 17u);
}

TEST(Rng, NextBelowRejectsZero) {
  Rng r(7);
  EXPECT_THROW(r.next_below(0), InvalidArgumentError);
}

TEST(Rng, NextBelowIsRoughlyUniform) {
  Rng r(3);
  std::vector<int> counts(8, 0);
  const int trials = 80000;
  for (int i = 0; i < trials; ++i) ++counts[r.next_below(8)];
  for (int c : counts) {
    EXPECT_NEAR(c, trials / 8, trials / 80);  // within 10% of expectation
  }
}

TEST(Rng, NextInCoversInclusiveRange) {
  Rng r(5);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(r.next_in(-2, 2));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), -2);
  EXPECT_EQ(*seen.rbegin(), 2);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng r(11);
  for (int i = 0; i < 1000; ++i) {
    const double x = r.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng r(13);
  int hits = 0;
  const int trials = 50000;
  for (int i = 0; i < trials; ++i) hits += r.next_bool(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / static_cast<double>(trials), 0.3, 0.02);
}

TEST(Rng, ChildStreamsAreIndependent) {
  Rng parent(99);
  Rng c0 = parent.child(0), c1 = parent.child(1);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (c0() == c1()) ? 1 : 0;
  EXPECT_LT(same, 4);
}

TEST(Rng, ChildIsDeterministic) {
  Rng parent(99);
  Rng a = parent.child(5), b = parent.child(5);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, SampleWithoutReplacement) {
  Rng r(21);
  auto s = r.sample_without_replacement(100, 10);
  EXPECT_EQ(s.size(), 10u);
  std::set<std::uint32_t> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 10u);
  for (auto v : s) EXPECT_LT(v, 100u);
  EXPECT_TRUE(std::is_sorted(s.begin(), s.end()));
}

TEST(Rng, SampleFullSet) {
  Rng r(22);
  auto s = r.sample_without_replacement(5, 5);
  EXPECT_EQ(s, (std::vector<std::uint32_t>{0, 1, 2, 3, 4}));
}

TEST(Rng, ShuffleIsPermutation) {
  Rng r(31);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto orig = v;
  r.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(Stats, SummaryBasics) {
  std::vector<double> xs{1, 2, 3, 4, 5};
  auto s = summarize(xs);
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_NEAR(s.stddev, std::sqrt(2.5), 1e-12);
}

TEST(Stats, SummaryEmpty) {
  auto s = summarize(std::vector<double>{});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
  EXPECT_EQ(s.stddev, 0.0);
  EXPECT_EQ(s.min, 0.0);
  EXPECT_EQ(s.max, 0.0);
  EXPECT_EQ(s.median, 0.0);
  EXPECT_EQ(s.p25, 0.0);
  EXPECT_EQ(s.p75, 0.0);
}

TEST(Stats, SummaryQuartilesOddSample) {
  std::vector<double> xs{1, 2, 3, 4, 5};
  auto s = summarize(xs);
  EXPECT_DOUBLE_EQ(s.p25, 2.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_DOUBLE_EQ(s.p75, 4.0);
}

TEST(Stats, SummaryQuartilesEvenSample) {
  std::vector<double> xs{1, 2, 3, 4};
  auto s = summarize(xs);
  // Linear interpolation at rank p*(n-1): p25 -> 0.75, p75 -> 2.25.
  EXPECT_DOUBLE_EQ(s.p25, 1.75);
  EXPECT_DOUBLE_EQ(s.median, 2.5);
  EXPECT_DOUBLE_EQ(s.p75, 3.25);
}

TEST(Stats, SummarySingleElement) {
  std::vector<double> xs{42.0};
  auto s = summarize(xs);
  EXPECT_EQ(s.count, 1u);
  EXPECT_DOUBLE_EQ(s.p25, 42.0);
  EXPECT_DOUBLE_EQ(s.median, 42.0);
  EXPECT_DOUBLE_EQ(s.p75, 42.0);
  EXPECT_DOUBLE_EQ(s.min, 42.0);
  EXPECT_DOUBLE_EQ(s.max, 42.0);
}

TEST(Stats, LinearFitExact) {
  std::vector<double> xs{1, 2, 3, 4}, ys{3, 5, 7, 9};  // y = 1 + 2x
  auto f = fit_linear(xs, ys);
  EXPECT_NEAR(f.slope, 2.0, 1e-12);
  EXPECT_NEAR(f.intercept, 1.0, 1e-12);
  EXPECT_NEAR(f.r2, 1.0, 1e-12);
}

TEST(Stats, LinearFitDegenerate) {
  std::vector<double> xs{2, 2, 2}, ys{1, 2, 3};
  auto f = fit_linear(xs, ys);
  EXPECT_DOUBLE_EQ(f.slope, 0.0);
  EXPECT_DOUBLE_EQ(f.intercept, 2.0);
}

TEST(Stats, PowerLawFitRecoversExponent) {
  std::vector<double> xs, ys;
  for (double x = 10; x <= 1000; x *= 2) {
    xs.push_back(x);
    ys.push_back(3.0 * std::pow(x, 0.5));
  }
  auto f = fit_power_law(xs, ys);
  EXPECT_NEAR(f.slope, 0.5, 1e-9);
  EXPECT_NEAR(std::exp(f.intercept), 3.0, 1e-9);
}

TEST(Stats, PowerLawRejectsNonPositive) {
  std::vector<double> xs{1, 0}, ys{1, 1};
  EXPECT_THROW(fit_power_law(xs, ys), InvalidArgumentError);
  std::vector<double> neg_y_xs{1, 2}, neg_ys{1, -1};
  EXPECT_THROW(fit_power_law(neg_y_xs, neg_ys), InvalidArgumentError);
}

TEST(Stats, PowerLawRejectsSizeMismatch) {
  std::vector<double> xs{1, 2, 3}, ys{1, 2};
  EXPECT_THROW(fit_power_law(xs, ys), InvalidArgumentError);
  std::vector<double> one{1};
  EXPECT_THROW(fit_power_law(one, one), InvalidArgumentError);
}

TEST(Stats, CorrelationSigns) {
  std::vector<double> xs{1, 2, 3, 4}, up{1, 2, 3, 4}, down{4, 3, 2, 1};
  EXPECT_NEAR(correlation(xs, up), 1.0, 1e-12);
  EXPECT_NEAR(correlation(xs, down), -1.0, 1e-12);
}

TEST(Stats, CorrelationRejectsBadSizes) {
  std::vector<double> xs{1, 2, 3}, ys{1, 2};
  EXPECT_THROW(correlation(xs, ys), InvalidArgumentError);
  std::vector<double> one{1};
  EXPECT_THROW(correlation(one, one), InvalidArgumentError);
}

TEST(Stats, QuantileInterpolates) {
  std::vector<double> xs{0, 10};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 10.0);
}

// Regression test for the nth_element-based quantile(): pins bit-identical
// results to the original copy-sort-interpolate implementation on random
// samples across the whole percentile range.
TEST(Stats, QuantileMatchesSortedReference) {
  Rng rng(2024);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t n = 1 + rng.next_below(40);
    std::vector<double> xs(n);
    for (auto& x : xs) x = rng.next_double() * 1000.0 - 500.0;
    std::vector<double> sorted = xs;
    std::sort(sorted.begin(), sorted.end());
    for (double p : {0.0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
      // Reference: the old implementation, inlined.
      const double rank = p * static_cast<double>(n - 1);
      const auto lo = static_cast<std::size_t>(rank);
      const auto hi = std::min(lo + 1, n - 1);
      const double frac = rank - static_cast<double>(lo);
      const double expected =
          sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
      EXPECT_EQ(quantile(xs, p), expected)
          << "trial " << trial << " n " << n << " p " << p;
      EXPECT_EQ(quantile_sorted(sorted, p), expected)
          << "trial " << trial << " n " << n << " p " << p;
    }
  }
}

TEST(Stats, QuantileSortedMatchesQuantile) {
  std::vector<double> sorted{1, 2, 4, 8, 16};
  for (double p : {0.0, 0.2, 0.35, 0.5, 0.8, 1.0}) {
    EXPECT_DOUBLE_EQ(quantile_sorted(sorted, p),
                     quantile(std::vector<double>(sorted), p));
  }
}

TEST(Table, RendersAllCells) {
  Table t({"a", "bb"});
  t.add_row({"1", "2"});
  t.add_separator();
  t.add_row({"333", "4"});
  const auto s = t.to_string();
  EXPECT_NE(s.find("333"), std::string::npos);
  EXPECT_NE(s.find("bb"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 3u);
}

TEST(Table, RejectsRaggedRow) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), InvalidArgumentError);
}

TEST(Fmt, Doubles) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(2.0, 0), "2");
}

TEST(Cli, ParsesFlagsAndPositionals) {
  const char* argv[] = {"prog", "--n=128", "--verbose", "pos1",
                        "--name=x"};
  Cli cli(5, const_cast<char**>(argv));
  EXPECT_EQ(cli.get_int("n", 0), 128);
  EXPECT_TRUE(cli.get_bool("verbose", false));
  EXPECT_EQ(cli.get_string("name", ""), "x");
  EXPECT_EQ(cli.get_int("missing", 7), 7);
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "pos1");
}

TEST(Cli, RejectsMalformedNumericValues) {
  // Regression: get_int/get_double used to return 0 for unparsable values
  // (atoll semantics), so `--trials=abc` silently ran with 0 trials.
  const char* argv[] = {"prog", "--n=12x",  "--trials=abc", "--p=0.5.3",
                        "--ok=3", "--f=2.5", "--flag=maybe"};
  Cli cli(7, const_cast<char**>(argv));
  EXPECT_THROW(cli.get_int("n", 0), InvalidArgumentError);
  EXPECT_THROW(cli.get_int("trials", 0), InvalidArgumentError);
  EXPECT_THROW(cli.get_double("p", 0.0), InvalidArgumentError);
  EXPECT_THROW(cli.get_bool("flag", false), InvalidArgumentError);
  EXPECT_EQ(cli.get_int("ok", 0), 3);
  EXPECT_DOUBLE_EQ(cli.get_double("f", 0.0), 2.5);
}

TEST(Cli, BoolAcceptsCommonSpellings) {
  const char* argv[] = {"prog", "--a=true", "--b=0", "--c=yes", "--d=false"};
  Cli cli(5, const_cast<char**>(argv));
  EXPECT_TRUE(cli.get_bool("a", false));
  EXPECT_FALSE(cli.get_bool("b", true));
  EXPECT_TRUE(cli.get_bool("c", false));
  EXPECT_FALSE(cli.get_bool("d", true));
}

TEST(Cli, UnknownFlagsAreReported) {
  const char* argv[] = {"prog", "--seed=1", "--trialz=5", "pos"};
  Cli cli(4, const_cast<char**>(argv));
  EXPECT_TRUE(cli.unknown_flags({"seed", "trialz"}).empty());
  const auto unknown = cli.unknown_flags({"seed", "trials"});
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "trialz");  // positionals are not flags
  EXPECT_NO_THROW(cli.expect_flags({"seed", "trialz"}));
  EXPECT_THROW(cli.expect_flags({"seed", "trials"}), InvalidArgumentError);
}

TEST(Cli, RejectsOutOfRangeIntegers) {
  // Regression: strtoll saturates to INT64_MAX/MIN on overflow and the old
  // parser accepted the saturated value, so --n=99999999999999999999 ran
  // with a silently clamped n. The errno/ERANGE check turns that into the
  // same InvalidArgumentError as a malformed digit string.
  const char* argv[] = {"prog", "--n=99999999999999999999",
                        "--m=-99999999999999999999",
                        "--max=9223372036854775807",
                        "--min=-9223372036854775808"};
  Cli cli(5, const_cast<char**>(argv));
  EXPECT_THROW(cli.get_int("n", 0), InvalidArgumentError);
  EXPECT_THROW(cli.get_int("m", 0), InvalidArgumentError);
  // The exact endpoints still parse: ERANGE only fires past them.
  EXPECT_EQ(cli.get_int("max", 0), INT64_MAX);
  EXPECT_EQ(cli.get_int("min", 0), INT64_MIN);
}

TEST(Cli, RejectsOverflowingDoubles) {
  const char* argv[] = {"prog", "--big=1e999", "--tiny=1e-999",
                        "--neg=-1e999"};
  Cli cli(4, const_cast<char**>(argv));
  // Overflow saturates to +-HUGE_VAL and is rejected; underflow to a
  // denormal (or zero) is a legitimate tiny value and is kept.
  EXPECT_THROW(cli.get_double("big", 0.0), InvalidArgumentError);
  EXPECT_THROW(cli.get_double("neg", 0.0), InvalidArgumentError);
  double tiny = 1.0;
  EXPECT_NO_THROW(tiny = cli.get_double("tiny", 0.0));
  EXPECT_GE(tiny, 0.0);
  EXPECT_LT(tiny, 1e-300);
}

TEST(Cli, GetIntInEnforcesBounds) {
  const char* argv[] = {"prog", "--port=65536", "--ok=8080", "--neg=-1",
                        "--huge=99999999999999999999"};
  Cli cli(5, const_cast<char**>(argv));
  EXPECT_EQ(cli.get_int_in("ok", 0, 0, 65535), 8080);
  EXPECT_EQ(cli.get_int_in("missing", 42, 0, 65535), 42);
  EXPECT_THROW(cli.get_int_in("port", 0, 0, 65535), InvalidArgumentError);
  EXPECT_THROW(cli.get_int_in("neg", 0, 0, 65535), InvalidArgumentError);
  // Overflow is caught by the underlying parse, not the range clamp.
  EXPECT_THROW(cli.get_int_in("huge", 0, 0, 65535), InvalidArgumentError);
  // Inclusive endpoints are in range.
  EXPECT_EQ(cli.get_int_in("ok", 0, 8080, 8080), 8080);
}

TEST(Bits, Widths) {
  EXPECT_EQ(bit_width_for(1), 1u);
  EXPECT_EQ(bit_width_for(2), 1u);
  EXPECT_EQ(bit_width_for(3), 2u);
  EXPECT_EQ(bit_width_for(256), 8u);
  EXPECT_EQ(bit_width_for(257), 9u);
  EXPECT_EQ(ceil_log2(1), 0u);
  EXPECT_EQ(ceil_log2(1024), 10u);
  EXPECT_EQ(ceil_log2(1025), 11u);
}

TEST(Bits, BandwidthScalesLogarithmically) {
  EXPECT_EQ(congest_bandwidth_bits(1024), 40u);
  EXPECT_GE(congest_bandwidth_bits(2), 16u);  // floor for tiny graphs
  EXPECT_GT(congest_bandwidth_bits(1u << 20),
            congest_bandwidth_bits(1u << 10));
}

TEST(Bits, BitAt) {
  EXPECT_EQ(bit_at(0b1010, 1), 1u);
  EXPECT_EQ(bit_at(0b1010, 0), 0u);
  EXPECT_EQ(bit_at(0b1010, 3), 1u);
}

TEST(Error, RequireThrows) {
  EXPECT_NO_THROW(require(true, "fine"));
  EXPECT_THROW(require(false, "nope"), InvalidArgumentError);
  EXPECT_THROW(check_internal(false, "bug"), InternalError);
}

}  // namespace
}  // namespace qc
