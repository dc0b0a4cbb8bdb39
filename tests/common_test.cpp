#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/par_for.hpp"
#include "common/par_sort.hpp"
#include "common/prng.hpp"
#include "common/stats.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"

namespace gg {
namespace {

TEST(PrngTest, SplitMixIsDeterministic) {
  SplitMix64 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(PrngTest, XoshiroIsDeterministicAndSeedSensitive) {
  Xoshiro256 a(1), b(1), c(2);
  bool differs = false;
  for (int i = 0; i < 100; ++i) {
    const u64 x = a.next();
    EXPECT_EQ(x, b.next());
    if (x != c.next()) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(PrngTest, BoundedStaysInBounds) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.bounded(17), 17u);
  }
}

TEST(PrngTest, BoundedCoversAllResidues) {
  Xoshiro256 rng(3);
  std::vector<int> seen(8, 0);
  for (int i = 0; i < 4000; ++i) ++seen[rng.bounded(8)];
  for (int count : seen) EXPECT_GT(count, 0);
}

TEST(PrngTest, Uniform01InHalfOpenInterval) {
  Xoshiro256 rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(PrngTest, RangeIsInclusive) {
  Xoshiro256 rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const i64 v = rng.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(PrngTest, ExponentialMeanIsApproximatelyRight) {
  Xoshiro256 rng(13);
  double sum = 0.0;
  constexpr int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.15);
}

TEST(PrngTest, ParetoRespectsScale) {
  Xoshiro256 rng(17);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(rng.pareto(2.0, 1.5), 2.0);
}

TEST(StatsTest, MedianOddEven) {
  const std::vector<double> odd = {5, 1, 3};
  EXPECT_DOUBLE_EQ(stats::median(odd), 3.0);
  const std::vector<double> even = {4, 1, 3, 2};
  EXPECT_DOUBLE_EQ(stats::median(even), 2.5);
  EXPECT_DOUBLE_EQ(stats::median(std::span<const double>{}), 0.0);
}

TEST(StatsTest, MedianU64) {
  const std::vector<u64> v = {10, 30, 20};
  EXPECT_DOUBLE_EQ(stats::median(v), 20.0);
}

TEST(StatsTest, MeanAndStddev) {
  const std::vector<double> v = {2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(stats::mean(v), 5.0);
  EXPECT_DOUBLE_EQ(stats::stddev(v), 2.0);
}

TEST(StatsTest, Percentile) {
  const std::vector<double> v = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(stats::percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(stats::percentile(v, 100), 5.0);
  EXPECT_DOUBLE_EQ(stats::percentile(v, 50), 3.0);
  EXPECT_DOUBLE_EQ(stats::percentile(v, 25), 2.0);
}

TEST(StatsTest, MinMaxGeomean) {
  const std::vector<u64> v = {5, 2, 9};
  EXPECT_EQ(stats::min_value(v), 2u);
  EXPECT_EQ(stats::max_value(v), 9u);
  const std::vector<double> g = {1.0, 4.0};
  EXPECT_NEAR(stats::geomean(g), 2.0, 1e-12);
  const std::vector<double> bad = {1.0, 0.0};
  EXPECT_DOUBLE_EQ(stats::geomean(bad), 0.0);
}

TEST(StringTableTest, InternIsIdempotentAndDense) {
  StringTable t;
  EXPECT_EQ(t.get(0), "");
  const StrId a = t.intern("alpha");
  const StrId b = t.intern("beta");
  EXPECT_EQ(a, 1u);
  EXPECT_EQ(b, 2u);
  EXPECT_EQ(t.intern("alpha"), a);
  EXPECT_EQ(t.get(a), "alpha");
  EXPECT_EQ(t.find("beta"), b);
  EXPECT_EQ(t.find("missing"), 0u);
  EXPECT_EQ(t.get(999), "");
}

TEST(StringsTest, XmlEscape) {
  EXPECT_EQ(strings::xml_escape("a<b>&\"c'"), "a&lt;b&gt;&amp;&quot;c&apos;");
  EXPECT_EQ(strings::xml_escape("plain"), "plain");
}

TEST(StringsTest, TrimDouble) {
  EXPECT_EQ(strings::trim_double(1.5), "1.5");
  EXPECT_EQ(strings::trim_double(2.0), "2");
  EXPECT_EQ(strings::trim_double(0.125, 3), "0.125");
  EXPECT_EQ(strings::trim_double(0.1239, 3), "0.124");
}

TEST(StringsTest, HumanTime) {
  EXPECT_EQ(strings::human_time(12), "12ns");
  EXPECT_EQ(strings::human_time(3400), "3.4us");
  EXPECT_EQ(strings::human_time(1'200'000), "1.2ms");
  EXPECT_EQ(strings::human_time(5'600'000'000ull), "5.6s");
}

TEST(StringsTest, JoinAndStartsWith) {
  EXPECT_EQ(strings::join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(strings::join({}, ","), "");
  EXPECT_TRUE(strings::starts_with("sparselu.c:246", "sparselu"));
  EXPECT_FALSE(strings::starts_with("x", "xyz"));
}

TEST(TableTest, TextRendering) {
  Table t("demo");
  t.set_header({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  const std::string text = t.to_text();
  EXPECT_NE(text.find("demo"), std::string::npos);
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("| name "), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(TableTest, CsvQuoting) {
  Table t;
  t.set_header({"a", "b"});
  t.add_row({"x,y", "say \"hi\""});
  const std::string csv = t.to_csv();
  EXPECT_EQ(csv, "a,b\n\"x,y\",\"say \"\"hi\"\"\"\n");
}

TEST(TableTest, MixedRowFormatsDoubles) {
  Table t;
  t.set_header({"a", "b"});
  t.add_row_mixed({1.0, 2.25});
  EXPECT_NE(t.to_text().find("2.25"), std::string::npos);
}

// par_stable_sort must be exactly std::stable_sort — records with equal keys
// keep their input order — for every thread count, on inputs large enough
// to take the parallel block-sort-and-merge path.
struct KeyedItem {
  u32 key;
  u32 id;  // input position: shows whether equal keys kept their order
  bool operator==(const KeyedItem&) const = default;
};

std::vector<KeyedItem> keyed(const std::vector<u32>& keys) {
  std::vector<KeyedItem> v;
  for (u32 i = 0; i < keys.size(); ++i) v.push_back({keys[i], i});
  return v;
}

TEST(ParStableSortTest, EqualsStdStableSortForEveryThreadCount) {
  const u32 n = static_cast<u32>(5 * kParForMinItems + 123);
  std::vector<u32> sorted, reversed, equal, random_dups, sorted_dups;
  Xoshiro256 rng(17);
  for (u32 i = 0; i < n; ++i) {
    sorted.push_back(i);
    reversed.push_back(n - i);
    equal.push_back(7);
    random_dups.push_back(static_cast<u32>(rng.bounded(64)));
    sorted_dups.push_back(i / 10);
  }
  const std::vector<std::pair<const char*, std::vector<u32>>> inputs = {
      {"sorted", sorted},
      {"reversed", reversed},
      {"all-equal", equal},
      {"random-with-duplicate-keys", random_dups},
      {"sorted-with-duplicate-keys", sorted_dups},
      {"small-random", std::vector<u32>(random_dups.begin(),
                                        random_dups.begin() + 100)}};
  const auto by_key = [](const KeyedItem& a, const KeyedItem& b) {
    return a.key < b.key;
  };
  for (const auto& [name, keys] : inputs) {
    std::vector<KeyedItem> want = keyed(keys);
    std::stable_sort(want.begin(), want.end(), by_key);
    for (int threads : {1, 2, 4, 8}) {
      std::vector<KeyedItem> got = keyed(keys);
      par_stable_sort(got, threads, by_key);
      EXPECT_TRUE(got == want) << name << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace gg
