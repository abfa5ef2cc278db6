#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <span>
#include <vector>

namespace certchain::util {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, ZeroSeedIsUsable) {
  Rng rng(0);
  std::set<std::uint64_t> values;
  for (int i = 0; i < 64; ++i) values.insert(rng.next_u64());
  EXPECT_GT(values.size(), 60u);
}

TEST(Rng, ForkDecorrelatesFromParent) {
  Rng parent(7);
  Rng child = parent.fork(1);
  // Parent continues, child starts fresh: streams should not coincide.
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (parent.next_u64() == child.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, ForksWithDistinctSaltsDiffer) {
  Rng a(7);
  Rng b(7);
  Rng child_a = a.fork(1);
  Rng child_b = b.fork(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (child_a.next_u64() == child_b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, NextBelowZeroBoundReturnsZero) {
  Rng rng(3);
  EXPECT_EQ(rng.next_below(0), 0u);
}

TEST(Rng, NextBelowOneAlwaysZero) {
  Rng rng(3);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.next_below(1), 0u);
}

class RngBoundTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngBoundTest, NextBelowStaysInRange) {
  Rng rng(GetParam() * 1234567 + 1);
  const std::uint64_t bound = GetParam();
  for (int i = 0; i < 2000; ++i) {
    EXPECT_LT(rng.next_below(bound), bound);
  }
}

TEST_P(RngBoundTest, NextBelowCoversRangeForSmallBounds) {
  const std::uint64_t bound = GetParam();
  if (bound > 64) GTEST_SKIP() << "coverage check only for small bounds";
  Rng rng(GetParam() + 99);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 5000; ++i) seen.insert(rng.next_below(bound));
  EXPECT_EQ(seen.size(), bound);
}

INSTANTIATE_TEST_SUITE_P(Bounds, RngBoundTest,
                         ::testing::Values(2, 3, 7, 10, 64, 1000, 1u << 20,
                                           (1ull << 63) + 5));

TEST(Rng, UniformInUnitInterval) {
  Rng rng(5);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, UniformIntInclusiveRange) {
  Rng rng(6);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 5000; ++i) {
    const std::int64_t v = rng.uniform_int(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(Rng, UniformIntDegenerateRange) {
  Rng rng(6);
  EXPECT_EQ(rng.uniform_int(5, 5), 5);
  EXPECT_EQ(rng.uniform_int(9, 2), 9);  // lo >= hi returns lo
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(8);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_FALSE(rng.bernoulli(-0.5));
    EXPECT_TRUE(rng.bernoulli(1.5));
  }
}

TEST(Rng, BernoulliRate) {
  Rng rng(9);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Rng, NormalMoments) {
  Rng rng(10);
  double sum = 0;
  double sum_sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(2.0, 3.0);
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / n;
  const double variance = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.1);
  EXPECT_NEAR(std::sqrt(variance), 3.0, 0.1);
}

TEST(Rng, ExponentialMean) {
  Rng rng(11);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.03);
}

TEST(Rng, ZipfLargeSupportRejectionPath) {
  Rng rng(99);
  for (int i = 0; i < 5000; ++i) {
    ASSERT_LT(rng.zipf(1000, 1.3), 1000u);
  }
  // s <= 1 is clamped rather than spinning forever.
  for (int i = 0; i < 100; ++i) {
    ASSERT_LT(rng.zipf(1000, 0.5), 1000u);
  }
}

TEST(Rng, ZipfFavorsLowRanks) {
  Rng rng(12);
  std::vector<int> counts(16, 0);
  for (int i = 0; i < 20000; ++i) {
    const std::size_t r = rng.zipf(16, 1.2);
    ASSERT_LT(r, 16u);
    ++counts[r];
  }
  EXPECT_GT(counts[0], counts[4]);
  EXPECT_GT(counts[0], counts[15] * 4);
}

TEST(Rng, PickWeightedRespectsWeights) {
  Rng rng(13);
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 30000; ++i) {
    ++counts[rng.pick_weighted({1.0, 0.0, 3.0})];
  }
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.3);
}

TEST(Rng, PickWeightedAllZeroFallsBackToUniform) {
  Rng rng(14);
  std::set<std::size_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.pick_weighted({0.0, 0.0, 0.0}));
  EXPECT_EQ(seen.size(), 3u);
}

// --- WeightedTable -------------------------------------------------------------

/// The scan that defines pick_weighted, at a given target: the first
/// positive weight whose subtraction takes the remainder to zero or below.
std::size_t scan_index(const std::vector<double>& weights, double target) {
  for (std::size_t i = 0; i < weights.size(); ++i) {
    if (weights[i] <= 0.0) continue;
    target -= weights[i];
    if (target <= 0.0) return i;
  }
  return weights.size() - 1;
}

/// A random weight vector of `size` entries in one of five shapes: finite
/// weights with zeros and negatives; magnitudes from 1e-300 to 1e300; the
/// first shape with NaN and infinities mixed in; one positive weight; no
/// positive weight.
std::vector<double> random_weights(Rng& gen, std::size_t size, int shape) {
  const double magnitudes[] = {1e-300, 1e-9, 1.0, 1e3, 1e300};
  const double specials[] = {std::nan(""), HUGE_VAL, -HUGE_VAL};
  std::vector<double> weights(size);
  for (double& w : weights) {
    const double roll = gen.uniform();
    if (roll < 0.15) {
      w = 0.0;
    } else if (roll < 0.25) {
      w = -gen.uniform(0.0, 5.0);
    } else if (shape == 1) {
      w = magnitudes[gen.next_below(std::size(magnitudes))] * gen.uniform(0.5, 2.0);
    } else if (shape == 2 && roll < 0.27) {
      w = specials[gen.next_below(std::size(specials))];
    } else {
      w = gen.uniform(0.0, 10.0);
    }
  }
  if (shape >= 3) {
    for (double& w : weights) w = w > 0.0 ? 0.0 : w;
    if (shape == 3 && size > 0) weights[gen.next_below(size)] = gen.uniform(1e-9, 1.0);
  }
  return weights;
}

TEST(WeightedTable, DrawsExactlyWhatTheScanDraws) {
  Rng gen(2026);
  const std::size_t sizes[] = {0, 1, 2, 3, 5, 17, 100, 1000, 5181, 100000};
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t size = sizes[trial % std::size(sizes)];
    const int shape = static_cast<int>(gen.next_below(5));
    const std::vector<double> weights = random_weights(gen, size, shape);
    const WeightedTable table(weights);
    ASSERT_EQ(table.size(), size);
    double total = 0.0;
    for (const double w : weights) total += (w > 0.0 ? w : 0.0);
    ASSERT_EQ(table.total(), total) << "trial " << trial;

    const std::uint64_t seed = gen.next_u64();
    Rng by_table(seed);
    Rng by_scan(seed);
    const std::size_t draws =
        std::min<std::size_t>(1000, 500'000 / std::max<std::size_t>(size, 1));
    for (std::size_t d = 0; d < draws; ++d) {
      ASSERT_EQ(by_table.pick_weighted(table), by_scan.pick_weighted(weights))
          << "trial " << trial << " shape " << shape << " draw " << d;
    }
    ASSERT_EQ(by_table.next_u64(), by_scan.next_u64()) << "trial " << trial;

    // Targets on and next to the running sums, where rounding decides.
    if (!(total > 0.0)) continue;
    double sum = 0.0;
    const std::size_t stride = size <= 1000 ? 1 : size / 16;
    for (std::size_t i = 0; i < size; ++i) {
      sum += (weights[i] > 0.0 ? weights[i] : 0.0);
      if (i % stride != 0) continue;
      for (const double target : {sum, std::nextafter(sum, 0.0),
                                  std::nextafter(sum, HUGE_VAL)}) {
        if (target > total) continue;
        ASSERT_EQ(table.index_for(target), scan_index(weights, target))
            << "trial " << trial << " target " << target;
      }
    }
  }
}

TEST(WeightedTable, RunningSumTiesFollowTheScan) {
  // The second running sum is fl(0.1 + 0.2). At that target the scan's
  // remainder after two subtractions is 2^-55, not zero, so it picks index
  // 2; a plain search of the sums would stop at 1.
  const std::vector<double> weights = {0.1, 0.2, 0.3};
  const WeightedTable table(weights);
  EXPECT_EQ(scan_index(weights, 0.1 + 0.2), 2u);
  EXPECT_EQ(table.index_for(0.1 + 0.2), 2u);
  EXPECT_EQ(table.index_for(0.0), 0u);
  EXPECT_EQ(table.index_for(0.2), 1u);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(15);
  std::vector<int> items{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> shuffled = items;
  rng.shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, items);
}

TEST(Rng, StringsHaveRequestedLengthAndAlphabet) {
  Rng rng(16);
  const std::string alpha = rng.alpha_string(32);
  EXPECT_EQ(alpha.size(), 32u);
  for (const char c : alpha) EXPECT_TRUE(c >= 'a' && c <= 'z');
  const std::string hex = rng.hex_string(40);
  EXPECT_EQ(hex.size(), 40u);
  for (const char c : hex) {
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'));
  }
}

TEST(StableSalt, DeterministicAndSensitive) {
  EXPECT_EQ(stable_salt("abc"), stable_salt("abc"));
  EXPECT_NE(stable_salt("abc"), stable_salt("abd"));
  EXPECT_NE(stable_salt(""), stable_salt("a"));
}

}  // namespace
}  // namespace certchain::util
