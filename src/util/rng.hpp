// Deterministic pseudo-random number generation.
//
// Every stochastic component in this repository (the traffic simulator, the
// synthetic dataset generator, the workload sweeps) draws from Rng so that a
// given seed always reproduces the exact same corpus, logs, and experiment
// tables. We deliberately avoid std::mt19937 + std::uniform_int_distribution
// because the standard distributions are not guaranteed to produce identical
// streams across standard library implementations; the generator and the
// distribution mappings below are fully specified by this file.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace certchain::util {

/// splitmix64 step; used for seeding and as a standalone mixer.
std::uint64_t splitmix64(std::uint64_t& state);

/// A weight span prepared for repeated draws: Rng::pick_weighted(table)
/// returns exactly what Rng::pick_weighted(weights) returns, from the same
/// random draws, in O(log n) instead of two linear passes.
///
/// The table keeps the running sums of max(w, 0), so its total equals the
/// scan's total bit for bit. A target t is searched in those sums. The
/// scan's running remainder and the sums each carry at most
/// (n+1)·2⁻⁵³·total of rounding error, so the searched index is the scan's
/// whenever t lies more than 8(n+1)·2⁻⁵³·total from both neighbouring sums;
/// otherwise the table runs the scan itself. It always scans when a weight
/// is NaN or infinite.
class WeightedTable {
 public:
  WeightedTable() = default;
  explicit WeightedTable(std::span<const double> weights);

  std::size_t size() const { return weights_.size(); }
  /// The sum of the positive weights, in order; the scan's total.
  double total() const { return total_; }

  /// The index the scan picks for the target `target` (u · total, u in
  /// [0, 1)). Requires total() > 0.
  std::size_t index_for(double target) const;

 private:
  std::vector<double> weights_;
  std::vector<double> prefix_;  // prefix_[i]: the sum through weights_[i]
  double total_ = 0.0;
  double margin_ = 0.0;
  bool searchable_ = false;  // every weight finite and the total > 0
};

/// A small, fast, deterministic PRNG (xoshiro256** core, splitmix64-seeded).
///
/// Not cryptographically secure — it only drives simulation workloads.
class Rng {
 public:
  /// Seeds the four 64-bit words of state from `seed` via splitmix64.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Derives an independent child generator. Streams of a child never
  /// correlate with the parent continuing from the same point, which lets a
  /// simulator hand stable per-entity generators out of one master seed.
  Rng fork(std::uint64_t salt);

  /// Uniform 64 random bits.
  std::uint64_t next_u64();

  /// Uniform in [0, bound). bound == 0 returns 0. Uses Lemire rejection so
  /// the mapping is unbiased and implementation-independent.
  std::uint64_t next_below(std::uint64_t bound);

  /// Uniform integer in the inclusive range [lo, hi].
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// True with probability p (clamped to [0,1]).
  bool bernoulli(double p);

  /// Standard normal via Box-Muller (deterministic branch ordering).
  double normal(double mean = 0.0, double stddev = 1.0);

  /// Exponential with rate lambda (> 0).
  double exponential(double lambda);

  /// Zipf-like rank sampler over [0, n): probability of rank r proportional
  /// to 1/(r+1)^s. Used for heavy-tailed client/server popularity.
  std::size_t zipf(std::size_t n, double s);

  /// Picks an index according to the given non-negative weights.
  /// All-zero weights degrade to uniform choice.
  std::size_t pick_weighted(std::span<const double> weights);
  std::size_t pick_weighted(std::initializer_list<double> weights);
  /// The same pick, from the same draws, over a prepared table.
  std::size_t pick_weighted(const WeightedTable& table);

  /// Picks a uniformly random element of a non-empty vector.
  template <typename T>
  const T& pick(const std::vector<T>& items) {
    return items[static_cast<std::size_t>(next_below(items.size()))];
  }

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& items) {
    if (items.size() < 2) return;
    for (std::size_t i = items.size() - 1; i > 0; --i) {
      const std::size_t j = static_cast<std::size_t>(next_below(i + 1));
      using std::swap;
      swap(items[i], items[j]);
    }
  }

  /// Random lowercase ASCII string of the given length (a-z only).
  std::string alpha_string(std::size_t length);

  /// Random lowercase alphanumeric string of the given length.
  std::string alnum_string(std::size_t length);

  /// Random hex string of the given length.
  std::string hex_string(std::size_t length);

 private:
  std::uint64_t s_[4];
  // Box-Muller spare value cache.
  bool has_spare_normal_ = false;
  double spare_normal_ = 0.0;
};

/// Stable 64-bit hash of a string, for deriving per-entity fork salts
/// (e.g. rng.fork(stable_salt(server_name))).
std::uint64_t stable_salt(std::string_view text);

}  // namespace certchain::util
