#include "util/rng.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

namespace certchain::util {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

namespace {

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

/// pick_weighted's scan: subtracts each positive weight from `target` in
/// order and stops at the first that takes it to zero or below; the last
/// index when none does.
std::size_t scan_for(std::span<const double> weights, double target) {
  for (std::size_t i = 0; i < weights.size(); ++i) {
    if (weights[i] <= 0.0) continue;
    target -= weights[i];
    if (target <= 0.0) return i;
  }
  return weights.size() - 1;
}

}  // namespace

WeightedTable::WeightedTable(std::span<const double> weights)
    : weights_(weights.begin(), weights.end()) {
  prefix_.reserve(weights_.size());
  bool finite = true;
  for (const double w : weights_) {
    total_ += (w > 0.0 ? w : 0.0);
    prefix_.push_back(total_);
    finite = finite && std::isfinite(w);
  }
  searchable_ = finite && std::isfinite(total_) && total_ > 0.0;
  margin_ = 8.0 * static_cast<double>(weights_.size() + 1) * 0x1.0p-53 * total_;
}

std::size_t WeightedTable::index_for(double target) const {
  if (searchable_) {
    const auto above = std::lower_bound(prefix_.begin(), prefix_.end(), target);
    if (above != prefix_.end()) {
      const double below = above == prefix_.begin() ? 0.0 : *(above - 1);
      if (target - below > margin_ && *above - target > margin_) {
        return static_cast<std::size_t>(above - prefix_.begin());
      }
    }
  }
  return scan_for(weights_, target);
}

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
  // xoshiro must not start from the all-zero state.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

Rng Rng::fork(std::uint64_t salt) {
  // Mix the salt with fresh output so forks with different salts diverge and
  // the parent stream is perturbed only by the two next_u64() draws.
  std::uint64_t mixed = next_u64() ^ (salt * 0x9E3779B97F4A7C15ULL);
  mixed ^= rotl(next_u64(), 23);
  return Rng(mixed);
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::next_below(std::uint64_t bound) {
  if (bound == 0) return 0;
  // Lemire's multiply-shift with rejection to remove modulo bias.
  std::uint64_t x = next_u64();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto low = static_cast<std::uint64_t>(m);
  if (low < bound) {
    const std::uint64_t threshold = (0 - bound) % bound;
    while (low < threshold) {
      x = next_u64();
      m = static_cast<__uint128_t>(x) * bound;
      low = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  if (lo >= hi) return lo;
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(next_below(span));
}

double Rng::uniform() {
  // 53 top bits -> double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

bool Rng::bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

double Rng::normal(double mean, double stddev) {
  if (has_spare_normal_) {
    has_spare_normal_ = false;
    return mean + stddev * spare_normal_;
  }
  double u1 = uniform();
  const double u2 = uniform();
  if (u1 <= 0.0) u1 = 0x1.0p-53;  // avoid log(0)
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * std::numbers::pi * u2;
  spare_normal_ = radius * std::sin(angle);
  has_spare_normal_ = true;
  return mean + stddev * radius * std::cos(angle);
}

double Rng::exponential(double lambda) {
  double u = uniform();
  if (u <= 0.0) u = 0x1.0p-53;
  return -std::log(u) / lambda;
}

std::size_t Rng::zipf(std::size_t n, double s) {
  if (n == 0) return 0;
  // Inverse-CDF over the (small) support; n in this codebase is at most a few
  // thousand, so the O(n) normalization is computed lazily per call only for
  // tiny n; for larger n we use rejection sampling against a bounding curve.
  if (n <= 64) {
    double total = 0.0;
    for (std::size_t r = 0; r < n; ++r) total += 1.0 / std::pow(double(r + 1), s);
    double target = uniform() * total;
    for (std::size_t r = 0; r < n; ++r) {
      target -= 1.0 / std::pow(double(r + 1), s);
      if (target <= 0.0) return r;
    }
    return n - 1;
  }
  // Rejection sampling (Devroye) for larger supports; requires s > 1, so
  // clamp (callers wanting flatter tails should use pick_weighted).
  const double exponent = std::max(s, 1.0001);
  const double b = std::pow(2.0, exponent - 1.0);
  for (;;) {
    const double u = uniform();
    const double v = uniform();
    const double x = std::floor(std::pow(u, -1.0 / (exponent - 1.0)));
    const double t = std::pow(1.0 + 1.0 / x, exponent - 1.0);
    if (v * x * (t - 1.0) / (b - 1.0) <= t / b) {
      const auto rank = static_cast<std::size_t>(x) - 1;
      if (rank < n) return rank;
    }
  }
}

std::size_t Rng::pick_weighted(std::span<const double> weights) {
  double total = 0.0;
  for (const double w : weights) total += (w > 0.0 ? w : 0.0);
  if (total <= 0.0) {
    return weights.empty() ? 0 : static_cast<std::size_t>(next_below(weights.size()));
  }
  return scan_for(weights, uniform() * total);
}

std::size_t Rng::pick_weighted(std::initializer_list<double> weights) {
  return pick_weighted(std::span<const double>(weights.begin(), weights.size()));
}

std::size_t Rng::pick_weighted(const WeightedTable& table) {
  if (table.total() <= 0.0) {
    return table.size() == 0 ? 0 : static_cast<std::size_t>(next_below(table.size()));
  }
  return table.index_for(uniform() * table.total());
}

std::string Rng::alpha_string(std::size_t length) {
  std::string out;
  out.reserve(length);
  for (std::size_t i = 0; i < length; ++i) {
    out.push_back(static_cast<char>('a' + next_below(26)));
  }
  return out;
}

std::string Rng::alnum_string(std::size_t length) {
  static constexpr char kAlphabet[] = "abcdefghijklmnopqrstuvwxyz0123456789";
  std::string out;
  out.reserve(length);
  for (std::size_t i = 0; i < length; ++i) {
    out.push_back(kAlphabet[next_below(36)]);
  }
  return out;
}

std::string Rng::hex_string(std::size_t length) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(length);
  for (std::size_t i = 0; i < length; ++i) {
    out.push_back(kHex[next_below(16)]);
  }
  return out;
}

std::uint64_t stable_salt(std::string_view text) {
  // FNV-1a 64.
  std::uint64_t hash = 0xCBF29CE484222325ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

}  // namespace certchain::util
