#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

using certchain::obs::Trace;

double effective_quantile(std::size_t n, double q) {
  if (n == 0) return q;
  const double ceiling =
      1.0 - static_cast<double>(kTailSamples) / static_cast<double>(n);
  return std::max(0.5, std::min(q, ceiling));
}

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const std::size_t n = samples.size();
  const double eq = effective_quantile(n, q);
  // Nearest rank: the smallest sample with at least eq·n samples at or
  // below it. The epsilon keeps 0.99·1000 from rounding up to 991.
  std::size_t rank =
      static_cast<std::size_t>(std::ceil(eq * static_cast<double>(n) - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, n);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1), samples.end());
  return samples[rank - 1];
}

double median(std::vector<double> samples) {
  return percentile(std::move(samples), 0.5);
}

double windowed_percentile(const std::vector<double>& samples, double q,
                           std::size_t window) {
  const std::size_t windows = std::max<std::size_t>(1, samples.size() / std::max<std::size_t>(1, window));
  std::vector<double> per_window;
  for (std::size_t w = 0; w < windows; ++w) {
    const auto begin = samples.begin() + static_cast<std::ptrdiff_t>(w * samples.size() / windows);
    const auto end = samples.begin() + static_cast<std::ptrdiff_t>((w + 1) * samples.size() / windows);
    per_window.push_back(percentile(std::vector<double>(begin, end), q));
  }
  return median(std::move(per_window));
}

double slope(const std::vector<double>& xs, const std::vector<double>& ys) {
  const std::size_t n = std::min(xs.size(), ys.size());
  if (n < 2) return 0.0;
  double mx = 0.0;
  double my = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    mx += xs[i];
    my += ys[i];
  }
  mx /= static_cast<double>(n);
  my /= static_cast<double>(n);
  double sxy = 0.0;
  double sxx = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sxy += (xs[i] - mx) * (ys[i] - my);
    sxx += (xs[i] - mx) * (xs[i] - mx);
  }
  return sxx == 0.0 ? 0.0 : sxy / sxx;
}

namespace {

/// "categorize.shard3" -> "categorize"; "" for a non-shard span.
std::string_view shard_group(std::string_view name) {
  const std::size_t at = name.rfind(".shard");
  return at == std::string_view::npos ? std::string_view{} : name.substr(0, at);
}

}  // namespace

double covered_child_ms(const Trace::Node& node) {
  double covered = 0.0;
  std::map<std::string, double, std::less<>> longest_shard;
  for (const auto& child : node.children) {
    const std::string_view group = shard_group(child->name);
    if (group.empty()) {
      covered += child->wall_ms;
      continue;
    }
    auto it = longest_shard.find(group);
    if (it == longest_shard.end()) {
      longest_shard.emplace(std::string(group), child->wall_ms);
    } else {
      it->second = std::max(it->second, child->wall_ms);
    }
  }
  for (const auto& [group, wall] : longest_shard) covered += wall;
  return std::min(covered, node.wall_ms);
}

double self_ms(const Trace::Node& node) {
  return node.wall_ms - covered_child_ms(node);
}

const Trace::Node* find_span(const Trace::Node& root, std::string_view name) {
  if (root.name == name) return &root;
  for (const auto& child : root.children) {
    if (const Trace::Node* hit = find_span(*child, name)) return hit;
  }
  return nullptr;
}

std::vector<double> child_walls(const Trace::Node& node, std::string_view prefix) {
  std::vector<double> walls;
  for (const auto& child : node.children) {
    if (std::string_view(child->name).substr(0, prefix.size()) == prefix) {
      walls.push_back(child->wall_ms);
    }
  }
  return walls;
}

double skew(const std::vector<double>& shard_ms) {
  if (shard_ms.empty()) return 0.0;
  double sum = 0.0;
  double max = 0.0;
  for (const double ms : shard_ms) {
    sum += ms;
    max = std::max(max, ms);
  }
  const double mean = sum / static_cast<double>(shard_ms.size());
  return mean <= 0.0 ? 0.0 : max / mean;
}

OpTally tally_digests(const std::vector<std::uint64_t>& digests,
                      std::uint64_t reference) {
  OpTally tally;
  for (const std::uint64_t digest : digests) tally.record(digest == reference);
  return tally;
}

}  // namespace perfbench
