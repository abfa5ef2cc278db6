#include "obs/metrics.hpp"

#include <algorithm>
#include <cctype>

namespace certchain::obs {

std::string metric_slug(std::string_view text) {
  std::string slug;
  slug.reserve(text.size());
  for (const char c : text) {
    const unsigned char u = static_cast<unsigned char>(c);
    if (std::isalnum(u)) {
      slug.push_back(static_cast<char>(std::tolower(u)));
    } else if (c == '.') {
      slug.push_back('.');
    } else {
      slug.push_back('_');
    }
  }
  return slug;
}

std::vector<double> FixedHistogram::default_bounds() {
  // 1-2-5 decades from 0.001 to 1e7: fine enough for sub-millisecond timings
  // and wide enough for campus-scale record counts.
  std::vector<double> bounds;
  for (double decade = 0.001; decade < 5e6; decade *= 10.0) {
    bounds.push_back(decade);
    bounds.push_back(decade * 2.0);
    bounds.push_back(decade * 5.0);
  }
  return bounds;
}

FixedHistogram::FixedHistogram(std::vector<double> upper_bounds)
    : bounds_(upper_bounds.empty() ? default_bounds() : std::move(upper_bounds)),
      counts_(bounds_.size() + 1, 0) {}

void FixedHistogram::observe(double value, std::uint64_t count) {
  if (count == 0) return;
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  count_ += count;
  sum_ += value * static_cast<double>(count);
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  counts_[static_cast<std::size_t>(it - bounds_.begin())] += count;
}

double FixedHistogram::percentile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Nearest-rank target, then linear interpolation inside the bucket.
  const double target = q * static_cast<double>(count_ - 1) + 1.0;
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    const double bucket_begin = static_cast<double>(cumulative) + 1.0;
    cumulative += counts_[i];
    if (static_cast<double>(cumulative) + 1e-9 < target) continue;

    const double lo = i == 0 ? min_ : std::max(min_, bounds_[i - 1]);
    const double hi = i < bounds_.size() ? std::min(max_, bounds_[i]) : max_;
    const double width = static_cast<double>(counts_[i]);
    const double position =
        width <= 1.0 ? 0.0
                     : std::clamp((target - bucket_begin) / (width - 1.0), 0.0, 1.0);
    const double estimate = lo + (hi - lo) * position;
    return std::clamp(estimate, min_, max_);
  }
  return max_;
}

void MetricsRegistry::count(std::string_view name, std::uint64_t delta) {
  counters_[std::string(name)] += delta;
}

std::uint64_t MetricsRegistry::counter(std::string_view name) const {
  const auto it = counters_.find(std::string(name));
  return it == counters_.end() ? 0 : it->second;
}

void MetricsRegistry::set_gauge(std::string_view name, double value) {
  gauges_[std::string(name)] = value;
}

double MetricsRegistry::gauge(std::string_view name) const {
  const auto it = gauges_.find(std::string(name));
  return it == gauges_.end() ? 0.0 : it->second;
}

FixedHistogram& MetricsRegistry::histogram(std::string_view name,
                                           std::vector<double> bounds) {
  const auto it = histograms_.find(std::string(name));
  if (it != histograms_.end()) return it->second;
  return histograms_
      .emplace(std::string(name), FixedHistogram(std::move(bounds)))
      .first->second;
}

void MetricsRegistry::observe(std::string_view name, double value) {
  histogram(name).observe(value);
}

void MetricsRegistry::observe_timing(std::string_view name, double ms) {
  const auto it = timings_.find(std::string(name));
  if (it != timings_.end()) {
    it->second.observe(ms);
    return;
  }
  timings_.emplace(std::string(name), FixedHistogram()).first->second.observe(ms);
}

void MetricsRegistry::clear() {
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
  timings_.clear();
}

}  // namespace certchain::obs
