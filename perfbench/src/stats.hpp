// The benchmark's own arithmetic: percentiles, span self times, op tallies.
//
// Everything here is pure and unit-tested by tests/selftest.cpp, so a number
// the harness reports can be traced back to one small, checked rule.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/span.hpp"

namespace perfbench {

/// The tail rule: a percentile is only as good as the samples beyond it. A
/// requested quantile q is lowered to the highest quantile that still leaves
/// at least kTailSamples samples above it (never below the median), so a
/// short run reports an honest p95 rather than a p99 that is one sample.
inline constexpr std::size_t kTailSamples = 10;

/// The quantile actually reported for `n` samples when `q` is requested.
double effective_quantile(std::size_t n, double q);

/// Nearest-rank percentile of `samples` at effective_quantile(n, q).
/// 0 for an empty sample set.
double percentile(std::vector<double> samples, double q);

/// percentile(samples, 0.5).
double median(std::vector<double> samples);

/// The median, over consecutive windows of about `window` samples, of each
/// window's percentile at q. One stall on a shared host then moves one
/// window's tail, not the run's.
double windowed_percentile(const std::vector<double>& samples, double q,
                           std::size_t window);

/// Least-squares slope of ys against xs (0 when xs has no spread).
double slope(const std::vector<double>& xs, const std::vector<double>& ys);

/// Time a span's children account for. Sequential children add up; sibling
/// shard spans ("<stage>.shardN", measured concurrently on a pool) cover only
/// their longest member, because they ran side by side. Capped at the
/// parent's own wall time.
double covered_child_ms(const certchain::obs::Trace::Node& node);

/// A span's self time: its wall time minus the time its children cover.
double self_ms(const certchain::obs::Trace::Node& node);

/// Depth-first search for the first span named `name` (nullptr if absent).
const certchain::obs::Trace::Node* find_span(
    const certchain::obs::Trace::Node& root, std::string_view name);

/// Wall times of the direct children of `node` whose names start with
/// `prefix` (e.g. "ingest.ssl.chunk", "categorize.shard").
std::vector<double> child_walls(const certchain::obs::Trace::Node& node,
                                std::string_view prefix);

/// max/mean of a set of shard times (1 = perfectly balanced, 0 if empty).
double skew(const std::vector<double>& shard_ms);

/// Attempted/failed accounting for one workload's operations.
struct OpTally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  void merge(const OpTally& other) {
    attempted += other.attempted;
    failed += other.failed;
  }
};

/// The batch correctness gate: every op whose report digest differs from
/// the seed's reference digest is a failed op.
OpTally tally_digests(const std::vector<std::uint64_t>& digests,
                      std::uint64_t reference);

/// One reported metric.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using MetricSet = std::map<std::string, Metric>;

}  // namespace perfbench
