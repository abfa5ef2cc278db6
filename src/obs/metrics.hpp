// Injectable metrics registry.
//
// Every layer of the pipeline reports what it admitted and dropped through a
// MetricsRegistry: monotonically increasing counters, last-write gauges, and
// fixed-bucket histograms with percentile estimates. Names follow one
// convention (see DESIGN.md §9): dot-separated lowercase path segments with
// snake_case leaves, e.g. `stage.ingest.ssl.rows_malformed`. The reserved
// triple `stage.<name>.{in,admitted,dropped}` is what RunManifest folds into
// per-stage record accounting.
//
// Determinism contract: counters, gauges and histogram *counts* are exact
// functions of the input and are asserted exactly in tests. Wall time never
// enters this registry as a counter — durations live in the separate timing
// map (`observe_timing`) and in the trace tree, so exporters and tests can
// treat "numbers that must reproduce" and "numbers that depend on the
// machine" differently.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace certchain::obs {

/// Lowercases and maps every non-[a-z0-9.] character to '_' so display
/// strings ("TLS interception", "connect-timeout") can be embedded in metric
/// names without violating the naming convention.
std::string metric_slug(std::string_view text);

/// Fixed-bucket histogram: cumulative-style buckets defined by ascending
/// upper bounds plus an implicit +inf overflow bucket. Percentiles are
/// estimated by linear interpolation inside the owning bucket and clamped to
/// the observed [min, max], which makes the edge cases exact: an empty
/// histogram reports 0 everywhere, a single sample reports itself at every
/// quantile.
class FixedHistogram {
 public:
  /// `upper_bounds` must be strictly ascending; empty selects the default
  /// decade-ish grid suited to counts and millisecond timings.
  explicit FixedHistogram(std::vector<double> upper_bounds = {});

  static std::vector<double> default_bounds();

  void observe(double value, std::uint64_t count = 1);

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }
  double mean() const {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }

  /// Quantile estimate for q in [0, 1]. 0 when empty.
  double percentile(double q) const;
  double p50() const { return percentile(0.50); }
  double p90() const { return percentile(0.90); }
  double p99() const { return percentile(0.99); }

  /// Bucket upper bounds (excluding the +inf overflow bucket).
  const std::vector<double>& upper_bounds() const { return bounds_; }
  /// Per-bucket counts; size is upper_bounds().size() + 1 (last = overflow).
  const std::vector<std::uint64_t>& bucket_counts() const { return counts_; }

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

class MetricsRegistry {
 public:
  // --- counters (monotonic, exact) ---------------------------------------
  void count(std::string_view name, std::uint64_t delta = 1);
  std::uint64_t counter(std::string_view name) const;
  const std::map<std::string, std::uint64_t>& counters() const {
    return counters_;
  }

  // --- gauges (last write wins) ------------------------------------------
  void set_gauge(std::string_view name, double value);
  double gauge(std::string_view name) const;
  const std::map<std::string, double>& gauges() const { return gauges_; }

  // --- value histograms (deterministic distributions, e.g. chain lengths) -
  /// Returns the named histogram, creating it with `bounds` (or the default
  /// grid) on first use. Bounds of an existing histogram are not changed.
  FixedHistogram& histogram(std::string_view name,
                            std::vector<double> bounds = {});
  void observe(std::string_view name, double value);
  const std::map<std::string, FixedHistogram>& histograms() const {
    return histograms_;
  }

  // --- timings (real durations, milliseconds; never asserted exactly) -----
  void observe_timing(std::string_view name, double ms);
  const std::map<std::string, FixedHistogram>& timings() const {
    return timings_;
  }

  bool empty() const {
    return counters_.empty() && gauges_.empty() && histograms_.empty() &&
           timings_.empty();
  }
  void clear();

 private:
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, FixedHistogram> histograms_;
  std::map<std::string, FixedHistogram> timings_;
};

}  // namespace certchain::obs
