// The unit of observability for one run: a metrics registry, a trace tree,
// and the config snapshot the RunManifest is built from.
//
// Components accept a RunContext* (nullptr = telemetry off, zero overhead
// beyond the branch). StageTimer is the standard way to mark a pipeline
// stage: it opens a span in the trace AND records the duration into the
// registry's timing map as `time.<name>.ms`, so both the trace tree and the
// flat exporters see the same number.
#pragma once

#include <map>
#include <string>
#include <string_view>

#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace certchain::obs {

struct RunContext {
  MetricsRegistry metrics;
  Trace trace;
  /// Free-form config snapshot ("seed", "scale", "mode", ...) surfaced
  /// verbatim by the RunManifest.
  std::map<std::string, std::string> config;

  void set_config(std::string_view key, std::string_view value) {
    config[std::string(key)] = std::string(value);
  }
  void set_config(std::string_view key, std::uint64_t value) {
    config[std::string(key)] = std::to_string(value);
  }

  void clear() {
    metrics.clear();
    trace.clear();
    config.clear();
  }
};

/// RAII stage scope: trace span + `time.<name>.ms` timing on close.
class StageTimer {
 public:
  StageTimer(RunContext& context, std::string name);
  StageTimer(StageTimer&&) = default;
  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;
  ~StageTimer() { stop(); }

  /// Closes the span and records the timing; idempotent.
  void stop();

  double elapsed_ms() const { return span_.elapsed_ms(); }

 private:
  MetricsRegistry* metrics_;
  std::string metric_name_;
  Span span_;
  bool stopped_ = false;
};

}  // namespace certchain::obs
