// Exporters: one telemetry state, two renderings.
//
// render_metrics_text produces the human section appended to study reports
// (certchain_analyze --trace prints it with the span tree).
// export_metrics_json produces the schema-versioned machine document
// (counters / gauges / histograms / timings / trace / manifest) that
// certchain_analyze --metrics writes and the daemon's metrics endpoint
// serves. Counters and gauges are exact; histograms and timings carry
// count/sum/min/max/p50/p90/p99 plus raw buckets.
#pragma once

#include <string>

#include "obs/manifest.hpp"
#include "obs/run_context.hpp"

namespace certchain::obs {

/// Pretty text rendering of a run's telemetry: counters, gauges,
/// histograms, timings and the run manifest, plus the span tree when
/// `trace` is set (the tree can get long, so reports leave it out by
/// default).
std::string render_metrics_text(const RunContext& context, bool trace = false);

/// Schema-versioned JSON document (see kMetricsSchemaName / Version).
std::string export_metrics_json(const RunContext& context);

/// Writes export_metrics_json to a file. Returns false on I/O failure.
bool write_metrics_json(const RunContext& context, const std::string& path);

}  // namespace certchain::obs
