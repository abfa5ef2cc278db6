#include "obs/export.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>

#include "obs/json.hpp"

namespace certchain::obs {

namespace {

std::string format_ms(double ms) {
  char buffer[48];
  std::snprintf(buffer, sizeof(buffer), "%.3f", ms);
  return buffer;
}

std::string format_value(double value) {
  char buffer[48];
  std::snprintf(buffer, sizeof(buffer), "%g", value);
  return buffer;
}

void render_distribution_line(std::string& out, const std::string& name,
                              const FixedHistogram& histogram) {
  out += "  " + name + ": count=" + std::to_string(histogram.count()) +
         " sum=" + format_value(histogram.sum()) +
         " min=" + format_value(histogram.min()) +
         " max=" + format_value(histogram.max()) +
         " p50=" + format_value(histogram.p50()) +
         " p90=" + format_value(histogram.p90()) +
         " p99=" + format_value(histogram.p99()) + "\n";
}

void write_distribution_json(json::Writer& writer,
                             const FixedHistogram& histogram) {
  writer.begin_object();
  writer.key("count");
  writer.value_uint(histogram.count());
  writer.key("sum");
  writer.value_number(histogram.sum());
  writer.key("min");
  writer.value_number(histogram.min());
  writer.key("max");
  writer.value_number(histogram.max());
  writer.key("p50");
  writer.value_number(histogram.p50());
  writer.key("p90");
  writer.value_number(histogram.p90());
  writer.key("p99");
  writer.value_number(histogram.p99());
  // Sparse buckets: [upper_bound, count] pairs, +inf overflow as null bound.
  writer.key("buckets");
  writer.begin_array();
  const auto& bounds = histogram.upper_bounds();
  const auto& counts = histogram.bucket_counts();
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    writer.begin_array();
    if (i < bounds.size()) {
      writer.value_number(bounds[i]);
    } else {
      writer.value_null();
    }
    writer.value_uint(counts[i]);
    writer.end_array();
  }
  writer.end_array();
  writer.end_object();
}

void write_trace_json(json::Writer& writer, const Trace::Node& node) {
  writer.begin_object();
  writer.key("name");
  writer.value_string(node.name);
  writer.key("wall_ms");
  writer.value_number(node.wall_ms);
  if (!node.children.empty()) {
    writer.key("children");
    writer.begin_array();
    for (const auto& child : node.children) write_trace_json(writer, *child);
    writer.end_array();
  }
  writer.end_object();
}

}  // namespace

std::string render_metrics_text(const RunContext& context, bool trace) {
  const MetricsRegistry& metrics = context.metrics;
  std::string out;

  if (!metrics.counters().empty()) {
    out += "counters:\n";
    for (const auto& [name, value] : metrics.counters()) {
      out += "  " + name + " = " + std::to_string(value) + "\n";
    }
  }
  if (!metrics.gauges().empty()) {
    out += "gauges:\n";
    for (const auto& [name, value] : metrics.gauges()) {
      out += "  " + name + " = " + format_value(value) + "\n";
    }
  }
  if (!metrics.histograms().empty()) {
    out += "histograms:\n";
    for (const auto& [name, histogram] : metrics.histograms()) {
      render_distribution_line(out, name, histogram);
    }
  }
  if (!metrics.timings().empty()) {
    out += "timings (ms, machine-dependent):\n";
    for (const auto& [name, histogram] : metrics.timings()) {
      render_distribution_line(out, name, histogram);
    }
  }
  const RunManifest manifest = build_run_manifest(context);
  if (!manifest.config.empty()) {
    out += "run config:\n";
    for (const auto& [key, value] : manifest.config) {
      out += "  " + key + " = " + value + "\n";
    }
  }
  if (!manifest.stages.empty()) {
    out += "stages (in -> admitted + dropped, wall ms):\n";
    for (const StageManifest& stage : manifest.stages) {
      out += "  " + stage.name + ": in=" + std::to_string(stage.records_in) +
             " admitted=" + std::to_string(stage.admitted) +
             " dropped=" + std::to_string(stage.dropped);
      if (stage.timed) out += " wall=" + format_ms(stage.wall_ms) + "ms";
      if (!stage.reconciles()) out += "  [DOES NOT RECONCILE]";
      out += "\n";
    }
    out += "total traced wall time: " + format_ms(manifest.total_wall_ms) +
           " ms\n";
  }
  if (trace && context.trace.node_count() > 0) {
    out += "trace:\n";
    out += context.trace.render();
  }
  return out;
}

std::string export_metrics_json(const RunContext& context) {
  const MetricsRegistry& metrics = context.metrics;
  json::Writer writer;
  writer.begin_object();
  writer.key("schema");
  writer.value_string(kMetricsSchemaName);
  writer.key("schema_version");
  writer.value_uint(static_cast<std::uint64_t>(kMetricsSchemaVersion));

  writer.key("counters");
  writer.begin_object();
  for (const auto& [name, value] : metrics.counters()) {
    writer.key(name);
    writer.value_uint(value);
  }
  writer.end_object();

  writer.key("gauges");
  writer.begin_object();
  for (const auto& [name, value] : metrics.gauges()) {
    writer.key(name);
    writer.value_number(value);
  }
  writer.end_object();

  writer.key("histograms");
  writer.begin_object();
  for (const auto& [name, histogram] : metrics.histograms()) {
    writer.key(name);
    write_distribution_json(writer, histogram);
  }
  writer.end_object();

  writer.key("timings_ms");
  writer.begin_object();
  for (const auto& [name, histogram] : metrics.timings()) {
    writer.key(name);
    write_distribution_json(writer, histogram);
  }
  writer.end_object();

  writer.key("trace");
  write_trace_json(writer, context.trace.root());

  const RunManifest manifest = build_run_manifest(context);
  writer.key("manifest");
  writer.begin_object();
  writer.key("config");
  writer.begin_object();
  for (const auto& [key, value] : manifest.config) {
    writer.key(key);
    writer.value_string(value);
  }
  writer.end_object();
  writer.key("total_wall_ms");
  writer.value_number(manifest.total_wall_ms);
  writer.key("stages");
  writer.begin_array();
  for (const StageManifest& stage : manifest.stages) {
    writer.begin_object();
    writer.key("name");
    writer.value_string(stage.name);
    writer.key("in");
    writer.value_uint(stage.records_in);
    writer.key("admitted");
    writer.value_uint(stage.admitted);
    writer.key("dropped");
    writer.value_uint(stage.dropped);
    writer.key("wall_ms");
    writer.value_number(stage.wall_ms);
    writer.key("reconciles");
    writer.value_bool(stage.reconciles());
    writer.end_object();
  }
  writer.end_array();
  writer.end_object();

  writer.end_object();
  std::string out = std::move(writer).str();
  out.push_back('\n');
  return out;
}

bool write_metrics_json(const RunContext& context, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << export_metrics_json(context);
  return static_cast<bool>(out);
}

}  // namespace certchain::obs
