// Unit tests for the src/obs/ telemetry subsystem: registry semantics,
// histogram percentile edge cases, span nesting, the JSON writer/parser
// round trip, and manifest reconciliation.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "obs/export.hpp"
#include "obs/json.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/run_context.hpp"
#include "obs/span.hpp"
#include "obs/stopwatch.hpp"

namespace {

using namespace certchain::obs;

TEST(MetricSlug, LowercasesAndReplacesSeparators) {
  EXPECT_EQ(metric_slug("TLS interception"), "tls_interception");
  EXPECT_EQ(metric_slug("connect-timeout"), "connect_timeout");
  EXPECT_EQ(metric_slug("stage.join.in"), "stage.join.in");
  EXPECT_EQ(metric_slug("Public DB only"), "public_db_only");
  EXPECT_EQ(metric_slug(""), "");
}

TEST(MetricsRegistry, CountersAccumulateAndDefaultToZero) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.counter("never.touched"), 0u);
  EXPECT_TRUE(registry.empty());
  registry.count("a.b");
  registry.count("a.b", 4);
  registry.count("a.c", 0);  // creates the series even with delta 0
  EXPECT_EQ(registry.counter("a.b"), 5u);
  EXPECT_EQ(registry.counter("a.c"), 0u);
  EXPECT_EQ(registry.counters().size(), 2u);
  EXPECT_FALSE(registry.empty());
  registry.clear();
  EXPECT_TRUE(registry.empty());
}

TEST(MetricsRegistry, GaugesLastWriteWins) {
  MetricsRegistry registry;
  EXPECT_DOUBLE_EQ(registry.gauge("g"), 0.0);
  registry.set_gauge("g", 3.5);
  registry.set_gauge("g", -1.25);
  EXPECT_DOUBLE_EQ(registry.gauge("g"), -1.25);
}

TEST(MetricsRegistry, TimingsStaySeparateFromCounters) {
  MetricsRegistry registry;
  registry.observe_timing("time.join.ms", 12.5);
  EXPECT_TRUE(registry.counters().empty());
  EXPECT_TRUE(registry.histograms().empty());
  ASSERT_EQ(registry.timings().size(), 1u);
  EXPECT_EQ(registry.timings().at("time.join.ms").count(), 1u);
}

TEST(FixedHistogram, EmptyReportsZeroEverywhere) {
  FixedHistogram histogram;
  EXPECT_EQ(histogram.count(), 0u);
  EXPECT_DOUBLE_EQ(histogram.sum(), 0.0);
  EXPECT_DOUBLE_EQ(histogram.min(), 0.0);
  EXPECT_DOUBLE_EQ(histogram.max(), 0.0);
  EXPECT_DOUBLE_EQ(histogram.mean(), 0.0);
  EXPECT_DOUBLE_EQ(histogram.p50(), 0.0);
  EXPECT_DOUBLE_EQ(histogram.p99(), 0.0);
}

TEST(FixedHistogram, SingleSampleIsExactAtEveryQuantile) {
  FixedHistogram histogram;
  histogram.observe(7.25);
  EXPECT_EQ(histogram.count(), 1u);
  EXPECT_DOUBLE_EQ(histogram.min(), 7.25);
  EXPECT_DOUBLE_EQ(histogram.max(), 7.25);
  EXPECT_DOUBLE_EQ(histogram.percentile(0.0), 7.25);
  EXPECT_DOUBLE_EQ(histogram.p50(), 7.25);
  EXPECT_DOUBLE_EQ(histogram.p90(), 7.25);
  EXPECT_DOUBLE_EQ(histogram.p99(), 7.25);
  EXPECT_DOUBLE_EQ(histogram.percentile(1.0), 7.25);
}

TEST(FixedHistogram, PercentilesAreMonotonicAndClamped) {
  FixedHistogram histogram({1, 2, 5, 10, 100});
  for (int value = 1; value <= 100; ++value) {
    histogram.observe(static_cast<double>(value));
  }
  EXPECT_EQ(histogram.count(), 100u);
  const double p50 = histogram.p50();
  const double p90 = histogram.p90();
  const double p99 = histogram.p99();
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_GE(p50, histogram.min());
  EXPECT_LE(p99, histogram.max());
  // The median of 1..100 sits in the (10, 100] bucket; interpolation should
  // put it within that bucket, in the right half of the range.
  EXPECT_GT(p50, 10.0);
  EXPECT_LT(p50, 100.0);
}

TEST(FixedHistogram, OverflowBucketCatchesValuesAboveAllBounds) {
  FixedHistogram histogram({1, 10});
  histogram.observe(0.5);
  histogram.observe(5);
  histogram.observe(1e9);
  ASSERT_EQ(histogram.bucket_counts().size(), 3u);
  EXPECT_EQ(histogram.bucket_counts()[0], 1u);
  EXPECT_EQ(histogram.bucket_counts()[1], 1u);
  EXPECT_EQ(histogram.bucket_counts()[2], 1u);  // +inf overflow
  // Percentiles stay clamped to the observed max even in the overflow bucket.
  EXPECT_LE(histogram.p99(), histogram.max());
}

TEST(FixedHistogram, RegistryKeepsFirstBounds) {
  MetricsRegistry registry;
  registry.histogram("h", {1, 2, 3});
  registry.observe("h", 2.5);
  FixedHistogram& again = registry.histogram("h", {99});  // bounds ignored
  EXPECT_EQ(again.upper_bounds(), (std::vector<double>{1, 2, 3}));
  EXPECT_EQ(again.count(), 1u);
}

TEST(Trace, SpansNestByScope) {
  Trace trace;
  {
    Span outer = trace.span("pipeline");
    {
      Span inner = trace.span("join");
      Span sibling_child = trace.span("join.dedupe");
      sibling_child.stop();
      inner.stop();
    }
    Span second = trace.span("enrich");
  }
  const Trace::Node& root = trace.root();
  ASSERT_EQ(root.children.size(), 1u);
  const Trace::Node& pipeline = *root.children[0];
  EXPECT_EQ(pipeline.name, "pipeline");
  ASSERT_EQ(pipeline.children.size(), 2u);
  EXPECT_EQ(pipeline.children[0]->name, "join");
  EXPECT_EQ(pipeline.children[1]->name, "enrich");
  ASSERT_EQ(pipeline.children[0]->children.size(), 1u);
  EXPECT_EQ(pipeline.children[0]->children[0]->name, "join.dedupe");
  EXPECT_EQ(trace.node_count(), 4u);
  EXPECT_TRUE(pipeline.closed);
  EXPECT_GE(trace.total_ms(), 0.0);
}

TEST(Trace, StopIsIdempotentAndRenderListsEveryNode) {
  Trace trace;
  Span span = trace.span("only");
  span.stop();
  span.stop();  // second stop is a no-op
  EXPECT_EQ(trace.node_count(), 1u);
  const std::string text = trace.render();
  EXPECT_NE(text.find("only"), std::string::npos);
}

TEST(StageTimer, RecordsSpanAndTimingUnderOneName) {
  RunContext context;
  {
    StageTimer timer(context, "join");
    EXPECT_GE(timer.elapsed_ms(), 0.0);
  }
  ASSERT_EQ(context.trace.node_count(), 1u);
  EXPECT_EQ(context.trace.root().children[0]->name, "join");
  ASSERT_EQ(context.metrics.timings().count("time.join.ms"), 1u);
  EXPECT_EQ(context.metrics.timings().at("time.join.ms").count(), 1u);
  // Timing never leaks into the exact-counter namespace.
  EXPECT_TRUE(context.metrics.counters().empty());
}

TEST(Stopwatch, ElapsedIsNonNegativeAndRestartable) {
  Stopwatch watch;
  EXPECT_GE(watch.elapsed_ms(), 0.0);
  watch.restart();
  EXPECT_GE(watch.elapsed_seconds(), 0.0);
}

TEST(Manifest, DiscoversStagesFromReservedTriple) {
  RunContext context;
  context.set_config("seed", std::uint64_t{42});
  {
    StageTimer join(context, "join");
    context.metrics.count("stage.join.in", 100);
    context.metrics.count("stage.join.admitted", 90);
    context.metrics.count("stage.join.dropped", 10);
  }
  context.metrics.count("stage.enrich.in", 90);
  context.metrics.count("stage.enrich.admitted", 90);
  context.metrics.count("stage.enrich.dropped", 0);

  const RunManifest manifest = build_run_manifest(context);
  EXPECT_EQ(manifest.config.at("seed"), "42");
  ASSERT_EQ(manifest.stages.size(), 2u);
  // join appears in the trace, so it orders first; enrich follows.
  EXPECT_EQ(manifest.stages[0].name, "join");
  EXPECT_TRUE(manifest.stages[0].timed);
  EXPECT_EQ(manifest.stages[0].records_in, 100u);
  EXPECT_EQ(manifest.stages[0].admitted, 90u);
  EXPECT_EQ(manifest.stages[0].dropped, 10u);
  EXPECT_EQ(manifest.stages[1].name, "enrich");
  EXPECT_FALSE(manifest.stages[1].timed);
  EXPECT_TRUE(manifest.reconciles());
  ASSERT_NE(manifest.stage("join"), nullptr);
  EXPECT_EQ(manifest.stage("missing"), nullptr);
}

TEST(Manifest, FlagsStagesThatDoNotReconcile) {
  RunContext context;
  context.metrics.count("stage.leaky.in", 10);
  context.metrics.count("stage.leaky.admitted", 7);
  context.metrics.count("stage.leaky.dropped", 1);  // 2 records vanished
  const RunManifest manifest = build_run_manifest(context);
  ASSERT_EQ(manifest.stages.size(), 1u);
  EXPECT_FALSE(manifest.stages[0].reconciles());
  EXPECT_FALSE(manifest.reconciles());
  const std::string text = render_metrics_text(context);
  EXPECT_NE(text.find("DOES NOT RECONCILE"), std::string::npos);
}

TEST(Json, WriterProducesParseableDocuments) {
  json::Writer writer;
  writer.begin_object();
  writer.key("name");
  writer.value_string("with \"quotes\" and \\ and \n newline");
  writer.key("count");
  writer.value_uint(18446744073709551615ull);
  writer.key("ratio");
  writer.value_number(0.5);
  writer.key("whole");
  writer.value_number(3.0);  // integral doubles print without a fraction
  writer.key("flag");
  writer.value_bool(true);
  writer.key("nothing");
  writer.value_null();
  writer.key("list");
  writer.begin_array();
  writer.value_number(1);
  writer.value_number(2);
  writer.end_array();
  writer.end_object();
  const std::string text = std::move(writer).str();
  EXPECT_NE(text.find("\"whole\":3"), std::string::npos);
  EXPECT_EQ(text.find("3.000000"), std::string::npos);

  std::string error;
  const auto parsed = json::parse(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->find("name")->string, "with \"quotes\" and \\ and \n newline");
  EXPECT_DOUBLE_EQ(parsed->find("ratio")->num, 0.5);
  EXPECT_TRUE(parsed->find("flag")->boolean);
  EXPECT_EQ(parsed->find("nothing")->kind, json::Value::Kind::kNull);
  ASSERT_TRUE(parsed->find("list")->is_array());
  EXPECT_EQ(parsed->find("list")->array.size(), 2u);
}

TEST(Json, ParserRejectsGarbage) {
  EXPECT_FALSE(json::parse("").has_value());
  EXPECT_FALSE(json::parse("{").has_value());
  EXPECT_FALSE(json::parse("{} trailing").has_value());
  EXPECT_FALSE(json::parse("{\"a\":}").has_value());
  EXPECT_FALSE(json::parse("[1,]").has_value());
  EXPECT_FALSE(json::parse("nulll").has_value());
  std::string error;
  EXPECT_FALSE(json::parse("{\"a\" 1}", &error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST(Json, NumbersFollowTheRfc8259Grammar) {
  for (const char* text : {"[0]", "[-0]", "[7]", "[-12]", "[0.5]", "[1e3]",
                           "[1E+2]", "[2.5e-3]", "[123456789012345678901234]"}) {
    std::string error;
    EXPECT_TRUE(json::parse(text, &error).has_value()) << text << ": " << error;
  }
  // Each malformed form fails with a typed reason instead of keeping the
  // prefix strtod would have read.
  for (const char* text : {"[1-2]", "[--5]", "[1.2.3]", "[+5]", "[01]", "[-]",
                           "[1.]", "[.5]", "[1e]", "[1e+]", "[0x10]", "[1e5.0]",
                           "[-a]", "[Infinity]"}) {
    std::string error;
    EXPECT_FALSE(json::parse(text, &error).has_value()) << text;
    EXPECT_FALSE(error.empty()) << text;
  }
  std::string error;
  EXPECT_FALSE(json::parse("[--5]", &error).has_value());
  EXPECT_NE(error.find("bad number"), std::string::npos) << error;
  for (const char* text : {"[1e999]", "[-1e999]", "{\"a\":1e400}"}) {
    error.clear();
    EXPECT_FALSE(json::parse(text, &error).has_value()) << text;
    EXPECT_NE(error.find("number out of range"), std::string::npos) << error;
  }

  // Whatever the writer emits still parses back to the same rendering.
  for (const double value : {0.0, -0.0, 3.0, 0.5, -2.25, 1e15, 123456.789,
                             1e300, -1e300}) {
    const std::string text = json::number(value);
    const auto parsed = json::parse(text, &error);
    ASSERT_TRUE(parsed.has_value()) << text << ": " << error;
    EXPECT_EQ(json::number(parsed->num), text);
  }
  json::Writer writer;
  writer.value_uint(18446744073709551615ull);
  EXPECT_TRUE(json::parse(writer.str()).has_value());
}

TEST(Json, ReadUintTakesOnlyExactIntegersInRange) {
  const auto value = [](const char* text) { return *json::parse(text); };
  std::uint64_t out = 99;
  EXPECT_TRUE(json::read_uint(&value("[0]").array[0], out));
  EXPECT_EQ(out, 0u);
  EXPECT_TRUE(json::read_uint(&value("[9007199254740992]").array[0], out));
  EXPECT_EQ(out, json::kMaxExactInteger);
  EXPECT_TRUE(json::read_uint(&value("[65535]").array[0], out, 65535));
  EXPECT_EQ(out, 65535u);

  out = 7;
  for (const char* text : {"[-1]", "[1.5]", "[0.000001]", "[9007199254740994]",
                           "[1e300]", "[\"5\"]", "[true]", "[null]", "[[]]"}) {
    EXPECT_FALSE(json::read_uint(&value(text).array[0], out)) << text;
  }
  EXPECT_FALSE(json::read_uint(&value("[65536]").array[0], out, 65535));
  EXPECT_FALSE(json::read_uint(&value("[256]").array[0], out, 255));
  EXPECT_FALSE(json::read_uint(nullptr, out));
  EXPECT_EQ(out, 7u);  // untouched by every failed read

  // Values built in code (not parsed) are checked the same way.
  json::Value hand;
  hand.kind = json::Value::Kind::kNumber;
  for (const double bad : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    hand.num = bad;
    EXPECT_FALSE(json::read_uint(&hand, out));
  }
}

TEST(Export, JsonRoundTripCarriesEverySection) {
  RunContext context;
  context.set_config("tool", "test");
  {
    StageTimer stage(context, "join");
    context.metrics.count("stage.join.in", 12);
    context.metrics.count("stage.join.admitted", 11);
    context.metrics.count("stage.join.dropped", 1);
    context.metrics.count("pipeline.connections", 12);
  }
  context.metrics.set_gauge("load", 0.75);
  context.metrics.observe("pipeline.chain_length", 3);
  context.metrics.observe("pipeline.chain_length", 3);
  context.metrics.observe("pipeline.chain_length", 8);

  const std::string text = export_metrics_json(context);
  std::string error;
  const auto doc = json::parse(text, &error);
  ASSERT_TRUE(doc.has_value()) << error;

  EXPECT_EQ(doc->find("schema")->string, std::string(kMetricsSchemaName));
  EXPECT_DOUBLE_EQ(doc->find("schema_version")->num,
                   static_cast<double>(kMetricsSchemaVersion));

  const json::Value* counters = doc->find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_DOUBLE_EQ(counters->find("pipeline.connections")->num, 12.0);
  EXPECT_DOUBLE_EQ(counters->find("stage.join.in")->num, 12.0);

  EXPECT_DOUBLE_EQ(doc->find("gauges")->find("load")->num, 0.75);

  const json::Value* lengths =
      doc->find("histograms")->find("pipeline.chain_length");
  ASSERT_NE(lengths, nullptr);
  EXPECT_DOUBLE_EQ(lengths->find("count")->num, 3.0);
  EXPECT_DOUBLE_EQ(lengths->find("sum")->num, 14.0);

  // Timings are present but live under their own key, apart from counters.
  ASSERT_NE(doc->find("timings_ms")->find("time.join.ms"), nullptr);

  const json::Value* manifest = doc->find("manifest");
  ASSERT_NE(manifest, nullptr);
  EXPECT_EQ(manifest->find("config")->find("tool")->string, "test");
  const json::Value* stages = manifest->find("stages");
  ASSERT_TRUE(stages->is_array());
  ASSERT_EQ(stages->array.size(), 1u);
  const json::Value& join = stages->array[0];
  EXPECT_EQ(join.find("name")->string, "join");
  EXPECT_DOUBLE_EQ(join.find("in")->num, 12.0);
  EXPECT_DOUBLE_EQ(join.find("admitted")->num, 11.0);
  EXPECT_DOUBLE_EQ(join.find("dropped")->num, 1.0);
  EXPECT_TRUE(join.find("reconciles")->boolean);

  const json::Value* trace = doc->find("trace");
  ASSERT_NE(trace, nullptr);
  ASSERT_TRUE(trace->find("children")->is_array());
  EXPECT_EQ(trace->find("children")->array[0].find("name")->string, "join");
}

TEST(Export, TextRendersCountersAndManifest) {
  RunContext context;
  context.metrics.count("stage.s.in", 2);
  context.metrics.count("stage.s.admitted", 2);
  context.metrics.count("stage.s.dropped", 0);
  context.set_config("seed", std::uint64_t{7});
  const std::string text = render_metrics_text(context);
  EXPECT_NE(text.find("stage.s.in = 2"), std::string::npos);
  EXPECT_NE(text.find("seed = 7"), std::string::npos);
  EXPECT_NE(text.find("s: in=2 admitted=2 dropped=0"), std::string::npos);
  EXPECT_EQ(text.find("DOES NOT RECONCILE"), std::string::npos);
}

TEST(Trace, AttachClosedNestsUnderTheOpenSpan) {
  Trace trace;
  {
    Span stage = trace.span("join");
    trace.attach_closed("join.shard0", 1.5);
    trace.attach_closed("join.shard1", 2.5);
  }
  trace.attach_closed("loose", 0.5);  // no open span -> child of the root

  const Trace::Node& root = trace.root();
  ASSERT_EQ(root.children.size(), 2u);
  const Trace::Node& join = *root.children[0];
  EXPECT_EQ(join.name, "join");
  ASSERT_EQ(join.children.size(), 2u);
  EXPECT_EQ(join.children[0]->name, "join.shard0");
  EXPECT_TRUE(join.children[0]->closed);
  EXPECT_DOUBLE_EQ(join.children[0]->wall_ms, 1.5);
  EXPECT_EQ(join.children[1]->name, "join.shard1");
  EXPECT_EQ(root.children[1]->name, "loose");
  EXPECT_TRUE(root.children[1]->closed);
}

}  // namespace
