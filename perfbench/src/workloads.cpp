#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>

#include "core/epoch_delta.hpp"
#include "fleet/fleet.hpp"
#include "loadgen.hpp"
#include "netsim/faults.hpp"
#include "obs/json.hpp"
#include "obs/run_context.hpp"
#include "obs/stopwatch.hpp"
#include "par/thread_pool.hpp"
#include "probes.hpp"
#include "svc/client.hpp"
#include "zeek/joiner.hpp"
#include "zeek/log_io.hpp"

namespace perfbench {

using namespace certchain;

namespace {

constexpr std::uint64_t kDriftSalt = 0xD21F7;
constexpr std::uint64_t kFaultSalt = 0xF1EE7;
constexpr double kFaultRate = 0.02;

/// One generator connection per core: never more connections than cores.
std::size_t generator_connections() { return par::resolve_threads(0); }

double seconds_since(double start) { return now_s() - start; }

/// Read latency percentiles are taken per window of kReadWindow requests and
/// reported as the median window, so one host stall moves one window only.
constexpr std::size_t kReadWindow = 500;

void put_read_latency(MetricSet& e2e, const std::vector<double>& latency_ms) {
  e2e["read_p50_ms"] = {windowed_percentile(latency_ms, 0.50, kReadWindow), "ms"};
  e2e["read_p99_ms"] = {windowed_percentile(latency_ms, 0.99, kReadWindow), "ms"};
}

/// The daemon's own counters, via its metrics endpoint.
struct ServerStats {
  bool ok = false;
  std::uint64_t in = 0;
  std::uint64_t admitted = 0;
  std::uint64_t dropped = 0;
  std::uint64_t wakeups = 0;
  std::uint64_t partial_writes = 0;
  std::map<std::string, double> endpoint_p50_ms;  // svc.endpoint.<name>.ms
};

ServerStats fetch_server_stats(std::uint16_t port) {
  ServerStats stats;
  svc::Client client;
  client.set_timeout_ms(30000);
  if (!client.connect("127.0.0.1", port)) return stats;
  const auto response = client.metrics();
  if (!response.has_value() || !response->ok) return stats;
  const obs::json::Value* counters = response->payload.find("counters");
  const obs::json::Value* timings = response->payload.find("timings_ms");
  if (counters == nullptr || timings == nullptr) return stats;
  const auto counter = [counters](std::string_view name) -> std::uint64_t {
    const obs::json::Value* value = counters->find(name);
    return value != nullptr && value->is_number() ? static_cast<std::uint64_t>(value->num)
                                                   : 0;
  };
  stats.in = counter("stage.svc.requests.in");
  stats.admitted = counter("stage.svc.requests.admitted");
  stats.dropped = counter("stage.svc.requests.dropped");
  stats.wakeups = counter("svc.eventloop.wakeups");
  stats.partial_writes = counter("svc.eventloop.partial_writes");
  for (const auto& [name, timing] : timings->object) {
    const std::string prefix = "svc.endpoint.";
    if (name.rfind(prefix, 0) != 0 || name.size() < prefix.size() + 3 ||
        name.compare(name.size() - 3, 3, ".ms") != 0) {
      continue;
    }
    const obs::json::Value* p50 = timing.find("p50");
    if (p50 != nullptr && p50->is_number()) {
      stats.endpoint_p50_ms[name.substr(prefix.size(),
                                        name.size() - prefix.size() - 3)] = p50->num;
    }
  }
  stats.ok = true;
  return stats;
}

/// The admission triple must reconcile, drop nothing, and count exactly the
/// requests this process sent.
void check_triple(WorkloadResult& result, const ServerStats& stats,
                  std::uint64_t expected_in) {
  result.gate(stats.ok && stats.in == stats.admitted + stats.dropped &&
                  stats.dropped == 0 && stats.in == expected_in,
              "stage.svc.requests triple: in=" + std::to_string(stats.in) +
                  " admitted=" + std::to_string(stats.admitted) +
                  " dropped=" + std::to_string(stats.dropped) +
                  " expected_in=" + std::to_string(expected_in));
}

/// The daemon's own p50 for `endpoint`; a missing timing fails a gate
/// rather than reading as 0 ms.
double handler_p50_ms(WorkloadResult& result, const ServerStats& stats,
                      const std::string& endpoint) {
  const auto it = stats.endpoint_p50_ms.find(endpoint);
  result.gate(it != stats.endpoint_p50_ms.end(),
              "daemon exported no svc.endpoint." + endpoint + ".ms timing");
  return it == stats.endpoint_p50_ms.end() ? 0.0 : it->second;
}

void put_serve_layers(WorkloadResult& result, const PhaseResult& phase,
                      const ServerStats& stats) {
  MetricSet& layers = result.layers;
  for (int ep = 0; ep < kEndpointCount; ++ep) {
    const std::string name = endpoint_name(ep);
    result.gate(!phase.endpoint_ms[ep].empty(), "no " + name + " request was sent");
    layers["svc.client." + name + ".p50_ms"] = {percentile(phase.endpoint_ms[ep], 0.50),
                                                "ms"};
    layers["svc.client." + name + ".p99_ms"] = {percentile(phase.endpoint_ms[ep], 0.99),
                                                "ms"};
    layers["svc.handler." + name + ".p50_ms"] = {handler_p50_ms(result, stats, name), "ms"};
  }
  layers["svc.eventloop.wakeups_per_req"] = {
      static_cast<double>(stats.wakeups) /
          static_cast<double>(std::max<std::uint64_t>(1, stats.in)),
      "ratio"};
  layers["svc.eventloop.partial_writes"] = {static_cast<double>(stats.partial_writes),
                                            "count"};
  layers["gen.late_p99_ms"] = {phase.late_p99_ms(), "ms"};
}

/// A serving run whose generator missed its own schedule is invalid. A short
/// pass inside another workload's traced run is a layer probe, not the run
/// being judged: there the lateness is kept as a diagnostic only.
void check_generator(WorkloadResult& result, const PhaseResult& phase,
                     const RunSpec& spec) {
  if (spec.mini) {
    result.samples["probe_late_p99_ms"].push_back(phase.late_p99_ms());
    return;
  }
  result.gate(phase.generator_valid(),
              "generator fell behind its own bound: late p99 " +
                  std::to_string(phase.late_p99_ms()) + " ms");
}

}  // namespace

std::size_t fleet_epochs(const RunSpec& spec) {
  if (spec.mini) return 3;
  // At most 12: every epoch grows the daemon's corpus, and after 12 its peak
  // RSS is already about 1.8 GB.
  return static_cast<std::size_t>(std::clamp(std::lround(spec.seconds * 1.2), 3L, 12L));
}

std::unique_ptr<datagen::EpochDrifter> make_drifter(Corpus& corpus, std::size_t epochs) {
  datagen::EpochDriftConfig drift;
  drift.seed = corpus.seed ^ kDriftSalt;
  return std::make_unique<datagen::EpochDrifter>(*corpus.scenario, drift, epochs);
}

// --- batch ------------------------------------------------------------------

WorkloadResult run_batch(const Corpus& corpus, const RunSpec& spec, bool streamed) {
  WorkloadResult result;
  const core::StudyPipeline pipeline = corpus.pipeline();
  core::RunOptions options;
  options.threads = streamed ? par::resolve_threads(0) : 1;
  const core::StudyInput input =
      streamed ? core::StudyInput::files(corpus.ssl_path, corpus.x509_path)
               : core::StudyInput::text(corpus.ssl_text, corpus.x509_text);
  core::ReportTextOptions render_options;
  render_options.graphs = true;

  // Op 0 warms the allocator and the page cache: its report is checked but
  // it is not timed. A short pass runs the warm-up and one traced op.
  const std::size_t min_ops = spec.mini ? 2 : 4;
  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;
  std::vector<std::uint64_t> digests;
  std::vector<double> coverage;
  std::vector<double> chunk_counts;
  std::vector<double> chunk_ms;
  double shard_skew = 0.0;
  core::StudyReport report;

  reset_peak_rss();
  const double start = now_s();
  for (std::size_t op = 0;
       op < min_ops || (!spec.mini && seconds_since(start) < spec.seconds); ++op) {
    // Traced runs alternate traced and untraced ops, so the overhead of the
    // span tree is measured against the same drift.
    const bool traced = spec.trace && op % 2 == 1;
    obs::RunContext ctx;
    const obs::Stopwatch watch;
    report = pipeline.run(input, options, traced ? &ctx : nullptr);
    const obs::Stopwatch render_watch;
    const std::string text = core::render_report_text(report, render_options);
    const double render_ms = render_watch.elapsed_ms();
    const double op_ms = watch.elapsed_ms();

    // A data-quality mismatch voids the op's digest: the text engines must
    // admit every generated row and flag none as malformed.
    const core::IngestReport& ingest = report.ingest;
    const bool ingest_ok = ingest.populated &&
                           ingest.ssl.records == corpus.logs.ssl.size() &&
                           ingest.x509.records == corpus.logs.x509.size() &&
                           ingest.ssl.malformed_rows + ingest.x509.malformed_rows == 0;
    digests.push_back(ingest_ok && !text.empty() ? report_digest(report) : 0);

    if (op == 0) continue;
    if (!traced) {
      untraced_ms.push_back(op_ms);
      continue;
    }
    traced_ms.push_back(op_ms);
    const obs::Trace::Node& root = ctx.trace.root();
    double covered = render_ms;
    for (const auto& span : root.children) {
      covered += span->name == "pipeline" ? covered_child_ms(*span) : span->wall_ms;
    }
    coverage.push_back(covered / op_ms);
    if (const obs::Trace::Node* ingest_span = find_span(root, "ingest")) {
      const std::vector<double> chunks = child_walls(*ingest_span, "ingest.ssl.chunk");
      chunk_counts.push_back(static_cast<double>(chunks.size()));
      chunk_ms.insert(chunk_ms.end(), chunks.begin(), chunks.end());
    }
    if (const obs::Trace::Node* analysis = find_span(root, "pipeline")) {
      for (const char* stage : {"categorize", "structure", "graphs", "ct_compliance"}) {
        if (const obs::Trace::Node* node = find_span(*analysis, stage)) {
          shard_skew = std::max(shard_skew,
                                skew(child_walls(*node, std::string(stage) + ".")));
        }
      }
    }
  }
  const double peak_mb = peak_rss_mb();
  result.samples["op_ms"] = untraced_ms;

  const OpTally digest_tally = tally_digests(digests, corpus.reference_digest);
  result.tally.merge(digest_tally);
  if (digest_tally.failed != 0) {
    result.problems.push_back(std::to_string(digest_tally.failed) +
                              " batch op(s) produced a report that differs from the "
                              "seed's reference digest");
  }

  if (spec.trace) {
    // A traced pass that recorded no spans would report zeros that look
    // like measurements.
    result.gate(!coverage.empty(), "traced batch pass ran no traced op");
    result.layers["trace.coverage_frac"] = {median(coverage), "ratio"};
    if (!spec.mini && !traced_ms.empty() && !untraced_ms.empty()) {
      result.layers["trace.overhead_frac"] = {median(traced_ms) / median(untraced_ms) - 1.0,
                                              "ratio"};
    }
    if (streamed) {
      result.gate(!chunk_ms.empty() &&
                      *std::min_element(chunk_counts.begin(), chunk_counts.end()) > 0.0,
                  "traced streamed pass recorded no ingest chunk spans");
      result.gate(options.threads == 1 || shard_skew > 0.0,
                  "traced streamed pass recorded no shard spans");
      result.layers["core.stream.chunks"] = {median(chunk_counts), "count"};
      result.layers["core.stream.chunk_p50_ms"] = {median(chunk_ms), "ms"};
      result.layers["par.shard_skew"] = {shard_skew, "ratio"};
    }
    return result;
  }

  result.e2e["rows_per_s"] = {
      static_cast<double>(corpus.rows) / (median(untraced_ms) / 1000.0), "1/s"};
  result.e2e["peak_rss_mb"] = {peak_mb, "MB"};
  return result;
}

// --- serve-read ---------------------------------------------------------------

WorkloadResult run_serve_read(const Corpus& corpus, const RunSpec& spec,
                              ServerHandle& server) {
  WorkloadResult result;
  const RequestPool pool(corpus);
  LoadGen gen(pool, spec.seed ^ 0x5E17EULL);
  if (!gen.connect(server.port, generator_connections())) {
    result.gate(false, "serve-read: cannot connect to the daemon");
    return result;
  }

  // The ladder: a fixed geometric series of offered rates, climbed until the
  // daemon saturates (a growing backlog, a wrong answer, or a generator that
  // cannot keep the schedule). The sustained rate is the answered rate of
  // the highest rung that also kept p99 within the limit. A rung that misses
  // is run once more, so one stall on a shared host neither ends the climb
  // nor disqualifies a rung.
  double sustained = 0.0;
  if (!spec.trace) {
    const double budget = 0.6 * spec.seconds;  // safety cap only
    const double ladder_start = now_s();
    const auto attempt = [&](double rate, bool& saturated) {
      const PhaseResult rung = gen.run({rate, kRungSeconds, true, nullptr, 3.0});
      result.tally.merge(rung.tally);
      const double p99 = percentile(rung.latency_ms, 0.99);
      result.samples["rung_offered_rps"].push_back(rate);
      result.samples["rung_achieved_rps"].push_back(rung.achieved_rps);
      result.samples["rung_p99_ms"].push_back(p99);
      saturated = rung.tally.failed != 0 || !rung.generator_valid() ||
                  static_cast<double>(rung.outstanding_at_window_end) >
                      std::max(8.0, rate * kReadP99LimitMs / 1000.0);
      const bool held = !saturated && p99 <= kReadP99LimitMs;
      if (held) sustained = std::max(sustained, rung.achieved_rps);
      return held;
    };
    double rate = kServeRate;
    for (int rung = 0; rung < kLadderRungs && seconds_since(ladder_start) < budget;
         ++rung, rate *= kLadderRatio) {
      bool saturated = false;
      if (attempt(rate, saturated)) continue;
      if (!attempt(rate, saturated) && saturated) break;
    }
    result.gate(sustained > 0.0, "serve-read: no ladder rung held");
  }

  const double fixed_s = spec.mini ? 1.5 : (spec.trace ? 0.9 : 0.5) * spec.seconds;
  PhaseResult fixed = gen.run({kServeRate, fixed_s, true, nullptr, 3.0});
  for (int retry = 0; retry < 2 && !fixed.generator_valid(); ++retry) {
    // A phase the generator could not keep on schedule measured the host,
    // not the daemon: discard it (its answers still count) and measure
    // again; a third miss invalidates the run.
    result.tally.merge(fixed.tally);
    result.samples["discarded_late_p99_ms"].push_back(fixed.late_p99_ms());
    fixed = gen.run({kServeRate, fixed_s, true, nullptr, 3.0});
  }
  result.tally.merge(fixed.tally);
  check_generator(result, fixed, spec);
  if (fixed.tally.failed != 0) {
    result.problems.push_back(std::to_string(fixed.tally.failed) +
                              " read(s) refused or answered wrongly");
  }
  const double peak_mb = peak_rss_mb(server.pid);

  const ServerStats stats = fetch_server_stats(server.port);
  check_triple(result, stats, gen.sent() + 1);

  if (spec.trace) {
    put_serve_layers(result, fixed, stats);
    return result;
  }
  put_read_latency(result.e2e, fixed.latency_ms);
  result.e2e["read_sustained_rps"] = {sustained, "1/s"};
  result.e2e["peak_rss_mb"] = {peak_mb, "MB"};
  return result;
}

// --- live-fleet -----------------------------------------------------------------

WorkloadResult run_live_fleet(const Corpus& corpus, const RunSpec& spec,
                              const datagen::EpochDrifter& drifter, ServerHandle& server) {
  WorkloadResult result;
  const RequestPool pool(corpus);
  LoadGen gen(pool, spec.seed ^ 0xF1EE7B00ULL);
  svc::Client writer;
  writer.set_timeout_ms(60000);
  if (!gen.connect(server.port, generator_connections()) ||
      !writer.connect("127.0.0.1", server.port)) {
    result.gate(false, "live-fleet: cannot connect to the daemon");
    return result;
  }

  fleet::FleetConfig config;
  config.workers = 2;
  config.seed = corpus.seed;
  fleet::ScanFleet fleet(config, corpus.scenario->world.stores());
  netsim::FaultPlan plan(corpus.seed ^ kFaultSalt, netsim::FaultRates::uniform(kFaultRate));

  // Open-loop reads for as long as the campaign runs.
  std::atomic<bool> stop{false};
  PhaseResult reads;
  std::thread reader([&] {
    reads = gen.run({kServeRate / 10.0, 1e9, false, &stop, 10.0});
  });

  std::vector<double> scan_ms;
  std::vector<double> append_ms;
  std::vector<double> corpus_connections;
  std::vector<double> scan_rates;  // targets/s per epoch
  std::uint64_t targets = 0;
  std::vector<std::string> epoch_ssl;
  std::vector<std::string> epoch_x509;
  for (std::size_t e = 0; e < drifter.epoch_count(); ++e) {
    const obs::Stopwatch scan_watch;
    const fleet::EpochOutcome outcome = fleet.run_epoch(drifter.epoch(e), plan);
    scan_ms.push_back(scan_watch.elapsed_ms());
    targets += outcome.summary.health.scanned;
    scan_rates.push_back(static_cast<double>(outcome.summary.health.scanned) /
                         (scan_ms.back() / 1000.0));

    obs::json::Writer summary;
    core::write_epoch_summary_json(summary, outcome.summary);
    const std::string key =
        "perfbench-epoch-" + std::to_string(corpus.seed) + "-" + std::to_string(e);
    const obs::Stopwatch append_watch;
    const auto response = writer.ingest_append_epoch(outcome.ssl_rows, outcome.x509_rows,
                                                     key, std::move(summary).str());
    append_ms.push_back(append_watch.elapsed_ms());
    const auto field = [&response](std::string_view name) -> double {
      const obs::json::Value* value =
          response.has_value() ? response->payload.find(name) : nullptr;
      return value != nullptr && value->is_number() ? value->num : -1.0;
    };
    const obs::json::Value* duplicate =
        response.has_value() ? response->payload.find("duplicate") : nullptr;
    result.gate(response.has_value() && response->ok && duplicate != nullptr &&
                    !duplicate->boolean &&
                    field("ssl_added") == static_cast<double>(outcome.ssl_rows.size()) &&
                    field("x509_added") == static_cast<double>(outcome.x509_rows.size()) &&
                    field("ssl_malformed") == 0 && field("x509_malformed") == 0,
                "epoch " + std::to_string(e) + " append not acknowledged as folded");
    corpus_connections.push_back(field("connections"));
    epoch_ssl.insert(epoch_ssl.end(), outcome.ssl_rows.begin(), outcome.ssl_rows.end());
    epoch_x509.insert(epoch_x509.end(), outcome.x509_rows.begin(), outcome.x509_rows.end());
  }
  stop.store(true, std::memory_order_release);
  reader.join();
  result.samples["scan_ms"] = scan_ms;
  result.samples["append_ms"] = append_ms;
  result.tally.merge(reads.tally);
  check_generator(result, reads, spec);
  if (reads.tally.failed != 0) {
    result.problems.push_back(std::to_string(reads.tally.failed) +
                              " read(s) refused or answered wrongly during appends");
  }
  const double peak_mb = peak_rss_mb(server.pid);

  // Final state: one batch run over the base rows plus every epoch's rows
  // must render exactly what the daemon serves.
  std::vector<zeek::SslLogRecord> all_ssl = corpus.logs.ssl;
  std::vector<zeek::X509LogRecord> all_x509 = corpus.logs.x509;
  for (const std::string& row : epoch_x509) {
    if (auto record = zeek::parse_x509_row(row)) all_x509.push_back(std::move(*record));
  }
  for (const std::string& row : epoch_ssl) {
    if (auto record = zeek::parse_ssl_row(row)) all_ssl.push_back(std::move(*record));
  }
  const core::StudyPipeline pipeline = corpus.pipeline();
  const core::StudyReport batch = pipeline.run(core::StudyInput::records(all_ssl, all_x509));
  const auto served = writer.report_section("full");
  const obs::json::Value* served_text =
      served.has_value() ? served->payload.find("text") : nullptr;
  result.gate(served_text != nullptr &&
                  served_text->string == core::render_report_text(batch),
              "served report differs from one batch run over base + epoch rows");
  const auto served_fleet = writer.report_section("fleet");
  const obs::json::Value* fleet_text =
      served_fleet.has_value() ? served_fleet->payload.find("text") : nullptr;
  result.gate(fleet_text != nullptr &&
                  fleet_text->string == core::render_fleet_section(fleet.summaries()),
              "served fleet section differs from render_fleet_section");

  const ServerStats stats = fetch_server_stats(server.port);
  check_triple(result, stats, gen.sent() + drifter.epoch_count() + 2 + 1);

  const double append_p50 = median(append_ms);

  if (spec.trace) {
    MetricSet& layers = result.layers;
    const scanner::ScanLedger& ledger = fleet.ledger();
    layers["fleet.scan_ms_per_epoch"] = {median(scan_ms), "ms"};
    layers["fleet.targets_per_epoch"] = {
        static_cast<double>(targets) / static_cast<double>(scan_ms.size()), "count"};
    layers["fleet.useful_frac"] = {
        static_cast<double>(ledger.successes + ledger.salvaged) /
            static_cast<double>(std::max<std::uint64_t>(1, ledger.attempts)),
        "ratio"};
    layers["fleet.retries"] = {static_cast<double>(ledger.retries), "count"};
    const auto& summaries = fleet.summaries();
    layers["core.epoch_delta_ms"] = {median_ms(5,
                                               [&] {
                                                 for (std::size_t i = 1; i < summaries.size(); ++i) {
                                                   core::compute_epoch_delta(summaries[i - 1],
                                                                             summaries[i]);
                                                 }
                                               }) /
                                         static_cast<double>(std::max<std::size_t>(
                                             1, summaries.size() - 1)),
                                     "ms"};
    layers["svc.append.server_ms"] = {handler_p50_ms(result, stats, "ingest_append"), "ms"};
    // Re-analysis of a corpus the size of the last append's, outside the
    // daemon: the share of an append that whole-corpus analysis costs.
    core::DnPool dn_pool;
    zeek::LogJoiner joiner;
    joiner.set_dn_pool(&dn_pool);
    for (const auto& record : all_x509) joiner.add(record);
    core::CorpusIndex index;
    for (const auto& record : all_ssl) index.add(joiner, record);
    const double reanalyze_ms =
        median_ms(3, [&] { pipeline.analyze(index, nullptr, &dn_pool); });
    layers["svc.append.reanalyze_ms"] = {reanalyze_ms, "ms"};
    layers["svc.append.reanalyze_frac"] = {reanalyze_ms / append_ms.back(), "ratio"};
    layers["svc.append.ms_per_10k_conns"] = {slope(corpus_connections, append_ms) * 1e4,
                                             "ms"};
    return result;
  }

  result.e2e["append_p50_ms"] = {append_p50, "ms"};
  result.e2e["scan_targets_per_s"] = {median(scan_rates), "1/s"};
  put_read_latency(result.e2e, reads.latency_ms);
  result.e2e["peak_rss_mb"] = {peak_mb, "MB"};
  return result;
}

}  // namespace perfbench
