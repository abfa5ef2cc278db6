#include "probes.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "core/dn_pool.hpp"
#include "obs/json.hpp"
#include "obs/run_context.hpp"
#include "obs/stopwatch.hpp"
#include "svc/protocol.hpp"
#include "svc/service_state.hpp"
#include "svc/wal.hpp"
#include "zeek/joiner.hpp"
#include "zeek/log_io.hpp"
#include "zeek/log_stream.hpp"

namespace perfbench {

using namespace certchain;

double median_ms(int reps, const std::function<void()>& fn) {
  std::vector<double> samples;
  for (int i = 0; i < reps; ++i) {
    const obs::Stopwatch watch;
    fn();
    samples.push_back(watch.elapsed_ms());
  }
  return median(std::move(samples));
}

namespace {

/// Mean microseconds per call of `fn` over at least `min_ms` of repetitions.
template <typename Fn>
double mean_us(double min_ms, Fn&& fn) {
  const obs::Stopwatch watch;
  std::uint64_t calls = 0;
  do {
    calls += fn();
  } while (watch.elapsed_ms() < min_ms);
  return watch.elapsed_ms() * 1000.0 / static_cast<double>(std::max<std::uint64_t>(1, calls));
}

/// Lines in `text` by memchr — the raw byte-scan rate every parser is bound by.
std::size_t count_lines(std::string_view text) {
  std::size_t lines = 0;
  const char* at = text.data();
  const char* end = at + text.size();
  while (at < end) {
    const void* hit = std::memchr(at, '\n', static_cast<std::size_t>(end - at));
    if (hit == nullptr) break;
    ++lines;
    at = static_cast<const char*>(hit) + 1;
  }
  return lines;
}

struct Parsed {
  core::DnPool pool;
  std::vector<zeek::SslLogRecord> ssl;
  std::vector<zeek::X509LogRecord> x509;
  std::size_t malformed = 0;
};

/// The parse layer exactly as the serial text engine wires it.
void parse_logs(const Corpus& corpus, Parsed& parsed) {
  parsed.ssl.reserve(corpus.logs.ssl.size());
  parsed.x509.reserve(corpus.logs.x509.size());
  auto ssl_reader = zeek::make_streaming_ssl_reader(
      [&parsed](zeek::SslLogRecord record) { parsed.ssl.push_back(std::move(record)); });
  ssl_reader.set_dn_pool(&parsed.pool);
  ssl_reader.feed(corpus.ssl_text);
  ssl_reader.finish();
  auto x509_reader = zeek::make_streaming_x509_reader(
      [&parsed](zeek::X509LogRecord record) { parsed.x509.push_back(std::move(record)); });
  x509_reader.set_dn_pool(&parsed.pool);
  x509_reader.feed(corpus.x509_text);
  x509_reader.finish();
  parsed.malformed = ssl_reader.malformed_rows() + x509_reader.malformed_rows();
}

}  // namespace

void probe_core_layers(const Corpus& corpus, MetricSet& out) {
  const double mb = static_cast<double>(corpus.log_bytes()) / 1e6;

  std::size_t lines = 0;
  const double scan_ms = median_ms(5, [&] {
    lines = count_lines(corpus.ssl_text) + count_lines(corpus.x509_text);
  });
  out["roofline.scan_mb_s"] = {mb / (scan_ms / 1000.0), "MB/s"};

  // Parse and fold, each timed on its own, three fresh runs.
  std::vector<double> parse_samples;
  std::vector<double> fold_samples;
  std::unique_ptr<Parsed> parsed;
  std::unique_ptr<zeek::LogJoiner> joiner;
  std::unique_ptr<core::CorpusIndex> index;
  for (int rep = 0; rep < 3; ++rep) {
    index.reset();
    joiner.reset();
    parsed = std::make_unique<Parsed>();
    const obs::Stopwatch parse_watch;
    parse_logs(corpus, *parsed);
    parse_samples.push_back(parse_watch.elapsed_ms());
    const obs::Stopwatch fold_watch;
    joiner = std::make_unique<zeek::LogJoiner>();
    joiner->set_dn_pool(&parsed->pool);
    for (const auto& record : parsed->x509) joiner->add(record);
    index = std::make_unique<core::CorpusIndex>();
    for (const auto& record : parsed->ssl) index->add(*joiner, record);
    fold_samples.push_back(fold_watch.elapsed_ms());
  }
  const double parse_ms = median(parse_samples);
  out["zeek.parse_ms"] = {parse_ms, "ms"};
  out["zeek.parse_mb_s"] = {mb / (parse_ms / 1000.0), "MB/s"};
  out["zeek.rows_malformed"] = {static_cast<double>(parsed->malformed), "count"};
  out["zeek.parse_roofline_frac"] = {scan_ms / parse_ms, "ratio"};
  out["core.fold_ms"] = {median(fold_samples), "ms"};
  const core::CorpusTotals totals = index->totals();
  out["core.join_admitted_frac"] = {
      static_cast<double>(totals.with_certificates) /
          static_cast<double>(std::max<std::uint64_t>(1, totals.connections)),
      "ratio"};
  out["core.unique_chains"] = {static_cast<double>(index->unique_chain_count()), "count"};

  // Analysis: traced and untraced calls alternate so drift hits both alike.
  const core::StudyPipeline pipeline = corpus.pipeline();
  std::vector<double> traced;
  std::vector<double> untraced;
  std::map<std::string, std::vector<double>> stage_ms;
  core::StudyReport report;
  for (int rep = 0; rep < 3; ++rep) {
    {
      const obs::Stopwatch watch;
      report = pipeline.analyze(*index, nullptr, &parsed->pool);
      untraced.push_back(watch.elapsed_ms());
    }
    obs::RunContext ctx;
    const obs::Stopwatch watch;
    report = pipeline.analyze(*index, &ctx, &parsed->pool);
    traced.push_back(watch.elapsed_ms());
    const obs::Trace::Node* root = find_span(ctx.trace.root(), "pipeline");
    if (root == nullptr) continue;
    stage_ms["core.analyze_ms"].push_back(root->wall_ms);
    stage_ms["core.analyze_unattributed_ms"].push_back(self_ms(*root));
    for (const char* stage :
         {"enrich", "categorize", "structure", "graphs", "ct_compliance"}) {
      const obs::Trace::Node* node = find_span(*root, stage);
      stage_ms[std::string("core.") + stage + "_ms"].push_back(
          node != nullptr ? node->wall_ms : 0.0);
    }
  }
  for (auto& [name, samples] : stage_ms) out[name] = {median(samples), "ms"};
  out["trace.overhead_frac"] = {median(traced) / median(untraced) - 1.0, "ratio"};
  out["svc.append.reanalyze_ms"] = {median(untraced), "ms"};

  core::ReportTextOptions options;
  options.graphs = true;
  std::size_t bytes = 0;
  out["core.render_ms"] = {
      median_ms(7, [&] { bytes = core::render_report_text(report, options).size(); }),
      "ms"};
  out["core.report_bytes"] = {static_cast<double>(bytes), "bytes"};
}

void probe_codec(const Corpus& corpus, MetricSet& out) {
  obs::json::Writer report;
  report.begin_object();
  report.key("section");
  report.value_string("full");
  report.key("generation");
  report.value_uint(0);
  report.key("text");
  report.value_string(core::render_report_text(corpus.reference));
  report.end_object();
  const std::vector<std::pair<svc::MessageType, std::string>> frames = {
      {svc::MessageType::kPing, ""},
      {svc::MessageType::kClassifyIssuer,
       "{\"issuer\":\"CN=Perfbench Intermediate,O=Perfbench Labs,C=ZZ\"}"},
      {svc::MessageType::kReportSectionOk, std::move(report).str()},
  };
  std::vector<std::string> wires;
  out["svc.codec.encode_us"] = {mean_us(20.0, [&] {
                                  wires.clear();
                                  for (const auto& [type, payload] : frames) {
                                    wires.push_back(svc::encode_frame(type, payload));
                                  }
                                  return frames.size();
                                }),
                                "us"};
  out["svc.codec.decode_us"] = {mean_us(20.0, [&] {
                                  svc::FrameReader reader;
                                  std::uint64_t decoded = 0;
                                  for (const std::string& wire : wires) {
                                    reader.feed(wire);
                                    decoded += reader.next().status ==
                                               svc::DecodeResult::Status::kFrame;
                                  }
                                  return decoded;
                                }),
                                "us"};
}

void probe_ct(const Corpus& corpus, MetricSet& out) {
  const auto& world = corpus.scenario->world;
  const svc::ServiceState state(world.stores(), world.ct_logs(), corpus.scenario->vendors,
                                &world.cross_signs());
  std::vector<std::string> fingerprints;
  const ct::CtLogSet& logs = world.ct_logs();
  for (std::size_t i = 0; i < logs.log_count(); ++i) {
    const auto& entries = logs.log(i).entries();
    const std::size_t stride = std::max<std::size_t>(1, entries.size() / 64);
    for (std::size_t k = 0; k < entries.size(); k += stride) {
      fingerprints.push_back(entries[k].certificate_fingerprint);
    }
  }
  std::size_t proved = 0;
  out["ct.prove_us"] = {mean_us(30.0, [&] {
                          for (const std::string& fp : fingerprints) {
                            proved += state.ct_prove_inclusion(fp).has_value();
                          }
                          return fingerprints.size();
                        }),
                        "us"};
}

void probe_wal(const Corpus& corpus, MetricSet& out) {
  svc::WalRecord record;
  const std::size_t ssl_rows = std::min<std::size_t>(5000, corpus.logs.ssl.size());
  const std::size_t x509_rows = std::min<std::size_t>(3000, corpus.logs.x509.size());
  for (std::size_t i = 0; i < ssl_rows; ++i) {
    record.ssl_rows.push_back(zeek::render_ssl_row(corpus.logs.ssl[i]));
  }
  for (std::size_t i = 0; i < x509_rows; ++i) {
    record.x509_rows.push_back(zeek::render_x509_row(corpus.logs.x509[i]));
  }
  const std::string path = corpus.workdir + "/probe.wal";
  std::remove(path.c_str());
  svc::WriteAheadLog wal;
  std::string error;
  if (!wal.open(path, 0, 1, &error)) {
    std::fprintf(stderr, "perfbench: wal probe: %s\n", error.c_str());
    return;
  }
  int key = 0;
  out["svc.append.wal_ms"] = {median_ms(5,
                                        [&] {
                                          record.idempotency_key =
                                              "probe-" + std::to_string(key++);
                                          wal.append(record, &error);
                                        }),
                              "ms"};
  wal.close();
  std::remove(path.c_str());
}

}  // namespace perfbench
