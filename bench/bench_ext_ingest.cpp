// Extension — hot-path ingest throughput and residency (DESIGN.md §16):
// rows/second through the TSV parse + join + corpus-fold path, plus the
// end-to-end pipeline, with peak RSS per measured phase.
//
// This is the regression gate for the interned-DN/zero-copy ingest work:
// the committed BENCH_ingest.json records rows/sec and peak RSS, and the
// ingest-bench-smoke CI lane fails on a >20% rows/sec regression against it.
//
// Methodology mirrors bench_ext_streaming: every measurement runs in a
// forked child so ru_maxrss is a clean per-phase high-water mark. Corpus
// generation happens in a throwaway child that writes the Zeek log pair to
// disk; the measured children slurp those bytes and run the work:
//
//   ingest child   N timed iterations of {streaming TSV parse -> records;
//                  LogJoiner + CorpusIndex fold} — the per-row hot path with
//                  its two layers timed apart. As in StudyPipeline::run, the
//                  readers do not intern; the joiner interns every DN on its
//                  DnPool (canonicalized once per distinct spelling) and the
//                  join works over interned ids. Headline rows/sec and peak
//                  RSS come from here.
//   pipeline child one full StudyPipeline::run over the same text (serial),
//                  reporting end-to-end rows/sec and the report digest as a
//                  byte-identity anchor across harness runs.
//
// An untimed warm-up iteration faults the log bytes in before the clock
// starts. `--smoke` shrinks the corpus for CI; `--json-out <path>` writes
// the machine-readable certchain.bench.ingest document.
//
// Knobs: CERTCHAIN_CONNECTIONS / CERTCHAIN_SCALE / CERTCHAIN_SEED (corpus),
//        CERTCHAIN_INGEST_ITERS (timed iterations).
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "bench_common.hpp"
#include "core/dn_pool.hpp"
#include "core/report_text.hpp"
#include "obs/json.hpp"
#include "util/hash.hpp"
#include "zeek/joiner.hpp"
#include "zeek/log_io.hpp"
#include "zeek/log_stream.hpp"

namespace {

using namespace certchain;

/// Everything a measured child reports back through its pipe.
struct ChildPayload {
  double parse_ms = 0.0;  // summed over timed iterations
  double join_ms = 0.0;   // summed over timed iterations
  double end_ms = 0.0;    // one full pipeline run
  std::uint64_t log_bytes = 0;
  std::uint64_t ssl_rows = 0;
  std::uint64_t x509_rows = 0;
  std::uint64_t unique_chains = 0;
  std::uint64_t report_digest = 0;
};

struct ChildResult {
  ChildPayload payload;
  long max_rss_kib = 0;
  bool ok = false;
};

/// Forks, runs `child` (which returns its payload), and pairs the payload
/// with the child's peak RSS from wait4().
template <typename Child>
ChildResult measure_in_child(Child&& child) {
  ChildResult result;
  int fds[2];
  if (pipe(fds) != 0) return result;
  const pid_t pid = fork();
  if (pid < 0) return result;
  if (pid == 0) {
    close(fds[0]);
    const ChildPayload payload = child();
    (void)!write(fds[1], &payload, sizeof payload);
    close(fds[1]);
    _exit(0);
  }
  close(fds[1]);
  ChildPayload payload{};
  const ssize_t got = read(fds[0], &payload, sizeof payload);
  close(fds[0]);
  int status = 0;
  struct rusage usage {};
  wait4(pid, &status, 0, &usage);
  result.payload = payload;
  result.max_rss_kib = usage.ru_maxrss;
  result.ok = got == sizeof payload && WIFEXITED(status) &&
              WEXITSTATUS(status) == 0;
  return result;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

double rows_per_sec(std::uint64_t rows, double wall_ms) {
  return static_cast<double>(rows) * 1000.0 / std::max(wall_ms, 1e-9);
}

std::string bench_json(const datagen::ScenarioConfig& config, bool smoke,
                       int iterations, const ChildResult& ingest,
                       const ChildResult& pipeline, std::uint64_t log_bytes,
                       double headline_rows_per_sec) {
  const ChildPayload& in = ingest.payload;
  const std::uint64_t total_rows = in.ssl_rows + in.x509_rows;
  obs::json::Writer writer;
  writer.begin_object();
  writer.key("schema");
  writer.value_string("certchain.bench.ingest");
  writer.key("version");
  writer.value_uint(1);
  writer.key("smoke");
  writer.value_bool(smoke);
  writer.key("scenario");
  writer.begin_object();
  writer.key("chain_scale");
  writer.value_number(config.chain_scale);
  writer.key("connections");
  writer.value_uint(config.total_connections);
  writer.key("seed");
  writer.value_uint(config.seed);
  writer.end_object();
  writer.key("corpus");
  writer.begin_object();
  writer.key("ssl_rows");
  writer.value_uint(in.ssl_rows);
  writer.key("x509_rows");
  writer.value_uint(in.x509_rows);
  writer.key("log_bytes");
  writer.value_uint(log_bytes);
  writer.key("unique_chains");
  writer.value_uint(in.unique_chains);
  writer.end_object();
  writer.key("iterations");
  writer.value_uint(static_cast<std::uint64_t>(iterations));
  writer.key("phases");
  writer.begin_object();
  writer.key("parse");
  writer.begin_object();
  writer.key("wall_ms");
  writer.value_number(in.parse_ms);
  writer.key("rows_per_sec");
  writer.value_number(
      rows_per_sec(total_rows * static_cast<std::uint64_t>(iterations),
                   in.parse_ms));
  writer.end_object();
  writer.key("join_fold");
  writer.begin_object();
  writer.key("wall_ms");
  writer.value_number(in.join_ms);
  writer.key("rows_per_sec");
  writer.value_number(
      rows_per_sec(in.ssl_rows * static_cast<std::uint64_t>(iterations),
                   in.join_ms));
  writer.end_object();
  writer.key("end_to_end");
  writer.begin_object();
  writer.key("wall_ms");
  writer.value_number(pipeline.payload.end_ms);
  writer.key("rows_per_sec");
  writer.value_number(rows_per_sec(total_rows, pipeline.payload.end_ms));
  writer.key("peak_rss_bytes");
  writer.value_uint(static_cast<std::uint64_t>(pipeline.max_rss_kib) * 1024);
  writer.key("report_digest");
  writer.value_uint(pipeline.payload.report_digest);
  writer.end_object();
  writer.end_object();
  writer.key("rows_per_sec");
  writer.value_number(headline_rows_per_sec);
  writer.key("peak_rss_bytes");
  writer.value_uint(static_cast<std::uint64_t>(ingest.max_rss_kib) * 1024);
  writer.end_object();
  return std::move(writer).str();
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_out;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--json-out" && i + 1 < argc) {
      json_out = argv[++i];
    } else if (arg == "--smoke") {
      smoke = true;
    } else {
      std::fprintf(stderr,
                   "usage: bench_ext_ingest [--json-out <path>] [--smoke]\n"
                   "unknown argument: %s\n",
                   argv[i]);
      return 2;
    }
  }
  bench::print_header(
      "Ext: hot-path ingest throughput and residency",
      "rows/sec through TSV parse + join + corpus fold (forked children, "
      "clean ru_maxrss per phase)");

  datagen::ScenarioConfig config = bench::config_from_env();
  if (smoke && std::getenv("CERTCHAIN_CONNECTIONS") == nullptr) {
    config.total_connections = 30000;
  }
  int iterations = smoke ? 2 : 3;
  if (const char* env = std::getenv("CERTCHAIN_INGEST_ITERS")) {
    iterations = std::max(1, std::atoi(env));
  }

  const std::string prefix =
      "/tmp/certchain_bench_ingest_" + std::to_string(getpid()) + "_";
  const std::string ssl_path = prefix + "ssl.log";
  const std::string x509_path = prefix + "x509.log";

  // Corpus generation in a throwaway child: datagen structures and log bytes
  // never become resident in the parent or the measured children.
  const ChildResult generation = measure_in_child([&] {
    ChildPayload payload;
    const auto scenario = datagen::build_study_scenario(config);
    const netsim::GeneratedLogs logs = scenario->generate_logs();
    zeek::SslLogWriter ssl_writer;
    for (const auto& record : logs.ssl) ssl_writer.add(record);
    const std::string ssl_text = ssl_writer.finish();
    zeek::X509LogWriter x509_writer;
    for (const auto& record : logs.x509) x509_writer.add(record);
    const std::string x509_text = x509_writer.finish();
    std::ofstream(ssl_path, std::ios::binary) << ssl_text;
    std::ofstream(x509_path, std::ios::binary) << x509_text;
    payload.log_bytes = ssl_text.size() + x509_text.size();
    return payload;
  });
  if (!generation.ok) {
    std::fprintf(stderr, "bench_ext_ingest: corpus generation failed\n");
    return 1;
  }
  const std::uint64_t log_bytes = generation.payload.log_bytes;
  std::fprintf(stderr, "[certchain] corpus on disk: %.1f MiB\n",
               static_cast<double>(log_bytes) / (1024.0 * 1024.0));

  // The headline measurement: the per-row hot path, isolated from analysis.
  const ChildResult ingest = measure_in_child([&] {
    ChildPayload payload;
    const std::string ssl_text = slurp(ssl_path);
    const std::string x509_text = slurp(x509_path);
    for (int it = -1; it < iterations; ++it) {  // it == -1 is the warm-up
      core::DnPool pool;
      std::vector<zeek::SslLogRecord> ssl;
      std::vector<zeek::X509LogRecord> x509;
      // Reserve from the newline count so the record vectors never double
      // through ~2x the needed footprint.
      ssl.reserve(static_cast<std::size_t>(
          std::count(ssl_text.begin(), ssl_text.end(), '\n')));
      x509.reserve(static_cast<std::size_t>(
          std::count(x509_text.begin(), x509_text.end(), '\n')));
      const obs::Stopwatch parse_watch;
      auto ssl_reader = zeek::make_streaming_ssl_reader(
          [&ssl](zeek::SslLogRecord record) { ssl.push_back(std::move(record)); });
      ssl_reader.feed(ssl_text);
      ssl_reader.finish();
      auto x509_reader = zeek::make_streaming_x509_reader(
          [&x509](zeek::X509LogRecord record) { x509.push_back(std::move(record)); });
      x509_reader.feed(x509_text);
      x509_reader.finish();
      const double parse_ms = parse_watch.elapsed_ms();

      const obs::Stopwatch join_watch;
      zeek::LogJoiner joiner;
      joiner.set_dn_pool(&pool);
      for (const zeek::X509LogRecord& record : x509) joiner.add(record);
      core::CorpusIndex corpus;
      for (const zeek::SslLogRecord& row : ssl) corpus.add(joiner, row);
      const double join_ms = join_watch.elapsed_ms();

      if (it >= 0) {
        payload.parse_ms += parse_ms;
        payload.join_ms += join_ms;
      }
      payload.ssl_rows = ssl.size();
      payload.x509_rows = x509.size();
      payload.unique_chains = corpus.unique_chain_count();
    }
    return payload;
  });
  if (!ingest.ok) {
    std::fprintf(stderr, "bench_ext_ingest: ingest measurement failed\n");
    return 1;
  }

  // Secondary: the whole serial pipeline over the same text, digesting the
  // rendered report so harness runs can be diffed for byte-identity.
  const ChildResult pipeline_run = measure_in_child([&] {
    ChildPayload payload;
    const auto scenario = datagen::build_study_scenario(config);
    const std::string ssl_text = slurp(ssl_path);
    const std::string x509_text = slurp(x509_path);
    const core::StudyPipeline pipeline(
        scenario->world.stores(), scenario->world.ct_logs(), scenario->vendors,
        &scenario->world.cross_signs());
    const obs::Stopwatch watch;
    const core::StudyReport report =
        pipeline.run(core::StudyInput::text(ssl_text, x509_text));
    payload.end_ms = watch.elapsed_ms();
    core::ReportTextOptions options;
    options.graphs = true;
    payload.report_digest = util::fnv1a64(render_report_text(report, options));
    return payload;
  });
  if (!pipeline_run.ok) {
    std::fprintf(stderr, "bench_ext_ingest: pipeline measurement failed\n");
    return 1;
  }

  std::remove(ssl_path.c_str());
  std::remove(x509_path.c_str());

  const ChildPayload& in = ingest.payload;
  const std::uint64_t total_rows = in.ssl_rows + in.x509_rows;
  const std::uint64_t timed_rows =
      total_rows * static_cast<std::uint64_t>(iterations);
  const double headline =
      rows_per_sec(timed_rows, in.parse_ms + in.join_ms);

  bench::print_section("Ingest hot path (" + std::to_string(iterations) +
                       " timed iterations)");
  util::TextTable table({"Phase", "Rows", "Wall ms", "Rows/s", "Peak RSS MiB"});
  table.add_row({"parse", util::with_commas(timed_rows),
                 util::format_double(in.parse_ms, 1),
                 util::format_double(rows_per_sec(timed_rows, in.parse_ms), 0),
                 "-"});
  table.add_row(
      {"join+fold",
       util::with_commas(in.ssl_rows * static_cast<std::uint64_t>(iterations)),
       util::format_double(in.join_ms, 1),
       util::format_double(
           rows_per_sec(in.ssl_rows * static_cast<std::uint64_t>(iterations),
                        in.join_ms),
           0),
       "-"});
  table.add_row({"ingest (headline)", util::with_commas(timed_rows),
                 util::format_double(in.parse_ms + in.join_ms, 1),
                 util::format_double(headline, 0),
                 util::format_double(
                     static_cast<double>(ingest.max_rss_kib) / 1024.0, 1)});
  table.add_row(
      {"pipeline end-to-end", util::with_commas(total_rows),
       util::format_double(pipeline_run.payload.end_ms, 1),
       util::format_double(rows_per_sec(total_rows, pipeline_run.payload.end_ms),
                           0),
       util::format_double(
           static_cast<double>(pipeline_run.max_rss_kib) / 1024.0, 1)});
  std::printf("%s\n", table.render().c_str());

  std::printf("Corpus: %s ssl + %s x509 rows, %s unique chains, report digest "
              "%016llx\n",
              util::with_commas(in.ssl_rows).c_str(),
              util::with_commas(in.x509_rows).c_str(),
              util::with_commas(in.unique_chains).c_str(),
              static_cast<unsigned long long>(pipeline_run.payload.report_digest));

  if (!json_out.empty()) {
    const std::string document = bench_json(config, smoke, iterations, ingest,
                                            pipeline_run, log_bytes, headline);
    std::ofstream out(json_out, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "bench_ext_ingest: cannot write %s\n",
                   json_out.c_str());
      return 1;
    }
    out << document << '\n';
    std::fprintf(stderr, "[certchain] wrote %s\n", json_out.c_str());
  }
  return 0;
}
