// certchain-analyze: command-line front-end for the study pipeline.
//
// Analyzes Zeek logs from disk:
//
//   certchain-analyze [options] <ssl.log> <x509.log>
//   certchain-analyze --demo [options]
//
// Input files are streamed through the engine's bounded-memory fold: the
// logs are consumed through LogSources in --chunk-bytes chunks (peak
// residency O(chunk) + the deduplicated corpus, not O(log bytes)), with an
// optional --checkpoint file that lets a killed run resume from the last
// chunk boundary. The report is byte-identical at every chunk size.
//
// Ingestion is lenient by default: damaged lines are counted, reported in
// the "Data quality" section and skipped. --strict aborts on the first
// damaged line instead (for curated inputs where damage means a bug).
//
// Telemetry: every run carries a full obs::RunContext. --metrics writes the
// schema-versioned JSON export (counters, per-stage manifest, wall times) to
// the given path; --trace appends the span tree to the report's Telemetry
// section. --demo synthesizes a small deterministic study corpus in memory
// (no input files needed) and analyzes its serialized logs — the CI uses it
// to exercise the whole ingest -> analyze -> export path.
// --demo-connections scales the demo corpus; --demo --write-logs <prefix>
// writes the demo logs to <prefix>ssl.log / <prefix>x509.log and exits,
// which is how the CI streaming smoke lane generates its input.
//
// The trust stores / CT view / vendor directory default to the simulated
// study universe (they parameterize the pipeline; swap in your own by using
// the library API). Prints the condensed study report.
#include <cstdio>
#include <fstream>
#include <limits>
#include <optional>
#include <string>

#include "core/pipeline.hpp"
#include "core/report_text.hpp"
#include "datagen/scenario.hpp"
#include "netsim/pki_world.hpp"
#include "obs/export.hpp"
#include "obs/run_context.hpp"
#include "util/strings.hpp"
#include "zeek/log_io.hpp"

namespace {

void print_usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options] <ssl.log> <x509.log>\n"
      "       %s --demo [options]\n"
      "options:\n"
      "  --strict              abort on the first damaged input line\n"
      "  --threads <n>         fold and analyze on n workers (0 = all\n"
      "                        hardware threads): each chunk is parsed n-way\n"
      "                        and every chain's rows fold on one worker;\n"
      "                        output is byte-identical\n"
      "  --chunk-bytes <n>     streaming chunk size; K/M/G suffixes accepted\n"
      "  --checkpoint <path>   write a resumable fold snapshot after every\n"
      "                        chunk; resume from it if present\n"
      "  --metrics <path>      write the JSON metrics export\n"
      "  --trace               append the span tree to the report\n"
      "  --demo                analyze a synthesized demo corpus\n"
      "  --demo-connections <n> demo corpus size (default 4000)\n"
      "  --write-logs <prefix> with --demo: write <prefix>ssl.log and\n"
      "                        <prefix>x509.log, then exit\n",
      argv0, argv0);
}

/// Parses "4194304", "64K", "4M", "1G" (case-insensitive suffixes); a size
/// that does not fit size_t is rejected, never wrapped.
std::optional<std::size_t> parse_byte_size(std::string_view text) {
  std::size_t multiplier = 1;
  switch (text.empty() ? '\0' : text.back()) {
    case 'K': case 'k': multiplier = std::size_t{1} << 10; break;
    case 'M': case 'm': multiplier = std::size_t{1} << 20; break;
    case 'G': case 'g': multiplier = std::size_t{1} << 30; break;
    default: break;
  }
  if (multiplier != 1) text.remove_suffix(1);
  const auto value = certchain::util::parse_count<std::size_t>(text);
  if (!value || *value > std::numeric_limits<std::size_t>::max() / multiplier) {
    return std::nullopt;
  }
  return *value * multiplier;
}

/// Serializes a deterministic scenario into Zeek log text.
void build_demo_logs(certchain::obs::RunContext& context,
                     std::size_t connections, std::string& ssl_text,
                     std::string& x509_text) {
  using namespace certchain;
  const auto scenario = datagen::build_study_scenario(
      datagen::demo_scenario_config(connections), &context);
  const netsim::GeneratedLogs logs = scenario->generate_logs(&context);

  zeek::SslLogWriter ssl_writer;
  for (const auto& record : logs.ssl) ssl_writer.add(record);
  ssl_text = ssl_writer.finish();
  zeek::X509LogWriter x509_writer;
  for (const auto& record : logs.x509) x509_writer.add(record);
  x509_text = x509_writer.finish();
}

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  out.write(content.data(),
            static_cast<std::streamsize>(content.size()));
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace certchain;
  core::RunOptions run_options;
  core::IngestOptions& ingest = run_options.ingest;
  std::string metrics_path;
  std::string write_logs_prefix;
  std::size_t demo_connections = 4000;
  bool trace = false;
  bool demo = false;
  int arg = 1;
  for (; arg < argc; ++arg) {
    const std::string_view flag = argv[arg];
    if (flag == "--strict") {
      ingest.mode = core::IngestMode::kStrict;
    } else if (flag == "--trace") {
      trace = true;
    } else if (flag == "--demo") {
      demo = true;
    } else if (flag == "--metrics" || flag == "--checkpoint" ||
               flag == "--write-logs" || flag == "--chunk-bytes" ||
               flag == "--threads" || flag == "--demo-connections") {
      if (arg + 1 >= argc) {
        print_usage(argv[0]);
        return 2;
      }
      const char* value = argv[++arg];
      if (flag == "--metrics") {
        metrics_path = value;
      } else if (flag == "--checkpoint") {
        run_options.checkpoint_path = value;
      } else if (flag == "--write-logs") {
        write_logs_prefix = value;
      } else {
        bool valid = false;
        if (flag == "--chunk-bytes") {
          valid = util::store(parse_byte_size(value), run_options.chunk_bytes) &&
                  run_options.chunk_bytes != 0;
        } else if (flag == "--threads") {
          valid = util::store(util::parse_count<std::size_t>(value),
                              run_options.threads);
        } else {
          valid = util::store(util::parse_count<std::size_t>(value),
                              demo_connections) &&
                  demo_connections != 0;
        }
        if (!valid) {
          print_usage(argv[0]);
          return 2;
        }
      }
    } else {
      break;
    }
  }
  if ((demo && argc - arg != 0) || (!demo && argc - arg != 2)) {
    print_usage(argv[0]);
    return 2;
  }

  obs::RunContext telemetry;
  telemetry.set_config("tool", "certchain-analyze");
  telemetry.set_config("ingest.mode", core::ingest_mode_name(ingest.mode));

  std::string ssl_text;
  std::string x509_text;
  std::optional<core::StudyInput> input;
  if (demo) {
    telemetry.set_config("input", "demo");
    build_demo_logs(telemetry, demo_connections, ssl_text, x509_text);
    if (!write_logs_prefix.empty()) {
      const std::string ssl_path = write_logs_prefix + "ssl.log";
      const std::string x509_path = write_logs_prefix + "x509.log";
      if (!write_file(ssl_path, ssl_text) || !write_file(x509_path, x509_text)) {
        std::fprintf(stderr, "certchain-analyze: cannot write demo logs to %s*\n",
                     write_logs_prefix.c_str());
        return 1;
      }
      std::fprintf(stderr, "wrote %s (%zu bytes) and %s (%zu bytes)\n",
                   ssl_path.c_str(), ssl_text.size(), x509_path.c_str(),
                   x509_text.size());
      return 0;
    }
    input = core::StudyInput::text(ssl_text, x509_text);
  } else {
    // The engine's fold: the logs never become resident strings here.
    input = core::StudyInput::files(argv[arg], argv[arg + 1]);
    telemetry.set_config("input.ssl", argv[arg]);
    telemetry.set_config("input.x509", argv[arg + 1]);
  }

  netsim::PkiWorld world;  // databases the classification runs against
  const core::VendorDirectory vendors =
      datagen::interception_vendor_directory(world);
  const core::StudyPipeline pipeline(world.stores(), world.ct_logs(), vendors,
                                     &world.cross_signs());
  core::StudyReport report;
  try {
    report = pipeline.run(*input, run_options, &telemetry);
  } catch (const core::IngestError& error) {
    // Only a damaged line (strict mode) earns the hint; a source that cannot
    // be opened or rewound fails alike in both modes.
    std::fprintf(stderr, "certchain-analyze: %s%s\n", error.what(),
                 error.cause() == core::IngestError::Cause::kDamagedLine
                     ? " (rerun without --strict to skip damaged lines)"
                     : "");
    return 1;
  }
  std::fprintf(stderr, "parsed %zu SSL rows (%zu skipped), %zu X509 rows (%zu skipped)\n",
               report.ingest.ssl.records, report.ingest.ssl.skipped_lines,
               report.ingest.x509.records, report.ingest.x509.skipped_lines);
  if (input->streamed()) {
    std::fprintf(
        stderr,
        "streamed %llu ssl + %llu x509 chunks of <=%zu bytes, peak rss %.1f MiB\n",
        static_cast<unsigned long long>(
            telemetry.metrics.counter("stream.chunk.ssl")),
        static_cast<unsigned long long>(
            telemetry.metrics.counter("stream.chunk.x509")),
        run_options.chunk_bytes,
        telemetry.metrics.gauge("mem.peak_rss_bytes") / (1024.0 * 1024.0));
  }

  core::ReportTextOptions options;
  options.graphs = true;
  options.telemetry = &telemetry;
  options.telemetry_trace = trace;
  std::fputs(core::render_report_text(report, options).c_str(), stdout);

  if (!metrics_path.empty()) {
    if (!obs::write_metrics_json(telemetry, metrics_path)) {
      std::fprintf(stderr, "certchain-analyze: cannot write metrics to %s\n",
                   metrics_path.c_str());
      return 1;
    }
    std::fprintf(stderr, "metrics: wrote %s (schema %s v%d)\n",
                 metrics_path.c_str(), std::string(obs::kMetricsSchemaName).c_str(),
                 obs::kMetricsSchemaVersion);
  }

  // The §3.2.1 interception attribution needs a CT view of the genuine
  // certificates. A fresh simulated world has empty CT logs, so forged
  // chains cannot be distinguished from ordinary non-public deployments —
  // exactly the limitation the paper notes for unlogged originals (App. B).
  bool ct_empty = true;
  for (std::size_t i = 0; i < world.ct_logs().log_count(); ++i) {
    ct_empty = ct_empty && world.ct_logs().log(i).size() == 0;
  }
  if (ct_empty) {
    std::fprintf(stderr,
                 "note: the CT view is empty; TLS interception cannot be "
                 "attributed and such chains appear as non-public-DB-only. "
                 "Drive the pipeline with a populated CtLogSet (see "
                 "examples/campus_study.cpp) for full attribution.\n");
  }
  return 0;
}
