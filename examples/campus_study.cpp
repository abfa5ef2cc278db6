// End-to-end campus measurement study, exactly the paper's workflow:
//
//   build PKI world + server population  (datagen)
//   -> simulate a year of border-gateway TLS traffic (netsim)
//   -> stream Zeek SSL.log / X509.log to disk (zeek)
//   -> parse the logs back and run the chain structure analyzer (core)
//   -> print a condensed study report.
//
// Run:   ./build/examples/campus_study [output_dir]
// Knobs: CERTCHAIN_SCALE (a finite number > 0) / CERTCHAIN_CONNECTIONS /
//        CERTCHAIN_SEED (whole numbers > 0); any other value exits with 2.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <fstream>
#include <sstream>

#include "core/pipeline.hpp"
#include "datagen/scenario.hpp"
#include "util/strings.hpp"
#include "zeek/log_io.hpp"

namespace {

[[noreturn]] void reject_knob(const char* name, const char* text,
                              const char* expected) {
  std::fprintf(stderr, "%s must be %s, got '%s'\n", name, expected, text);
  std::exit(2);
}

/// The knob's value as a whole number > 0, or `fallback` when it is unset.
std::uint64_t whole_knob(const char* name, std::uint64_t fallback) {
  const char* text = std::getenv(name);
  if (text == nullptr) return fallback;
  const std::optional<std::uint64_t> value =
      certchain::util::parse_count<std::uint64_t>(text);
  if (!value || *value == 0) reject_knob(name, text, "a whole number > 0");
  return *value;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace certchain;
  using chain::ChainCategory;

  datagen::ScenarioConfig config;
  config.chain_scale = 1.0 / 500.0;
  config.total_connections = 60000;
  if (const char* text = std::getenv("CERTCHAIN_SCALE")) {
    if (!util::store(util::parse_real(text,
                                      std::numeric_limits<double>::denorm_min(),
                                      std::numeric_limits<double>::max()),
                     config.chain_scale)) {
      reject_knob("CERTCHAIN_SCALE", text, "a finite number > 0");
    }
  }
  config.total_connections =
      whole_knob("CERTCHAIN_CONNECTIONS", config.total_connections);
  config.seed = whole_knob("CERTCHAIN_SEED", config.seed);
  const std::string out_dir = argc > 1 ? argv[1] : ".";

  std::printf("[1/4] building the simulated campus (scale %.4f)...\n",
              config.chain_scale);
  const auto scenario = datagen::build_study_scenario(config);
  std::printf("      %zu server endpoints, %zu interception vendors\n",
              scenario->endpoints.size(), scenario->world.interception().size());

  std::printf("[2/4] replaying %llu TLS connections through the border gateway...\n",
              static_cast<unsigned long long>(config.total_connections));
  const netsim::GeneratedLogs logs = scenario->generate_logs();

  std::printf("[3/4] writing Zeek logs...\n");
  zeek::SslLogWriter ssl_writer;
  for (const auto& record : logs.ssl) ssl_writer.add(record);
  zeek::X509LogWriter x509_writer;
  for (const auto& record : logs.x509) x509_writer.add(record);
  const std::string ssl_path = out_dir + "/ssl.log";
  const std::string x509_path = out_dir + "/x509.log";
  std::ofstream(ssl_path) << ssl_writer.finish();
  std::ofstream(x509_path) << x509_writer.finish();
  std::printf("      %s (%zu rows), %s (%zu rows)\n", ssl_path.c_str(),
              logs.ssl.size(), x509_path.c_str(), logs.x509.size());

  std::printf("[4/4] streaming the on-disk logs back through the analyzer...\n\n");
  const core::StudyPipeline pipeline(scenario->world.stores(),
                                     scenario->world.ct_logs(), scenario->vendors,
                                     &scenario->world.cross_signs());
  // files() streams the logs chunk by chunk (bounded memory); the report is
  // byte-identical to an in-memory run over the same text.
  const core::StudyReport report =
      pipeline.run(core::StudyInput::files(ssl_path, x509_path));

  std::printf("=== condensed study report ===\n");
  std::printf("connections analyzed: %s (%s TLS 1.3, certificates hidden)\n",
              util::with_commas(report.totals.connections).c_str(),
              util::with_commas(report.totals.tls13_connections).c_str());
  std::printf("unique chains: %s   distinct certificates: %s\n\n",
              util::with_commas(report.unique_chains).c_str(),
              util::with_commas(report.totals.distinct_certificates).c_str());

  for (const auto& [category, usage] : report.categories) {
    std::printf("%-20s %6zu chains  %9s connections  %6zu client IPs\n",
                std::string(chain::chain_category_name(category)).c_str(),
                usage.chains, util::with_commas(usage.connections).c_str(),
                usage.client_ips);
  }

  std::printf("\nTLS interception: %zu confirmed issuers in %zu categories "
              "(%zu candidates unconfirmed)\n",
              report.interception.findings.size(),
              report.interception.category_rows().size(),
              report.interception.unconfirmed_candidates.size());

  const auto& hybrid = report.hybrid;
  std::printf("\nhybrid chains: %zu total\n", hybrid.total());
  std::printf("  complete matched path:        %zu (est. rate %.2f%%)\n",
              hybrid.usage_complete.chains,
              100.0 * hybrid.usage_complete.establish_rate());
  std::printf("  contains path + extras:       %zu (est. rate %.2f%%)\n",
              hybrid.usage_contains.chains,
              100.0 * hybrid.usage_contains.establish_rate());
  std::printf("  no complete matched path:     %zu (est. rate %.2f%%)\n",
              hybrid.usage_no_path.chains,
              100.0 * hybrid.usage_no_path.establish_rate());
  std::printf("  CT-logged anchored leaves:    %zu/%zu\n", hybrid.anchored_ct_logged,
              hybrid.complete_nonpub_to_pub);
  std::printf("  Fake-LE staging leftovers:    %zu\n", hybrid.fake_le_chains);

  const auto& nonpub = report.non_public;
  std::printf("\nnon-public-DB-only: %.1f%% single-cert (%.1f%% self-signed), "
              "%zu DGA chains, %.2f%% of multi-cert chains fully matched\n",
              100.0 * nonpub.single_fraction(),
              100.0 * nonpub.single_self_signed_fraction(), nonpub.dga_chains,
              100.0 * nonpub.is_matched_path_fraction());
  std::printf("\nthe five bench_* binaries per table/figure print the full "
              "paper-vs-measured comparison.\n");
  return 0;
}
