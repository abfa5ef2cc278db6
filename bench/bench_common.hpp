// Shared bench-harness plumbing.
//
// Every experiment binary regenerates the calibrated study corpus, runs the
// full analysis pipeline, and prints two tables: the paper's reported
// numbers (hard-coded from the publication) and the numbers measured on the
// simulated corpus. Absolute counts differ by the configured scale; the
// *shape* — who dominates, by what factor, where the buckets sit — is the
// reproduction target (see EXPERIMENTS.md).
//
// Environment knobs:
//   CERTCHAIN_SCALE        chain-population scale (default 1/200 of paper)
//   CERTCHAIN_CONNECTIONS  simulated TLS connections (default 120000)
//   CERTCHAIN_SEED         corpus seed (default 20200901)
// A set knob must be a whole number > 0 (the scale: any finite number > 0);
// anything else exits with status 2 before a corpus is built.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <memory>
#include <string>

#include "core/pipeline.hpp"
#include "core/revisit.hpp"
#include "datagen/scenario.hpp"
#include "obs/run_context.hpp"
#include "obs/stopwatch.hpp"
#include "scanner/scanner.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace certchain::bench {

struct StudyContext {
  std::unique_ptr<datagen::Scenario> scenario;
  netsim::GeneratedLogs logs;
  core::StudyReport report;
  /// Telemetry recorded while building the corpus and running the pipeline
  /// (obs:: spans + counters); experiments can export or inspect it.
  std::shared_ptr<obs::RunContext> telemetry = std::make_shared<obs::RunContext>();
};

[[noreturn]] inline void reject_knob(const char* name, const char* text,
                                     const char* expected) {
  std::fprintf(stderr, "%s must be %s, got '%s'\n", name, expected, text);
  std::exit(2);
}

/// The knob's value as a whole number > 0, or `fallback` when it is unset.
inline std::uint64_t whole_knob(const char* name, std::uint64_t fallback) {
  const char* text = std::getenv(name);
  if (text == nullptr) return fallback;
  const std::optional<std::uint64_t> value =
      util::parse_count<std::uint64_t>(text);
  if (!value || *value == 0) reject_knob(name, text, "a whole number > 0");
  return *value;
}

inline datagen::ScenarioConfig config_from_env() {
  datagen::ScenarioConfig config;
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
  return config;
}

inline StudyContext build_context() {
  StudyContext context;
  const datagen::ScenarioConfig config = config_from_env();
  std::fprintf(stderr,
               "[certchain] building corpus (scale=%.5f, connections=%llu, "
               "seed=%llu)...\n",
               config.chain_scale,
               static_cast<unsigned long long>(config.total_connections),
               static_cast<unsigned long long>(config.seed));
  const obs::Stopwatch stopwatch;  // same clock the obs:: spans record with
  obs::RunContext* telemetry = context.telemetry.get();
  context.scenario = datagen::build_study_scenario(config, telemetry);
  context.logs = context.scenario->generate_logs(telemetry);
  const core::StudyPipeline pipeline(
      context.scenario->world.stores(), context.scenario->world.ct_logs(),
      context.scenario->vendors, &context.scenario->world.cross_signs());
  context.report =
      pipeline.run(core::StudyInput::records(context.logs), {}, telemetry);
  std::fprintf(stderr, "[certchain] corpus + pipeline ready in %.0f ms\n",
               stopwatch.elapsed_ms());
  return context;
}

inline void print_header(const std::string& experiment,
                         const std::string& description) {
  std::printf("==============================================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("%s\n", description.c_str());
  std::printf("==============================================================\n\n");
}

inline void print_section(const std::string& title) {
  std::printf("--- %s ---\n", title.c_str());
}

inline std::string pct(double numerator, double denominator, int decimals = 2) {
  return util::percent(numerator, denominator, decimals);
}

}  // namespace certchain::bench
