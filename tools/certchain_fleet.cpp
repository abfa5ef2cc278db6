// certchain-fleet: the continuous revisit driver (DESIGN.md §17).
//
//   certchain-fleet [options]
//
// Builds the calibrated study scenario, drifts its revisit population across
// N epochs (issuer-mix shift toward Let's Encrypt, re-keys, hierarchy
// upgrades, endpoint churn — datagen::EpochDrifter), and re-scans every
// epoch with the rate-limited ScanFleet under a seeded fault plan. Offline
// (the default) it prints the fleet report section — every epoch summary
// plus each consecutive epoch-over-epoch delta — to stdout; the output is
// byte-identical across reruns with the same options.
//
// With --serve-addr the fleet feeds a running certchain-serve instead: each
// completed epoch's Zeek rows and summary travel in one idempotent
// ingest_append (the fleet_epoch rider), and the closing fleet-status /
// epoch-delta queries answer from the server's RCU snapshot — byte-identical
// to the offline render, as the Fleet differential suite proves.
//
// options:
//   --epochs <n>        revisit epochs to run (default 3; > 0)
//   --interval-ms <n>   virtual spacing between epochs (default 60000;
//                       <= 4294967295)
//   --rate <t/s>        per-target token refill rate (default 20; finite,
//                       > 0)
//   --burst <n>         per-target bucket burst (default 2; finite, >= 1)
//   --workers <n>       concurrent scan workers (default 4)
//   --seed <n>          fleet + drift + fault seed (default 20241101)
//   --connections <n>   scenario size knob (default 4000, as certchain-serve
//                       --demo; scales the drifting population; > 0)
//   --fault-rate <r>    uniform fault-plan rate (default 0.02; in [0, 1])
//   --serve-addr <ip:port>  feed epochs to a live daemon and query it back
//                       (port 1-65535)
//
// Whole numbers take digits only. A value outside its range prints usage.
// Exit codes: 0 success, 1 runtime/server failure, 2 usage.
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "core/epoch_delta.hpp"
#include "datagen/epoch_drift.hpp"
#include "datagen/scenario.hpp"
#include "fleet/fleet.hpp"
#include "netsim/faults.hpp"
#include "obs/metrics.hpp"
#include "svc/client.hpp"
#include "util/strings.hpp"

namespace {

void print_usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--epochs <n>] [--interval-ms <n>] [--rate <t/s>]\n"
               "       [--burst <n>] [--workers <n>] [--seed <n>]\n"
               "       [--connections <n>] [--fault-rate <r>]\n"
               "       [--serve-addr <ip:port>]\n",
               argv0);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace certchain;

  std::size_t epochs = 3;
  fleet::FleetConfig config;
  double fault_rate = 0.02;
  std::uint64_t connections = 4000;
  std::string serve_host;
  std::uint16_t serve_port = 0;

  constexpr double kPositive = std::numeric_limits<double>::denorm_min();
  constexpr double kMaxReal = std::numeric_limits<double>::max();
  for (int arg = 1; arg < argc; ++arg) {
    const std::string_view flag = argv[arg];
    if (arg + 1 >= argc) {
      print_usage(argv[0]);
      return 2;
    }
    const std::string_view value = argv[++arg];
    bool valid = false;
    if (flag == "--epochs") {
      valid = util::store(util::parse_count<std::size_t>(value), epochs);
    } else if (flag == "--interval-ms") {
      valid = util::store(util::parse_count<std::uint32_t>(value),
                          config.interval_ms);
    } else if (flag == "--rate") {
      valid = util::store(util::parse_real(value, kPositive, kMaxReal),
                          config.rate.tokens_per_second);
    } else if (flag == "--burst") {
      valid = util::store(util::parse_real(value, 1.0, kMaxReal),
                          config.rate.burst);
    } else if (flag == "--workers") {
      valid = util::store(util::parse_count<std::size_t>(value), config.workers);
    } else if (flag == "--seed") {
      valid = util::store(util::parse_count<std::uint64_t>(value), config.seed);
    } else if (flag == "--connections") {
      valid = util::store(util::parse_count<std::uint64_t>(value), connections);
    } else if (flag == "--fault-rate") {
      valid = util::store(util::parse_real(value, 0.0, 1.0), fault_rate);
    } else if (flag == "--serve-addr") {
      const std::size_t colon = value.rfind(':');
      valid = colon != std::string_view::npos &&
              util::store(util::parse_count<std::uint16_t>(value.substr(colon + 1)),
                          serve_port) &&
              serve_port != 0;
      if (valid) serve_host = value.substr(0, colon);
    }
    if (!valid) {
      print_usage(argv[0]);
      return 2;
    }
  }
  if (epochs == 0 || connections == 0) {
    print_usage(argv[0]);
    return 2;
  }

  // The same demo-scale scenario certchain-serve --demo loads, so a fleet
  // pointed at a --demo daemon extends exactly the corpus it already serves.
  auto scenario =
      datagen::build_study_scenario(datagen::demo_scenario_config(connections));

  datagen::EpochDriftConfig drift;
  drift.seed = config.seed;
  const datagen::EpochDrifter drifter(*scenario, drift, epochs);
  std::fprintf(stderr, "population: %zu endpoints, %zu epochs\n",
               drifter.epoch(0).size(), drifter.epoch_count());

  netsim::FaultPlan plan(config.seed ^ 0xF1EE7,
                         netsim::FaultRates::uniform(fault_rate));

  svc::Client client;
  if (!serve_host.empty()) {
    std::string error;
    client.set_timeout_ms(10000);
    svc::RetryOptions retry;
    retry.max_attempts = 4;
    client.set_retry(retry);
    if (!client.connect(serve_host, serve_port, &error)) {
      std::fprintf(stderr, "certchain-fleet: %s\n", error.c_str());
      return 1;
    }
  }

  obs::MetricsRegistry metrics;
  fleet::ScanFleet fleet(config, scenario->world.stores(), &metrics);
  for (std::size_t epoch = 0; epoch < drifter.epoch_count(); ++epoch) {
    const fleet::EpochOutcome outcome =
        fleet.run_epoch(drifter.epoch(epoch), plan);
    std::fprintf(stderr,
                 "epoch %zu: %zu reachable / %zu targets, %llu rate-limited "
                 "(%llu virtual ms), %zu ssl rows, %zu x509 rows\n",
                 epoch, outcome.summary.reachable,
                 outcome.summary.health.scanned,
                 static_cast<unsigned long long>(outcome.rate_limited),
                 static_cast<unsigned long long>(outcome.rate_wait_ms),
                 outcome.ssl_rows.size(), outcome.x509_rows.size());

    if (serve_host.empty()) continue;
    // One idempotent request carries the rows and the summary: a retry (or
    // a post-recovery re-feed) folds the batch exactly once and re-records
    // the epoch idempotently by index.
    obs::json::Writer summary_json;
    core::write_epoch_summary_json(summary_json, outcome.summary);
    const std::string key = "fleet-epoch-" + std::to_string(epoch) + "-" +
                            std::to_string(config.seed);
    const auto response = client.ingest_append_epoch(
        outcome.ssl_rows, outcome.x509_rows, key, std::move(summary_json).str());
    if (!response.has_value() || response->frame.type == svc::MessageType::kError) {
      std::fprintf(stderr, "certchain-fleet: epoch %zu append failed: %s\n",
                   epoch,
                   response.has_value() ? response->error_message.c_str()
                                        : "transport failure");
      return 1;
    }
  }

  if (serve_host.empty()) {
    // Offline: the fleet section (summaries + consecutive deltas) is the
    // deliverable; byte-identical across reruns with the same options.
    std::fputs(core::render_fleet_section(fleet.summaries()).c_str(), stdout);
    std::fputs(fleet.ledger().to_string().c_str(), stdout);
    std::fputc('\n', stdout);
    return 0;
  }

  // Served mode: ask the daemon back for what it just absorbed. The render
  // comes out of the server's RCU snapshot, not local state.
  const auto status = client.fleet_status();
  if (!status.has_value() || status->frame.type == svc::MessageType::kError) {
    std::fprintf(stderr, "certchain-fleet: fleet_status failed\n");
    return 1;
  }
  if (const auto* text = status->payload.find("text")) {
    std::fputs(text->string.c_str(), stdout);
  }
  return 0;
}
