// Calibrated study corpus generation.
//
// Builds the full simulated campus scenario: the PKI world, a server
// population whose chain structures mirror the paper's composition, the
// interception deployments, the vendor directory (the "manual
// investigation" lookup), and the revisit-epoch chains. Population sizes
// follow the paper with a configurable scale factor for the large
// categories, while the small exact counts are kept exact:
//
//   - hybrid chains: exactly 321 = 36 complete (26 non-pub->pub per Table 6
//     + 10 pub->private) + 70 contains-path (14 Fake-LE + Athenz + enterprise
//     appends + leading foreign leaves, App. F.2) + 215 no-path in the
//     Table 7 split 108/13/61/27/5/1;
//   - interception: exactly 80 issuers in Table 1's category sizes;
//   - the three Figure 1 length outliers (3,822 / 921 / 41), each delivered
//     in exactly one unestablished connection;
//   - large categories (public-only, non-public-DB-only, interception
//     chains) scaled by `chain_scale` from the paper's 429K / 301K with the
//     structural fractions preserved (78.10% single, 94.19% self-signed,
//     99.76% matched paths, ...).
//
// Everything is deterministic in `seed`.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/interception.hpp"
#include "netsim/endpoint.hpp"
#include "netsim/pki_world.hpp"
#include "netsim/simulator.hpp"

namespace certchain::obs {
struct RunContext;
}  // namespace certchain::obs

namespace certchain::datagen {

struct ScenarioConfig {
  std::uint64_t seed = 20200901;

  /// Scale for the large chain populations (1.0 would reproduce the paper's
  /// absolute counts; the default keeps runtimes laptop-friendly).
  double chain_scale = 1.0 / 200.0;

  /// Total TLS connections to synthesize across all categories.
  std::uint64_t total_connections = 120000;

  /// NAT pool size.
  std::size_t client_count = 5000;

  /// Include the three giant outlier chains (slow to build at ~4.8k
  /// certificates; tests that don't need Figure 1 can switch them off).
  bool include_length_outliers = true;
};

/// The generated world. PkiWorld owns the trust stores / CT logs / registry
/// the analysis needs; endpoints are consumed by CampusSimulator and the
/// ActiveScanner.
struct Scenario {
  explicit Scenario(std::uint64_t seed) : world(seed) {}

  netsim::PkiWorld world;
  std::vector<netsim::ServerEndpoint> endpoints;
  core::VendorDirectory vendors;
  netsim::TrafficConfig traffic;

  /// Convenience: runs the simulator over the endpoints. With telemetry
  /// attached, generation runs under a "simulate" span and reports
  /// `netsim.*` counters.
  netsim::GeneratedLogs generate_logs(obs::RunContext* obs = nullptr) const;
};

/// Builds the full study scenario. With telemetry attached, the build runs
/// under a "scenario" span with one child span per endpoint-population
/// builder, and per-population endpoint counts land as `datagen.*` counters.
/// Throws std::invalid_argument unless `config.chain_scale` is finite and
/// > 0 and `config.client_count` is > 0.
std::unique_ptr<Scenario> build_study_scenario(const ScenarioConfig& config = {},
                                               obs::RunContext* obs = nullptr);

/// The demo world certchain-analyze --demo, certchain-serve --demo and
/// certchain-fleet build: seed 20200901, `connections` connections from 300
/// clients, chain scale 1/`connections`, no length outliers. One definition,
/// so a fleet pointed at a --demo daemon extends exactly the corpus it
/// serves.
ScenarioConfig demo_scenario_config(std::uint64_t connections);

/// The interception vendor directory of `world`: every deployment's
/// leaf-signing intermediate and root, by canonical DN, mapped to its vendor
/// and Table 1 category.
core::VendorDirectory interception_vendor_directory(
    const netsim::PkiWorld& world);

/// Internal builders, exposed for targeted tests and benches. Each appends
/// endpoints labeled with its structural intent.
namespace detail {
void add_public_endpoints(Scenario& scenario, const ScenarioConfig& config,
                          util::Rng& rng);
void add_non_public_endpoints(Scenario& scenario, const ScenarioConfig& config,
                              util::Rng& rng);
void add_interception_endpoints(Scenario& scenario, const ScenarioConfig& config,
                                util::Rng& rng);
void add_hybrid_endpoints(Scenario& scenario, const ScenarioConfig& config,
                          util::Rng& rng);
void assign_revisit_chains(Scenario& scenario, const ScenarioConfig& config,
                           util::Rng& rng);
}  // namespace detail

}  // namespace certchain::datagen
