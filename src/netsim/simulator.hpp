// The campus traffic simulator.
//
// Replays a year of border-gateway TLS traffic over a ServerEndpoint
// population and renders it as Zeek SSL.log / X509.log records — the exact
// input format of the analysis pipeline. Connections are generated
// deterministically from the seed: server choice is popularity-weighted,
// clients come from the NAT pool (or an endpoint's restricted client set),
// TLS 1.3 connections hide their certificates, and the per-endpoint
// establishment probability decides the `established` column.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "netsim/endpoint.hpp"
#include "truststore/trust_store.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"
#include "zeek/records.hpp"

namespace certchain::obs {
class MetricsRegistry;
}  // namespace certchain::obs

namespace certchain::netsim {

/// How the `established` column is decided.
enum class EstablishmentModel : std::uint8_t {
  /// Per-endpoint calibrated Bernoulli draw (the default; rates taken from
  /// the paper's per-bucket numbers).
  kCalibrated,
  /// Emergent: each connection picks a client profile from `ClientMix` and
  /// runs the corresponding validator against the delivered chain. Rates
  /// then *emerge* from chain structure + store contents + client mix.
  kEmergent,
};

/// Client-population mix for the emergent model. Fractions should sum to 1;
/// the remainder is treated as permissive.
struct ClientMix {
  /// Chrome-like: path building against the maintained databases.
  double browser_fraction = 0.55;
  /// OpenSSL-like: strict presented-order walk against the host store.
  double strict_fraction = 0.15;
  /// Accepts anything (pinned apps, telemetry agents, scanners, devices
  /// that trust their own appliance certificates).
  double permissive_fraction = 0.30;
};

struct TrafficConfig {
  /// Total TLS connections to synthesize.
  std::uint64_t connections = 100000;
  /// Collection window (defaults to the paper's 12 months).
  util::TimeRange window = util::study::collection_window();
  /// NAT pool size.
  std::size_t client_count = 5000;
  std::uint64_t seed = 20200901;
  /// Guarantee every endpoint at least one connection (the paper's unique
  /// chain counts require each delivered chain to be observed); the first
  /// |endpoints| connections sweep the population once, the rest are
  /// popularity-weighted.
  bool ensure_coverage = true;

  /// Establishment decision (see EstablishmentModel). kEmergent requires
  /// `stores` and `host_store` to be set.
  EstablishmentModel establishment = EstablishmentModel::kCalibrated;
  ClientMix client_mix;
  const truststore::TrustStoreSet* stores = nullptr;
  const truststore::TrustStore* host_store = nullptr;

  /// Optional telemetry sink: generation totals land as `netsim.*` counters
  /// (connections, TLS1.3-opaque, established, emitted log rows).
  obs::MetricsRegistry* metrics = nullptr;
};

struct GeneratedLogs {
  std::vector<zeek::SslLogRecord> ssl;
  std::vector<zeek::X509LogRecord> x509;  // one row per distinct certificate
};

class CampusSimulator {
 public:
  explicit CampusSimulator(std::vector<ServerEndpoint> endpoints);

  const std::vector<ServerEndpoint>& endpoints() const { return endpoints_; }

  /// Runs the traffic generation. Deterministic in (endpoints, config).
  /// Throws std::invalid_argument when `config.client_count` is 0 and
  /// `config.connections` is not.
  GeneratedLogs run(const TrafficConfig& config) const;

 private:
  std::vector<ServerEndpoint> endpoints_;
  util::WeightedTable weights_;  // popularity, for the weighted endpoint draw
};

}  // namespace certchain::netsim
