#include "netsim/simulator.hpp"

#include <cstdio>
#include <memory>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "util/hash.hpp"
#include "validation/client_validators.hpp"
#include "zeek/joiner.hpp"

namespace certchain::netsim {

ClientPool make_campus_client_pool(std::size_t count) {
  ClientPool pool;
  pool.ips.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    char buffer[24];
    std::snprintf(buffer, sizeof(buffer), "10.%zu.%zu.%zu", (i >> 16) & 0xFF,
                  (i >> 8) & 0xFF, i & 0xFF);
    pool.ips.emplace_back(buffer);
  }
  return pool;
}

CampusSimulator::CampusSimulator(std::vector<ServerEndpoint> endpoints)
    : endpoints_(std::move(endpoints)) {
  std::vector<double> weights;
  weights.reserve(endpoints_.size());
  for (const ServerEndpoint& endpoint : endpoints_) {
    weights.push_back(endpoint.popularity > 0 ? endpoint.popularity : 0.0);
  }
  weights_ = util::WeightedTable(weights);
}

namespace {

/// What every certificate-visible row of one endpoint carries.
struct EndpointRows {
  std::vector<std::string> fuids;  // cert_chain_fuids, in chain order
  /// (chain position, certificate id) of each distinct certificate, in
  /// chain order: the X509 rows the endpoint's first visible row may owe.
  std::vector<std::pair<std::size_t, std::size_t>> certificates;
  std::string subject;
  std::string issuer;
};

/// Every endpoint's row constants, with one fingerprint -> fuid registry
/// across all of them. Certificate ids count distinct fingerprints.
std::vector<EndpointRows> build_endpoint_rows(
    const std::vector<ServerEndpoint>& endpoints,
    std::vector<std::string>& fuid_by_id) {
  std::map<util::Digest256, std::size_t> id_by_fingerprint;
  std::vector<std::size_t> listed_by;  // id -> 1 + the last endpoint listing it
  std::vector<EndpointRows> rows(endpoints.size());
  for (std::size_t e = 0; e < endpoints.size(); ++e) {
    const chain::CertificateChain& chain = endpoints[e].chain;
    if (chain.empty()) continue;
    EndpointRows& out = rows[e];
    out.fuids.reserve(chain.length());
    for (std::size_t position = 0; position < chain.length(); ++position) {
      const util::Digest256 fingerprint = chain.at(position).fingerprint_digest();
      const auto [it, added] =
          id_by_fingerprint.emplace(fingerprint, fuid_by_id.size());
      const std::size_t id = it->second;
      if (added) {
        fuid_by_id.push_back(util::zeek_style_fuid(fingerprint.to_hex()));
        listed_by.push_back(0);
      }
      out.fuids.push_back(fuid_by_id[id]);
      if (listed_by[id] != e + 1) {
        listed_by[id] = e + 1;
        out.certificates.emplace_back(position, id);
      }
    }
    out.subject = chain.first().subject.to_string();
    out.issuer = chain.first().issuer.to_string();
  }
  return rows;
}

}  // namespace

GeneratedLogs CampusSimulator::run(const TrafficConfig& config) const {
  GeneratedLogs logs;
  if (config.connections > 0 && config.client_count == 0) {
    throw std::invalid_argument(
        "CampusSimulator::run: client_count must be > 0 when connections > 0");
  }
  if (endpoints_.empty() || config.connections == 0) return logs;

  util::Rng rng(config.seed);
  const ClientPool pool = make_campus_client_pool(config.client_count);

  // One X509.log row per distinct certificate, emitted on the first
  // certificate-visible row of an endpoint whose chain holds it. An
  // endpoint's first visible row therefore owes every certificate of its
  // chain not yet emitted; its later rows owe none.
  std::vector<std::string> fuid_by_id;
  std::vector<EndpointRows> endpoint_rows =
      build_endpoint_rows(endpoints_, fuid_by_id);
  std::vector<bool> certificate_emitted(fuid_by_id.size(), false);

  // Emergent-model machinery: validators plus a per-(endpoint, client-kind)
  // verdict cache. Verdicts are evaluated at the window midpoint, so a chain
  // either is or is not acceptable for the whole run (expiry mid-window is a
  // second-order effect the calibrated model also ignores).
  const bool emergent = config.establishment == EstablishmentModel::kEmergent &&
                        config.stores != nullptr && config.host_store != nullptr;
  std::unique_ptr<validation::ChromeLikeValidator> browser;
  std::unique_ptr<validation::OpenSslLikeValidator> strict;
  if (emergent) {
    browser = std::make_unique<validation::ChromeLikeValidator>(*config.stores);
    strict = std::make_unique<validation::OpenSslLikeValidator>(*config.host_store);
  }
  const util::SimTime midpoint =
      config.window.begin + config.window.duration() / 2;
  enum ClientKind { kBrowser = 0, kStrict = 1, kPermissive = 2 };
  std::map<std::pair<std::size_t, int>, bool> verdict_cache;
  const auto emergent_established = [&](std::size_t endpoint_index,
                                        const ServerEndpoint& server,
                                        util::Rng& draw) -> bool {
    const double p = draw.uniform();
    ClientKind kind = kPermissive;
    if (p < config.client_mix.browser_fraction) {
      kind = kBrowser;
    } else if (p < config.client_mix.browser_fraction +
                       config.client_mix.strict_fraction) {
      kind = kStrict;
    }
    if (kind == kPermissive || server.chain.empty()) return true;
    const auto key = std::make_pair(endpoint_index, static_cast<int>(kind));
    const auto cached = verdict_cache.find(key);
    if (cached != verdict_cache.end()) return cached->second;
    const bool accepted =
        kind == kBrowser
            ? browser->validate(server.chain, midpoint).accepted()
            : strict->validate(server.chain, midpoint).accepted();
    verdict_cache.emplace(key, accepted);
    return accepted;
  };

  logs.ssl.reserve(config.connections);
  const util::SimTime window_span = config.window.duration();

  for (std::uint64_t n = 0; n < config.connections; ++n) {
    const std::size_t server_index =
        (config.ensure_coverage && n < endpoints_.size())
            ? static_cast<std::size_t>(n)
            : rng.pick_weighted(weights_);
    const ServerEndpoint& server = endpoints_[server_index];

    zeek::SslLogRecord ssl;
    ssl.ts = config.window.begin +
             static_cast<util::SimTime>(rng.uniform() * static_cast<double>(window_span));
    ssl.uid = util::zeek_style_conn_uid(n, config.seed);
    ssl.id_orig_h = server.restricted_clients.empty()
                        ? pool.ips[static_cast<std::size_t>(
                              rng.next_below(pool.ips.size()))]
                        : server.restricted_clients[static_cast<std::size_t>(
                              rng.next_below(server.restricted_clients.size()))];
    ssl.id_orig_p = static_cast<std::uint16_t>(rng.uniform_int(32768, 60999));
    ssl.id_resp_h = server.ip;
    ssl.id_resp_p = server.port;
    ssl.cipher = "TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256";

    // Coverage sweeps force a certificate-visible handshake so every chain
    // is observed at least once.
    const bool coverage_pass = config.ensure_coverage && n < endpoints_.size();
    const bool tls13 = !coverage_pass && rng.bernoulli(server.tls13_fraction);
    const bool resumed =
        !coverage_pass && rng.bernoulli(server.resumption_fraction);
    ssl.version = tls13 ? "TLSv13" : "TLSv12";
    ssl.resumed = resumed;
    const bool send_sni = !server.domain.empty() &&
                          (coverage_pass || !rng.bernoulli(server.no_sni_fraction));
    if (send_sni) ssl.server_name = server.domain;

    ssl.established = emergent
                          ? emergent_established(server_index, server, rng)
                          : rng.bernoulli(server.establish_probability);

    if (!tls13 && !resumed && !server.chain.empty()) {
      EndpointRows& rows = endpoint_rows[server_index];
      for (const auto& [position, id] : rows.certificates) {
        if (certificate_emitted[id]) continue;
        certificate_emitted[id] = true;
        logs.x509.push_back(zeek::record_from_certificate(
            server.chain.at(position), ssl.ts, fuid_by_id[id]));
      }
      rows.certificates.clear();  // the endpoint's later rows owe none
      ssl.cert_chain_fuids = rows.fuids;
      ssl.subject = rows.subject;
      ssl.issuer = rows.issuer;
      ssl.validation_status = server.validation_status;
    }
    logs.ssl.push_back(std::move(ssl));
  }

  if (config.metrics != nullptr) {
    std::uint64_t tls13 = 0, established = 0, with_sni = 0;
    for (const zeek::SslLogRecord& row : logs.ssl) {
      if (row.version == "TLSv13") ++tls13;
      if (row.established) ++established;
      if (!row.server_name.empty()) ++with_sni;
    }
    config.metrics->count("netsim.connections", logs.ssl.size());
    config.metrics->count("netsim.connections.tls13", tls13);
    config.metrics->count("netsim.connections.established", established);
    config.metrics->count("netsim.connections.with_sni", with_sni);
    config.metrics->count("netsim.x509_rows", logs.x509.size());
    config.metrics->count("netsim.endpoints", endpoints_.size());
  }
  return logs;
}

}  // namespace certchain::netsim
