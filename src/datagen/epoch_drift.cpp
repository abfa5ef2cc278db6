#include "datagen/epoch_drift.hpp"

#include <string>
#include <utility>

#include "core/revisit.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"
#include "x509/distinguished_name.hpp"

namespace certchain::datagen {

namespace {

// Per-epoch drift probabilities (EpochDriftConfig documents them).
constexpr double kIssuerShiftRate = 0.10;
constexpr double kRekeyProbability = 0.15;
constexpr double kChurnRate = 0.05;
constexpr double kHierarchyUpgradeRate = 0.20;

/// Leaf validity for drift-issued chains (a year from the first fleet epoch).
util::TimeRange drift_validity() {
  return {util::make_time(2024, 11, 1), util::make_time(2025, 11, 1)};
}

/// The name a drift-issued leaf is bound to: the SNI when there is one,
/// the bare IP otherwise.
std::string endpoint_name(const netsim::ServerEndpoint& endpoint) {
  return endpoint.domain.empty() ? endpoint.ip : endpoint.domain;
}

bool chain_all_public(const truststore::TrustStoreSet& stores,
                      const chain::CertificateChain& chain) {
  if (chain.empty()) return false;
  for (const x509::Certificate& cert : chain) {
    if (stores.classify_certificate(cert) != truststore::IssuerClass::kPublicDb) {
      return false;
    }
  }
  return true;
}

bool chain_all_non_public(const truststore::TrustStoreSet& stores,
                          const chain::CertificateChain& chain) {
  if (chain.empty()) return false;
  for (const x509::Certificate& cert : chain) {
    if (stores.classify_certificate(cert) != truststore::IssuerClass::kNonPublicDb) {
      return false;
    }
  }
  return true;
}

/// [leaf, intermediate, root] under the endpoint's own drift hierarchy;
/// make_enterprise_ca memoizes, so re-keys reuse the same CA.
chain::CertificateChain enterprise_chain(netsim::PkiWorld& world,
                                         const std::string& organization,
                                         const std::string& name) {
  netsim::PrivateCaHierarchy& hierarchy = world.make_enterprise_ca(organization, true);
  x509::DistinguishedName subject;
  subject.add("CN", name).add("O", organization);
  x509::CertificateAuthority& issuer =
      hierarchy.intermediate_ca ? *hierarchy.intermediate_ca : hierarchy.root_ca;
  chain::CertificateChain chain;
  chain.push_back(issuer.issue_leaf(subject, name, drift_validity()));
  if (hierarchy.intermediate_cert) chain.push_back(*hierarchy.intermediate_cert);
  chain.push_back(hierarchy.root_cert);
  return chain;
}

}  // namespace

EpochDrifter::EpochDrifter(Scenario& scenario, EpochDriftConfig config,
                           std::size_t epoch_count) {
  if (epoch_count == 0) return;
  epochs_.reserve(epoch_count);
  epochs_.push_back(scenario.endpoints);

  const truststore::TrustStoreSet& stores = scenario.world.stores();
  for (std::size_t e = 1; e < epoch_count; ++e) {
    std::vector<netsim::ServerEndpoint> next = epochs_.back();
    for (netsim::ServerEndpoint& endpoint : next) {
      const std::string name = endpoint_name(endpoint);
      util::Rng rng = util::Rng(config.seed)
                          .fork(static_cast<std::uint64_t>(e))
                          .fork(util::stable_salt(endpoint.ip + ":" +
                                                  std::to_string(endpoint.port)));
      const std::string drift_org = "Drift Enterprise " + name;

      if (!endpoint.revisit_chain.has_value()) {
        // Offline server: may come back, freshly provisioned.
        if (rng.bernoulli(kChurnRate)) {
          if (!endpoint.domain.empty()) {
            endpoint.revisit_chain = scenario.world.issue_public_chain(
                "lets-encrypt", endpoint.domain, drift_validity());
          } else {
            chain::CertificateChain chain;
            chain.push_back(
                scenario.world.make_self_signed(drift_org, name, drift_validity()));
            endpoint.revisit_chain = std::move(chain);
          }
        }
        continue;
      }

      // Reachable server: churn off, shift issuer, upgrade hierarchy, or
      // re-key — first matching draw wins, in that order.
      if (rng.bernoulli(kChurnRate)) {
        endpoint.revisit_chain.reset();
        continue;
      }
      const chain::CertificateChain& current = *endpoint.revisit_chain;
      const bool lets_encrypt = core::RevisitAnalyzer::is_lets_encrypt_chain(current);
      const bool all_public = chain_all_public(stores, current);
      const bool all_non_public = chain_all_non_public(stores, current);

      if (!lets_encrypt && !endpoint.domain.empty() &&
          rng.bernoulli(kIssuerShiftRate)) {
        endpoint.revisit_chain = scenario.world.issue_public_chain(
            "lets-encrypt", endpoint.domain, drift_validity());
        continue;
      }
      if (all_non_public && current.length() == 1 &&
          rng.bernoulli(kHierarchyUpgradeRate)) {
        endpoint.revisit_chain = enterprise_chain(scenario.world, drift_org, name);
        continue;
      }
      if (rng.bernoulli(kRekeyProbability)) {
        if (lets_encrypt && !endpoint.domain.empty()) {
          endpoint.revisit_chain = scenario.world.issue_public_chain(
              "lets-encrypt", endpoint.domain, drift_validity());
        } else if (all_public && !endpoint.domain.empty()) {
          endpoint.revisit_chain = scenario.world.issue_public_chain(
              "digicert", endpoint.domain, drift_validity());
        } else if (all_non_public && current.length() > 1) {
          endpoint.revisit_chain = enterprise_chain(scenario.world, drift_org, name);
        } else if (all_non_public) {
          const auto& leaf = current.first();
          chain::CertificateChain chain;
          chain.push_back(scenario.world.make_self_signed(
              leaf.subject.organization().value_or(drift_org),
              leaf.subject.common_name().value_or(name), drift_validity()));
          endpoint.revisit_chain = std::move(chain);
        } else if (!endpoint.domain.empty()) {
          // Mixed/hybrid chains re-issue as clean public chains.
          endpoint.revisit_chain = scenario.world.issue_public_chain(
              "digicert", endpoint.domain, drift_validity());
        }
      }
    }
    epochs_.push_back(std::move(next));
  }
}

}  // namespace certchain::datagen
