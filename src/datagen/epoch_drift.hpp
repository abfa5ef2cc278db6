// Multi-epoch population drift for the continuous revisit fleet.
//
// The study scenario ends at the §5 revisit: every endpoint carries one
// `revisit_chain` (the November-2024 view). The fleet needs that view to
// keep evolving, so EpochDrifter materializes N successive revisit
// populations from the scenario, applying the §5 forces as per-epoch
// probabilities:
//
//   - issuer-mix shift: non-Let's-Encrypt servers migrate to fresh
//     Let's Encrypt chains (the paper's dominant §5 observation);
//   - rotation/re-key: servers re-issue within their current category
//     with a new key pair (fingerprint and key material both change);
//   - hierarchy upgrades: single-certificate non-public servers move to
//     3-certificate private hierarchies (the paper's second finding);
//   - endpoint churn: servers drop offline and come back.
//
// All epochs are generated eagerly at construction in endpoint order with
// per-endpoint forked RNG streams, so the same (scenario seed, drift seed,
// epoch count) always yields byte-identical populations — and the PkiWorld
// mutations (new leaves, CT log appends, enterprise CAs) happen exactly
// once, before any analysis looks at the world.
#pragma once

#include <cstdint>
#include <cstddef>
#include <vector>

#include "datagen/scenario.hpp"
#include "netsim/endpoint.hpp"

namespace certchain::datagen {

/// The drift's seed. Its per-epoch probabilities are fixed, all drawn per
/// endpoint per epoch: a reachable non-Let's-Encrypt server migrates to a
/// Let's Encrypt chain at 0.10, a reachable server re-issues within its
/// category with a fresh key at 0.15, a reachable server drops offline (or
/// an offline one comes back) at 0.05, and a single-certificate non-public
/// server upgrades to a 3-certificate hierarchy at 0.20.
struct EpochDriftConfig {
  std::uint64_t seed = 0xD21F7;
};

/// Materializes `epoch_count` successive revisit populations. Epoch 0 is the
/// scenario's own revisit view; epoch e is derived from epoch e-1.
class EpochDrifter {
 public:
  EpochDrifter(Scenario& scenario, EpochDriftConfig config,
               std::size_t epoch_count);

  std::size_t epoch_count() const { return epochs_.size(); }
  const std::vector<netsim::ServerEndpoint>& epoch(std::size_t index) const {
    return epochs_.at(index);
  }

 private:
  std::vector<std::vector<netsim::ServerEndpoint>> epochs_;
};

}  // namespace certchain::datagen
