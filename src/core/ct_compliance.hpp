// Per-issuer-category CT-compliance analytics (§4.2, DESIGN.md §14.4).
//
// The paper's §4.2 check asks one question — are non-public-DB leaves on
// public-facing domains CT-logged? — against a study-scale log. With the CT
// subsystem scaled to monitor-grade logs, the same corpus supports the
// broader view a log operator cares about: for every unique chain, is the
// *leaf* CT-logged, does it carry SCTs, and does it satisfy the Chrome-style
// SCT-count policy — broken out by the leaf's issuance category:
//
//   public                   leaf issued by a public-DB issuer
//   non-public hierarchical  non-public-DB issuer, leaf not self-signed
//                            (private CAs running a real hierarchy)
//   self-contained           self-signed leaf (its own trust anchor)
//
// The fold is a pure per-chain reduction (every counter is additive), so the
// sharded parallel pipeline folds per-shard reports and merges them in shard
// order — byte-identical to the serial fold, as the parallel/streaming/serve
// differential suites assert.
#pragma once

#include <cstdint>

#include "core/corpus.hpp"
#include "ct/ct_log.hpp"
#include "truststore/trust_store.hpp"

namespace certchain::core {

/// One issuer category's compliance tallies over unique chains.
struct CtComplianceBucket {
  std::size_t chains = 0;
  std::uint64_t connections = 0;
  std::size_t ct_logged = 0;         // leaf found in a known log (field-level)
  std::size_t with_scts = 0;         // leaf carries >= 1 embedded SCT
  std::size_t policy_compliant = 0;  // satisfies required_sct_count(lifetime)
  std::uint64_t sct_total = 0;       // embedded SCTs across leaves
};

struct CtComplianceReport {
  CtComplianceBucket public_db;
  CtComplianceBucket non_public_hierarchical;
  CtComplianceBucket self_contained;

  std::size_t total_chains() const {
    return public_db.chains + non_public_hierarchical.chains +
           self_contained.chains;
  }
  std::size_t total_ct_logged() const {
    return public_db.ct_logged + non_public_hierarchical.ct_logged +
           self_contained.ct_logged;
  }

  /// Shard-order merge for the parallel fold (all counters additive).
  void merge_from(const CtComplianceReport& other);
};

class CtComplianceAnalyzer {
 public:
  CtComplianceAnalyzer(const truststore::TrustStoreSet& stores,
                       const ct::CtLogSet& ct_logs)
      : stores_(&stores), ct_logs_(&ct_logs) {}

  /// Folds one unique-chain observation into `into`.
  void add(const ChainObservation& observation, CtComplianceReport& into) const;

 private:
  const truststore::TrustStoreSet* stores_;
  const ct::CtLogSet* ct_logs_;
};

}  // namespace certchain::core
