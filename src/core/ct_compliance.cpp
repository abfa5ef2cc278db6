#include "core/ct_compliance.hpp"

namespace certchain::core {

namespace {

void merge_bucket(CtComplianceBucket& into, const CtComplianceBucket& from) {
  into.chains += from.chains;
  into.connections += from.connections;
  into.ct_logged += from.ct_logged;
  into.with_scts += from.with_scts;
  into.policy_compliant += from.policy_compliant;
  into.sct_total += from.sct_total;
}

}  // namespace

void CtComplianceReport::merge_from(const CtComplianceReport& other) {
  merge_bucket(public_db, other.public_db);
  merge_bucket(non_public_hierarchical, other.non_public_hierarchical);
  merge_bucket(self_contained, other.self_contained);
}

void CtComplianceAnalyzer::add(const ChainObservation& observation,
                               CtComplianceReport& into) const {
  const x509::Certificate& leaf = observation.chain.first();

  // Category precedence: a self-signed leaf is its own anchor regardless of
  // what database its (self-)issuer name happens to sit in.
  CtComplianceBucket* bucket = nullptr;
  if (leaf.is_self_signed()) {
    bucket = &into.self_contained;
  } else if (stores_->classify_certificate(leaf) ==
             truststore::IssuerClass::kPublicDb) {
    bucket = &into.public_db;
  } else {
    bucket = &into.non_public_hierarchical;
  }

  bucket->chains++;
  bucket->connections += observation.connections;
  bucket->sct_total += leaf.scts.size();
  if (!leaf.scts.empty()) bucket->with_scts++;
  // Field-level lookup (the §4.2 "query CT and confirm" step): log data
  // carries no key material, so matching goes by subject/issuer/serial/
  // validity, exactly like contains_matching.
  if (ct_logs_->logged_matching(leaf)) bucket->ct_logged++;
  if (ct_logs_->complies(leaf)) bucket->policy_compliant++;
}

}  // namespace certchain::core
