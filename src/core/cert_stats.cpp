#include "core/cert_stats.hpp"

#include <set>
#include <utility>

namespace certchain::core {

namespace {

/// Folds one distinct certificate into the statistics. `last_seen` is the
/// last-seen time of the first observation, in scan order, that carries the
/// certificate.
void accumulate_certificate(CertPopulationStats& stats,
                            const x509::Certificate& cert,
                            util::SimTime last_seen) {
  ++stats.distinct_certificates;

  stats.key_algorithms.add(
      std::string(crypto::key_algorithm_name(cert.public_key.algorithm)));
  stats.signature_algorithms.add(
      std::string(crypto::signature_algorithm_name(cert.signature.algorithm)));

  const double days = static_cast<double>(cert.validity.duration()) /
                      static_cast<double>(util::kSecondsPerDay);
  stats.lifetimes_days.add(days);
  if (days <= 90) {
    ++stats.lifetime_le_90d;
  } else if (days <= 398) {
    ++stats.lifetime_le_398d;
  } else if (days <= 731) {
    ++stats.lifetime_le_2y;
  } else {
    ++stats.lifetime_gt_2y;
  }

  if (cert.subject_alt_names.empty()) {
    ++stats.san_absent;
  } else {
    stats.san_counts.add(cert.subject_alt_names.size());
  }

  if (cert.expired_at(last_seen)) ++stats.expired_when_observed;
  if (cert.is_self_signed()) ++stats.self_signed;
}

}  // namespace

CertPopulationStats compute_cert_stats(
    std::string label, const std::vector<const ChainObservation*>& chains,
    std::size_t max_length) {
  CertPopulationStats stats;
  stats.label = std::move(label);

  std::set<std::string> seen;
  for (const ChainObservation* observation : chains) {
    if (observation->chain.length() > max_length) continue;
    for (const x509::Certificate& cert : observation->chain) {
      if (!seen.insert(cert.fingerprint()).second) continue;
      accumulate_certificate(stats, cert, observation->last_seen);
    }
  }
  return stats;
}

}  // namespace certchain::core
