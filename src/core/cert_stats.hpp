// Per-category certificate population statistics (extension analysis).
//
// The paper characterizes chains structurally; this analyzer adds the
// certificate-level distributions measurement studies usually report next:
// key algorithms, signature algorithms, validity lifetimes, SAN counts and
// expiry-at-observation — per chain category, over distinct certificates.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/corpus.hpp"
#include "util/stats.hpp"

namespace certchain::core {

struct CertPopulationStats {
  std::string label;
  std::size_t distinct_certificates = 0;

  util::Counter<std::string> key_algorithms;
  util::Counter<std::string> signature_algorithms;

  /// Lifetime (days) distribution.
  util::EmpiricalCdf lifetimes_days;
  /// Lifetime buckets the Web PKI cares about.
  std::size_t lifetime_le_90d = 0;
  std::size_t lifetime_le_398d = 0;   // CA/B Forum ceiling for public leaves
  std::size_t lifetime_le_2y = 0;
  std::size_t lifetime_gt_2y = 0;

  util::Counter<std::size_t> san_counts;
  std::size_t san_absent = 0;

  /// Expired at the time the chain was last observed.
  std::size_t expired_when_observed = 0;

  /// Self-signed certificates in the population.
  std::size_t self_signed = 0;
};

/// Computes the statistics over the distinct certificates of the given
/// chains (deduplicated by fingerprint). Chains longer than `max_length`
/// are skipped (the Figure 1 outlier rule).
CertPopulationStats compute_cert_stats(
    std::string label, const std::vector<const ChainObservation*>& chains,
    std::size_t max_length = 30);

}  // namespace certchain::core
