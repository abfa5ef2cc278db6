// Million-entry CT log populations (DESIGN.md §14.6).
//
// The study scenario submits real simulated certificates through the issuance
// flow, which tops out around tens of thousands of entries — enough for the
// corpus, nowhere near enough to exercise a monitor-grade log. populate_ct_log
// grows a CtLog to arbitrary size through the bulk append_entry path: it
// synthesizes deterministic LogEntry rows (issuer pool spanning the three
// §4.2 issuer categories, svcN.campusM.example domains with a wildcard share,
// serials and validity windows derived from one seeded Rng) and precomputed
// leaf hashes, skipping certificate construction entirely. One seed, one
// population — certchain_ctmon runs with the same seed audit identical logs.
#pragma once

#include <cstdint>

#include "ct/ct_log.hpp"

namespace certchain::datagen {

struct CtPopulationConfig {
  std::size_t entries = 1'000'000;
  std::uint64_t seed = 20200901;
  /// Distinct issuer DNs drawn per category (public / non-public / self).
  std::size_t issuers_per_category = 8;
  /// Domains per entry beyond the first (entries get 1..1+extra_domain_max).
  std::size_t extra_domain_max = 2;
  /// Every Nth entry's first domain is a wildcard pattern (0 = none).
  std::size_t wildcard_every = 16;
};

/// Appends `config.entries` deterministic entries to `log` via the bulk
/// path; returns the number appended.
std::size_t populate_ct_log(ct::CtLog& log, const CtPopulationConfig& config);

}  // namespace certchain::datagen
