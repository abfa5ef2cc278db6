// The domain-scan CT match, kept as the executable reference the CT suites
// check ct::CtLog::contains_matching against.
//
// The library probes its serial index and consults the domain index only
// when a matching entry covers the CN but no SAN. This oracle is the query
// as the paper's §4.2 step reads: ask the log for the entries covering each
// SAN, fall back to the entries covering the CN only when no SAN query
// returned any, then confirm serial, issuer, subject and validity among the
// candidates.
#pragma once

#include <string>
#include <vector>

#include "ct/ct_log.hpp"
#include "x509/certificate.hpp"

namespace certchain::testing {

inline bool oracle_contains_matching(const ct::CtLog& log,
                                     const x509::Certificate& cert) {
  std::vector<const ct::LogEntry*> candidates;
  for (const std::string& san : cert.subject_alt_names) {
    for (const ct::LogEntry* entry : log.entries_for_domain(san)) {
      candidates.push_back(entry);
    }
  }
  if (candidates.empty()) {
    if (const auto cn = cert.subject.common_name()) {
      for (const ct::LogEntry* entry : log.entries_for_domain(*cn)) {
        candidates.push_back(entry);
      }
    }
  }
  for (const ct::LogEntry* entry : candidates) {
    if (entry->serial == cert.serial && entry->issuer.matches(cert.issuer) &&
        entry->subject.matches(cert.subject) &&
        entry->validity.overlaps(cert.validity)) {
      return true;
    }
  }
  return false;
}

}  // namespace certchain::testing
