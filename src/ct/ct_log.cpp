#include "ct/ct_log.hpp"

#include <algorithm>
#include <optional>
#include <set>

#include "util/hash.hpp"
#include "util/strings.hpp"

namespace certchain::ct {

namespace {

/// Allocation-free re-verification of one candidate entry against a query
/// (both already lowercased): exact name equality, or an RFC 6125 wildcard
/// covering exactly one extra left label — the same predicate as
/// x509::wildcard_matches, inlined so million-entry scans stay cold-free.
bool entry_covers(const std::vector<std::string>& domains,
                  std::string_view query) {
  for (const std::string& d : domains) {
    if (d == query) return true;
    if (!util::starts_with(d, "*.")) continue;
    const std::string_view suffix = std::string_view(d).substr(1);  // ".example"
    if (!util::ends_with(query, suffix)) continue;
    const std::string_view label = query.substr(0, query.size() - suffix.size());
    if (!label.empty() && label.find('.') == std::string_view::npos) return true;
  }
  return false;
}

}  // namespace

CtLog::CtLog(std::string name)
    : name_(std::move(name)), log_id_(util::digest256_hex("ct-log-id/" + name_)) {}

std::string CtLog::entry_leaf_bytes(const x509::Certificate& cert) {
  // The tree commits to the full certificate content.
  return cert.tbs_bytes() + cert.signature.value;
}

std::size_t CtLog::index_entry(LogEntry entry, const Digest256& leaf) {
  const std::size_t index = tree_.append_leaf_hash(leaf);
  entry.index = index;
  for (const std::string& domain : entry.domains) {
    domains_.add(domain, static_cast<std::uint32_t>(index), entry.validity);
  }
  by_fingerprint_.emplace(entry.certificate_fingerprint, index);
  by_serial_.emplace(util::fnv1a64(entry.serial), index);
  entries_.push_back(std::move(entry));
  return index;
}

x509::EmbeddedSct CtLog::submit(const x509::Certificate& cert, util::SimTime now) {
  const std::string fingerprint = cert.fingerprint();
  const auto existing = by_fingerprint_.find(fingerprint);
  if (existing != by_fingerprint_.end()) {
    return x509::EmbeddedSct{log_id_, entries_[existing->second].logged_at};
  }

  LogEntry entry;
  entry.certificate_fingerprint = fingerprint;
  entry.serial = cert.serial;
  entry.issuer = cert.issuer;
  entry.subject = cert.subject;
  entry.validity = cert.validity;
  entry.logged_at = now;
  for (const std::string& san : cert.subject_alt_names) {
    entry.domains.push_back(util::to_lower(san));
  }
  if (entry.domains.empty()) {
    if (const auto cn = cert.subject.common_name()) {
      entry.domains.push_back(util::to_lower(*cn));
    }
  }

  index_entry(std::move(entry), leaf_hash(entry_leaf_bytes(cert)));
  return x509::EmbeddedSct{log_id_, now};
}

std::size_t CtLog::append_entry(LogEntry entry, const Digest256& leaf) {
  return index_entry(std::move(entry), leaf);
}

bool CtLog::contains(const x509::Certificate& cert) const {
  return contains_fingerprint(cert.fingerprint());
}

bool CtLog::contains_fingerprint(std::string_view fingerprint) const {
  return by_fingerprint_.find(fingerprint) != by_fingerprint_.end();
}

std::optional<std::size_t> CtLog::entry_index_for(
    std::string_view fingerprint) const {
  const auto it = by_fingerprint_.find(fingerprint);
  if (it == by_fingerprint_.end()) return std::nullopt;
  return it->second;
}

bool CtLog::contains_matching(const x509::Certificate& cert) const {
  // The domain query (the realistic crt.sh-style one) returns the entries
  // covering one of the SANs, or, only when none does, those covering the
  // CN; a match is one of them with the same serial, issuer, subject and
  // overlapping validity. Probing the serial first visits just the entries
  // that can match, and settles the query's shape only when one covers the
  // CN and no SAN.
  bool lowered = false;
  std::vector<std::string> sans;
  std::optional<std::string> cn;
  bool covers_cn = false;
  const auto [first, last] = by_serial_.equal_range(util::fnv1a64(cert.serial));
  for (auto it = first; it != last; ++it) {
    const LogEntry& entry = entries_[it->second];
    if (entry.serial != cert.serial || !entry.issuer.matches(cert.issuer) ||
        !entry.subject.matches(cert.subject) ||
        !entry.validity.overlaps(cert.validity)) {
      continue;
    }
    if (!lowered) {
      lowered = true;
      for (const std::string& san : cert.subject_alt_names) {
        sans.push_back(util::to_lower(san));
      }
      if (const auto name = cert.subject.common_name()) cn = util::to_lower(*name);
    }
    for (const std::string& san : sans) {
      if (entry_covers(entry.domains, san)) return true;
    }
    covers_cn = covers_cn || (cn && entry_covers(entry.domains, *cn));
  }
  if (!covers_cn) return false;
  // The CN answers only when no entry of the log covers any SAN.
  for (const std::string& san : sans) {
    if (!entries_for_domain(san).empty()) return false;
  }
  return true;
}

std::vector<const LogEntry*> CtLog::entries_for_domain(std::string_view domain) const {
  std::vector<const LogEntry*> out;
  const std::string lowered = util::to_lower(domain);
  // Candidates are already sorted + deduplicated; wildcard-bucket hits are
  // re-verified against the entry's own patterns so semantics match the
  // legacy full scan exactly.
  for (const std::uint32_t index : domains_.candidates(lowered)) {
    const LogEntry& entry = entries_[index];
    if (entry_covers(entry.domains, lowered)) out.push_back(&entry);
  }
  return out;
}

std::vector<x509::DistinguishedName> CtLog::issuers_for_domain(
    std::string_view domain, const util::TimeRange& period) const {
  std::vector<x509::DistinguishedName> issuers;
  std::set<std::string> seen;
  const std::string lowered = util::to_lower(domain);
  for (const std::uint32_t index : domains_.candidates(lowered, period)) {
    const LogEntry& entry = entries_[index];
    if (!entry_covers(entry.domains, lowered)) continue;
    if (!entry.validity.overlaps(period)) continue;
    if (seen.insert(entry.issuer.canonical()).second) {
      issuers.push_back(entry.issuer);
    }
  }
  return issuers;
}

std::vector<Digest256> CtLog::prove_inclusion(const x509::Certificate& cert) const {
  const auto index = entry_index_for(cert.fingerprint());
  if (!index) return {};
  return tree_.inclusion_proof(*index);
}

std::optional<std::vector<Digest256>> CtLog::prove_consistency(
    std::size_t old_size, std::size_t new_size) const {
  if (old_size > new_size || new_size > tree_.size()) return std::nullopt;
  return tree_.consistency_proof(old_size, new_size);
}

bool CtLog::check_inclusion(const x509::Certificate& cert,
                            const std::vector<Digest256>& proof) const {
  const auto index = entry_index_for(cert.fingerprint());
  if (!index) return false;
  return verify_inclusion(entry_leaf_bytes(cert), *index, tree_.size(), proof,
                          tree_.root_hash());
}

CtLogSet::CtLogSet(std::size_t count, std::string_view prefix) {
  logs_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    logs_.emplace_back(std::string(prefix) + std::to_string(i));
  }
}

const CtLog* CtLogSet::find_log(std::string_view log_id) const {
  for (const CtLog& log : logs_) {
    if (log.log_id() == log_id) return &log;
  }
  return nullptr;
}

x509::Certificate CtLogSet::submit_and_embed(
    const x509::Certificate& cert, util::SimTime now,
    std::optional<std::size_t> log_count) {
  x509::Certificate embedded = cert;
  embedded.scts.clear();
  // Default: exactly what the Chrome-style policy demands for this lifetime,
  // so long-lived certificates come out compliant without the caller doing
  // the policy math.
  const std::size_t requested =
      log_count.value_or(required_sct_count(cert.validity.duration()));
  const std::size_t n = std::min(requested, logs_.size());
  for (std::size_t i = 0; i < n; ++i) {
    // Logs record the certificate *without* the embedded SCTs (precert
    // semantics): submit the original.
    embedded.scts.push_back(logs_[i].submit(cert, now));
  }
  return embedded;
}

std::size_t CtLogSet::required_sct_count(util::SimTime lifetime_seconds) {
  return lifetime_seconds <= 180 * util::kSecondsPerDay ? 2 : 3;
}

bool CtLogSet::complies(const x509::Certificate& cert) const {
  // Each counted log is named by its own SCT, so a certificate with fewer
  // SCTs than the policy asks for (never below 2) cannot comply. Observed
  // leaves, X509.log rows, carry none.
  const std::size_t required = required_sct_count(cert.validity.duration());
  if (cert.scts.size() < required) return false;
  // The logged entry is the SCT-free precertificate.
  const std::string fingerprint = cert.precertificate_fingerprint().to_hex();
  std::vector<std::string_view> distinct_logs;
  for (const x509::EmbeddedSct& sct : cert.scts) {
    const CtLog* log = find_log(sct.log_id);
    if (log == nullptr) continue;
    if (!log->contains_fingerprint(fingerprint)) continue;
    if (std::find(distinct_logs.begin(), distinct_logs.end(), sct.log_id) ==
        distinct_logs.end()) {
      distinct_logs.push_back(sct.log_id);
    }
  }
  return distinct_logs.size() >= required;
}

std::vector<x509::DistinguishedName> CtLogSet::issuers_for_domain(
    std::string_view domain, const util::TimeRange& period) const {
  std::vector<x509::DistinguishedName> out;
  std::set<std::string> seen;
  for (const CtLog& log : logs_) {
    for (auto& issuer : log.issuers_for_domain(domain, period)) {
      if (seen.insert(issuer.canonical()).second) out.push_back(std::move(issuer));
    }
  }
  return out;
}

bool CtLogSet::logged_anywhere(const x509::Certificate& cert) const {
  const std::string fingerprint = cert.precertificate_fingerprint().to_hex();
  for (const CtLog& log : logs_) {
    if (log.contains_fingerprint(fingerprint)) return true;
  }
  // Also accept the as-delivered form (some submitters log final certs).
  const std::string final_fingerprint = cert.fingerprint();
  for (const CtLog& log : logs_) {
    if (log.contains_fingerprint(final_fingerprint)) return true;
  }
  return false;
}

bool CtLogSet::logged_matching(const x509::Certificate& cert) const {
  for (const CtLog& log : logs_) {
    if (log.contains_matching(cert)) return true;
  }
  return false;
}

}  // namespace certchain::ct
