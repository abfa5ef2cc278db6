// Certificate Transparency logs.
//
// Two consumers in the study:
//   1. interception detection (§3.2.1) — "does CT record a *different* issuer
//      for this domain during this validity period?";
//   2. CT-logging compliance (§4.2) — non-public-DB leaves anchored to public
//      trust roots and used on public-facing domains must be CT-logged; the
//      paper confirms all 26 such leaves were.
// CtLog couples an incremental Merkle tree (src/ct/merkle_inc, O(log n)
// appends and proofs, leaf hashes only) with a sharded domain+validity index
// (src/ct/domain_index) so both queries run against the same append-only
// structure at million-entry scale, and issues SCTs on submission the way a
// real log front-end does. The ct::Monitor (src/ct/monitor) tails these
// accessors to audit consistency between signed tree heads.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "ct/domain_index.hpp"
#include "ct/merkle.hpp"
#include "ct/merkle_inc.hpp"
#include "util/time.hpp"
#include "x509/certificate.hpp"

namespace certchain::ct {

/// One logged (pre)certificate entry.
struct LogEntry {
  std::size_t index = 0;
  std::string certificate_fingerprint;
  std::string serial;
  x509::DistinguishedName issuer;
  x509::DistinguishedName subject;
  std::vector<std::string> domains;  // SAN DNS names (lowercased)
  util::TimeRange validity;
  util::SimTime logged_at = 0;
};

/// A signed-tree-head snapshot: the tree size and the MTH over it. (The
/// simulation carries no signatures; the digest plays the signed root.)
struct TreeHead {
  std::size_t tree_size = 0;
  Digest256 root;
};

/// A single CT log.
class CtLog {
 public:
  explicit CtLog(std::string name);

  const std::string& name() const { return name_; }
  /// Stable identifier derived from the log name (plays the RFC 6962 log id).
  const std::string& log_id() const { return log_id_; }

  std::size_t size() const { return entries_.size(); }

  /// Submits a certificate; returns the SCT the caller may embed. Idempotent
  /// per certificate fingerprint (resubmission returns the original SCT).
  x509::EmbeddedSct submit(const x509::Certificate& cert, util::SimTime now);

  /// Bulk ingestion fast path (datagen, bench): appends a pre-built entry
  /// whose leaf hash the caller already computed, skipping certificate
  /// construction entirely. Returns the assigned index. Not idempotent —
  /// the caller owns fingerprint uniqueness.
  std::size_t append_entry(LogEntry entry, const Digest256& leaf);

  /// True if this exact certificate is logged.
  bool contains(const x509::Certificate& cert) const;
  bool contains_fingerprint(std::string_view fingerprint) const;

  /// Entry index for a fingerprint, if logged. The svc ct_prove_inclusion
  /// endpoint keys on this to answer NOT_FOUND as a typed error.
  std::optional<std::size_t> entry_index_for(std::string_view fingerprint) const;

  /// Field-level lookup: true if an entry matches the certificate's subject,
  /// issuer, serial and validity among the entries a domain query for the
  /// certificate returns — those covering one of its SANs, or, when no
  /// entry covers any SAN, those covering its CN. This is how log data
  /// (which carries no key material, hence no stable fingerprint) is
  /// checked against CT — the paper's "we query CT logs and confirm" step
  /// (§4.2). One probe of the serial index finds every entry that can
  /// match; the domain index is consulted only when a matching entry covers
  /// the CN but no SAN.
  bool contains_matching(const x509::Certificate& cert) const;

  /// All entries whose domains cover `domain` (exact or wildcard match).
  std::vector<const LogEntry*> entries_for_domain(std::string_view domain) const;

  /// Issuer DNs of logged certificates covering `domain` with validity
  /// overlapping `period`. This is the interception-detection query: an
  /// observed issuer absent from this result set is a mismatch.
  std::vector<x509::DistinguishedName> issuers_for_domain(
      std::string_view domain, const util::TimeRange& period) const;

  /// Signed-tree-head style accessors.
  Digest256 root_hash() const { return tree_.root_hash(); }
  Digest256 root_hash(std::size_t n) const { return tree_.root_hash(n); }
  TreeHead tree_head() const { return TreeHead{tree_.size(), tree_.root_hash()}; }
  const Digest256& leaf_hash_at(std::size_t index) const {
    return tree_.leaf_hash_at(index);
  }

  std::vector<Digest256> prove_inclusion(const x509::Certificate& cert) const;
  /// Audit path for entry `index` in the tree of the first `n` entries.
  std::vector<Digest256> prove_inclusion_at(std::size_t index,
                                            std::size_t n) const {
    return tree_.inclusion_proof(index, n);
  }

  /// Consistency proof from `old_size` to the current tree. Bounds-checked:
  /// an old_size beyond the current tree (a monitor that saw a *larger* tree
  /// than we hold — the rollback case) yields nullopt instead of throwing.
  std::optional<std::vector<Digest256>> prove_consistency(
      std::size_t old_size) const {
    return prove_consistency(old_size, tree_.size());
  }
  /// Consistency proof between the trees of the first `old_size` and first
  /// `new_size` entries; nullopt when either bound is out of range.
  std::optional<std::vector<Digest256>> prove_consistency(
      std::size_t old_size, std::size_t new_size) const;

  /// Verifies an inclusion proof against the current tree head.
  bool check_inclusion(const x509::Certificate& cert,
                       const std::vector<Digest256>& proof) const;

  const std::vector<LogEntry>& entries() const { return entries_; }

 private:
  static std::string entry_leaf_bytes(const x509::Certificate& cert);
  /// Shared indexing tail of submit/append_entry: appends the leaf hash,
  /// stamps entry.index, indexes fingerprint and domains.
  std::size_t index_entry(LogEntry entry, const Digest256& leaf);

  std::string name_;
  std::string log_id_;
  IncrementalMerkleTree tree_;
  std::vector<LogEntry> entries_;
  // Transparent comparator: lookups are heterogeneous string_view probes,
  // no per-query std::string allocation.
  std::map<std::string, std::size_t, std::less<>> by_fingerprint_;
  /// Entry indices by fnv1a64 of their serial; a probe re-checks the serial.
  std::unordered_multimap<std::uint64_t, std::size_t> by_serial_;
  DomainIndex domains_;
};

/// A set of logs plus the Chrome-style CT policy the paper references [20]:
/// certificates need SCTs from >= `required_sct_count(lifetime)` distinct
/// logs to comply.
class CtLogSet {
 public:
  /// Creates `count` logs named "<prefix>N".
  explicit CtLogSet(std::size_t count = 3, std::string_view prefix = "sim-ct-log-");

  std::size_t log_count() const { return logs_.size(); }
  CtLog& log(std::size_t index) { return logs_[index]; }
  const CtLog& log(std::size_t index) const { return logs_[index]; }

  /// Finds the log with the given id, or nullptr.
  const CtLog* find_log(std::string_view log_id) const;

  /// Submits to the first `log_count` logs and embeds the SCTs in a copy of
  /// the certificate, returning it (the "CT-compliant issuance" flow). By
  /// default the SCT count follows the Chrome policy for the certificate's
  /// lifetime — required_sct_count(cert.validity.duration()) — so >180-day
  /// certificates are issued policy-compliant; pass an explicit count to
  /// override (e.g. to model under-logged issuance).
  x509::Certificate submit_and_embed(
      const x509::Certificate& cert, util::SimTime now,
      std::optional<std::size_t> log_count = std::nullopt);

  /// Chrome-style requirement: 2 SCTs for lifetimes <= 180 days, else 3.
  static std::size_t required_sct_count(util::SimTime lifetime_seconds);

  /// True if the certificate carries enough SCTs from distinct known logs
  /// and each referenced log actually contains its precertificate (the
  /// certificate without its SCTs).
  bool complies(const x509::Certificate& cert) const;

  /// Union interception query across all logs.
  std::vector<x509::DistinguishedName> issuers_for_domain(
      std::string_view domain, const util::TimeRange& period) const;

  /// True if any log contains the certificate.
  bool logged_anywhere(const x509::Certificate& cert) const;

  /// Field-level union lookup (see CtLog::contains_matching).
  bool logged_matching(const x509::Certificate& cert) const;

 private:
  std::vector<CtLog> logs_;
};

}  // namespace certchain::ct
