// SSL.log x X509.log join.
//
// Each SSL.log row references the certificates its handshake delivered via
// cert_chain_fuids; the X509.log rows carry the certificate fields. LogJoiner
// performs the cross-reference and reconstructs a (key-less) CertificateChain
// in delivery order — the exact view the paper's pipeline analyzed. Missing
// fuids (a real artifact of log rotation and sampling) are reported rather
// than silently dropped.
#pragma once

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "chain/chain.hpp"
#include "util/hash.hpp"
#include "zeek/records.hpp"

namespace certchain::zeek {

/// One TLS connection with its reconstructed certificate chain.
struct JoinedConnection {
  SslLogRecord ssl;
  chain::CertificateChain chain;
  std::vector<std::string> missing_fuids;

  bool complete() const { return missing_fuids.empty(); }
};

/// Converts one X509.log row to a key-less x509::Certificate. Issuer/subject
/// strings that fail DN parsing degrade to a single unparsed-CN RDN so the
/// pipeline still sees the row (mirrors how string-level tooling behaves).
/// With a pool, DN parsing is memoized by raw bytes and the certificate
/// carries interned issuer/subject ids (DESIGN.md §16).
x509::Certificate certificate_from_record(const X509LogRecord& record,
                                          core::DnPool* pool = nullptr);

/// Projects a certificate to its X509.log row (used by the simulator).
X509LogRecord record_from_certificate(const x509::Certificate& cert,
                                      util::SimTime observed_at,
                                      const std::string& fuid);

/// Sealed certificates keyed by a string (a fuid or a fingerprint), hashed;
/// lookups take a string_view.
using CertificateIndex =
    std::unordered_map<std::string, x509::CertificateHandle, util::StringHash,
                       std::equal_to<>>;

class LogJoiner {
 public:
  /// An empty joiner that learns certificates incrementally via add() — the
  /// live-serving shape (svc::ServiceState feeds appended X509 rows in as
  /// they arrive, then joins the SSL rows of the same append).
  LogJoiner() = default;
  explicit LogJoiner(const std::vector<X509LogRecord>& certificates);

  /// Attaches an interning pool (not owned; must outlive the joiner). Every
  /// certificate built from then on parses its DNs at most once per distinct
  /// spelling, carries DnIds, and is fingerprint-sealed so per-connection
  /// corpus folds stop re-digesting identical certificates.
  void set_dn_pool(core::DnPool* pool) { dn_pool_ = pool; }
  core::DnPool* dn_pool() const { return dn_pool_; }

  /// Registers one certificate row; a re-observed fuid keeps the first
  /// record (fuids are content-addressed in practice).
  void add(const X509LogRecord& certificate);
  /// The same, moving the row's strings into the certificate (the readers
  /// hand each parsed row over by value).
  void add(X509LogRecord&& certificate);

  std::size_t certificate_count() const { return by_fuid_.size(); }

  /// The sealed, shared certificate joined under `fuid` (one per fuid);
  /// nullptr when no row carried it.
  const x509::CertificateHandle* find(std::string_view fuid) const {
    const auto it = by_fuid_.find(fuid);
    return it == by_fuid_.end() ? nullptr : &it->second;
  }

  /// The same certificates keyed by fingerprint. A checkpoint or snapshot
  /// restore resolves chain fingerprints against it instead of serializing
  /// certificates, so restored chains share this joiner's objects.
  CertificateIndex by_fingerprint() const;

  /// Reconstructs the row's chain from shared handles; no certificate is
  /// copied.
  JoinedConnection join(const SslLogRecord& ssl) const;

 private:
  /// The one body behind both add() overloads.
  template <typename Record>
  void add_record(Record&& certificate);

  CertificateIndex by_fuid_;
  core::DnPool* dn_pool_ = nullptr;
};

}  // namespace certchain::zeek
