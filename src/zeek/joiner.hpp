// SSL.log x X509.log join.
//
// Each SSL.log row references the certificates its handshake delivered via
// cert_chain_fuids; the X509.log rows carry the certificate fields. LogJoiner
// performs the cross-reference and reconstructs a (key-less) CertificateChain
// in delivery order — the exact view the paper's pipeline analyzed. Missing
// fuids (a real artifact of log rotation and sampling) are reported rather
// than silently dropped.
#pragma once

#include <memory>
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

/// One X509 row built into a sealed certificate off the joiner, so that pool
/// workers can make these (DESIGN.md §10.2); LogJoiner::add then files them
/// in row order.
struct PreparedCertificate {
  std::string fuid;
  /// The raw spellings, the DN pool's memo keys: views into the
  /// CertificateBuilder that prepared the row.
  std::string_view issuer;
  std::string_view subject;
  std::shared_ptr<x509::Certificate> cert;
};

/// Builds X509 rows into sealed certificates without a DN pool, for one
/// pool task: each DN is the lenient parse of its raw spelling, the parse
/// the run's pool would keep, made once per distinct spelling the builder
/// sees and shared by its certificates. A builder must outlive the filing
/// of what it prepared.
class CertificateBuilder {
 public:
  PreparedCertificate prepare(X509LogRecord&& record);

 private:
  using Parses = std::unordered_map<std::string, x509::DistinguishedName,
                                    util::StringHash, std::equal_to<>>;
  /// The spelling `raw` and its parse, made on first sight.
  const Parses::value_type& parse(std::string&& raw);

  Parses parses_;
};

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
  /// The same for a row built off the joiner: with a pool, both raw
  /// spellings are interned (a new one keeps the prepared parse), the
  /// certificate shares the pool's DN bodies and carries their ids — the
  /// certificate, ids and pool add(record) would have produced; without
  /// one, the certificate carries no ids. A duplicate fuid's certificate
  /// stays in `prepared`, and a parse the pool did not keep in the builder,
  /// for the caller to free on the thread that built them if it likes.
  void add(PreparedCertificate& prepared);

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
