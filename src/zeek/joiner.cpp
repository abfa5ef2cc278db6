#include "zeek/joiner.hpp"

#include <memory>
#include <utility>

#include "core/dn_pool.hpp"
#include "util/strings.hpp"

namespace certchain::zeek {

namespace {

crypto::KeyAlgorithm parse_key_alg(const std::string& name) {
  for (const auto alg :
       {crypto::KeyAlgorithm::kRsa2048, crypto::KeyAlgorithm::kRsa4096,
        crypto::KeyAlgorithm::kEcdsaP256, crypto::KeyAlgorithm::kEd25519,
        crypto::KeyAlgorithm::kGostR3410}) {
    if (crypto::key_algorithm_name(alg) == name) return alg;
  }
  return crypto::KeyAlgorithm::kRsa2048;
}

crypto::SignatureAlgorithm parse_sig_alg(const std::string& name) {
  for (const auto alg :
       {crypto::SignatureAlgorithm::kSimSha256WithRsa,
        crypto::SignatureAlgorithm::kSimSha1WithRsa,
        crypto::SignatureAlgorithm::kSimEcdsaSha256,
        crypto::SignatureAlgorithm::kSimEd25519,
        crypto::SignatureAlgorithm::kSimGost}) {
    if (crypto::signature_algorithm_name(alg) == name) return alg;
  }
  return crypto::SignatureAlgorithm::kSimSha256WithRsa;
}

/// The one certificate build behind certificate_from_record, LogJoiner::add
/// and CertificateBuilder, given the row's issuer and subject: `Record` is
/// `const X509LogRecord&` (copy the strings) or `X509LogRecord` (move the
/// serial and SANs).
template <typename Record>
x509::Certificate build_certificate(Record&& record,
                                    x509::DistinguishedName issuer,
                                    x509::DistinguishedName subject) {
  x509::Certificate cert;
  cert.version = record.version;
  cert.serial = std::forward<Record>(record).serial;
  cert.issuer = std::move(issuer);
  cert.subject = std::move(subject);
  cert.validity = util::TimeRange{record.not_before, record.not_after};
  cert.public_key.algorithm = parse_key_alg(record.key_alg);
  cert.public_key.material.clear();  // X509.log carries no key material
  cert.signature.algorithm = parse_sig_alg(record.sig_alg);
  cert.signature.value.clear();
  if (record.basic_constraints_ca.has_value()) {
    cert.basic_constraints.present = true;
    cert.basic_constraints.is_ca = *record.basic_constraints_ca;
    cert.basic_constraints.path_len_constraint = record.basic_constraints_path_len;
  }
  cert.subject_alt_names = std::forward<Record>(record).san_dns;
  return cert;
}

/// build_certificate with each DN the lenient parse of its raw spelling;
/// with a pool, memoized by raw bytes, and the certificate carries the
/// interned issuer/subject ids.
template <typename Record>
x509::Certificate build_certificate(Record&& record, core::DnPool* pool) {
  if (pool == nullptr) {
    return build_certificate(
        std::forward<Record>(record),
        x509::DistinguishedName::parse_lenient(record.issuer),
        x509::DistinguishedName::parse_lenient(record.subject));
  }
  // Raw-bytes memo: each distinct spelling parses once, ever. The stored
  // parse is of *these* bytes, so rendering is unchanged vs. the poolless
  // path even for canonically colliding spellings.
  const core::DnPool::Interned issuer = pool->intern_raw(record.issuer);
  const core::DnPool::Interned subject = pool->intern_raw(record.subject);
  x509::Certificate cert =
      build_certificate(std::forward<Record>(record), *issuer.name, *subject.name);
  cert.issuer_id = issuer.id;
  cert.subject_id = subject.id;
  return cert;
}

}  // namespace

x509::Certificate certificate_from_record(const X509LogRecord& record,
                                          core::DnPool* pool) {
  return build_certificate(record, pool);
}

const CertificateBuilder::Parses::value_type& CertificateBuilder::parse(
    std::string&& raw) {
  auto it = parses_.find(raw);
  if (it == parses_.end()) {
    x509::DistinguishedName parsed = x509::DistinguishedName::parse_lenient(raw);
    it = parses_.emplace(std::move(raw), std::move(parsed)).first;
  }
  return *it;
}

PreparedCertificate CertificateBuilder::prepare(X509LogRecord&& record) {
  const auto& [issuer, issuer_parse] = parse(std::move(record.issuer));
  const auto& [subject, subject_parse] = parse(std::move(record.subject));
  PreparedCertificate prepared;
  prepared.issuer = issuer;
  prepared.subject = subject;
  prepared.cert = std::make_shared<x509::Certificate>(
      build_certificate(std::move(record), issuer_parse, subject_parse));
  prepared.cert->seal_fingerprint();
  // build_certificate moved only the serial and the SANs out.
  prepared.fuid = std::move(record.fuid);
  return prepared;
}

X509LogRecord record_from_certificate(const x509::Certificate& cert,
                                      util::SimTime observed_at,
                                      const std::string& fuid) {
  X509LogRecord record;
  record.ts = observed_at;
  record.fuid = fuid;
  record.version = cert.version;
  record.serial = cert.serial;
  record.subject = cert.subject.to_string();
  record.issuer = cert.issuer.to_string();
  record.not_before = cert.validity.begin;
  record.not_after = cert.validity.end;
  record.key_alg = std::string(crypto::key_algorithm_name(cert.public_key.algorithm));
  record.sig_alg =
      std::string(crypto::signature_algorithm_name(cert.signature.algorithm));
  record.key_length = cert.public_key.bits();
  if (cert.basic_constraints.present) {
    record.basic_constraints_ca = cert.basic_constraints.is_ca;
    record.basic_constraints_path_len = cert.basic_constraints.path_len_constraint;
  }
  record.san_dns = cert.subject_alt_names;
  return record;
}

LogJoiner::LogJoiner(const std::vector<X509LogRecord>& certificates) {
  for (const X509LogRecord& record : certificates) add(record);
}

void LogJoiner::add(const X509LogRecord& certificate) { add_record(certificate); }

void LogJoiner::add(X509LogRecord&& certificate) {
  add_record(std::move(certificate));
}

template <typename Record>
void LogJoiner::add_record(Record&& certificate) {
  // First observation wins; fuids are content-derived so duplicates carry
  // identical fields anyway. try_emplace skips certificate construction
  // entirely on the duplicate path.
  // The fuid moves into the key on the owned-record path; try_emplace
  // leaves it alone when the fuid is already there.
  const auto [it, inserted] =
      by_fuid_.try_emplace(std::forward<Record>(certificate).fuid);
  if (!inserted) return;
  x509::Certificate cert =
      build_certificate(std::forward<Record>(certificate), dn_pool_);
  // The joined certificate is immutable from here on; sealing makes every
  // later fingerprint() — one per cert per connection in the corpus fold —
  // a memo read instead of a digest.
  cert.seal_fingerprint();
  it->second = std::make_shared<const x509::Certificate>(std::move(cert));
}

void LogJoiner::add(PreparedCertificate& prepared) {
  const auto [it, inserted] = by_fuid_.try_emplace(std::move(prepared.fuid));
  if (!inserted) return;
  x509::Certificate& cert = *prepared.cert;
  if (dn_pool_ != nullptr) {
    // Issuer first, as build_certificate interns, so ids come out the same.
    const core::DnPool::Interned issuer =
        dn_pool_->intern_raw(prepared.issuer, cert.issuer);
    const core::DnPool::Interned subject =
        dn_pool_->intern_raw(prepared.subject, cert.subject);
    cert.issuer = *issuer.name;
    cert.subject = *subject.name;
    cert.issuer_id = issuer.id;
    cert.subject_id = subject.id;
  }
  it->second = std::move(prepared.cert);
}

CertificateIndex LogJoiner::by_fingerprint() const {
  CertificateIndex index;
  index.reserve(by_fuid_.size());
  for (const auto& [fuid, cert] : by_fuid_) {
    index.emplace(cert->fingerprint(), cert);
  }
  return index;
}

JoinedConnection LogJoiner::join(const SslLogRecord& ssl) const {
  JoinedConnection joined;
  joined.ssl = ssl;
  for (const std::string& fuid : ssl.cert_chain_fuids) {
    if (const x509::CertificateHandle* cert = find(fuid)) {
      joined.chain.push_back(*cert);
    } else {
      joined.missing_fuids.push_back(fuid);
    }
  }
  return joined;
}

}  // namespace certchain::zeek
