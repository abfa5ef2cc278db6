#include "zeek/joiner.hpp"

#include <memory>

#include "core/dn_pool.hpp"
#include "util/strings.hpp"

namespace certchain::zeek {

namespace {

x509::DistinguishedName parse_dn_lenient(const std::string& text) {
  if (auto parsed = x509::DistinguishedName::parse(text)) return *std::move(parsed);
  x509::DistinguishedName fallback;
  fallback.add("CN", text);  // keep the raw string visible to the analysis
  return fallback;
}

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

}  // namespace

x509::Certificate certificate_from_record(const X509LogRecord& record,
                                          core::DnPool* pool) {
  x509::Certificate cert;
  cert.version = record.version;
  cert.serial = record.serial;
  if (pool != nullptr) {
    // Raw-bytes memo: each distinct spelling parses once, ever. The stored
    // parse is of *these* bytes, so rendering is unchanged vs. the poolless
    // path even for canonically colliding spellings.
    const core::DnPool::Interned issuer = pool->intern_raw(record.issuer);
    const core::DnPool::Interned subject = pool->intern_raw(record.subject);
    cert.issuer = *issuer.name;
    cert.subject = *subject.name;
    cert.issuer_id = issuer.id;
    cert.subject_id = subject.id;
  } else {
    cert.issuer = parse_dn_lenient(record.issuer);
    cert.subject = parse_dn_lenient(record.subject);
  }
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
  cert.subject_alt_names = record.san_dns;
  return cert;
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

void LogJoiner::add(const X509LogRecord& certificate) {
  // First observation wins; fuids are content-derived so duplicates carry
  // identical fields anyway. try_emplace skips certificate construction
  // entirely on the duplicate path.
  const auto [it, inserted] = by_fuid_.try_emplace(certificate.fuid);
  if (!inserted) return;
  x509::Certificate cert = certificate_from_record(certificate, dn_pool_);
  // The joined certificate is immutable from here on; sealing makes every
  // later fingerprint() — one per cert per connection in the corpus fold —
  // a memo read instead of a digest.
  cert.seal_fingerprint();
  it->second = std::make_shared<const x509::Certificate>(std::move(cert));
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
