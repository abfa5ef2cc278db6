#include "chain/chain.hpp"

#include <memory>

#include "util/hash.hpp"

namespace certchain::chain {

CertificateChain::CertificateChain(std::vector<x509::Certificate> certs) {
  certs_.reserve(certs.size());
  for (x509::Certificate& cert : certs) push_back(std::move(cert));
}

CertificateChain::CertificateChain(Handles certs) : certs_(std::move(certs)) {}

void CertificateChain::push_back(x509::Certificate cert) {
  push_back(std::make_shared<const x509::Certificate>(std::move(cert)));
}

void CertificateChain::push_back(x509::CertificateHandle cert) {
  certs_.push_back(std::move(cert));
}

namespace {

/// One certificate's share of a chain id: its fingerprint as hex, then '|'.
void append_id(util::Digest256Builder& digest, const x509::Certificate& cert) {
  char hex[64];
  cert.fingerprint_digest().write_hex(hex);
  digest.append(std::string_view(hex, sizeof hex));
  digest.push_back('|');
}

}  // namespace

util::Digest256 CertificateChain::id_digest() const {
  if (certs_.empty()) return {};
  util::Digest256Builder digest;
  for (const x509::Certificate& cert : *this) append_id(digest, cert);
  return digest.finish();
}

util::Digest256 CertificateChain::id_digest(
    const std::vector<const x509::CertificateHandle*>& certs) {
  if (certs.empty()) return {};
  util::Digest256Builder digest;
  for (const x509::CertificateHandle* cert : certs) append_id(digest, **cert);
  return digest.finish();
}

bool CertificateChain::operator==(const CertificateChain& other) const {
  if (certs_.size() != other.certs_.size()) return false;
  for (std::size_t i = 0; i < certs_.size(); ++i) {
    if (certs_[i] != other.certs_[i] && *certs_[i] != *other.certs_[i]) {
      return false;
    }
  }
  return true;
}

}  // namespace certchain::chain
