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

util::Digest256 CertificateChain::id_digest() const {
  if (certs_.empty()) return {};
  util::Digest256Builder digest;
  char hex[64];
  for (const x509::Certificate& cert : *this) {
    cert.fingerprint_digest().write_hex(hex);
    digest.append(std::string_view(hex, sizeof hex));
    digest.push_back('|');
  }
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
