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
  cached_id_.clear();
}

const std::string& CertificateChain::id() const {
  if (cached_id_.empty() && !certs_.empty()) {
    std::string bytes;
    for (const x509::Certificate& cert : *this) {
      bytes.append(cert.fingerprint());
      bytes.push_back('|');
    }
    cached_id_ = util::digest256_hex(bytes);
  }
  return cached_id_;
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
