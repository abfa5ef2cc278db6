// Certificate chains as delivered by servers.
//
// A CertificateChain is the ordered certificate list a server presented in a
// TLS handshake, leaf-first (the RFC 5246 ordering servers are *supposed* to
// follow; much of the paper is about servers that don't). The chain identity
// used for deduplication across connections is a digest over the ordered
// certificate fingerprints, matching how the study counts "unique certificate
// chains".
//
// A chain holds handles to shared immutable certificates: the same
// intermediates and roots recur across thousands of chains, so a chain copy
// bumps reference counts and chains built from one joiner share its
// certificate objects. Element access still yields `const Certificate&`.
#pragma once

#include <cstddef>
#include <iterator>
#include <string>
#include <vector>

#include "x509/certificate.hpp"

namespace certchain::chain {

class CertificateChain {
  using Handles = std::vector<x509::CertificateHandle>;

 public:
  /// Iterates the certificates (not the handles).
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = x509::Certificate;
    using difference_type = std::ptrdiff_t;
    using pointer = const x509::Certificate*;
    using reference = const x509::Certificate&;

    const_iterator() = default;
    explicit const_iterator(Handles::const_iterator it) : it_(it) {}

    reference operator*() const { return **it_; }
    pointer operator->() const { return it_->get(); }
    const_iterator& operator++() {
      ++it_;
      return *this;
    }
    const_iterator operator++(int) { return const_iterator(it_++); }
    friend bool operator==(const const_iterator&, const const_iterator&) = default;

   private:
    Handles::const_iterator it_;
  };

  CertificateChain() = default;
  /// Wraps each certificate in a fresh handle.
  explicit CertificateChain(std::vector<x509::Certificate> certs);
  /// Shares the given certificates.
  explicit CertificateChain(Handles certs);

  std::size_t length() const { return certs_.size(); }
  bool empty() const { return certs_.empty(); }
  bool is_single() const { return certs_.size() == 1; }

  const x509::Certificate& at(std::size_t index) const { return *certs_.at(index); }

  /// First certificate as delivered (the nominal leaf).
  const x509::Certificate& first() const { return *certs_.front(); }

  void push_back(x509::Certificate cert);
  void push_back(x509::CertificateHandle cert);

  /// Digest over the ordered certificate fingerprints; two deliveries with
  /// identical certificates in identical order share an id.
  const std::string& id() const;

  /// True if the single certificate (or the first one) has identical issuer
  /// and subject — the study's self-signed test.
  bool first_is_self_signed() const { return first().is_self_signed(); }

  /// Certificate-wise value equality; shared handles compare without a field
  /// walk.
  bool operator==(const CertificateChain& other) const;

  const_iterator begin() const { return const_iterator(certs_.begin()); }
  const_iterator end() const { return const_iterator(certs_.end()); }

 private:
  Handles certs_;
  mutable std::string cached_id_;
};

}  // namespace certchain::chain
