// DnId-memoized issuer classification (DESIGN.md §16).
//
// classify_issuer() is a handful of ordered-map probes per call; the analysis
// stages invoke it once per certificate per chain, and a campus corpus
// repeats the same few hundred issuers millions of times. IssuerClassifier
// memoizes the verdict per interned DnId — a vector indexed by the id — so
// every repeat is one array load. Certificates that never went through a
// pool (no valid issuer_id) fall back to the uncached string path, which
// keeps the classifier safe to use over mixed corpora.
//
// The memo mutates on lookup, so sharded stages use one instance per shard
// (the pool itself is read-only and shared).
#pragma once

#include <cstdint>
#include <vector>

#include "core/dn_pool.hpp"
#include "truststore/trust_store.hpp"
#include "x509/certificate.hpp"

namespace certchain::truststore {

class IssuerClassifier {
 public:
  IssuerClassifier(const TrustStoreSet& stores, const core::DnPool& pool)
      : stores_(&stores), pool_(&pool), memo_(pool.size(), kUnknown) {}

  /// Classification of the interned DN `id`, memoized. `id` must come from
  /// this classifier's pool; an id the pool has never minted (including
  /// kInvalidDnId) classifies as non-public-DB, matching what the string path
  /// returns for a name absent from every database.
  IssuerClass classify(core::DnId id) {
    if (id >= pool_->size()) return IssuerClass::kNonPublicDb;
    if (id >= memo_.size()) memo_.resize(pool_->size(), kUnknown);
    std::uint8_t& slot = memo_[id];
    if (slot == kUnknown) {
      slot = stores_->classify_issuer(pool_->canonical(id)) ==
                     IssuerClass::kPublicDb
                 ? kPublic
                 : kNonPublic;
    }
    return slot == kPublic ? IssuerClass::kPublicDb : IssuerClass::kNonPublicDb;
  }

  /// Classification of a certificate = classification of its issuer; uses
  /// the interned id when the certificate carries one.
  IssuerClass classify(const x509::Certificate& cert) {
    if (cert.issuer_id != core::kInvalidDnId) return classify(cert.issuer_id);
    return stores_->classify_certificate(cert);
  }

 private:
  static constexpr std::uint8_t kUnknown = 0;
  static constexpr std::uint8_t kPublic = 1;
  static constexpr std::uint8_t kNonPublic = 2;

  const TrustStoreSet* stores_;
  const core::DnPool* pool_;
  std::vector<std::uint8_t> memo_;
};

}  // namespace certchain::truststore
