// Root stores and the CCADB.
//
// The paper classifies a certificate as "issued by a public-DB issuer" iff
// its issuer is listed in at least one major Web PKI root store (Mozilla NSS,
// Apple, Microsoft) or in the CCADB, and as non-public-DB otherwise (§3.2.1).
// This module models those databases:
//
//   - TrustStore: one root program's store — a set of trusted (root and, for
//     classification purposes, disclosed intermediate) certificates indexed
//     by canonical subject DN and by fingerprint;
//   - Ccadb: the Common CA Database — intermediate records that are included
//     only if they chain to a participating program's root AND are either
//     technically constrained or publicly audited (mirroring the paper's
//     description of CCADB inclusion rules);
//   - TrustStoreSet: the union view used for issuer classification. Its
//     overloads key on the canonical issuer form, so they serve names no
//     DnPool has seen, such as the chains a client submits to the daemon;
//     the study's analysis classifies through IssuerClassifier
//     (issuer_classifier.hpp), which memoizes these verdicts per DnId.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "x509/certificate.hpp"

namespace certchain::truststore {

/// The participating root programs modeled by the study.
enum class RootProgram : std::uint8_t { kMozillaNss, kApple, kMicrosoft };

std::string_view root_program_name(RootProgram program);

/// Issuer classification outcome (§3.2.1).
enum class IssuerClass : std::uint8_t { kPublicDb, kNonPublicDb };

std::string_view issuer_class_name(IssuerClass issuer_class);

/// One root program's store.
class TrustStore {
 public:
  explicit TrustStore(RootProgram program);

  RootProgram program() const { return program_; }

  /// Adds a trusted certificate (typically a self-signed root).
  void add(const x509::Certificate& cert);

  std::size_t size() const { return by_fingerprint_.size(); }

  /// True if a certificate with this exact fingerprint is in the store.
  bool contains_fingerprint(std::string_view fingerprint) const;

  /// True if any stored certificate's subject matches `name`.
  bool contains_subject(const x509::DistinguishedName& name) const {
    return contains_subject(std::string_view(name.canonical()));
  }
  /// Same lookup keyed directly by a canonical DN form (no DN required).
  bool contains_subject(std::string_view canonical) const;

  /// All stored certificates whose subject matches `name` (path building may
  /// need several, e.g. re-keyed roots with the same DN).
  std::vector<const x509::Certificate*> find_by_subject(
      const x509::DistinguishedName& name) const;

  /// All certificates in the store (stable order).
  const std::vector<x509::Certificate>& certificates() const { return certs_; }

 private:
  RootProgram program_;
  std::vector<x509::Certificate> certs_;
  // Transparent comparators: lookups take string_views (interned canonical
  // forms, fingerprint views) without materializing key strings.
  std::map<std::string, std::vector<std::size_t>, std::less<>> by_subject_;
  std::map<std::string, std::size_t, std::less<>> by_fingerprint_;
};

/// One CCADB record: an intermediate (or root) disclosed by a program member.
struct CcadbRecord {
  x509::Certificate certificate;
  bool chains_to_participating_root = false;
  bool technically_constrained = false;
  bool publicly_audited = false;

  /// CCADB inclusion rule per the paper: must chain to a participating
  /// program's trusted root and be constrained or audited.
  bool eligible() const {
    return chains_to_participating_root &&
           (technically_constrained || publicly_audited);
  }
};

/// The Common CA Database. Records are added unconditionally; only eligible
/// records count for issuer classification.
class Ccadb {
 public:
  void add(CcadbRecord record);

  std::size_t record_count() const { return records_.size(); }
  std::size_t eligible_count() const;

  bool contains_subject(const x509::DistinguishedName& name) const {
    return contains_subject(std::string_view(name.canonical()));
  }
  bool contains_subject(std::string_view canonical) const;
  bool contains_fingerprint(std::string_view fingerprint) const;

  std::vector<const x509::Certificate*> find_by_subject(
      const x509::DistinguishedName& name) const;

  const std::vector<CcadbRecord>& records() const { return records_; }

 private:
  std::vector<CcadbRecord> records_;
  std::map<std::string, std::vector<std::size_t>, std::less<>> eligible_by_subject_;
  std::map<std::string, std::size_t, std::less<>> eligible_by_fingerprint_;
};

/// The union view over every public database the study consults.
class TrustStoreSet {
 public:
  TrustStoreSet();

  TrustStore& store(RootProgram program);
  const TrustStore& store(RootProgram program) const;
  Ccadb& ccadb() { return ccadb_; }
  const Ccadb& ccadb() const { return ccadb_; }

  /// Adds a root to every program store (common for the big public CAs).
  void add_to_all_programs(const x509::Certificate& root);

  /// §3.2.1: public-DB iff the issuer name appears in >= 1 root store or in
  /// an eligible CCADB record. The canonical-form overload is the primitive;
  /// the DN overload delegates to it.
  IssuerClass classify_issuer(std::string_view issuer_canonical) const;
  IssuerClass classify_issuer(const x509::DistinguishedName& issuer_name) const {
    return classify_issuer(std::string_view(issuer_name.canonical()));
  }

  /// Classification of a certificate = classification of its issuer.
  IssuerClass classify_certificate(const x509::Certificate& cert) const {
    return classify_issuer(std::string_view(cert.issuer.canonical()));
  }

  /// True if this exact certificate is a trust anchor in some program store.
  bool is_trust_anchor(const x509::Certificate& cert) const;

  /// True if any store/CCADB lists a certificate with this subject.
  bool is_known_subject(const x509::DistinguishedName& name) const;

  /// Candidate issuer certificates for path building across all databases.
  std::vector<const x509::Certificate*> find_issuer_candidates(
      const x509::DistinguishedName& issuer_name) const;

 private:
  std::vector<TrustStore> stores_;
  Ccadb ccadb_;
};

}  // namespace certchain::truststore
