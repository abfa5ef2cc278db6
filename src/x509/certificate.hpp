// The certificate model.
//
// Certificate mirrors the fields the study observes (issuer, subject, serial,
// validity, basicConstraints, SAN, key/signature metadata) plus the simulated
// key material needed for key–signature validation (Appendix D). Zeek's
// X509.log view of a certificate is a projection of this struct (src/zeek).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/dn_id.hpp"
#include "crypto/sim_crypto.hpp"
#include "util/time.hpp"
#include "x509/distinguished_name.hpp"

namespace certchain::x509 {

/// RFC 5280 basicConstraints. The paper leans on this extension being
/// *omitted* by most non-public-DB issuers (55.31% of first-position and
/// 78.32% of later-position certificates, §4.3), so presence is modeled
/// explicitly rather than defaulting.
struct BasicConstraints {
  bool present = false;
  bool is_ca = false;
  std::optional<int> path_len_constraint;

  bool operator==(const BasicConstraints&) const = default;
};

/// RFC 5280 nameConstraints (dNSName subtrees only — the form CCADB's
/// "technically constrained" criterion cares about). An issued dNSName falls
/// within a subtree when it equals the base or is a subdomain of it.
struct NameConstraints {
  bool present = false;
  std::vector<std::string> permitted_dns;
  std::vector<std::string> excluded_dns;

  bool operator==(const NameConstraints&) const = default;

  /// True if `dns_name` is allowed under these constraints.
  bool allows(std::string_view dns_name) const;
};

/// True if `dns_name` equals `base` or is a subdomain of it (RFC 5280
/// §4.2.1.10 dNSName subtree matching), case-insensitively.
bool dns_in_subtree(std::string_view dns_name, std::string_view base);

/// RFC 5280 keyUsage bits (the subset the analysis references).
struct KeyUsage {
  bool present = false;
  bool digital_signature = false;
  bool key_cert_sign = false;
  bool crl_sign = false;

  bool operator==(const KeyUsage&) const = default;
};

/// An embedded SCT: evidence that the certificate was submitted to a CT log.
struct EmbeddedSct {
  std::string log_id;            // digest of the log's public identity
  util::SimTime timestamp = 0;   // when the log issued the SCT

  bool operator==(const EmbeddedSct&) const = default;
};

/// A certificate. Value type, which keeps the analysis pipeline free of
/// ownership concerns. Copies stay cheap by construction: issuer and subject
/// are handles to shared immutable DN bodies, so a copy bumps two reference
/// counts instead of copying RDN vectors and strings (DESIGN.md §16.1).
struct Certificate {
  int version = 3;
  std::string serial;  // hex, unique per issuer in well-formed corpora

  DistinguishedName issuer;
  DistinguishedName subject;
  util::TimeRange validity;  // [not_before, not_after)

  crypto::SimPublicKey public_key;
  crypto::SimSignature signature;

  BasicConstraints basic_constraints;
  NameConstraints name_constraints;
  KeyUsage key_usage;
  std::vector<std::string> subject_alt_names;  // DNS names
  std::vector<EmbeddedSct> scts;

  /// Injected ASN.1-level damage: a parser that inspects the full encoding
  /// fails on this certificate even though the text fields look fine
  /// (reproduces the Appendix D parse-error chain).
  bool malformed_encoding = false;

  /// Interned issuer/subject ids when this certificate was built through a
  /// core::DnPool (the joiner's ingest path), kInvalidDnId otherwise. Ids are
  /// pool-local derived state — excluded from equality (DESIGN.md §16).
  core::DnId issuer_id = core::kInvalidDnId;
  core::DnId subject_id = core::kInvalidDnId;

  /// Cached fingerprint, filled by seal_fingerprint(). Derived state like the
  /// ids: excluded from equality, empty on hand-built certificates.
  std::string fingerprint_memo;

  /// Issuer and subject canonically equal (the study's self-signed test —
  /// "issuer and subject are identical", §4.3).
  bool is_self_signed() const {
    if (issuer_id != core::kInvalidDnId && subject_id != core::kInvalidDnId) {
      return issuer_id == subject_id;
    }
    return issuer.matches(subject);
  }

  /// True if basicConstraints marks this certificate as a CA.
  bool is_ca() const { return basic_constraints.present && basic_constraints.is_ca; }

  /// Valid at a point in time (validity window check only).
  bool valid_at(util::SimTime t) const { return validity.contains(t); }

  /// True if expired as of `t`.
  bool expired_at(util::SimTime t) const { return t >= validity.end; }

  /// Canonical to-be-signed serialization. Every field that a signer commits
  /// to is folded in; signatures are computed over these bytes. Issuer and
  /// subject enter as their kept RFC 4514 displays, escaped once per body.
  std::string tbs_bytes() const;

  /// Content fingerprint (digest of tbs + signature), hex. Used as the
  /// certificate identity throughout the pipeline, like a SHA-256
  /// fingerprint would be in practice. Answers from fingerprint_memo when
  /// sealed; recomputes otherwise (tests mutate certificates and expect the
  /// fingerprint to follow, so there is no implicit memoization).
  std::string fingerprint() const;

  /// Computes and caches the fingerprint. Call once the certificate is
  /// final — the joiner seals every cert it constructs so per-connection
  /// corpus folds stop re-digesting identical certificates.
  void seal_fingerprint();

  /// Matches SAN entries (exact or single-label wildcard "*.example.com").
  bool covers_domain(std::string_view domain) const;

  /// Semantic equality: every signed/observed field, but not the derived
  /// pool ids or the fingerprint memo.
  bool operator==(const Certificate& other) const {
    return version == other.version && serial == other.serial &&
           issuer == other.issuer && subject == other.subject &&
           validity == other.validity && public_key == other.public_key &&
           signature == other.signature &&
           basic_constraints == other.basic_constraints &&
           name_constraints == other.name_constraints &&
           key_usage == other.key_usage &&
           subject_alt_names == other.subject_alt_names &&
           scts == other.scts &&
           malformed_encoding == other.malformed_encoding;
  }
};

/// A shared, immutable certificate. The joiner builds each X509.log
/// certificate once and every chain that delivered it holds a handle, so
/// copying a chain bumps reference counts instead of copying certificates
/// (DESIGN.md §16.2).
using CertificateHandle = std::shared_ptr<const Certificate>;

/// True if `pattern` (exact name or "*.x.y") matches `domain` per RFC 6125
/// single-left-label wildcard rules.
bool wildcard_matches(std::string_view pattern, std::string_view domain);

}  // namespace certchain::x509
