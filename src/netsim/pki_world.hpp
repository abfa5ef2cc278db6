// The simulated PKI universe.
//
// Builds every certificate authority the study's corpus references:
//
//   - public-DB CAs (synthetic stand-ins for DigiCert, Sectigo/AAA, Let's
//     Encrypt/ISRG, GoDaddy, COMODO, GlobalSign, Symantec, the U.S. Federal
//     PKI, Korean and Brazilian national roots), registered in the program
//     root stores and CCADB, with one cross-signing pair recorded in the
//     cross-sign registry (the Sectigo/USERTrust pattern [32]);
//   - non-public-DB issuers: government sub-CAs chained to public anchors
//     (the Veterans-Affairs/Verizon-SSP pattern of Table 6), corporate
//     private CAs (Symantec Private SSL), enterprise self-signed hierarchies,
//     the Let's Encrypt staging pair ("Fake LE Root X1" / "Fake LE
//     Intermediate X1"), appliance defaults (localhost, HP "tester",
//     Athenz), and DGA-style certificates;
//   - TLS interception vendors (Table 1) and their 3-certificate middlebox
//     chains.
//
// The host OS store (used by the OpenSSL-like validator) deliberately holds
// only a subset of the program roots — the store-content difference behind
// the Section 5 Chrome-vs-OpenSSL disagreement.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "chain/chain.hpp"
#include "chain/cross_sign_registry.hpp"
#include "ct/ct_log.hpp"
#include "truststore/trust_store.hpp"
#include "util/rng.hpp"
#include "x509/builder.hpp"

namespace certchain::netsim {

/// Table 1 interception issuer categories.
enum class InterceptionCategory : std::uint8_t {
  kSecurityNetwork,
  kBusinessCorporate,
  kHealthEducation,
  kGovernmentPublic,
  kBankFinance,
  kOther,
};

std::string_view interception_category_name(InterceptionCategory category);

struct InterceptionVendor {
  std::string name;  // e.g. "Sim Zscaler"
  InterceptionCategory category;
};

/// The 80 interception issuers the paper identified, with the paper's
/// category sizes (31 / 27 / 10 / 6 / 3 / 3).
std::vector<InterceptionVendor> builtin_interception_vendors();

/// One public CA hierarchy: root + issuing intermediates.
struct PublicCaHierarchy {
  std::string short_name;                  // lookup key, e.g. "lets-encrypt"
  x509::CertificateAuthority root_ca;
  x509::Certificate root_cert;
  std::vector<x509::CertificateAuthority> intermediate_cas;
  std::vector<x509::Certificate> intermediate_certs;
  bool in_host_store = true;  // present in the OS store as well?
};

/// One non-public CA (self-operated root, possibly with an intermediate).
struct PrivateCaHierarchy {
  std::string short_name;
  x509::CertificateAuthority root_ca;
  x509::Certificate root_cert;
  std::optional<x509::CertificateAuthority> intermediate_ca;
  std::optional<x509::Certificate> intermediate_cert;
};

/// A non-public sub-CA anchored to a public hierarchy — the Table 6 pattern
/// (Veterans Affairs under the Federal PKI, KLID under the Korean root,
/// ITI under ICP-Brasil, Symantec Private SSL under Symantec's root). The
/// sub-CA's certificate is issued by a public-DB issuer, but the sub-CA
/// itself appears in no database, so *its* leaves are non-public-DB issued.
struct ChainedSubCa {
  std::string short_name;
  std::string parent_public_short_name;
  x509::CertificateAuthority ca;
  /// The sub-CA certificate as issued by the public parent.
  x509::Certificate cert;
  /// "Corporate" or "Government" (Table 6 row).
  std::string sector;
};

/// One interception vendor's middlebox CA.
struct InterceptionDeployment {
  InterceptionVendor vendor;
  x509::CertificateAuthority root_ca;
  x509::Certificate root_cert;
  x509::CertificateAuthority intermediate_ca;
  x509::Certificate intermediate_cert;

  /// Middlebox-forged chain for `domain`: [leaf, intermediate, root] — the
  /// 3-certificate shape that dominates interception chains (Figure 1).
  chain::CertificateChain forge_chain(const std::string& domain,
                                      util::TimeRange validity);
};

class PkiWorld {
 public:
  /// Builds the full universe deterministically from `seed`.
  explicit PkiWorld(std::uint64_t seed = 0xCE47);

  // --- databases -----------------------------------------------------------
  const truststore::TrustStoreSet& stores() const { return stores_; }
  truststore::TrustStoreSet& stores() { return stores_; }
  /// Host OS store (subset of program roots; no CCADB intermediates).
  const truststore::TrustStore& host_store() const { return host_store_; }
  const chain::CrossSignRegistry& cross_signs() const { return cross_signs_; }
  ct::CtLogSet& ct_logs() { return ct_logs_; }
  const ct::CtLogSet& ct_logs() const { return ct_logs_; }

  // --- public CAs ----------------------------------------------------------
  const std::vector<PublicCaHierarchy>& public_cas() const { return public_cas_; }
  PublicCaHierarchy& public_ca(std::string_view short_name);

  /// Issues a standard public chain for `domain`: [leaf, intermediate]
  /// (+ root when `include_root`), CT-logging the leaf.
  chain::CertificateChain issue_public_chain(std::string_view ca_short_name,
                                             const std::string& domain,
                                             util::TimeRange leaf_validity,
                                             bool include_root = false);

  // --- non-public CAs ------------------------------------------------------
  PrivateCaHierarchy& private_ca(std::string_view short_name);

  /// Creates (or returns the existing) enterprise private hierarchy for an
  /// organization name; `with_intermediate` controls the shape.
  PrivateCaHierarchy& make_enterprise_ca(const std::string& organization,
                                         bool with_intermediate);

  // --- chained sub-CAs (Table 6) --------------------------------------------
  ChainedSubCa& chained_sub_ca(std::string_view short_name);

  /// Issues the full Table 6 chain for `domain` under a chained sub-CA:
  /// [leaf(sub-CA), sub-CA cert, public intermediate(s)..., public root],
  /// CT-logging the leaf (the paper verified all such leaves were logged).
  chain::CertificateChain issue_sub_ca_chain(std::string_view sub_ca_short_name,
                                             const std::string& domain,
                                             util::TimeRange leaf_validity);

  // --- interception ---------------------------------------------------------
  const std::vector<InterceptionDeployment>& interception() const {
    return interception_;
  }
  std::vector<InterceptionDeployment>& interception() { return interception_; }

  /// Canonical issuer-DN set of every interception CA (leaf-signing
  /// intermediates and roots), as the analysis-side registry expects.
  std::set<std::string> interception_issuer_dns() const;

  // --- stand-alone certificate factories ------------------------------------
  /// DGA-style single certificate: issuer and subject are two *different*
  /// random "www<random>com"-patterned names (§4.3 special case); validity
  /// 4..365 days starting in the collection window.
  x509::Certificate make_dga_certificate(util::Rng& rng);

  /// The classic distro-default self-signed cert
  /// (emailAddress=webmaster@localhost, CN=localhost, ... — Table 7 fn. 5).
  x509::Certificate make_localhost_certificate(const std::string& serial_tag);

  /// Generic self-signed certificate for an org + CN.
  x509::Certificate make_self_signed(const std::string& organization,
                                     const std::string& common_name,
                                     util::TimeRange validity);

  /// The Let's Encrypt staging placeholder: issuer "Fake LE Root X1",
  /// subject "Fake LE Intermediate X1" (Appendix F.2).
  const x509::Certificate& fake_le_intermediate() const { return fake_le_intermediate_; }

  /// The collection window used for default validities.
  static util::TimeRange default_leaf_validity();

 private:
  void build_public_cas();
  void build_private_cas();
  void build_interception();

  std::uint64_t seed_;
  truststore::TrustStoreSet stores_;
  truststore::TrustStore host_store_;
  chain::CrossSignRegistry cross_signs_;
  ct::CtLogSet ct_logs_;

  std::vector<PublicCaHierarchy> public_cas_;
  std::vector<PrivateCaHierarchy> private_cas_;
  std::vector<ChainedSubCa> sub_cas_;
  std::vector<InterceptionDeployment> interception_;
  x509::Certificate fake_le_intermediate_;
  std::uint64_t self_signed_counter_ = 0;
};

}  // namespace certchain::netsim
