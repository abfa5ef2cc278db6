// Simulated crypto, certificate model, builder and PEM serialization.
#include <gtest/gtest.h>

#include "../tests/helpers.hpp"
#include "crypto/sim_crypto.hpp"
#include "util/strings.hpp"
#include "x509/builder.hpp"
#include "x509/pem.hpp"

namespace certchain {
namespace {

using testing::TestPki;
using testing::dn;
using testing::self_signed;
using testing::test_validity;

// --- crypto -----------------------------------------------------------------

TEST(SimCrypto, KeypairsAreDeterministicPerSeed) {
  const auto a = crypto::generate_keypair(crypto::KeyAlgorithm::kRsa2048, "seed");
  const auto b = crypto::generate_keypair(crypto::KeyAlgorithm::kRsa2048, "seed");
  const auto c = crypto::generate_keypair(crypto::KeyAlgorithm::kRsa2048, "other");
  EXPECT_EQ(a.public_key, b.public_key);
  EXPECT_NE(a.public_key, c.public_key);
  // Same seed, different algorithm -> different key.
  const auto d = crypto::generate_keypair(crypto::KeyAlgorithm::kEcdsaP256, "seed");
  EXPECT_NE(a.public_key.material, d.public_key.material);
}

TEST(SimCrypto, SignVerifyRoundTrip) {
  const auto keys = crypto::generate_keypair(crypto::KeyAlgorithm::kEcdsaP256, "k");
  const auto signature = crypto::sign(keys.private_key, "message");
  EXPECT_EQ(crypto::verify(keys.public_key, "message", signature),
            crypto::VerifyStatus::kOk);
}

TEST(SimCrypto, VerifyRejectsTamperedMessage) {
  const auto keys = crypto::generate_keypair(crypto::KeyAlgorithm::kRsa2048, "k");
  const auto signature = crypto::sign(keys.private_key, "message");
  EXPECT_EQ(crypto::verify(keys.public_key, "messagE", signature),
            crypto::VerifyStatus::kBadSignature);
}

TEST(SimCrypto, VerifyRejectsWrongKey) {
  const auto signer = crypto::generate_keypair(crypto::KeyAlgorithm::kRsa2048, "a");
  const auto other = crypto::generate_keypair(crypto::KeyAlgorithm::kRsa2048, "b");
  const auto signature = crypto::sign(signer.private_key, "m");
  EXPECT_EQ(crypto::verify(other.public_key, "m", signature),
            crypto::VerifyStatus::kBadSignature);
}

TEST(SimCrypto, UnrecognizedKeyAlgorithm) {
  const auto keys = crypto::generate_keypair(crypto::KeyAlgorithm::kGostR3410, "g");
  const auto signature = crypto::sign(keys.private_key, "m");
  // The paper's toolchain rejects the key outright...
  EXPECT_EQ(crypto::verify(keys.public_key, "m", signature),
            crypto::VerifyStatus::kUnrecognizedKey);
  // ...while a tolerant verifier can still check it.
  EXPECT_EQ(crypto::verify(keys.public_key, "m", signature, true),
            crypto::VerifyStatus::kOk);
}

TEST(SimCrypto, MalformedKeyFailsBeforeAnyMath) {
  auto keys = crypto::generate_keypair(crypto::KeyAlgorithm::kRsa2048, "k");
  const auto signature = crypto::sign(keys.private_key, "m");
  keys.public_key.malformed = true;
  EXPECT_EQ(crypto::verify(keys.public_key, "m", signature),
            crypto::VerifyStatus::kMalformedKey);
  EXPECT_EQ(crypto::verify(keys.public_key, "m", signature, true),
            crypto::VerifyStatus::kMalformedKey);
}

TEST(SimCrypto, DefaultSignatureAlgorithmPairing) {
  EXPECT_EQ(crypto::default_signature_algorithm(crypto::KeyAlgorithm::kEd25519),
            crypto::SignatureAlgorithm::kSimEd25519);
  EXPECT_EQ(crypto::default_signature_algorithm(crypto::KeyAlgorithm::kRsa4096),
            crypto::SignatureAlgorithm::kSimSha256WithRsa);
}

TEST(SimCrypto, KeyBits) {
  crypto::SimPublicKey key;
  key.algorithm = crypto::KeyAlgorithm::kRsa4096;
  EXPECT_EQ(key.bits(), 4096);
  key.algorithm = crypto::KeyAlgorithm::kEcdsaP256;
  EXPECT_EQ(key.bits(), 256);
}

// --- certificate model -------------------------------------------------------

TEST(Certificate, SelfSignedDetectionIsCanonical) {
  x509::Certificate cert;
  cert.issuer = dn("CN=Example CA,O=Org");
  cert.subject = dn("cn=example ca,o=org");
  EXPECT_TRUE(cert.is_self_signed());
  cert.subject = dn("CN=Other");
  EXPECT_FALSE(cert.is_self_signed());
}

TEST(Certificate, FingerprintCoversEveryField) {
  TestPki pki;
  const x509::Certificate base = pki.leaf("fp.example");
  x509::Certificate changed = base;
  changed.serial = "ff";
  EXPECT_NE(base.fingerprint(), changed.fingerprint());
  changed = base;
  changed.subject_alt_names.push_back("extra.example");
  EXPECT_NE(base.fingerprint(), changed.fingerprint());
  changed = base;
  changed.basic_constraints.present = false;
  EXPECT_NE(base.fingerprint(), changed.fingerprint());
  changed = base;
  changed.validity.end += 1;
  EXPECT_NE(base.fingerprint(), changed.fingerprint());
  EXPECT_EQ(base.fingerprint(), base.fingerprint());
}

TEST(Certificate, ValidityWindow) {
  x509::Certificate cert;
  cert.validity = {100, 200};
  EXPECT_TRUE(cert.valid_at(100));
  EXPECT_FALSE(cert.valid_at(200));
  EXPECT_TRUE(cert.expired_at(200));
  EXPECT_FALSE(cert.expired_at(150));
}

TEST(WildcardMatch, Rfc6125SingleLabelRules) {
  EXPECT_TRUE(x509::wildcard_matches("example.com", "EXAMPLE.com"));
  EXPECT_TRUE(x509::wildcard_matches("*.example.com", "www.example.com"));
  EXPECT_FALSE(x509::wildcard_matches("*.example.com", "example.com"));
  EXPECT_FALSE(x509::wildcard_matches("*.example.com", "a.b.example.com"));
  EXPECT_FALSE(x509::wildcard_matches("*.example.com", "wwwexample.com"));
  EXPECT_FALSE(x509::wildcard_matches("*.com", "x.org"));
}

TEST(Certificate, CoversDomainViaSanThenCnFallback) {
  TestPki pki;
  x509::Certificate cert = pki.leaf("www.covered.example");
  EXPECT_TRUE(cert.covers_domain("www.covered.example"));
  EXPECT_FALSE(cert.covers_domain("other.example"));
  // With SANs present the CN is ignored...
  cert.subject_alt_names = {"only.example"};
  EXPECT_FALSE(cert.covers_domain("www.covered.example"));
  // ...without SANs the CN is the fallback.
  cert.subject_alt_names.clear();
  EXPECT_TRUE(cert.covers_domain("www.covered.example"));
}

// --- builder / CA ------------------------------------------------------------

TEST(CertificateAuthority, RootIsSelfSignedCa) {
  TestPki pki;
  EXPECT_TRUE(pki.root_cert.is_self_signed());
  EXPECT_TRUE(pki.root_cert.is_ca());
  EXPECT_TRUE(pki.root_cert.key_usage.key_cert_sign);
  EXPECT_EQ(crypto::verify(pki.root_cert.public_key, pki.root_cert.tbs_bytes(),
                           pki.root_cert.signature),
            crypto::VerifyStatus::kOk);
}

TEST(CertificateAuthority, IntermediateChainsToRoot) {
  TestPki pki;
  EXPECT_TRUE(pki.intermediate_cert.issuer.matches(pki.root_cert.subject));
  EXPECT_TRUE(pki.intermediate_cert.is_ca());
  EXPECT_EQ(crypto::verify(pki.root_cert.public_key,
                           pki.intermediate_cert.tbs_bytes(),
                           pki.intermediate_cert.signature),
            crypto::VerifyStatus::kOk);
}

TEST(CertificateAuthority, LeafChainsToIntermediate) {
  TestPki pki;
  const x509::Certificate leaf = pki.leaf("leaf.example");
  EXPECT_TRUE(leaf.issuer.matches(pki.intermediate_cert.subject));
  EXPECT_FALSE(leaf.is_ca());
  EXPECT_TRUE(leaf.basic_constraints.present);
  EXPECT_EQ(crypto::verify(pki.intermediate_cert.public_key, leaf.tbs_bytes(),
                           leaf.signature),
            crypto::VerifyStatus::kOk);
}

TEST(CertificateAuthority, LeafNoBcOmitsTheExtension) {
  TestPki pki;
  x509::DistinguishedName subject;
  subject.add("CN", "nobc.example");
  const x509::Certificate leaf =
      pki.intermediate_ca.issue_leaf_no_bc(subject, "nobc.example", test_validity());
  EXPECT_FALSE(leaf.basic_constraints.present);
}

TEST(CertificateAuthority, SerialsAreUniqueAndScoped) {
  TestPki pki;
  const std::string s1 = pki.root_ca.next_serial();
  const std::string s2 = pki.root_ca.next_serial();
  EXPECT_NE(s1, s2);
  x509::CertificateAuthority other(dn("CN=Other CA"), "other-seed");
  EXPECT_NE(pki.root_ca.next_serial(), other.next_serial());
}

TEST(CertificateAuthority, CrossSignBindsSubjectKeyUnderNewIssuer) {
  TestPki pki;
  x509::CertificateAuthority other(dn("CN=Other Root,O=Other"), "other-root");
  const x509::Certificate cross = pki.root_ca.cross_sign(other, test_validity());
  EXPECT_TRUE(cross.subject.matches(other.name()));
  EXPECT_TRUE(cross.issuer.matches(pki.root_ca.name()));
  EXPECT_EQ(cross.public_key, other.public_key());
  EXPECT_FALSE(cross.is_self_signed());
  EXPECT_EQ(crypto::verify(pki.root_cert.public_key, cross.tbs_bytes(),
                           cross.signature),
            crypto::VerifyStatus::kOk);
}

// --- PEM ----------------------------------------------------------------------

TEST(Pem, RoundTripsEveryField) {
  TestPki pki;
  x509::Certificate cert = pki.leaf("pem.example");
  cert.scts.push_back({"logid123", 1600000000});
  cert.key_usage.present = true;
  cert.key_usage.digital_signature = true;
  const auto decoded = x509::decode_pem(x509::encode_pem(cert));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, cert);
}

TEST(Pem, RoundTripsCornerCaseCertificates) {
  // Self-signed, no basicConstraints, malformed-encoding flag, gost key.
  x509::Certificate cert = self_signed("weird ,name=with\\specials");
  cert.malformed_encoding = true;
  cert.public_key.algorithm = crypto::KeyAlgorithm::kGostR3410;
  cert.public_key.malformed = true;
  const auto decoded = x509::decode_pem(x509::encode_pem(cert));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, cert);
}

TEST(Pem, DecodeRejectsDamage) {
  TestPki pki;
  std::string pem = x509::encode_pem(pki.leaf("dmg.example"));
  EXPECT_FALSE(x509::decode_pem("no armor").has_value());
  std::string truncated = pem.substr(0, pem.size() / 2);
  EXPECT_FALSE(x509::decode_pem(truncated).has_value());
  std::string corrupted = pem;
  corrupted[60] = '!';
  EXPECT_FALSE(x509::decode_pem(corrupted).has_value());
}

TEST(Pem, BundleDecodesInOrderAndReportsDamage) {
  TestPki pki;
  const x509::Certificate leaf = pki.leaf("bundle.example");
  std::string bundle = x509::encode_pem(leaf) + x509::encode_pem(pki.intermediate_cert) +
                       "-----BEGIN CERTIFICATE-----\n!!!\n-----END CERTIFICATE-----\n" +
                       x509::encode_pem(pki.root_cert);
  std::size_t malformed = 0;
  const auto certs = x509::decode_pem_bundle(bundle, &malformed);
  ASSERT_EQ(certs.size(), 3u);
  EXPECT_EQ(malformed, 1u);
  EXPECT_EQ(certs[0], leaf);
  EXPECT_EQ(certs[1], pki.intermediate_cert);
  EXPECT_EQ(certs[2], pki.root_cert);
}

TEST(Pem, EmptyBundle) {
  std::size_t malformed = 7;
  EXPECT_TRUE(x509::decode_pem_bundle("", &malformed).empty());
  EXPECT_EQ(malformed, 0u);
}

TEST(Pem, DerSimRejectsUnknownFields) {
  TestPki pki;
  std::string der = x509::encode_der_sim(pki.leaf("x.example"));
  der += "mystery:value\n";
  EXPECT_FALSE(x509::decode_der_sim(der).has_value());
}

TEST(Pem, DerSimRejectsOutOfRangeIntegers) {
  // version and pathlen are ints: digits only, and a value outside
  // [0, INT_MAX] is rejected, never narrowed (4294967299 would otherwise
  // decode as 3).
  TestPki pki;
  x509::CertificateAuthority constrained(dn("CN=Constrained CA"), "constrained");
  const std::string der = x509::encode_der_sim(
      pki.root_ca.issue_intermediate(constrained, test_validity(), 1));
  ASSERT_NE(der.find("\nversion:3\n"), std::string::npos);
  ASSERT_NE(der.find(",pathlen:"), std::string::npos);
  const auto with_version = [&der](const std::string& version) {
    return util::replace_all(der, "\nversion:3\n", "\nversion:" + version + "\n");
  };
  const auto with_pathlen = [&der](const std::string& pathlen) {
    const std::size_t begin = der.find(",pathlen:") + 9;
    const std::size_t end = der.find('\n', begin);
    return der.substr(0, begin) + pathlen + der.substr(end);
  };
  for (const std::string bad : {"4294967299", "4294967297", "2147483648", "-7",
                                "-5", "-0", "+3", "", "99999999999999999999"}) {
    EXPECT_FALSE(x509::decode_der_sim(with_version(bad)).has_value()) << bad;
    EXPECT_FALSE(x509::decode_der_sim(with_pathlen(bad)).has_value()) << bad;
  }

  const auto max_version = x509::decode_der_sim(with_version("2147483647"));
  ASSERT_TRUE(max_version.has_value());
  EXPECT_EQ(max_version->version, 2147483647);
  const auto max_pathlen = x509::decode_der_sim(with_pathlen("2147483647"));
  ASSERT_TRUE(max_pathlen.has_value());
  EXPECT_EQ(max_pathlen->basic_constraints.path_len_constraint, 2147483647);
}

}  // namespace
}  // namespace certchain
