// Validation: issuer–subject vs key–signature (Appendix D / Table 5) and the
// Chrome-like vs OpenSSL-like client disagreement (§5).
#include <gtest/gtest.h>

#include "../tests/helpers.hpp"
#include "validation/client_validators.hpp"
#include "validation/pairwise_validators.hpp"

namespace certchain::validation {
namespace {

using certchain::testing::TestPki;
using certchain::testing::dn;
using certchain::testing::make_chain;
using certchain::testing::self_signed;
using certchain::testing::test_validity;

const util::SimTime kNow = util::make_time(2021, 3, 1);

// --- pairwise validators -------------------------------------------------------

TEST(PairwiseValidators, AgreeOnSingleCertificateChains) {
  TestPki pki;
  const auto chain = make_chain({pki.leaf("single.example")});
  EXPECT_EQ(IssuerSubjectValidator().validate(chain).verdict,
            ChainVerdict::kSingleCertificate);
  EXPECT_EQ(KeySignatureValidator().validate(chain).verdict,
            ChainVerdict::kSingleCertificate);
}

TEST(PairwiseValidators, AgreeOnValidChains) {
  TestPki pki;
  const auto chain = pki.chain_for("valid.example", true);
  EXPECT_TRUE(IssuerSubjectValidator().validate(chain).valid());
  EXPECT_TRUE(KeySignatureValidator().validate(chain).valid());
}

TEST(PairwiseValidators, AgreeOnBrokenChainsAndPositions) {
  TestPki pki;
  const auto chain = make_chain({pki.leaf("broken.example"), self_signed("stray"),
                                 pki.intermediate_cert});
  const auto issuer_subject = IssuerSubjectValidator().validate(chain);
  const auto key_signature = KeySignatureValidator().validate(chain);
  EXPECT_EQ(issuer_subject.verdict, ChainVerdict::kBroken);
  EXPECT_EQ(key_signature.verdict, ChainVerdict::kBroken);
  // The paper found the mismatch positions align between the two methods.
  EXPECT_EQ(issuer_subject.failure_positions, key_signature.failure_positions);
}

TEST(PairwiseValidators, DisagreeOnUnrecognizedKeys) {
  // The Table 5 corner: a chain whose issuer key the strict verifier cannot
  // process. issuer-subject says valid; key-signature says unrecognized.
  x509::CertificateAuthority gost_root(dn("CN=Gost Root,O=Gost"), "gost-root",
                                       crypto::KeyAlgorithm::kGostR3410);
  const x509::Certificate root_cert = gost_root.make_root(test_validity());
  x509::DistinguishedName subject;
  subject.add("CN", "gost.example");
  const x509::Certificate leaf =
      gost_root.issue_leaf(subject, "gost.example", test_validity());
  const auto chain = make_chain({leaf, root_cert});

  EXPECT_TRUE(IssuerSubjectValidator().validate(chain).valid());
  EXPECT_EQ(KeySignatureValidator().validate(chain).verdict,
            ChainVerdict::kUnrecognizedKey);
  // A tolerant verifier accepts it.
  KeySignatureValidator::Options tolerant;
  tolerant.accept_all_algorithms = true;
  EXPECT_TRUE(KeySignatureValidator(tolerant).validate(chain).valid());
}

TEST(PairwiseValidators, DisagreeOnMalformedEncoding) {
  // The other Table 5 corner: an ASN.1-damaged certificate. Names still
  // compare fine; the strict parser aborts.
  TestPki pki;
  const chain::CertificateChain delivered = pki.chain_for("asn1.example", true);
  std::vector<x509::Certificate> certs(delivered.begin(), delivered.end());
  certs[1].malformed_encoding = true;
  const auto chain = make_chain(std::move(certs));
  EXPECT_TRUE(IssuerSubjectValidator().validate(chain).valid());
  const auto key_signature = KeySignatureValidator().validate(chain);
  EXPECT_EQ(key_signature.verdict, ChainVerdict::kBroken);
  EXPECT_NE(key_signature.detail.find("ASN.1"), std::string::npos);
}

TEST(PairwiseValidators, KeySignatureCatchesForgedLink) {
  // Names match but the signature was never made by the claimed issuer: the
  // impersonation case issuer-subject provably cannot catch (App. D limits).
  TestPki pki;
  x509::CertificateAuthority imposter(pki.intermediate_ca.name(), "imposter-key");
  x509::DistinguishedName subject;
  subject.add("CN", "forged.example");
  const x509::Certificate forged_leaf =
      imposter.issue_leaf(subject, "forged.example", test_validity());
  const auto chain = make_chain({forged_leaf, pki.intermediate_cert});
  EXPECT_TRUE(IssuerSubjectValidator().validate(chain).valid());
  EXPECT_EQ(KeySignatureValidator().validate(chain).verdict, ChainVerdict::kBroken);
}

TEST(PairwiseValidators, CrossSignRegistryFeedsIssuerSubject) {
  TestPki pki;
  x509::CertificateAuthority cross(dn("CN=Cross Root"), "cross2");
  const auto chain =
      make_chain({pki.leaf("cs2.example"), cross.make_root(test_validity())});
  EXPECT_EQ(IssuerSubjectValidator().validate(chain).verdict, ChainVerdict::kBroken);
  chain::CrossSignRegistry registry;
  registry.add_equivalence(pki.intermediate_ca.name(), cross.name());
  EXPECT_TRUE(IssuerSubjectValidator(&registry).validate(chain).valid());
}

// --- client validators ----------------------------------------------------------

class ClientValidatorTest : public ::testing::Test {
 protected:
  TestPki pki_;
  truststore::TrustStoreSet stores_ = pki_.trusted_stores();
  truststore::TrustStore host_store_{truststore::RootProgram::kMozillaNss};

  void SetUp() override { host_store_.add(pki_.root_cert); }
};

TEST_F(ClientValidatorTest, BothAcceptWellFormedChain) {
  const auto chain = pki_.chain_for("good.example");
  EXPECT_TRUE(ChromeLikeValidator(stores_).validate(chain, kNow).accepted());
  EXPECT_TRUE(OpenSslLikeValidator(host_store_).validate(chain, kNow).accepted());
}

TEST_F(ClientValidatorTest, ChromeIgnoresUnnecessaryCertificates) {
  auto chain = pki_.chain_for("extras.example", true);
  chain.push_back(self_signed("staging-leftover"));
  EXPECT_TRUE(ChromeLikeValidator(stores_).validate(chain, kNow).accepted());
}

TEST_F(ClientValidatorTest, OpenSslSurvivesTrailingExtrasViaStoreLookup) {
  // Extras *after* the anchor are never walked: the store lookup resolves
  // the intermediate's issuer first.
  auto chain = pki_.chain_for("trailing.example");
  chain.push_back(self_signed("trailing-extra"));
  EXPECT_TRUE(OpenSslLikeValidator(host_store_).validate(chain, kNow).accepted());
}

TEST_F(ClientValidatorTest, DisagreementOnBrokenOrder) {
  // §5: a foreign certificate spliced between leaf and intermediate. Chrome
  // path-builds around it; OpenSSL's ordered walk fails.
  const chain::CertificateChain delivered = pki_.chain_for("order.example", true);
  const std::vector<x509::Certificate> certs(delivered.begin(), delivered.end());
  std::vector<x509::Certificate> shuffled{certs[0], self_signed("splice"), certs[1],
                                          certs[2]};
  const auto chain = make_chain(std::move(shuffled));
  EXPECT_TRUE(ChromeLikeValidator(stores_).validate(chain, kNow).accepted());
  const auto openssl = OpenSslLikeValidator(host_store_).validate(chain, kNow);
  EXPECT_EQ(openssl.verdict, ClientVerdict::kBrokenOrder);
}

TEST_F(ClientValidatorTest, DisagreementOnMissingIntermediate) {
  // Chrome completes the path from its intermediate preload (CCADB); the
  // host store has roots only, so OpenSSL cannot find the issuer.
  const auto chain = make_chain({pki_.leaf("missing-int.example")});
  EXPECT_TRUE(ChromeLikeValidator(stores_).validate(chain, kNow).accepted());
  const auto openssl = OpenSslLikeValidator(host_store_).validate(chain, kNow);
  EXPECT_EQ(openssl.verdict, ClientVerdict::kNoTrustAnchor);
  EXPECT_NE(openssl.detail.find("unable to get local issuer"), std::string::npos);
}

TEST_F(ClientValidatorTest, DisagreementOnHostStoreContents) {
  // The anchor exists in the browser databases but not on the host (the
  // §5 "trust anchors maintained by the host" factor).
  const truststore::TrustStore empty_host(truststore::RootProgram::kMozillaNss);
  const auto chain = pki_.chain_for("storegap.example", true);
  EXPECT_TRUE(ChromeLikeValidator(stores_).validate(chain, kNow).accepted());
  EXPECT_EQ(OpenSslLikeValidator(empty_host).validate(chain, kNow).verdict,
            ClientVerdict::kNoTrustAnchor);
}

TEST_F(ClientValidatorTest, BothRejectSelfSignedStranger) {
  const auto chain = make_chain({self_signed("stranger.example")});
  EXPECT_FALSE(ChromeLikeValidator(stores_).validate(chain, kNow).accepted());
  const auto openssl = OpenSslLikeValidator(host_store_).validate(chain, kNow);
  EXPECT_EQ(openssl.verdict, ClientVerdict::kNoTrustAnchor);
  EXPECT_EQ(openssl.detail, "self-signed certificate");
}

TEST_F(ClientValidatorTest, ExpiredLeafRejectedByBoth) {
  x509::DistinguishedName subject;
  subject.add("CN", "expired.example");
  const x509::Certificate leaf = pki_.intermediate_ca.issue_leaf(
      subject, "expired.example",
      {util::make_time(2015, 1, 1), util::make_time(2016, 1, 1)});
  const auto chain = make_chain({leaf, pki_.intermediate_cert});
  EXPECT_EQ(ChromeLikeValidator(stores_).validate(chain, kNow).verdict,
            ClientVerdict::kExpired);
  EXPECT_EQ(OpenSslLikeValidator(host_store_).validate(chain, kNow).verdict,
            ClientVerdict::kExpired);
}

TEST_F(ClientValidatorTest, ForgedSignatureRejected) {
  x509::CertificateAuthority imposter(pki_.intermediate_ca.name(), "imposter2");
  x509::DistinguishedName subject;
  subject.add("CN", "forged2.example");
  const x509::Certificate forged =
      imposter.issue_leaf(subject, "forged2.example", test_validity());
  const auto chain = make_chain({forged, pki_.intermediate_cert});
  EXPECT_FALSE(ChromeLikeValidator(stores_).validate(chain, kNow).accepted());
  EXPECT_EQ(OpenSslLikeValidator(host_store_).validate(chain, kNow).verdict,
            ClientVerdict::kBadSignature);
}

TEST_F(ClientValidatorTest, ChromeBacktracksPastDecoyIssuer) {
  // A decoy with the right subject but wrong key sits in the presented pool;
  // the path builder must back out and use the genuine store copy.
  x509::CertificateAuthority decoy_ca(pki_.intermediate_ca.name(), "decoy-key");
  x509::Certificate decoy = pki_.root_ca.issue_intermediate(decoy_ca, test_validity());
  // decoy has the intermediate's DN but a different key and serial.
  auto chain = make_chain({pki_.leaf("decoy.example"), decoy});
  const auto result = ChromeLikeValidator(stores_).validate(chain, kNow);
  EXPECT_TRUE(result.accepted());
}

TEST_F(ClientValidatorTest, PartialChainOptionAcceptsIntermediateAnchor) {
  truststore::TrustStore intermediate_store(truststore::RootProgram::kMozillaNss);
  intermediate_store.add(pki_.intermediate_cert);
  const auto chain = pki_.chain_for("partial.example");

  OpenSslLikeValidator::Options strict;
  EXPECT_FALSE(
      OpenSslLikeValidator(intermediate_store, strict).validate(chain, kNow).accepted());

  OpenSslLikeValidator::Options partial;
  partial.partial_chain = true;
  EXPECT_TRUE(
      OpenSslLikeValidator(intermediate_store, partial).validate(chain, kNow).accepted());
}

TEST_F(ClientValidatorTest, EmptyChains) {
  const chain::CertificateChain empty;
  EXPECT_EQ(ChromeLikeValidator(stores_).validate(empty, kNow).verdict,
            ClientVerdict::kEmptyChain);
  EXPECT_EQ(OpenSslLikeValidator(host_store_).validate(empty, kNow).verdict,
            ClientVerdict::kEmptyChain);
}

TEST_F(ClientValidatorTest, ChromePathContainsLeafToRoot) {
  const auto chain = pki_.chain_for("pathy.example");
  const auto result = ChromeLikeValidator(stores_).validate(chain, kNow);
  ASSERT_TRUE(result.accepted());
  ASSERT_GE(result.path.size(), 2u);
  EXPECT_TRUE(result.path.front().subject.matches(chain.first().subject));
  EXPECT_TRUE(result.path.back().is_self_signed());
}

TEST(VerdictNames, Defined) {
  EXPECT_EQ(chain_verdict_name(ChainVerdict::kValid), "valid");
  EXPECT_EQ(client_verdict_name(ClientVerdict::kAccepted), "accepted");
  EXPECT_EQ(client_verdict_name(ClientVerdict::kBrokenOrder), "broken-order");
}

}  // namespace
}  // namespace certchain::validation
