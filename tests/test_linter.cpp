// Chain linter: findings, severities and recommendations per chain shape.
#include "chain/linter.hpp"

#include <gtest/gtest.h>

#include "../tests/helpers.hpp"

namespace certchain::chain {
namespace {

using certchain::testing::TestPki;
using certchain::testing::dn;
using certchain::testing::make_chain;
using certchain::testing::self_signed;
using certchain::testing::test_validity;

const util::SimTime kNow = util::make_time(2021, 3, 1);

TEST(Linter, WellFormedChainIsClean) {
  TestPki pki;
  const LintReport report = lint_chain(pki.chain_for("ok.example", true), {kNow});
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].code, LintCode::kWellFormed);
  EXPECT_FALSE(report.has_errors());
}

TEST(Linter, EmptyChainIsAnError) {
  const LintReport report = lint_chain(CertificateChain{});
  EXPECT_TRUE(report.has_errors());
  EXPECT_EQ(report.count(LintCode::kNoCompletePath), 1u);
}

TEST(Linter, SingleSelfSignedAndSingleOrphan) {
  TestPki pki;
  const LintReport self = lint_chain(make_chain({self_signed("box")}), {kNow});
  EXPECT_EQ(self.count(LintCode::kSingleSelfSigned), 1u);
  EXPECT_FALSE(self.has_errors());  // warning, not error

  const LintReport orphan = lint_chain(make_chain({pki.leaf("alone.example")}), {kNow});
  EXPECT_EQ(orphan.count(LintCode::kSingleWithoutIssuer), 1u);
}

TEST(Linter, UnnecessaryCertificateFlaggedWithPosition) {
  TestPki pki;
  auto chain = pki.chain_for("extra.example", true);
  chain.push_back(self_signed("extra"));
  const LintReport report = lint_chain(chain, {kNow});
  ASSERT_EQ(report.count(LintCode::kUnnecessaryCertificate), 1u);
  for (const LintFinding& finding : report.findings) {
    if (finding.code == LintCode::kUnnecessaryCertificate) {
      EXPECT_EQ(finding.position, 3u);
      EXPECT_FALSE(finding.recommendation.empty());
    }
  }
}

TEST(Linter, StagingCertificateIsAnError) {
  TestPki pki;
  x509::CertificateAuthority fake_root(dn("CN=Fake LE Root X1"), "lint-fake");
  x509::CertificateAuthority fake_int(dn("CN=Fake LE Intermediate X1"), "lint-fake-i");
  auto chain = pki.chain_for("staging.example", true);
  chain.push_back(fake_root.issue_intermediate(fake_int, test_validity()));
  const LintReport report = lint_chain(chain, {kNow});
  EXPECT_GE(report.count(LintCode::kStagingCertificate), 1u);
  EXPECT_TRUE(report.has_errors());
}

TEST(Linter, LeafNotFirstIsAnError) {
  TestPki pki;
  x509::Certificate stray = self_signed("old-leaf");
  stray.issuer = dn("CN=Old Issuer");
  const CertificateChain delivered = pki.chain_for("order.example", true);
  std::vector<x509::Certificate> certs(delivered.begin(), delivered.end());
  certs.insert(certs.begin(), stray);
  const LintReport report = lint_chain(make_chain(std::move(certs)), {kNow});
  EXPECT_EQ(report.count(LintCode::kLeafNotFirst), 1u);
  EXPECT_EQ(report.count(LintCode::kUnnecessaryCertificate), 1u);
}

TEST(Linter, NoPathReportsEveryMismatch) {
  const auto chain = make_chain({self_signed("a"), self_signed("b"), self_signed("c")});
  const LintReport report = lint_chain(chain, {kNow});
  EXPECT_EQ(report.count(LintCode::kNoCompletePath), 1u);
  EXPECT_EQ(report.count(LintCode::kMissingIntermediate), 2u);
  EXPECT_TRUE(report.has_errors());
}

TEST(Linter, ExpiryAndClockFindings) {
  TestPki pki;
  x509::DistinguishedName subject;
  subject.add("CN", "old.example");
  const x509::Certificate expired = pki.intermediate_ca.issue_leaf(
      subject, "old.example",
      {util::make_time(2015, 1, 1), util::make_time(2016, 1, 1)});
  const LintReport report =
      lint_chain(make_chain({expired, pki.intermediate_cert}), {kNow});
  EXPECT_EQ(report.count(LintCode::kExpiredCertificate), 1u);

  const x509::Certificate future = pki.intermediate_ca.issue_leaf(
      subject, "old.example",
      {util::make_time(2030, 1, 1), util::make_time(2031, 1, 1)});
  const LintReport future_report =
      lint_chain(make_chain({future, pki.intermediate_cert}), {kNow});
  EXPECT_EQ(future_report.count(LintCode::kNotYetValid), 1u);

  // now == 0 disables validity findings entirely.
  const LintReport disabled = lint_chain(make_chain({expired, pki.intermediate_cert}));
  EXPECT_EQ(disabled.count(LintCode::kExpiredCertificate), 0u);
}

TEST(Linter, DuplicateCertificates) {
  TestPki pki;
  const CertificateChain delivered = pki.chain_for("dup.example");
  std::vector<x509::Certificate> certs(delivered.begin(), delivered.end());
  certs.push_back(certs[1]);  // intermediate twice
  const LintReport report = lint_chain(make_chain(std::move(certs)), {kNow});
  EXPECT_EQ(report.count(LintCode::kDuplicateCertificate), 1u);
}

TEST(Linter, CrossSignRegistrySuppressesFalseMismatch) {
  TestPki pki;
  x509::CertificateAuthority cross(dn("CN=Cross Anchor"), "lint-cross");
  const auto chain =
      make_chain({pki.leaf("cs.example"), cross.make_root(test_validity())});

  const LintReport without = lint_chain(chain, {kNow});
  EXPECT_TRUE(without.has_errors());

  CrossSignRegistry registry;
  registry.add_equivalence(pki.intermediate_ca.name(), cross.name());
  LintOptions options;
  options.now = kNow;
  options.registry = &registry;
  const LintReport with = lint_chain(chain, options);
  EXPECT_FALSE(with.has_errors());
}

TEST(Linter, NamesAreDefined) {
  EXPECT_EQ(lint_severity_name(LintSeverity::kError), "error");
  EXPECT_EQ(lint_code_name(LintCode::kStagingCertificate), "staging-certificate");
}

}  // namespace
}  // namespace certchain::chain
