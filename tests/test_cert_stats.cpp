// Certificate population statistics (extension analyzer).
#include "core/cert_stats.hpp"

#include <gtest/gtest.h>

#include "../tests/helpers.hpp"

namespace certchain::core {
namespace {

using certchain::testing::TestPki;
using certchain::testing::make_chain;
using certchain::testing::self_signed;

TEST(CertStats, DeduplicatesByFingerprintAcrossChains) {
  TestPki pki;
  ChainObservation a;
  a.chain = pki.chain_for("s1.example", true);
  ChainObservation b;
  b.chain = pki.chain_for("s2.example", true);  // shares int + root with a

  const CertPopulationStats stats = compute_cert_stats("test", {&a, &b});
  EXPECT_EQ(stats.label, "test");
  EXPECT_EQ(stats.distinct_certificates, 4u);  // 2 leaves + int + root
  EXPECT_EQ(stats.self_signed, 1u);            // the root
}

TEST(CertStats, LifetimeBuckets) {
  TestPki pki;
  const auto leaf_with_days = [&](const std::string& domain, int days) {
    x509::DistinguishedName subject;
    subject.add("CN", domain);
    const util::SimTime start = util::make_time(2021, 1, 1);
    return pki.intermediate_ca.issue_leaf(
        subject, domain, {start, start + days * util::kSecondsPerDay});
  };
  ChainObservation observation;
  observation.chain = make_chain({leaf_with_days("a.example", 90),
                                  leaf_with_days("b.example", 365),
                                  leaf_with_days("c.example", 700),
                                  leaf_with_days("d.example", 3650)});
  const CertPopulationStats stats = compute_cert_stats("lt", {&observation});
  EXPECT_EQ(stats.lifetime_le_90d, 1u);
  EXPECT_EQ(stats.lifetime_le_398d, 1u);
  EXPECT_EQ(stats.lifetime_le_2y, 1u);
  EXPECT_EQ(stats.lifetime_gt_2y, 1u);
  EXPECT_DOUBLE_EQ(stats.lifetimes_days.min(), 90.0);
}

TEST(CertStats, SanAndExpiryAccounting) {
  TestPki pki;
  ChainObservation observation;
  x509::Certificate no_san = self_signed("nosan");  // helpers add no SANs
  observation.chain = make_chain({pki.leaf("san.example"), no_san});
  observation.last_seen = util::make_time(2030, 1, 1);  // far future: expired
  const CertPopulationStats stats = compute_cert_stats("san", {&observation});
  EXPECT_EQ(stats.san_absent, 1u);
  EXPECT_EQ(stats.san_counts.count(1), 1u);
  EXPECT_EQ(stats.expired_when_observed, 2u);
}

TEST(CertStats, SkipsOutlierChains) {
  std::vector<x509::Certificate> junk;
  for (int i = 0; i < 40; ++i) junk.push_back(self_signed("junk" + std::to_string(i)));
  ChainObservation outlier;
  outlier.chain = make_chain(std::move(junk));
  const CertPopulationStats stats = compute_cert_stats("out", {&outlier});
  EXPECT_EQ(stats.distinct_certificates, 0u);
  // With the cap lifted they count.
  const CertPopulationStats uncapped = compute_cert_stats("out", {&outlier}, 100);
  EXPECT_EQ(uncapped.distinct_certificates, 40u);
}

TEST(CertStats, AlgorithmCounters) {
  TestPki pki;
  ChainObservation observation;
  observation.chain = pki.chain_for("alg.example", true);
  const CertPopulationStats stats = compute_cert_stats("alg", {&observation});
  EXPECT_EQ(stats.key_algorithms.total(), 3u);
  EXPECT_GE(stats.key_algorithms.count("ecdsa-p256"), 1u);  // the leaf key
  EXPECT_GE(stats.signature_algorithms.count("sha256WithRSAEncryption"), 1u);
}

}  // namespace
}  // namespace certchain::core
