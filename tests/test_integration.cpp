// End-to-end integration: scenario generation -> traffic simulation -> Zeek
// text serialization -> pipeline analysis -> revisit. Uses a reduced scale
// so the full path stays fast; the headline *fixed* counts (hybrid 321,
// Table 3/7 splits, 80 interception vendors) are scale-independent.
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "core/pipeline.hpp"
#include "core/revisit.hpp"
#include "datagen/scenario.hpp"
#include "scanner/scanner.hpp"
#include "zeek/log_io.hpp"

namespace certchain {
namespace {

using chain::ChainCategory;
using chain::NoPathCategory;

datagen::ScenarioConfig small_config() {
  datagen::ScenarioConfig config;
  config.seed = 77;
  config.chain_scale = 1.0 / 2000.0;  // tiny large-category populations
  config.total_connections = 25000;
  config.client_count = 800;
  config.include_length_outliers = true;
  return config;
}

class IntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    scenario_ = datagen::build_study_scenario(small_config()).release();
    logs_ = new netsim::GeneratedLogs(scenario_->generate_logs());
    const core::StudyPipeline pipeline(scenario_->world.stores(),
                                       scenario_->world.ct_logs(),
                                       scenario_->vendors,
                                       &scenario_->world.cross_signs());
    report_ = new core::StudyReport(
        pipeline.run(core::StudyInput::records(*logs_)));
  }

  static void TearDownTestSuite() {
    delete report_;
    delete logs_;
    delete scenario_;
    report_ = nullptr;
    logs_ = nullptr;
    scenario_ = nullptr;
  }

  static datagen::Scenario* scenario_;
  static netsim::GeneratedLogs* logs_;
  static core::StudyReport* report_;
};

datagen::Scenario* IntegrationTest::scenario_ = nullptr;
netsim::GeneratedLogs* IntegrationTest::logs_ = nullptr;
core::StudyReport* IntegrationTest::report_ = nullptr;

TEST_F(IntegrationTest, EveryEndpointChainIsObserved) {
  EXPECT_EQ(report_->unique_chains, scenario_->endpoints.size());
}

TEST_F(IntegrationTest, HybridPopulationIsExactly321) {
  EXPECT_EQ(report_->categories.at(ChainCategory::kHybrid).chains, 321u);
  EXPECT_EQ(report_->hybrid.total(), 321u);
}

TEST_F(IntegrationTest, Table3BucketsAreExact) {
  const auto& hybrid = report_->hybrid;
  EXPECT_EQ(hybrid.complete_nonpub_to_pub, 26u);
  EXPECT_EQ(hybrid.complete_pub_to_private, 10u);
  EXPECT_EQ(hybrid.contains_complete_path, 70u);
  EXPECT_EQ(hybrid.no_complete_path, 215u);
}

TEST_F(IntegrationTest, Table7BucketsAreExact) {
  const auto& buckets = report_->hybrid.no_path_categories;
  EXPECT_EQ(buckets.at(NoPathCategory::kSelfSignedLeafThenMismatches), 108u);
  EXPECT_EQ(buckets.at(NoPathCategory::kSelfSignedLeafThenValidSubchain), 13u);
  EXPECT_EQ(buckets.at(NoPathCategory::kAllPairsMismatched), 61u);
  EXPECT_EQ(buckets.at(NoPathCategory::kPartialPairsMismatched), 27u);
  EXPECT_EQ(buckets.at(NoPathCategory::kNonPubRootAppendedToValidPublicSubchain), 5u);
  EXPECT_EQ(buckets.at(NoPathCategory::kNonPubRootAndMismatches), 1u);
  EXPECT_EQ(report_->hybrid.public_leaf_without_issuer, 56u);
}

TEST_F(IntegrationTest, Table6CtComplianceAndExpiry) {
  // All 26 non-public leaves anchored to public roots are CT-logged; 3 are
  // expired.
  EXPECT_EQ(report_->hybrid.anchored_ct_logged, 26u);
  EXPECT_EQ(report_->hybrid.anchored_expired_leaf, 3u);
  // Government and Corporate rows both present.
  ASSERT_EQ(report_->hybrid.anchored_rows.size(), 2u);
  std::size_t total_chains = 0;
  for (const auto& row : report_->hybrid.anchored_rows) total_chains += row.chains;
  EXPECT_EQ(total_chains, 26u);
}

TEST_F(IntegrationTest, AppendixF2Signatures) {
  EXPECT_EQ(report_->hybrid.fake_le_chains, 14u);
  EXPECT_EQ(report_->hybrid.athenz_chains, 8u);
  EXPECT_EQ(report_->hybrid.leaf_before_path, 18u);
  EXPECT_EQ(report_->hybrid.figure4_columns.size(), 70u);
  EXPECT_EQ(report_->hybrid.mismatch_ratios.size(), 215u);
}

TEST_F(IntegrationTest, EstablishmentRatesOrderAsInPaper) {
  const auto& hybrid = report_->hybrid;
  // complete > contains > no-path (97.69% / 92.04% / ~56%).
  EXPECT_GT(hybrid.usage_complete.establish_rate(),
            hybrid.usage_contains.establish_rate());
  EXPECT_GT(hybrid.usage_contains.establish_rate(),
            hybrid.usage_no_path.establish_rate());
  EXPECT_GT(hybrid.usage_complete.establish_rate(), 0.90);
  EXPECT_LT(hybrid.usage_no_path.establish_rate(), 0.75);
}

TEST_F(IntegrationTest, InterceptionCensusMatchesTable1) {
  const auto rows = report_->interception.category_rows();
  std::map<std::string, std::size_t> issuers;
  for (const auto& row : rows) issuers[row.category] = row.issuers;
  EXPECT_EQ(issuers["Security & Network"], 31u);
  EXPECT_EQ(issuers["Business & Corporate"], 27u);
  EXPECT_EQ(issuers["Health & Education"], 10u);
  EXPECT_EQ(issuers["Government & Public Service"], 6u);
  EXPECT_EQ(issuers["Bank & Finance"], 3u);
  EXPECT_EQ(issuers["Other"], 3u);
  // Security & Network dominates connection volume.
  EXPECT_EQ(rows.front().category, "Security & Network");
}

TEST_F(IntegrationTest, Figure1ShapesHold) {
  const auto& lengths = report_->chain_lengths;
  // Public-only: mode at 2.
  {
    const auto& series = lengths.at(ChainCategory::kPublicDbOnly);
    std::map<std::size_t, std::size_t> histogram;
    for (const std::size_t length : series) ++histogram[length];
    EXPECT_GT(histogram[2], series.size() / 2);
  }
  // Non-public-only: ~80% singletons.
  {
    const auto& series = lengths.at(ChainCategory::kNonPublicDbOnly);
    std::size_t singles = 0;
    for (const std::size_t length : series) singles += (length == 1);
    EXPECT_NEAR(static_cast<double>(singles) / series.size(), 0.78, 0.08);
  }
  // Interception: >80% of chains have exactly 3 certificates.
  {
    const auto& series = lengths.at(ChainCategory::kTlsInterception);
    std::size_t threes = 0;
    for (const std::size_t length : series) threes += (length == 3);
    EXPECT_GT(static_cast<double>(threes) / series.size(), 0.75);
  }
}

TEST_F(IntegrationTest, LengthOutliersExcludedFromFigure1) {
  ASSERT_EQ(report_->excluded_outliers.size(), 3u);
  std::multiset<std::size_t> lengths;
  for (const auto& outlier : report_->excluded_outliers) {
    lengths.insert(outlier.length);
    EXPECT_EQ(outlier.connections, 1u);
    EXPECT_FALSE(outlier.established_any);
    EXPECT_EQ(outlier.category, ChainCategory::kNonPublicDbOnly);
  }
  EXPECT_EQ(lengths, (std::multiset<std::size_t>{41, 921, 3822}));
}

TEST_F(IntegrationTest, NonPublicSingleCertShape) {
  const auto& nonpub = report_->non_public;
  EXPECT_NEAR(nonpub.single_fraction(), 0.781, 0.05);
  EXPECT_NEAR(nonpub.single_self_signed_fraction(), 0.9419, 0.05);
  EXPECT_GT(nonpub.dga_chains, 0u);
  // Most single-cert traffic lacks SNI.
  EXPECT_GT(nonpub.single_no_sni_connections,
            static_cast<std::uint64_t>(0.6 * nonpub.single_connections));
}

TEST_F(IntegrationTest, Table8MatchedPathRates) {
  // At this test's tiny scale the fixed broken-chain minimums weigh more
  // than in the paper (99.76%); the dominant-matched-path shape must hold.
  EXPECT_GT(report_->non_public.is_matched_path_fraction(), 0.90);
  EXPECT_GT(report_->interception_chains.is_matched_path_fraction(), 0.95);
  EXPECT_GT(report_->interception_chains.multi_chains, 0u);
}

TEST_F(IntegrationTest, BasicConstraintsOmissionRates) {
  // Shape: omission is common, and later positions omit at least as often
  // as first positions (55.31% vs 78.32% in the paper). The small multi-cert
  // population at this scale makes the later-position rate noisy, so the
  // exact-percentage band is only checked for the first position.
  EXPECT_NEAR(report_->non_public.bc_omitted_first_fraction(), 0.5531, 0.15);
  EXPECT_GT(report_->non_public.bc_omitted_later_fraction(), 0.40);
  EXPECT_GT(report_->non_public.bc_omitted_later_fraction(),
            report_->non_public.bc_omitted_first_fraction() - 0.05);
}

TEST_F(IntegrationTest, PortDistributionsFollowTable4) {
  // Hybrid: 443 dominates.
  const auto& hybrid_ports = report_->ports_hybrid;
  EXPECT_GT(hybrid_ports.count(443), hybrid_ports.total() * 9 / 10);
  // Interception: non-standard ports dominate.
  const auto& int_ports = report_->interception_chains.ports_multi;
  EXPECT_GT(int_ports.count(8013) + int_ports.count(4437) + int_ports.count(14430),
            int_ports.count(443));
}

TEST_F(IntegrationTest, ComplexPkiStructuresPresent) {
  EXPECT_FALSE(report_->non_public_graph.complex_intermediates().empty());
  EXPECT_FALSE(report_->interception_graph.complex_intermediates().empty());
  EXPECT_GT(report_->hybrid_graph.node_count(), 100u);
}

TEST_F(IntegrationTest, ZeekTextRoundTripMatchesInMemoryRun) {
  // Serialize to Zeek TSV and re-analyze from text: identical report shape.
  zeek::SslLogWriter ssl_writer;
  for (const auto& record : logs_->ssl) ssl_writer.add(record);
  zeek::X509LogWriter x509_writer;
  for (const auto& record : logs_->x509) x509_writer.add(record);

  const core::StudyPipeline pipeline(scenario_->world.stores(),
                                     scenario_->world.ct_logs(),
                                     scenario_->vendors,
                                     &scenario_->world.cross_signs());
  const std::string ssl_text = ssl_writer.finish();
  const std::string x509_text = x509_writer.finish();
  const core::StudyReport from_text =
      pipeline.run(core::StudyInput::text(ssl_text, x509_text));
  EXPECT_EQ(from_text.unique_chains, report_->unique_chains);
  EXPECT_EQ(from_text.hybrid.total(), report_->hybrid.total());
  EXPECT_EQ(from_text.hybrid.no_complete_path, report_->hybrid.no_complete_path);
  EXPECT_EQ(from_text.categories.at(ChainCategory::kTlsInterception).chains,
            report_->categories.at(ChainCategory::kTlsInterception).chains);
  EXPECT_EQ(from_text.totals.connections, report_->totals.connections);
}

TEST_F(IntegrationTest, RevisitReproducesSection5) {
  const scanner::ActiveScanner scanner(scenario_->endpoints);
  const core::RevisitAnalyzer analyzer(scenario_->world.stores(),
                                       &scenario_->world.cross_signs());

  std::vector<const netsim::ServerEndpoint*> hybrid_servers;
  std::vector<const netsim::ServerEndpoint*> nonpub_servers;
  for (const auto& endpoint : scenario_->endpoints) {
    if (endpoint.label.rfind("hybrid/", 0) == 0) hybrid_servers.push_back(&endpoint);
    if (endpoint.label.rfind("nonpub/", 0) == 0) nonpub_servers.push_back(&endpoint);
  }

  const auto hybrid = analyzer.analyze_hybrid(hybrid_servers, scanner);
  EXPECT_EQ(hybrid.previous_servers, 321u);
  EXPECT_EQ(hybrid.reachable, 270u);
  EXPECT_EQ(hybrid.now_all_public, 231u);
  EXPECT_GT(hybrid.now_lets_encrypt, hybrid.now_all_public / 2);  // LE majority
  EXPECT_EQ(hybrid.now_all_non_public, 4u);
  EXPECT_EQ(hybrid.still_hybrid, 35u);
  EXPECT_EQ(hybrid.still_complete_no_extras, 9u);
  EXPECT_EQ(hybrid.still_complete_with_extras, 3u);
  EXPECT_EQ(hybrid.still_no_path, 23u);

  const auto nonpub = analyzer.analyze_non_public(nonpub_servers, scanner, 0, 0);
  EXPECT_GT(nonpub.scannable_servers, 0u);
  // All still non-public; >60% of previously-single servers went multi.
  EXPECT_EQ(nonpub.still_non_public, nonpub.reachable);
  const double multi_share = static_cast<double>(nonpub.now_multi_cert) /
                             static_cast<double>(nonpub.reachable);
  EXPECT_NEAR(multi_share, 0.794, 0.12);
  const double complete_share =
      static_cast<double>(nonpub.now_multi_complete_matched) /
      static_cast<double>(nonpub.now_multi_cert);
  EXPECT_GT(complete_share, 0.90);
}

TEST_F(IntegrationTest, DatagenLabelsAreRecoveredByClassifier) {
  // For each labeled structural intent, the analyzer must classify the
  // delivered chain accordingly.
  const auto& stores = scenario_->world.stores();
  const auto* registry = &scenario_->world.cross_signs();
  for (const auto& endpoint : scenario_->endpoints) {
    if (endpoint.label.rfind("hybrid/complete/nonpub-to-pub", 0) == 0) {
      const auto verdict = chain::classify_hybrid(endpoint.chain, stores, registry);
      EXPECT_EQ(verdict.structure, chain::HybridStructure::kCompleteNonPubToPub)
          << endpoint.domain;
    } else if (endpoint.label.rfind("hybrid/contains/", 0) == 0) {
      const auto verdict = chain::classify_hybrid(endpoint.chain, stores, registry);
      EXPECT_EQ(verdict.structure, chain::HybridStructure::kContainsCompletePath)
          << endpoint.label << " " << endpoint.domain;
    } else if (endpoint.label == "public/cross-signed") {
      // The cross-sign registry rescues the textual mismatch.
      const auto without = chain::match_chain(endpoint.chain, nullptr);
      const auto with = chain::match_chain(endpoint.chain, registry);
      EXPECT_FALSE(without.all_matched());
      EXPECT_TRUE(with.all_matched());
    }
  }
}

TEST(ScenarioConfig, ChainScaleMustBeFiniteAndPositive) {
  // A scale that is not finite and > 0 once wrapped every scaled population
  // to ~2^63 endpoints and allocated without bound.
  datagen::ScenarioConfig config;
  config.include_length_outliers = false;
  for (const double scale : {-1.0, 0.0, std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN()}) {
    config.chain_scale = scale;
    EXPECT_THROW(datagen::build_study_scenario(config), std::invalid_argument)
        << "chain_scale=" << scale;
  }
  config.chain_scale = 1.0 / 200.0;
  // An empty client pool once divided by zero assigning interception
  // clients.
  config.client_count = 0;
  EXPECT_THROW(datagen::build_study_scenario(config), std::invalid_argument)
      << "client_count=0";
  config.client_count = 5000;
  const auto scenario = datagen::build_study_scenario(config);
  EXPECT_FALSE(scenario->endpoints.empty());
}

}  // namespace
}  // namespace certchain
