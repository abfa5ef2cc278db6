// Core analyzers: corpus indexing, interception detection, hybrid and
// non-public analysis, and the PKI relationship graph.
#include <gtest/gtest.h>

#include <memory>

#include "../tests/helpers.hpp"
#include "core/corpus.hpp"
#include "core/hybrid_analysis.hpp"
#include "core/interception.hpp"
#include "core/nonpublic_analysis.hpp"
#include "core/pipeline.hpp"
#include "core/pki_graph.hpp"
#include "core/report_text.hpp"
#include "netsim/pki_world.hpp"
#include "obs/json.hpp"
#include "par/thread_pool.hpp"
#include "util/hash.hpp"
#include "util/strings.hpp"
#include "zeek/log_io.hpp"

namespace certchain::core {
namespace {

using certchain::testing::TestPki;
using certchain::testing::dn;
using certchain::testing::make_chain;
using certchain::testing::self_signed;
using certchain::testing::test_validity;

zeek::JoinedConnection make_connection(const chain::CertificateChain& chain,
                                       const std::string& client,
                                       const std::string& server, std::uint16_t port,
                                       bool established, const std::string& sni,
                                       util::SimTime ts = 1000) {
  zeek::JoinedConnection connection;
  connection.ssl.ts = ts;
  connection.ssl.uid = util::zeek_style_conn_uid(ts, 1);
  connection.ssl.id_orig_h = client;
  connection.ssl.id_resp_h = server;
  connection.ssl.id_resp_p = port;
  connection.ssl.version = "TLSv12";
  connection.ssl.established = established;
  connection.ssl.server_name = sni;
  connection.chain = chain;
  return connection;
}

// --- corpus -----------------------------------------------------------------

TEST(CorpusIndex, DeduplicatesChainsAndAggregatesUsage) {
  TestPki pki;
  const auto chain = pki.chain_for("corpus.example");
  CorpusIndex corpus;
  corpus.add(make_connection(chain, "10.0.0.1", "198.51.100.1", 443, true,
                             "corpus.example", 100));
  corpus.add(make_connection(chain, "10.0.0.2", "198.51.100.1", 443, false, "", 200));
  corpus.add(make_connection(chain, "10.0.0.1", "198.51.100.2", 8443, true,
                             "corpus.example", 300));

  ASSERT_EQ(corpus.unique_chain_count(), 1u);
  const ChainObservation& observation = corpus.chains().begin()->second;
  EXPECT_EQ(observation.connections, 3u);
  EXPECT_EQ(observation.established, 2u);
  EXPECT_EQ(observation.client_ips.size(), 2u);
  EXPECT_EQ(observation.server_keys.size(), 2u);
  EXPECT_EQ(observation.ports.count(443), 2u);
  EXPECT_EQ(observation.with_sni, 2u);
  EXPECT_EQ(observation.without_sni, 1u);
  EXPECT_EQ(observation.first_seen, 100);
  EXPECT_EQ(observation.last_seen, 300);
  EXPECT_NEAR(observation.establish_rate(), 2.0 / 3.0, 1e-12);
}

TEST(CorpusIndex, TotalsTrackCertlessConnections) {
  TestPki pki;
  CorpusIndex corpus;
  zeek::JoinedConnection tls13;
  tls13.ssl.version = "TLSv13";
  corpus.add(tls13);
  corpus.add(make_connection(pki.chain_for("t.example"), "10.0.0.1", "s", 443, true,
                             "t.example"));
  zeek::JoinedConnection incomplete =
      make_connection(pki.chain_for("u.example"), "10.0.0.1", "s", 443, true,
                      "u.example");
  incomplete.missing_fuids.push_back("Fgone");
  corpus.add(incomplete);

  EXPECT_EQ(corpus.totals().connections, 3u);
  EXPECT_EQ(corpus.totals().with_certificates, 2u);
  EXPECT_EQ(corpus.totals().tls13_connections, 1u);
  EXPECT_EQ(corpus.totals().incomplete_joins, 1u);
  // Two chains share the issuing intermediate: 2 leaves + 1 intermediate.
  EXPECT_EQ(corpus.totals().distinct_certificates, 3u);
}

std::string snapshot_of(const CorpusIndex& corpus) {
  obs::json::Writer writer;
  corpus.write_snapshot(writer);
  return std::move(writer).str();
}

TEST(CorpusIndex, SnapshotWritesClientAddressesInLexicographicOrder) {
  TestPki pki;
  const auto chain = pki.chain_for("order.example");
  CorpusIndex corpus;
  // First-seen order (and so id order) is the reverse of string order.
  corpus.add(make_connection(chain, "10.0.0.9", "198.51.100.1", 443, true, ""));
  corpus.add(make_connection(chain, "10.0.0.10", "198.51.100.1", 443, true, ""));
  const std::string snapshot = snapshot_of(corpus);
  EXPECT_NE(snapshot.find(R"("client_ips":["10.0.0.10","10.0.0.9"])"),
            std::string::npos)
      << snapshot;
}

TEST(CorpusIndex, SnapshotLiteralRestoresAndWritesBackByteIdentically) {
  TestPki pki;
  const auto chain = pki.chain_for("literal.example");
  zeek::CertificateIndex by_fingerprint;
  std::set<std::string> sorted_fingerprints;
  std::string chain_fingerprints;
  for (const x509::Certificate& cert : chain) {
    by_fingerprint.emplace(cert.fingerprint(),
                           std::make_shared<const x509::Certificate>(cert));
    sorted_fingerprints.insert(cert.fingerprint());
    if (!chain_fingerprints.empty()) chain_fingerprints += ",";
    chain_fingerprints += "\"" + cert.fingerprint() + "\"";
  }
  std::string certificates;
  for (const std::string& fingerprint : sorted_fingerprints) {
    if (!certificates.empty()) certificates += ",";
    certificates += "\"" + fingerprint + "\"";
  }
  // The snapshot format, with this chain's digests spliced in.
  std::string literal =
      R"({"totals":{"connections":4,"with_certificates":3,"tls13_connections":1,)"
      R"("incomplete_joins":0},"certificates":[CERTS],"chains":[{"id":"ID",)"
      R"("fingerprints":[FPS],"connections":3,"established":2,)"
      R"("client_ips":["10.0.0.10","10.0.0.9","2001:db8::7"],)"
      R"("server_keys":["198.51.100.1:443","198.51.100.2:8443"],)"
      R"("ports":[[443,2],[8443,1]],"with_sni":2,"without_sni":1,)"
      R"("domains":["literal.example"],"first_seen":100,"last_seen":300}]})";
  literal = util::replace_all(literal, "CERTS", certificates);
  literal = util::replace_all(literal, "FPS", chain_fingerprints);
  literal = util::replace_all(literal, "ID", chain.id());

  const std::optional<obs::json::Value> value = obs::json::parse(literal);
  ASSERT_TRUE(value.has_value());
  CorpusIndex corpus;
  std::string error;
  ASSERT_TRUE(corpus.restore_snapshot(*value, by_fingerprint, &error)) << error;
  EXPECT_EQ(snapshot_of(corpus), literal);
  EXPECT_EQ(corpus.chains().begin()->second.client_ips.size(), 3u);

  // A chain listed twice is malformed, not merged or dropped.
  const std::size_t chains_at = literal.find(R"("chains":[)") + 10;
  const std::string entry =
      literal.substr(chains_at, literal.size() - 2 - chains_at);
  std::string repeated = literal;
  repeated.insert(chains_at, entry + ",");
  const std::optional<obs::json::Value> twice = obs::json::parse(repeated);
  ASSERT_TRUE(twice.has_value());
  EXPECT_FALSE(corpus.restore_snapshot(*twice, by_fingerprint, &error));
  EXPECT_NE(error.find("repeats chain"), std::string::npos) << error;
  EXPECT_EQ(corpus.unique_chain_count(), 0u);

  // A number its field cannot hold is malformed, never truncated: a
  // fraction, a negative, one past 2^53, a port past 65535.
  const auto damaged = [&literal](const std::string& from, const std::string& to) {
    std::string text = literal;
    text.replace(text.find(from), from.size(), to);
    return text;
  };
  for (const auto& [from, to] : std::vector<std::pair<std::string, std::string>>{
           {R"("with_certificates":3)", R"("with_certificates":1.5)"},
           {R"("connections":4)", R"("connections":-4)"},
           {R"("established":2)", R"("established":9007199254740994)"},
           {R"("first_seen":100)", R"("first_seen":1e300)"},
           {"[443,2]", "[70000,2]"},
           {"[443,2]", "[443.5,2]"},
           {"[8443,1]", "[8443,0.5]"}}) {
    const std::optional<obs::json::Value> bad = obs::json::parse(damaged(from, to));
    ASSERT_TRUE(bad.has_value()) << to;
    EXPECT_FALSE(corpus.restore_snapshot(*bad, by_fingerprint, &error)) << to;
    EXPECT_NE(error.find("malformed"), std::string::npos) << to << ": " << error;
    EXPECT_EQ(corpus.unique_chain_count(), 0u);
  }
  // Out-of-range and ungrammatical numbers never parse at all.
  for (const std::string to : {R"("connections":1e999)", R"("connections":4-1)",
                               R"("connections":04)"}) {
    EXPECT_FALSE(obs::json::parse(damaged(R"("connections":4)", to)).has_value())
        << to;
  }
}

TEST(CorpusIndex, CopiesAnalyzeLikeTheSourceAndKeepFolding) {
  TestPki pki;
  const truststore::TrustStoreSet stores = pki.trusted_stores();
  const ct::CtLogSet ct_logs{2};
  const VendorDirectory vendors;
  const StudyPipeline pipeline(stores, ct_logs, vendors, nullptr);
  DnPool pool;
  zeek::LogJoiner joiner;
  joiner.set_dn_pool(&pool);

  // Both chains land in one category, so its distinct-client count spans
  // the two chains' client lists.
  const auto chain_a = pki.chain_for("a.example");
  const auto chain_b = pki.chain_for("b.example");
  const auto row = [&joiner](const chain::CertificateChain& chain,
                             const std::string& client) {
    zeek::SslLogRecord ssl =
        make_connection(chain, client, "198.51.100.1", 443, true, "").ssl;
    for (const x509::Certificate& cert : chain) {
      const std::string fuid = util::zeek_style_fuid(cert.fingerprint());
      joiner.add(zeek::record_from_certificate(cert, 1000, fuid));
      ssl.cert_chain_fuids.push_back(fuid);
    }
    return ssl;
  };
  const auto analyzed = [&](const CorpusIndex& corpus) {
    ReportTextOptions options;
    options.graphs = true;
    return render_report_text(pipeline.analyze(corpus, nullptr, &pool),
                              options) +
           snapshot_of(corpus);
  };

  CorpusIndex source;
  source.add(joiner, row(chain_a, "10.0.0.1"));
  source.add(joiner, row(chain_b, "10.0.0.2"));
  source.add(joiner, row(chain_a, "10.0.0.3"));
  CorpusIndex copy(source);
  CorpusIndex assigned;
  assigned.add(joiner, row(chain_b, "192.0.2.77"));
  assigned = source;
  EXPECT_EQ(analyzed(copy), analyzed(source));
  EXPECT_EQ(analyzed(assigned), analyzed(source));

  // A known client and a new one, folded into all three alike.
  for (CorpusIndex* corpus : {&source, &copy, &assigned}) {
    corpus->add(joiner, row(chain_b, "10.0.0.1"));
    corpus->add(joiner, row(chain_a, "10.0.0.4"));
  }
  const StudyReport report = pipeline.analyze(source, nullptr, &pool);
  EXPECT_EQ(report.categories.at(chain::ChainCategory::kPublicDbOnly).client_ips,
            4u);
  EXPECT_EQ(analyzed(copy), analyzed(source));
  EXPECT_EQ(analyzed(assigned), analyzed(source));
}

TEST(CorpusIndex, FuidsHoldingNulFoldLikeTheJoin) {
  // A raw NUL byte or a `\x00` escape puts a NUL inside one fuid. Every fold
  // looks that fuid up whole, as the join does: "Fa\0Fb" is one unknown
  // fuid, not the two known fuids "Fa" and "Fb".
  TestPki pki;
  const auto chain = pki.chain_for("nul.example");
  const std::vector<x509::Certificate> certs(chain.begin(), chain.end());
  ASSERT_EQ(certs.size(), 2u);
  const std::string split("Fa\0Fb", 5);
  const std::string whole("Fc\0x", 4);
  zeek::LogJoiner joiner;
  joiner.add(zeek::record_from_certificate(certs[0], 1000, "Fa"));
  joiner.add(zeek::record_from_certificate(certs[1], 1000, "Fb"));
  joiner.add(zeek::record_from_certificate(certs[0], 1000, whole));

  std::vector<zeek::SslLogRecord> rows;
  for (const std::vector<std::string>& fuids :
       {std::vector<std::string>{split}, std::vector<std::string>{whole, "Fb"}}) {
    zeek::SslLogRecord ssl =
        make_connection(chain, "10.0.0.1", "198.51.100.1", 443, true, "").ssl;
    ssl.cert_chain_fuids = fuids;
    rows.push_back(std::move(ssl));
  }

  CorpusIndex via_join;
  CorpusIndex via_record;
  CorpusIndex via_raw_view;
  CorpusIndex via_escaped_view;
  for (const zeek::SslLogRecord& ssl : rows) {
    via_join.add(joiner.join(ssl));
    via_record.add(joiner, ssl);
    const std::string raw = zeek::render_ssl_row(ssl);
    ASSERT_NE(raw.find('\0'), std::string::npos);
    const std::string escaped = util::replace_all(raw, std::string(1, '\0'), "\\x00");
    for (const auto& [line, corpus] :
         {std::pair{raw, &via_raw_view}, std::pair{escaped, &via_escaped_view}}) {
      const std::optional<zeek::SslRowView> view = zeek::parse_ssl_row_view(line);
      ASSERT_TRUE(view.has_value());
      corpus->add(joiner, *view);
    }
  }

  EXPECT_EQ(via_join.totals().incomplete_joins, 1u);
  EXPECT_EQ(via_join.totals().with_certificates, 1u);
  const std::string reference = snapshot_of(via_join);
  EXPECT_EQ(snapshot_of(via_record), reference);
  EXPECT_EQ(snapshot_of(via_raw_view), reference);
  EXPECT_EQ(snapshot_of(via_escaped_view), reference);
}

// --- interception detector -----------------------------------------------------

class InterceptionTest : public ::testing::Test {
 protected:
  InterceptionTest() {
    genuine_leaf_ = pki_.leaf("victim.example");
    ct_logs_.log(0).submit(genuine_leaf_, 1);
    // Middlebox CA forging victim.example.
    x509::DistinguishedName forged_subject;
    forged_subject.add("CN", "victim.example");
    forged_leaf_ = middlebox_.issue_leaf(forged_subject, "victim.example",
                                         test_validity());
    directory_[middlebox_.name().canonical()] =
        VendorInfo{"Sim MBox", "Security & Network"};
  }

  TestPki pki_;
  truststore::TrustStoreSet stores_ = pki_.trusted_stores();
  ct::CtLogSet ct_logs_{2};
  x509::CertificateAuthority middlebox_{dn("CN=MBox SSL Inspection CA,O=MBox"),
                                        "mbox"};
  x509::Certificate genuine_leaf_;
  x509::Certificate forged_leaf_;
  VendorDirectory directory_;
};

TEST_F(InterceptionTest, DetectsForgedChainViaCtMismatch) {
  const InterceptionDetector detector(stores_, ct_logs_, directory_);
  const auto forged_chain = make_chain({forged_leaf_});
  EXPECT_TRUE(detector.is_interception_candidate(forged_chain, "victim.example"));

  CorpusIndex corpus;
  corpus.add(make_connection(forged_chain, "10.0.0.5", "s", 8013, true,
                             "victim.example"));
  const InterceptionReport report = detector.detect(corpus);
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].vendor.vendor, "Sim MBox");
  EXPECT_EQ(report.findings[0].connections, 1u);
  EXPECT_TRUE(report.issuer_set().contains(middlebox_.name().canonical()));
}


TEST_F(InterceptionTest, PooledDetectionMatchesSerial) {
  // Enough chains that each of four workers folds a range: two confirmed
  // issuers of one vendor, an unconfirmed issuer and public traffic, with
  // clients shared across chains so the range merge must sum counts and
  // deduplicate client ids.
  x509::CertificateAuthority second_ca(dn("CN=MBox Regional CA,O=MBox"), "mbox2");
  directory_[second_ca.name().canonical()] =
      VendorInfo{"Sim MBox", "Security & Network"};
  x509::CertificateAuthority unknown(dn("CN=Mystery CA"), "mystery");
  x509::CertificateAuthority* const forgers[] = {&middlebox_, &second_ca, &unknown};
  x509::DistinguishedName subject;
  subject.add("CN", "victim.example");

  CorpusIndex corpus;
  for (int i = 0; i < 24; ++i) {
    const std::string client = "10.0.0." + std::to_string(i % 5);
    const auto forged = make_chain(
        {forgers[i % 3]->issue_leaf(subject, "victim.example", test_validity())});
    corpus.add(make_connection(forged, client, "s", 8013, true, "victim.example"));
    if (i % 2 == 1) {
      corpus.add(make_connection(forged, "10.0.0." + std::to_string((i + 1) % 5),
                                 "s", 8013, true, "victim.example"));
    }
    corpus.add(make_connection(pki_.chain_for("clean" + std::to_string(i) + ".example"),
                               client, "t", 443, true, "clean.example"));
  }
  ASSERT_EQ(corpus.unique_chain_count(), 48u);

  const InterceptionDetector detector(stores_, ct_logs_, directory_);
  const InterceptionReport serial = detector.detect(corpus);
  par::ThreadPool pool(4);
  const InterceptionReport pooled = detector.detect(corpus, &pool);

  ASSERT_EQ(serial.findings.size(), 2u);
  EXPECT_EQ(serial.findings[0].client_ips.size(), 5u);
  EXPECT_EQ(serial.unconfirmed_candidates.size(), 1u);
  ASSERT_EQ(pooled.findings.size(), serial.findings.size());
  for (std::size_t i = 0; i < serial.findings.size(); ++i) {
    const InterceptionFinding& want = serial.findings[i];
    const InterceptionFinding& got = pooled.findings[i];
    EXPECT_EQ(got.issuer_canonical, want.issuer_canonical);
    EXPECT_EQ(got.issuer_display, want.issuer_display);
    EXPECT_EQ(got.vendor.vendor, want.vendor.vendor);
    EXPECT_EQ(got.vendor.category, want.vendor.category);
    EXPECT_EQ(got.connections, want.connections);
    EXPECT_EQ(got.client_ips, want.client_ips);
  }
  EXPECT_EQ(pooled.unconfirmed_candidates, serial.unconfirmed_candidates);
  EXPECT_EQ(pooled.total_connections, serial.total_connections);
  EXPECT_EQ(pooled.vendor_issuer_dns, serial.vendor_issuer_dns);
}

TEST_F(InterceptionTest, GenuineChainIsNotFlagged) {
  const InterceptionDetector detector(stores_, ct_logs_, directory_);
  // Leaf issuer is public -> step 1 filters it out.
  EXPECT_FALSE(detector.is_interception_candidate(make_chain({genuine_leaf_}),
                                                  "victim.example"));
}

TEST_F(InterceptionTest, NoCtRecordIsInconclusive) {
  // A non-public issuer for a domain CT has never seen: possible genuine
  // private deployment, NOT flagged (Appendix B).
  const InterceptionDetector detector(stores_, ct_logs_, directory_);
  x509::DistinguishedName subject;
  subject.add("CN", "intranet.example");
  const auto chain = make_chain(
      {middlebox_.issue_leaf(subject, "intranet.example", test_validity())});
  EXPECT_FALSE(detector.is_interception_candidate(chain, "intranet.example"));
}

TEST_F(InterceptionTest, MatchingCtIssuerIsNotFlagged) {
  // Non-public leaf whose issuer IS what CT recorded (the Table 6 pattern):
  // no mismatch, no flag.
  x509::CertificateAuthority agency(dn("CN=Agency CA,O=Agency"), "agency2");
  x509::DistinguishedName subject;
  subject.add("CN", "portal.example");
  const x509::Certificate leaf =
      agency.issue_leaf(subject, "portal.example", test_validity());
  ct_logs_.log(0).submit(leaf, 5);
  const InterceptionDetector detector(stores_, ct_logs_, directory_);
  EXPECT_FALSE(
      detector.is_interception_candidate(make_chain({leaf}), "portal.example"));
}

TEST_F(InterceptionTest, UnconfirmedCandidatesAreTrackedSeparately) {
  // CT mismatch but no directory entry: remains unconfirmed.
  x509::CertificateAuthority unknown(dn("CN=Mystery CA"), "mystery");
  x509::DistinguishedName subject;
  subject.add("CN", "victim.example");
  const auto chain = make_chain(
      {unknown.issue_leaf(subject, "victim.example", test_validity())});
  CorpusIndex corpus;
  corpus.add(make_connection(chain, "10.0.0.6", "s", 443, true, "victim.example"));
  const InterceptionDetector detector(stores_, ct_logs_, directory_);
  const InterceptionReport report = detector.detect(corpus);
  EXPECT_TRUE(report.findings.empty());
  EXPECT_EQ(report.unconfirmed_candidates.size(), 1u);
  EXPECT_FALSE(report.issuer_set().contains(unknown.name().canonical()));
}

TEST_F(InterceptionTest, VendorExpansionPullsInRootDns) {
  // Once the inspection CA is confirmed, the vendor's root DN (also in the
  // directory) joins the issuer set — attributing single-root chains.
  const auto root_dn = dn("CN=MBox Root CA,O=MBox");
  directory_[root_dn.canonical()] = VendorInfo{"Sim MBox", "Security & Network"};
  CorpusIndex corpus;
  corpus.add(make_connection(make_chain({forged_leaf_}), "10.0.0.5", "s", 8013, true,
                             "victim.example"));
  const InterceptionDetector detector(stores_, ct_logs_, directory_);
  const InterceptionReport report = detector.detect(corpus);
  EXPECT_TRUE(report.issuer_set().contains(root_dn.canonical()));
}

TEST_F(InterceptionTest, CategoryRowsAggregateByVendor) {
  // Two distinct issuer DNs of the same vendor count as one Table 1 issuer.
  x509::CertificateAuthority second_ca(dn("CN=MBox Regional CA,O=MBox"), "mbox2");
  directory_[second_ca.name().canonical()] =
      VendorInfo{"Sim MBox", "Security & Network"};
  x509::DistinguishedName subject;
  subject.add("CN", "victim.example");
  const auto second_chain = make_chain(
      {second_ca.issue_leaf(subject, "victim.example", test_validity())});

  CorpusIndex corpus;
  corpus.add(make_connection(make_chain({forged_leaf_}), "10.0.0.5", "s1", 8013,
                             true, "victim.example"));
  corpus.add(make_connection(second_chain, "10.0.0.6", "s2", 4437, true,
                             "victim.example"));
  const InterceptionDetector detector(stores_, ct_logs_, directory_);
  const auto rows = detector.detect(corpus).category_rows();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].category, "Security & Network");
  EXPECT_EQ(rows[0].issuers, 1u);  // one vendor
  EXPECT_EQ(rows[0].connections, 2u);
  EXPECT_EQ(rows[0].client_ips, 2u);
}

// --- hybrid analyzer -------------------------------------------------------------

TEST(HybridAnalyzer, Figure4ColumnLabels) {
  TestPki pki;
  const auto stores = pki.trusted_stores();
  ct::CtLogSet ct_logs(2);
  const DnPool dn_pool;
  const HybridAnalyzer analyzer(stores, ct_logs, dn_pool);

  // [pub leaf, pub int, pub root, enterprise self-signed]: a public complete
  // run plus a non-public single.
  auto chain = pki.chain_for("fig4.example", true);
  chain.push_back(self_signed("athenz-like"));
  ChainObservation observation;
  observation.chain = chain;
  const auto cls = chain::classify_hybrid(chain, stores);
  truststore::IssuerClassifier classifier(stores, dn_pool);
  const StructureColumn column =
      analyzer.build_structure_column(observation, cls, classifier);
  ASSERT_EQ(column.cells.size(), 4u);
  EXPECT_EQ(structure_cell_code(column.cells[0]), "Pub.Complete");
  EXPECT_EQ(structure_cell_code(column.cells[1]), "Pub.Complete");
  EXPECT_EQ(structure_cell_code(column.cells[2]), "Pub.Complete");
  // The lone self-signed extra is its own single-cert run.
  EXPECT_EQ(structure_cell_code(column.cells[3]), "Non-Pub.Single");
}

TEST(HybridAnalyzer, AnchoredRowsAndCtCompliance) {
  TestPki pki;
  const auto stores = pki.trusted_stores();
  ct::CtLogSet ct_logs(2);

  x509::CertificateAuthority gov_ca(
      dn("CN=Agency CA B3,O=Department of Examples Government"), "gov");
  const x509::Certificate gov_cert =
      pki.root_ca.issue_intermediate(gov_ca, test_validity());
  x509::DistinguishedName subject;
  subject.add("CN", "portal.gov.example");
  x509::Certificate leaf =
      gov_ca.issue_leaf(subject, "portal.gov.example", test_validity());
  leaf = ct_logs.submit_and_embed(leaf, 10, 2);

  ChainObservation observation;
  observation.chain = make_chain({leaf, gov_cert, pki.root_cert});
  observation.connections = 10;
  observation.established = 10;
  observation.last_seen = util::make_time(2021, 1, 1);

  const DnPool dn_pool;
  const HybridAnalyzer analyzer(stores, ct_logs, dn_pool);
  const HybridReport report = analyzer.analyze({&observation});
  EXPECT_EQ(report.complete_nonpub_to_pub, 1u);
  EXPECT_EQ(report.anchored_ct_logged, 1u);
  EXPECT_EQ(report.anchored_expired_leaf, 0u);
  ASSERT_EQ(report.anchored_rows.size(), 1u);
  EXPECT_EQ(report.anchored_rows[0].sector, "Government");
}

TEST(HybridAnalyzer, FakeLeSignatureDetected) {
  TestPki pki;
  const auto stores = pki.trusted_stores();
  ct::CtLogSet ct_logs(2);

  x509::CertificateAuthority fake_root(dn("CN=Fake LE Root X1"), "fake-root");
  x509::CertificateAuthority fake_int(dn("CN=Fake LE Intermediate X1"), "fake-int");
  const x509::Certificate fake_cert =
      fake_root.issue_intermediate(fake_int, test_validity());

  ChainObservation observation;
  auto chain = pki.chain_for("fake.example", true);
  chain.push_back(fake_cert);
  observation.chain = chain;
  observation.connections = 5;
  observation.established = 4;

  const DnPool dn_pool;
  const HybridAnalyzer analyzer(stores, ct_logs, dn_pool);
  const HybridReport report = analyzer.analyze({&observation});
  EXPECT_EQ(report.contains_complete_path, 1u);
  EXPECT_EQ(report.fake_le_chains, 1u);
  EXPECT_EQ(report.figure4_columns.size(), 1u);
  EXPECT_NEAR(report.usage_contains.establish_rate(), 0.8, 1e-12);
}

// --- non-public analyzer ----------------------------------------------------------

TEST(NonPublicAnalyzer, SinglesSelfSignedAndDga) {
  netsim::PkiWorld world;
  util::Rng rng(3);

  ChainObservation localhost_obs;
  localhost_obs.chain = make_chain({world.make_localhost_certificate("np")});
  localhost_obs.connections = 10;
  localhost_obs.without_sni = 9;
  localhost_obs.with_sni = 1;
  localhost_obs.client_ips = {1, 2};
  localhost_obs.ports.add(8888, 10);

  ChainObservation dga_obs;
  dga_obs.chain = make_chain({world.make_dga_certificate(rng)});
  dga_obs.connections = 4;
  dga_obs.client_ips = {3};
  dga_obs.ports.add(33854, 4);

  ChainObservation multi_obs;
  auto& hierarchy = world.make_enterprise_ca("NP Org", true);
  x509::DistinguishedName subject;
  subject.add("CN", "svc.np.example");
  multi_obs.chain = make_chain(
      {hierarchy.intermediate_ca->issue_leaf_no_bc(subject, "svc.np.example",
                                                   test_validity()),
       *hierarchy.intermediate_cert, hierarchy.root_cert});
  multi_obs.connections = 6;
  multi_obs.ports.add(443, 6);

  const NonPublicAnalyzer analyzer;
  const NonPublicReport report = analyzer.analyze(
      "Non-public-DB-only", {&localhost_obs, &dga_obs, &multi_obs});

  EXPECT_EQ(report.chains, 3u);
  EXPECT_EQ(report.single_chains, 2u);
  EXPECT_EQ(report.single_self_signed, 1u);
  EXPECT_EQ(report.dga_chains, 1u);
  EXPECT_EQ(report.dga_connections, 4u);
  EXPECT_EQ(report.multi_chains, 1u);
  EXPECT_EQ(report.is_matched_path, 1u);
  EXPECT_EQ(report.single_no_sni_connections, 9u);
  EXPECT_EQ(report.ports_single.count(8888), 10u);
  EXPECT_EQ(report.ports_multi.count(443), 6u);
  // basicConstraints: leaf omitted; intermediate+root present.
  EXPECT_EQ(report.first_position_certs, 1u);
  EXPECT_EQ(report.first_position_bc_omitted, 1u);
  EXPECT_EQ(report.later_position_certs, 2u);
  EXPECT_EQ(report.later_position_bc_omitted, 0u);
}

TEST(NonPublicAnalyzer, DgaPatternRecognizer) {
  EXPECT_TRUE(looks_like_dga_name("wwwabcdefghijcom"));
  EXPECT_FALSE(looks_like_dga_name("www.example.com"));  // dots disqualify
  EXPECT_FALSE(looks_like_dga_name("wwwshortcom"));      // too short
  EXPECT_FALSE(looks_like_dga_name("abcdefghijklmnop"));  // no www prefix
  EXPECT_FALSE(looks_like_dga_name("wwwabc123defgcom"));  // digits disqualify

  // Self-signed www...com certs are NOT the DGA cluster (fields must differ).
  x509::Certificate cert = self_signed("wwwabcdefghijcom");
  EXPECT_FALSE(is_dga_certificate(cert));
}

TEST(NonPublicAnalyzer, Table8Buckets) {
  TestPki pki;  // acts as a "private" hierarchy: no stores involved here
  ChainObservation matched;
  matched.chain = pki.chain_for("m.example", true);
  ChainObservation contains;
  auto contains_chain = pki.chain_for("c.example");
  contains_chain.push_back(self_signed("extra"));
  contains.chain = contains_chain;
  ChainObservation broken;
  broken.chain = make_chain({self_signed("x"), self_signed("y")});

  const NonPublicAnalyzer analyzer;
  const NonPublicReport report =
      analyzer.analyze("t8", {&matched, &contains, &broken});
  EXPECT_EQ(report.multi_chains, 3u);
  EXPECT_EQ(report.is_matched_path, 1u);
  EXPECT_EQ(report.contains_matched_path, 1u);
  EXPECT_EQ(report.no_matched_path, 1u);
}

// --- PKI graph --------------------------------------------------------------------

TEST(PkiGraph, RolesEdgesAndComponents) {
  TestPki pki;
  const auto stores = pki.trusted_stores();

  ChainObservation a;
  a.chain = pki.chain_for("g1.example", true);
  ChainObservation b;
  b.chain = pki.chain_for("g2.example", true);
  ChainObservation lone;
  lone.chain = make_chain({self_signed("lonely"), self_signed("lonelier")});

  const PkiGraph graph = build_pki_graph({&a, &b, &lone}, stores, DnPool());
  // Nodes: 2 leaves + shared int + shared root + 2 lonely = 6.
  EXPECT_EQ(graph.node_count(), 6u);
  // Two components: the pki cluster and the lonely pair.
  EXPECT_EQ(graph.connected_components(), 2u);

  const auto breakdown = graph.node_breakdown();
  using Key = std::pair<CertRole, truststore::IssuerClass>;
  EXPECT_EQ(breakdown.at(Key{CertRole::kLeaf, truststore::IssuerClass::kPublicDb}), 2u);
  EXPECT_EQ(
      breakdown.at(Key{CertRole::kIntermediate, truststore::IssuerClass::kPublicDb}),
      1u);
  EXPECT_EQ(breakdown.at(Key{CertRole::kRoot, truststore::IssuerClass::kPublicDb}), 1u);

  // Issuance links: leaf->int (x2 distinct leaves), int->root; the lonely
  // pair's adjacent pair mismatches, so no link.
  EXPECT_EQ(graph.issuance_links().size(), 3u);
}

TEST(PkiGraph, ComplexIntermediates) {
  // Hub intermediate issued by a root; three spokes issued by the hub; chains
  // [leaf, spoke_k, hub, root] make the hub adjacent to 3 intermediates.
  using x509::CertificateAuthority;
  CertificateAuthority root(dn("CN=CRoot"), "croot");
  const x509::Certificate root_cert = root.make_root(test_validity());
  CertificateAuthority hub(dn("CN=CHub"), "chub");
  const x509::Certificate hub_cert = root.issue_intermediate(hub, test_validity());

  std::vector<ChainObservation> observations;
  for (int k = 0; k < 3; ++k) {
    CertificateAuthority spoke(dn("CN=CSpoke" + std::to_string(k)),
                               "cspoke" + std::to_string(k));
    const x509::Certificate spoke_cert = hub.issue_intermediate(spoke, test_validity());
    x509::DistinguishedName subject;
    subject.add("CN", "deep" + std::to_string(k) + ".example");
    ChainObservation observation;
    observation.chain = make_chain(
        {spoke.issue_leaf(subject, "deep" + std::to_string(k) + ".example",
                          test_validity()),
         spoke_cert, hub_cert, root_cert});
    observations.push_back(std::move(observation));
  }
  std::vector<const ChainObservation*> pointers;
  for (const auto& observation : observations) pointers.push_back(&observation);

  const truststore::TrustStoreSet empty_stores;
  const PkiGraph graph = build_pki_graph(pointers, empty_stores, DnPool());
  const auto complex = graph.complex_intermediates(3);
  ASSERT_EQ(complex.size(), 1u);
  EXPECT_EQ(graph.nodes()[complex[0]].subject, "CN=CHub");
  EXPECT_TRUE(graph.complex_intermediates(4).empty());
}

TEST(PkiGraph, ChainCountsAndCoOccurrence) {
  TestPki pki;
  const auto stores = pki.trusted_stores();
  ChainObservation a;
  a.chain = pki.chain_for("cc.example");
  const PkiGraph graph = build_pki_graph({&a}, stores, DnPool());
  ASSERT_EQ(graph.node_count(), 2u);
  EXPECT_EQ(graph.nodes()[0].chain_count, 1u);
  EXPECT_EQ(graph.co_occurrence_edges().size(), 1u);
}

}  // namespace
}  // namespace certchain::core
