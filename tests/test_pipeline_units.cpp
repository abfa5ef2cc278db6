// StudyPipeline unit tests on tiny hand-crafted inputs (the full-corpus
// behaviour is covered by test_integration.cpp).
#include <gtest/gtest.h>

#include <cstdio>
#include <utility>

#include "../tests/helpers.hpp"
#include "core/pipeline.hpp"
#include "core/report_text.hpp"
#include "obs/json.hpp"
#include "obs/manifest.hpp"
#include "obs/run_context.hpp"
#include "util/hash.hpp"
#include "zeek/joiner.hpp"
#include "zeek/log_io.hpp"

namespace certchain::core {
namespace {

using certchain::testing::TestPki;
using certchain::testing::make_chain;
using certchain::testing::self_signed;

class PipelineUnitTest : public ::testing::Test {
 protected:
  PipelineUnitTest()
      : stores_(pki_.trusted_stores()),
        pipeline_(stores_, ct_logs_, vendors_, nullptr) {}

  /// Appends one connection delivering `chain` to the log pair.
  void add_connection(const chain::CertificateChain& chain, bool established,
                      const std::string& sni, std::uint16_t port = 443) {
    zeek::SslLogRecord ssl;
    ssl.ts = util::make_time(2021, 1, 1) + static_cast<util::SimTime>(ssl_.size());
    ssl.uid = util::zeek_style_conn_uid(ssl_.size(), 9);
    ssl.id_orig_h = "10.0.0." + std::to_string(ssl_.size() % 250);
    ssl.id_resp_h = "198.51.100.9";
    ssl.id_resp_p = port;
    ssl.version = "TLSv12";
    ssl.established = established;
    ssl.server_name = sni;
    for (const auto& cert : chain) {
      const std::string fuid = util::zeek_style_fuid(cert.fingerprint());
      ssl.cert_chain_fuids.push_back(fuid);
      if (seen_fuids_.insert(fuid).second) {
        x509_.push_back(zeek::record_from_certificate(cert, ssl.ts, fuid));
      }
    }
    ssl_.push_back(std::move(ssl));
  }

  TestPki pki_;
  truststore::TrustStoreSet stores_;
  ct::CtLogSet ct_logs_{2};
  VendorDirectory vendors_;
  StudyPipeline pipeline_;
  std::vector<zeek::SslLogRecord> ssl_;
  std::vector<zeek::X509LogRecord> x509_;
  std::set<std::string> seen_fuids_;
};

TEST_F(PipelineUnitTest, EmptyInputsProduceEmptyReport) {
  const StudyReport report = pipeline_.run(StudyInput::records(ssl_, x509_));
  EXPECT_EQ(report.unique_chains, 0u);
  EXPECT_EQ(report.totals.connections, 0u);
  EXPECT_TRUE(report.categories.empty());
  EXPECT_TRUE(report.hybrid.records.empty());
}

TEST_F(PipelineUnitTest, CategorizesMixedMiniCorpus) {
  add_connection(pki_.chain_for("pub.example"), true, "pub.example");
  add_connection(make_chain({self_signed("appliance")}), false, "");
  auto hybrid = pki_.chain_for("hyb.example");
  hybrid.push_back(self_signed("corp-extra"));
  add_connection(hybrid, true, "hyb.example");
  add_connection(hybrid, false, "hyb.example");  // same chain again

  const StudyReport report = pipeline_.run(StudyInput::records(ssl_, x509_));
  EXPECT_EQ(report.unique_chains, 3u);
  EXPECT_EQ(report.categories.at(chain::ChainCategory::kPublicDbOnly).chains, 1u);
  EXPECT_EQ(report.categories.at(chain::ChainCategory::kNonPublicDbOnly).chains, 1u);
  EXPECT_EQ(report.categories.at(chain::ChainCategory::kHybrid).chains, 1u);
  EXPECT_EQ(report.categories.at(chain::ChainCategory::kHybrid).connections, 2u);
  EXPECT_EQ(report.hybrid.contains_complete_path, 1u);
  EXPECT_EQ(report.hybrid.usage_contains.established, 1u);
}

TEST_F(PipelineUnitTest, OutlierRuleNeedsBothLengthAndSingleObservation) {
  // A long chain observed twice is NOT excluded; a long chain observed once is.
  std::vector<x509::Certificate> long_certs;
  for (int i = 0; i < 35; ++i) {
    long_certs.push_back(self_signed("junk-" + std::to_string(i)));
  }
  const auto long_chain = make_chain(long_certs);
  add_connection(long_chain, false, "");
  add_connection(long_chain, false, "");  // second observation

  std::vector<x509::Certificate> outlier_certs;
  for (int i = 0; i < 40; ++i) {
    outlier_certs.push_back(self_signed("outlier-" + std::to_string(i)));
  }
  add_connection(make_chain(outlier_certs), false, "");

  const StudyReport report = pipeline_.run(StudyInput::records(ssl_, x509_));
  ASSERT_EQ(report.excluded_outliers.size(), 1u);
  EXPECT_EQ(report.excluded_outliers[0].length, 40u);
  // The twice-observed long chain stays in the Figure 1 series.
  const auto& lengths =
      report.chain_lengths.at(chain::ChainCategory::kNonPublicDbOnly);
  EXPECT_NE(std::find(lengths.begin(), lengths.end(), 35u), lengths.end());
  EXPECT_EQ(std::find(lengths.begin(), lengths.end(), 40u), lengths.end());
}

TEST_F(PipelineUnitTest, InterceptionSliceUsesDetectorOutput) {
  // Genuine cert in CT; forged chain from a directory-known vendor.
  const x509::Certificate genuine = pki_.leaf("site.example");
  ct_logs_.log(0).submit(genuine, 1);
  x509::CertificateAuthority middlebox(
      x509::DistinguishedName::parse_or_die("CN=Proxy SSL CA,O=ProxyCo"), "proxyco");
  vendors_[middlebox.name().canonical()] =
      VendorInfo{"ProxyCo", "Security & Network"};

  x509::DistinguishedName subject;
  subject.add("CN", "site.example");
  const auto forged = make_chain({middlebox.issue_leaf(
      subject, "site.example", certchain::testing::test_validity())});
  add_connection(forged, true, "site.example", 8013);

  const StudyReport report = pipeline_.run(StudyInput::records(ssl_, x509_));
  EXPECT_EQ(report.categories.at(chain::ChainCategory::kTlsInterception).chains, 1u);
  EXPECT_EQ(report.interception.findings.size(), 1u);
  EXPECT_EQ(report.interception_chains.chains, 1u);
  EXPECT_EQ(report.interception_chains.ports_single.count(8013), 1u);
}

TEST_F(PipelineUnitTest, RunFromTextEqualsRunFromRecords) {
  add_connection(pki_.chain_for("text.example"), true, "text.example");
  add_connection(make_chain({self_signed("loner")}), false, "");

  zeek::SslLogWriter ssl_writer;
  for (const auto& record : ssl_) ssl_writer.add(record);
  zeek::X509LogWriter x509_writer;
  for (const auto& record : x509_) x509_writer.add(record);

  const StudyReport from_records = pipeline_.run(StudyInput::records(ssl_, x509_));
  const std::string ssl_text = ssl_writer.finish();
  const std::string x509_text = x509_writer.finish();
  const StudyReport from_text =
      pipeline_.run(StudyInput::text(ssl_text, x509_text));
  EXPECT_EQ(from_text.unique_chains, from_records.unique_chains);
  EXPECT_EQ(from_text.totals.connections, from_records.totals.connections);
  EXPECT_EQ(from_text.totals.distinct_certificates,
            from_records.totals.distinct_certificates);
}

TEST_F(PipelineUnitTest, EscapedFieldsFoldIdenticallyThroughEveryInput) {
  // Cells no generated corpus has: an SNI holding the three bytes the writer
  // escapes (',' '\t' '\\' -> \x2c \x09 \x5c), a fuid holding a comma,
  // both spellings of an empty fuid cell, and an IPv6 client. Raw text folds
  // them as views that unescape on demand; records arrive unescaped.
  const auto chain = pki_.chain_for("esc.example");
  std::vector<std::string> fuids;
  for (const auto& cert : chain) {
    fuids.push_back("F,comma," + util::zeek_style_fuid(cert.fingerprint()));
    x509_.push_back(zeek::record_from_certificate(cert, 1000, fuids.back()));
  }
  const auto add_ssl = [this](const std::string& uid, const std::string& client,
                              const std::string& sni,
                              const std::vector<std::string>& chain_fuids) {
    zeek::SslLogRecord ssl;
    ssl.ts = util::make_time(2021, 1, 1) + static_cast<util::SimTime>(ssl_.size());
    ssl.uid = uid;
    ssl.id_orig_h = client;
    ssl.id_resp_h = "2001:db8::443";
    ssl.id_resp_p = 8443;
    ssl.version = chain_fuids.empty() ? "TLSv13" : "TLSv12";
    ssl.established = true;
    ssl.server_name = sni;
    ssl.cert_chain_fuids = chain_fuids;
    ssl_.push_back(std::move(ssl));
  };
  add_ssl("Cescaped", "2001:db8::7", "a,b\tc\\d.example", fuids);
  add_ssl("Cplain", "10.0.0.9", "", fuids);
  add_ssl("Cescaped2", "10.0.0.10", "a,b\tc\\d.example", fuids);
  add_ssl("Cempty", "10.0.0.11", "", {});
  add_ssl("Cdash", "10.0.0.12", "", {});

  zeek::SslLogWriter ssl_writer;
  for (const auto& record : ssl_) ssl_writer.add(record);
  zeek::X509LogWriter x509_writer;
  for (const auto& record : x509_) x509_writer.add(record);
  std::string ssl_text = ssl_writer.finish();
  const std::string x509_text = x509_writer.finish();
  const std::size_t dash_row = ssl_text.find("\tCdash\t");
  const std::size_t dash_cell = ssl_text.find("\t(empty)\t", dash_row);
  ASSERT_NE(dash_cell, std::string::npos);
  ssl_text.replace(dash_cell + 1, 7, "-");
  for (const char* escape : {"a\\x2cb\\x09c\\x5cd", "F\\x2ccomma\\x2c"}) {
    ASSERT_NE(ssl_text.find(escape), std::string::npos) << escape;
  }

  const std::string ssl_path = ::testing::TempDir() + "certchain_escaped_ssl.log";
  const std::string x509_path = ::testing::TempDir() + "certchain_escaped_x509.log";
  for (const auto& [path, text] :
       {std::pair{ssl_path, ssl_text}, std::pair{x509_path, x509_text}}) {
    std::FILE* file = std::fopen(path.c_str(), "wb");
    ASSERT_NE(file, nullptr);
    ASSERT_EQ(std::fwrite(text.data(), 1, text.size(), file), text.size());
    ASSERT_EQ(std::fclose(file), 0);
  }

  // The engine's fold of one input, analyzed (report bytes) and snapshotted.
  const auto fold = [this](const StudyInput& input, std::size_t chunk_bytes) {
    DnPool pool;
    zeek::LogJoiner joiner;
    joiner.set_dn_pool(&pool);
    CorpusIndex corpus;
    obs::RunContext ctx;
    RunOptions options;
    options.chunk_bytes = chunk_bytes;
    fold_input(input, options, joiner, corpus, ctx);
    ReportTextOptions text;
    text.graphs = true;
    obs::json::Writer snapshot;
    corpus.write_snapshot(snapshot);
    return render_report_text(pipeline_.analyze(corpus, nullptr, &pool), text) +
           std::move(snapshot).str();
  };
  const std::string reference = fold(StudyInput::records(ssl_, x509_), 0);
  EXPECT_NE(reference.find(R"("domains":["a,b\tc\\d.example"])"),
            std::string::npos)
      << reference;
  EXPECT_NE(reference.find(R"("client_ips":["10.0.0.10","10.0.0.9","2001:db8::7"])"),
            std::string::npos)
      << reference;
  EXPECT_NE(reference.find(R"("incomplete_joins":0)"), std::string::npos);
  for (const std::size_t chunk_bytes :
       {std::size_t{1}, std::size_t{7}, RunOptions::kDefaultChunkBytes}) {
    EXPECT_EQ(fold(StudyInput::text(ssl_text, x509_text), chunk_bytes), reference)
        << "chunk_bytes=" << chunk_bytes;
  }
  EXPECT_EQ(fold(StudyInput::files(ssl_path, x509_path), 7), reference);

  // Whole runs, ingest accounting included, agree byte for byte too.
  ReportTextOptions full;
  full.graphs = true;
  const StudyReport from_text = pipeline_.run(StudyInput::text(ssl_text, x509_text));
  EXPECT_EQ(from_text.ingest.ssl.records, ssl_.size());
  EXPECT_EQ(from_text.ingest.ssl.malformed_rows, 0u);
  EXPECT_EQ(render_report_text(pipeline_.run(StudyInput::files(ssl_path, x509_path)),
                               full),
            render_report_text(from_text, full));
  std::remove(ssl_path.c_str());
  std::remove(x509_path.c_str());
}

TEST_F(PipelineUnitTest, TelemetryManifestReconcilesWithReport) {
  add_connection(pki_.chain_for("pub.example"), true, "pub.example");
  add_connection(make_chain({self_signed("appliance")}), false, "");
  auto hybrid = pki_.chain_for("hyb.example");
  hybrid.push_back(self_signed("corp-extra"));
  add_connection(hybrid, true, "hyb.example");
  // One connection whose chain never arrives: an incomplete join.
  zeek::SslLogRecord dangling;
  dangling.ts = util::make_time(2021, 3, 1);
  dangling.uid = "Cdangling000000001";
  dangling.id_orig_h = "10.0.0.7";
  dangling.id_resp_h = "198.51.100.9";
  dangling.id_resp_p = 443;
  dangling.version = "TLSv12";
  dangling.cert_chain_fuids = {"FnEverSeen0000001"};
  ssl_.push_back(dangling);

  obs::RunContext telemetry;
  const StudyReport report =
      pipeline_.run(StudyInput::records(ssl_, x509_), {}, &telemetry);

  // Every stage triple reconciles, and the join stage matches the report's
  // own totals exactly — one accounting, two views.
  const obs::RunManifest manifest = obs::build_run_manifest(telemetry);
  EXPECT_TRUE(manifest.reconciles());
  const obs::StageManifest* join = manifest.stage("join");
  ASSERT_NE(join, nullptr);
  EXPECT_EQ(join->records_in, report.totals.connections);
  EXPECT_EQ(join->admitted, report.totals.with_certificates);
  EXPECT_EQ(join->records_in - join->admitted,
            report.totals.connections - report.totals.with_certificates);

  const auto& counters = telemetry.metrics;
  EXPECT_EQ(counters.counter("pipeline.connections"), report.totals.connections);
  EXPECT_EQ(counters.counter("pipeline.unique_chains"), report.unique_chains);
  EXPECT_EQ(counters.counter("pipeline.connections.incomplete_joins"),
            report.totals.incomplete_joins);

  // Per-category chain counters sum back to the unique-chain total.
  std::uint64_t categorized = 0;
  for (const auto& [name, value] : counters.counters()) {
    if (name.rfind("categorize.chains.", 0) == 0) categorized += value;
  }
  EXPECT_EQ(categorized, report.unique_chains);

  // figure1 drops are exactly the excluded outliers (none in this corpus).
  const obs::StageManifest* figure1 = manifest.stage("figure1");
  ASSERT_NE(figure1, nullptr);
  EXPECT_EQ(figure1->dropped, report.excluded_outliers.size());

  // The chain-length histogram saw every unique chain.
  EXPECT_EQ(counters.histograms().at("pipeline.chain_length").count(),
            report.unique_chains);
}

TEST_F(PipelineUnitTest, RunFromTextPublishesIngestCountersMatchingReport) {
  add_connection(pki_.chain_for("counted.example"), true, "counted.example");
  zeek::SslLogWriter ssl_writer;
  for (const auto& record : ssl_) ssl_writer.add(record);
  zeek::X509LogWriter x509_writer;
  for (const auto& record : x509_) x509_writer.add(record);
  const std::string ssl_text = ssl_writer.finish();
  // Damage one stream: a truncated row (inside the body, before #close) that
  // the lenient reader must count as malformed and skip.
  std::string x509_text = x509_writer.finish();
  const std::size_t close_at = x509_text.rfind("#close");
  ASSERT_NE(close_at, std::string::npos);
  x509_text.insert(close_at, "not\ta\tvalid\trow\n");

  obs::RunContext telemetry;
  const StudyReport report =
      pipeline_.run(StudyInput::text(ssl_text, x509_text), {}, &telemetry);

  // The report's ingest section and the registry counters are the same
  // numbers — the report is filled FROM the counters, so they cannot drift.
  const auto& metrics = telemetry.metrics;
  EXPECT_EQ(metrics.counter("ingest.ssl.records"), report.ingest.ssl.records);
  EXPECT_EQ(metrics.counter("ingest.ssl.lines"), report.ingest.ssl.lines);
  EXPECT_EQ(metrics.counter("ingest.ssl.bytes_consumed"), report.ingest.ssl.bytes);
  EXPECT_EQ(report.ingest.ssl.bytes, ssl_text.size());
  EXPECT_EQ(metrics.counter("ingest.x509.records"), report.ingest.x509.records);
  EXPECT_EQ(metrics.counter("ingest.x509.rows_malformed"),
            report.ingest.x509.malformed_rows);
  EXPECT_EQ(report.ingest.x509.malformed_rows, 1u);
  EXPECT_EQ(report.ingest.x509.bytes, x509_text.size());

  // The ingest stage triple reconciles: data rows in = records + skipped.
  const obs::RunManifest manifest = obs::build_run_manifest(telemetry);
  const obs::StageManifest* ingest = manifest.stage("ingest");
  ASSERT_NE(ingest, nullptr);
  EXPECT_TRUE(ingest->reconciles());
  EXPECT_EQ(ingest->admitted,
            report.ingest.ssl.records + report.ingest.x509.records);
  EXPECT_EQ(ingest->dropped, report.ingest.skipped_total());
}

TEST_F(PipelineUnitTest, Tls13ConnectionsCountedButNotCategorized) {
  zeek::SslLogRecord tls13;
  tls13.ts = util::make_time(2021, 2, 1);
  tls13.uid = "Ctls13aaaaaaaaaaaa";
  tls13.id_orig_h = "10.0.0.1";
  tls13.id_resp_h = "198.51.100.9";
  tls13.id_resp_p = 443;
  tls13.version = "TLSv13";
  tls13.established = true;
  ssl_.push_back(tls13);

  const StudyReport report = pipeline_.run(StudyInput::records(ssl_, x509_));
  EXPECT_EQ(report.totals.connections, 1u);
  EXPECT_EQ(report.totals.tls13_connections, 1u);
  EXPECT_EQ(report.unique_chains, 0u);
}

}  // namespace
}  // namespace certchain::core
