// Differential proof of the sharded pipeline (DESIGN.md §10): for every
// scenario and every worker count, the parallel path must reproduce the
// serial path **byte for byte** — rendered report text, every deterministic
// metric (counters, gauges, histogram contents), and a reconciling
// RunManifest with identical per-stage accounting. Wall times and the
// `par.threads` config entry are the only permitted differences.
//
// Scenarios cover the populations the paper's analysis hinges on (hybrid,
// TLS interception, DGA cluster), a second seed, a hand-built mini corpus
// with TLS 1.3 / incomplete-join / SNI-less hazards, and a deterministically
// fault-corrupted corpus driven through lenient ingestion — plus strict-mode
// failure equivalence (identical IngestError text at every thread count and
// streamed, whichever stream is damaged).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "../tests/helpers.hpp"
#include "core/log_source.hpp"
#include "core/pipeline.hpp"
#include "core/report_text.hpp"
#include "ct/ct_log.hpp"
#include "datagen/scenario.hpp"
#include "obs/manifest.hpp"
#include "obs/run_context.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"
#include "zeek/joiner.hpp"
#include "zeek/log_io.hpp"

namespace certchain {
namespace {

constexpr std::size_t kThreadCounts[] = {2, 4, 8};

void expect_same_histograms(
    const std::map<std::string, obs::FixedHistogram>& actual,
    const std::map<std::string, obs::FixedHistogram>& expected,
    std::size_t threads) {
  ASSERT_EQ(actual.size(), expected.size()) << threads << " threads";
  auto it = actual.begin();
  for (const auto& [name, reference] : expected) {
    ASSERT_EQ(it->first, name) << threads << " threads";
    const obs::FixedHistogram& histogram = it->second;
    EXPECT_EQ(histogram.count(), reference.count()) << name;
    EXPECT_DOUBLE_EQ(histogram.sum(), reference.sum()) << name;
    EXPECT_EQ(histogram.bucket_counts(), reference.bucket_counts()) << name;
    ++it;
  }
}

void expect_same_manifest(const obs::RunManifest& actual,
                          const obs::RunManifest& expected,
                          std::size_t threads) {
  EXPECT_TRUE(actual.reconciles()) << threads << " threads";
  ASSERT_EQ(actual.stages.size(), expected.stages.size()) << threads;
  for (std::size_t i = 0; i < expected.stages.size(); ++i) {
    EXPECT_EQ(actual.stages[i].name, expected.stages[i].name) << threads;
    EXPECT_EQ(actual.stages[i].records_in, expected.stages[i].records_in)
        << threads << " threads, stage " << expected.stages[i].name;
    EXPECT_EQ(actual.stages[i].admitted, expected.stages[i].admitted)
        << threads << " threads, stage " << expected.stages[i].name;
    EXPECT_EQ(actual.stages[i].dropped, expected.stages[i].dropped)
        << threads << " threads, stage " << expected.stages[i].name;
  }
}

/// The differential assertion: serial vs every thread count, raw-text path.
/// Returns the serial report so callers can assert scenario preconditions.
core::StudyReport expect_equivalent_from_text(
    const core::StudyPipeline& pipeline, std::string_view ssl_text,
    std::string_view x509_text, const core::IngestOptions& ingest = {}) {
  core::ReportTextOptions text_options;
  text_options.graphs = true;

  obs::RunContext serial_ctx;
  core::RunOptions serial_options;
  serial_options.ingest = ingest;
  serial_options.threads = 1;
  const core::StudyReport serial = pipeline.run(
      core::StudyInput::text(ssl_text, x509_text), serial_options, &serial_ctx);
  const std::string serial_text = render_report_text(serial, text_options);
  const obs::RunManifest serial_manifest = build_run_manifest(serial_ctx);

  for (const std::size_t threads : kThreadCounts) {
    obs::RunContext ctx;
    core::RunOptions options;
    options.ingest = ingest;
    options.threads = threads;
    const core::StudyReport report =
        pipeline.run(core::StudyInput::text(ssl_text, x509_text), options, &ctx);

    EXPECT_EQ(render_report_text(report, text_options), serial_text)
        << threads << " threads";
    EXPECT_EQ(ctx.metrics.counters(), serial_ctx.metrics.counters())
        << threads << " threads";
    EXPECT_EQ(ctx.metrics.gauges(), serial_ctx.metrics.gauges())
        << threads << " threads";
    expect_same_histograms(ctx.metrics.histograms(),
                           serial_ctx.metrics.histograms(), threads);
    expect_same_manifest(build_run_manifest(ctx), serial_manifest, threads);
  }
  return serial;
}

/// Same contract for the parsed-records entry point.
void expect_equivalent_from_records(const core::StudyPipeline& pipeline,
                                    const netsim::GeneratedLogs& logs) {
  core::ReportTextOptions text_options;
  text_options.graphs = true;

  obs::RunContext serial_ctx;
  const core::StudyReport serial =
      pipeline.run(core::StudyInput::records(logs), {}, &serial_ctx);
  const std::string serial_text = render_report_text(serial, text_options);

  for (const std::size_t threads : kThreadCounts) {
    obs::RunContext ctx;
    core::RunOptions options;
    options.threads = threads;
    const core::StudyReport report =
        pipeline.run(core::StudyInput::records(logs), options, &ctx);
    EXPECT_EQ(render_report_text(report, text_options), serial_text)
        << threads << " threads";
    EXPECT_EQ(ctx.metrics.counters(), serial_ctx.metrics.counters())
        << threads << " threads";
    expect_same_histograms(ctx.metrics.histograms(),
                           serial_ctx.metrics.histograms(), threads);
  }
}

/// The IngestError text a strict run raises; empty when it accepted the
/// input.
std::string strict_error(const core::StudyPipeline& pipeline,
                         const core::StudyInput& input,
                         core::RunOptions options) {
  options.ingest.mode = core::IngestMode::kStrict;
  try {
    pipeline.run(input, options);
  } catch (const core::IngestError& error) {
    return error.what();
  }
  return "";
}

/// Deterministic, seeded log-text corruption: garbage rows at line
/// boundaries, a stray wrong-layout header, and a truncated final line.
std::string corrupt(std::string text, std::uint64_t seed) {
  util::Rng rng(seed);
  for (int i = 0; i < 5; ++i) {
    const std::size_t at = text.find('\n', rng.next_below(text.size()));
    if (at == std::string::npos) continue;
    text.insert(at + 1, "garbage\trow\tnumber\t" + std::to_string(i) + "\n");
  }
  const std::size_t mid = text.find('\n', text.size() / 2);
  if (mid != std::string::npos) {
    text.insert(mid + 1, "#fields\tnot\tthe\texpected\tlayout\n");
  }
  text.resize(text.size() - std::min<std::size_t>(text.size(), 7));
  return text;
}

class ParallelDiffTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    datagen::ScenarioConfig config;
    config.seed = 20200901;
    config.chain_scale = 1.0 / 4000.0;
    config.total_connections = 4000;
    config.client_count = 300;
    config.include_length_outliers = false;
    scenario_ = datagen::build_study_scenario(config).release();
    logs_ = new netsim::GeneratedLogs(scenario_->generate_logs());

    zeek::SslLogWriter ssl_writer;
    for (const auto& record : logs_->ssl) ssl_writer.add(record);
    ssl_text_ = new std::string(ssl_writer.finish());
    zeek::X509LogWriter x509_writer;
    for (const auto& record : logs_->x509) x509_writer.add(record);
    x509_text_ = new std::string(x509_writer.finish());

    pipeline_ = new core::StudyPipeline(
        scenario_->world.stores(), scenario_->world.ct_logs(),
        scenario_->vendors, &scenario_->world.cross_signs());
  }

  static void TearDownTestSuite() {
    delete pipeline_;
    delete x509_text_;
    delete ssl_text_;
    delete logs_;
    delete scenario_;
    pipeline_ = nullptr;
    x509_text_ = nullptr;
    ssl_text_ = nullptr;
    logs_ = nullptr;
    scenario_ = nullptr;
  }

  static datagen::Scenario* scenario_;
  static netsim::GeneratedLogs* logs_;
  static std::string* ssl_text_;
  static std::string* x509_text_;
  static core::StudyPipeline* pipeline_;
};

datagen::Scenario* ParallelDiffTest::scenario_ = nullptr;
netsim::GeneratedLogs* ParallelDiffTest::logs_ = nullptr;
std::string* ParallelDiffTest::ssl_text_ = nullptr;
std::string* ParallelDiffTest::x509_text_ = nullptr;
core::StudyPipeline* ParallelDiffTest::pipeline_ = nullptr;

TEST_F(ParallelDiffTest, StudyScenarioWithInterceptionHybridAndDga) {
  const core::StudyReport serial =
      expect_equivalent_from_text(*pipeline_, *ssl_text_, *x509_text_);
  // The scenario must actually exercise the populations the equivalence
  // claim is about — otherwise this diff proves less than it says.
  EXPECT_FALSE(serial.interception.findings.empty());
  EXPECT_GT(serial.categories.at(chain::ChainCategory::kHybrid).chains, 0u);
  EXPECT_GT(serial.non_public.dga_chains, 0u);
  EXPECT_GT(serial.totals.tls13_connections, 0u);
}

TEST_F(ParallelDiffTest, ParsedRecordsPathMatchesToo) {
  expect_equivalent_from_records(*pipeline_, *logs_);
}

TEST_F(ParallelDiffTest, FaultCorruptedCorpusUnderLenientIngest) {
  const std::string damaged_ssl = corrupt(*ssl_text_, 0xFA01);
  const std::string damaged_x509 = corrupt(*x509_text_, 0xFA02);
  const core::StudyReport serial =
      expect_equivalent_from_text(*pipeline_, damaged_ssl, damaged_x509);
  // The corruption must be visible in the accounting, and the sample errors
  // (absolute line numbers) must have survived the shard merge.
  EXPECT_GT(serial.ingest.skipped_total(), 0u);
  EXPECT_FALSE(serial.ingest.sample_errors.empty());
}

TEST_F(ParallelDiffTest, StrictModeFailsIdenticallyAtEveryThreadCount) {
  const std::string damaged_ssl = corrupt(*ssl_text_, 0xFA01);
  const std::string damaged_x509 = corrupt(*x509_text_, 0xFA02);
  // The damaged stream is the input: SSL only, X509 only, and both. X509 is
  // ingested first, yet with both damaged the SSL stream's error must win.
  const struct {
    const char* label;
    const std::string* ssl;
    const std::string* x509;
    const char* stream;
  } cases[] = {
      {"ssl damaged", &damaged_ssl, x509_text_, "ssl log line "},
      {"x509 damaged", ssl_text_, &damaged_x509, "x509 log line "},
      {"both damaged", &damaged_ssl, &damaged_x509, "ssl log line "},
  };
  std::vector<std::string> serial_messages;
  for (const auto& damage : cases) {
    const core::StudyInput text = core::StudyInput::text(*damage.ssl, *damage.x509);
    const std::string serial_message = strict_error(*pipeline_, text, {});
    EXPECT_EQ(serial_message.rfind(damage.stream, 0), 0u)
        << damage.label << ": '" << serial_message << "'";
    for (const std::size_t threads : kThreadCounts) {
      core::RunOptions options;
      options.threads = threads;
      EXPECT_EQ(strict_error(*pipeline_, text, options), serial_message)
          << damage.label << ", " << threads << " threads";
    }
    core::RunOptions streamed;
    streamed.chunk_bytes = 2048;
    EXPECT_EQ(strict_error(*pipeline_,
                           core::StudyInput::sources(
                               core::make_text_source(*damage.ssl),
                               core::make_text_source(*damage.x509)),
                           streamed),
              serial_message)
        << damage.label << ", streamed";
    serial_messages.push_back(serial_message);
  }
  EXPECT_EQ(serial_messages[2], serial_messages[0]);
}

TEST(ParallelDiffScenarios, SecondSeedScenario) {
  datagen::ScenarioConfig config;
  config.seed = 777;
  config.chain_scale = 1.0 / 8000.0;
  config.total_connections = 2500;
  config.client_count = 200;
  config.include_length_outliers = false;
  const auto scenario = datagen::build_study_scenario(config);
  const netsim::GeneratedLogs logs = scenario->generate_logs();

  zeek::SslLogWriter ssl_writer;
  for (const auto& record : logs.ssl) ssl_writer.add(record);
  zeek::X509LogWriter x509_writer;
  for (const auto& record : logs.x509) x509_writer.add(record);

  const core::StudyPipeline pipeline(
      scenario->world.stores(), scenario->world.ct_logs(), scenario->vendors,
      &scenario->world.cross_signs());
  expect_equivalent_from_text(pipeline, ssl_writer.finish(),
                              x509_writer.finish());
}

TEST(ParallelDiffScenarios, HandBuiltMiniCorpusWithJoinHazards) {
  certchain::testing::TestPki pki;
  const truststore::TrustStoreSet stores = pki.trusted_stores();
  const ct::CtLogSet ct_logs{2};
  const core::VendorDirectory vendors;
  const core::StudyPipeline pipeline(stores, ct_logs, vendors, nullptr);

  zeek::SslLogWriter ssl_writer;
  zeek::X509LogWriter x509_writer;
  std::set<std::string> seen_fuids;
  std::size_t uid = 0;
  const auto add = [&](const chain::CertificateChain& chain, bool established,
                       const std::string& sni, bool tls13 = false,
                       bool drop_leaf_record = false) {
    zeek::SslLogRecord ssl;
    ssl.ts = util::make_time(2021, 3, 1) + static_cast<util::SimTime>(uid);
    ssl.uid = util::zeek_style_conn_uid(uid++, 9);
    ssl.id_orig_h = "10.1.0." + std::to_string(uid % 10);
    ssl.id_resp_h = "198.51.100.40";
    ssl.id_resp_p = 443;
    ssl.version = tls13 ? "TLSv13" : "TLSv12";
    ssl.established = established;
    ssl.server_name = sni;
    if (!tls13) {
      for (std::size_t i = 0; i < chain.length(); ++i) {
        const auto& cert = chain.at(i);
        const std::string fuid = util::zeek_style_fuid(cert.fingerprint());
        ssl.cert_chain_fuids.push_back(fuid);
        // The leaf fuid is unique to this domain, so dropping its X509 row
        // guarantees a missing-fuid join (intermediates are shared between
        // chains and may already be registered).
        if (i == 0 && drop_leaf_record) continue;
        if (seen_fuids.insert(fuid).second) {
          x509_writer.add(zeek::record_from_certificate(cert, ssl.ts, fuid));
        }
      }
    }
    ssl_writer.add(ssl);
  };

  // Hybrid: public path + a private appendage.
  auto hybrid = pki.chain_for("hyb.example");
  hybrid.push_back(certchain::testing::self_signed("corp-extra"));
  add(hybrid, true, "hyb.example");
  add(hybrid, false, "hyb.example");
  // Interception-shaped: a lone self-signed middlebox certificate, SNI-less.
  add(certchain::testing::make_chain(
          {certchain::testing::self_signed("mitm-box")}),
      false, "");
  // Clean public chain, repeated from two clients.
  add(pki.chain_for("pub.example", true), true, "pub.example");
  add(pki.chain_for("pub.example", true), true, "pub.example");
  // TLS 1.3: certificates invisible.
  add(hybrid, true, "hidden.example", /*tls13=*/true);
  // Incomplete join: last fuid never gets an X509 row.
  add(pki.chain_for("partial.example"), true, "partial.example",
      /*tls13=*/false, /*drop_leaf_record=*/true);

  const core::StudyReport serial = expect_equivalent_from_text(
      pipeline, ssl_writer.finish(), x509_writer.finish());
  EXPECT_GT(serial.totals.tls13_connections, 0u);
  EXPECT_GT(serial.totals.incomplete_joins, 0u);
  EXPECT_GT(serial.categories.at(chain::ChainCategory::kHybrid).chains, 0u);
}

}  // namespace
}  // namespace certchain
