// Fault injection + resilient scanning + graceful ingestion degradation.
//
// Covers the determinism contract (same FaultPlan seed + retry config =>
// byte-identical ledgers and results; zero faults => identical to
// ActiveScanner), salvage of truncated/corrupted bundles, the revisit
// analyzer's scan-health accounting, and strict-vs-lenient pipeline
// ingestion.
#include <gtest/gtest.h>

#include "../tests/helpers.hpp"
#include "core/pipeline.hpp"
#include "core/report_text.hpp"
#include "core/revisit.hpp"
#include "netsim/faults.hpp"
#include "netsim/pki_world.hpp"
#include "obs/metrics.hpp"
#include "scanner/resilient_scanner.hpp"
#include "util/strings.hpp"
#include "util/time.hpp"
#include "zeek/log_io.hpp"
#include "zeek/log_stream.hpp"

namespace certchain {
namespace {

using netsim::FaultKind;
using netsim::FaultPlan;
using netsim::FaultRates;
using netsim::PkiWorld;
using netsim::ServerEndpoint;
using scanner::ActiveScanner;
using scanner::ResilientScanner;
using scanner::ResilientScanResult;
using scanner::RetryPolicy;
using scanner::ScanError;
using scanner::ScanLedger;

/// A small revisit population: `alive` 3-cert servers, a couple of dead
/// ones, and one IP-only service.
class ResilienceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto validity = PkiWorld::default_leaf_validity();
    for (int i = 0; i < 12; ++i) {
      ServerEndpoint endpoint;
      endpoint.ip = "198.51.100." + std::to_string(10 + i);
      endpoint.port = 443;
      endpoint.domain = "srv" + std::to_string(i) + ".example";
      endpoint.chain = world_.issue_public_chain("digicert", endpoint.domain,
                                                 validity, true);
      endpoint.revisit_chain = world_.issue_public_chain(
          "lets-encrypt", endpoint.domain,
          {util::make_time(2024, 10, 1), util::make_time(2025, 1, 1)}, true);
      endpoints_.push_back(std::move(endpoint));
    }
    // Two servers gone by the revisit epoch.
    for (int i = 0; i < 2; ++i) {
      ServerEndpoint gone;
      gone.ip = "198.51.100." + std::to_string(40 + i);
      gone.domain = "gone" + std::to_string(i) + ".example";
      gone.chain = world_.issue_public_chain("digicert", gone.domain, validity);
      gone.revisit_chain = std::nullopt;
      endpoints_.push_back(std::move(gone));
    }
    // One IP-only service.
    ServerEndpoint unnamed;
    unnamed.ip = "198.51.100.60";
    unnamed.port = 8443;
    unnamed.chain = world_.issue_public_chain("godaddy", "ipsvc.example", validity);
    unnamed.revisit_chain = unnamed.chain;
    endpoints_.push_back(std::move(unnamed));
  }

  PkiWorld world_;
  std::vector<ServerEndpoint> endpoints_;
};

TEST_F(ResilienceTest, ZeroFaultPlanMatchesActiveScanner) {
  const ActiveScanner inner(endpoints_);
  const FaultPlan no_faults;  // default: injects nothing
  ResilientScanner resilient(inner, no_faults);

  const auto pristine = inner.scan_all_ips();
  const auto observed = resilient.scan_all_ips();
  ASSERT_EQ(pristine.size(), observed.size());
  for (std::size_t i = 0; i < pristine.size(); ++i) {
    EXPECT_EQ(observed[i].scan.reachable, pristine[i].reachable);
    EXPECT_EQ(observed[i].scan.target, pristine[i].target);
    EXPECT_EQ(observed[i].scan.pem_bundle, pristine[i].pem_bundle);
    EXPECT_EQ(observed[i].scan.chain, pristine[i].chain);
    EXPECT_FALSE(observed[i].degraded);
  }

  const ScanLedger& ledger = resilient.ledger();
  EXPECT_TRUE(ledger.reconciles());
  EXPECT_EQ(ledger.salvaged, 0u);
  EXPECT_EQ(ledger.targets, pristine.size());
  // Reachable targets succeed on attempt one; dead ones exhaust the budget.
  std::size_t dead = 0;
  for (const auto& result : pristine) {
    if (!result.reachable) ++dead;
  }
  EXPECT_EQ(ledger.failures, dead);
  EXPECT_EQ(ledger.successes, pristine.size() - dead);
}

TEST_F(ResilienceTest, SameSeedProducesByteIdenticalLedgers) {
  const ActiveScanner inner(endpoints_);
  const FaultPlan plan_a(0xFA01, FaultRates::uniform(0.15));
  const FaultPlan plan_b(0xFA01, FaultRates::uniform(0.15));

  ResilientScanner first(inner, plan_a);
  ResilientScanner second(inner, plan_b);
  const auto results_a = first.scan_all_ips();
  const auto results_b = second.scan_all_ips();

  EXPECT_EQ(first.ledger().to_string(), second.ledger().to_string());
  ASSERT_EQ(results_a.size(), results_b.size());
  for (std::size_t i = 0; i < results_a.size(); ++i) {
    EXPECT_EQ(results_a[i].scan.pem_bundle, results_b[i].scan.pem_bundle);
    EXPECT_EQ(results_a[i].scan.chain, results_b[i].scan.chain);
    EXPECT_EQ(results_a[i].attempts, results_b[i].attempts);
    EXPECT_EQ(results_a[i].elapsed_ms, results_b[i].elapsed_ms);
    EXPECT_EQ(results_a[i].error, results_b[i].error);
    EXPECT_EQ(results_a[i].degraded, results_b[i].degraded);
  }

  // A different seed must change *some* outcome (schedule actually seeded).
  const FaultPlan plan_c(0x0DD5EED, FaultRates::uniform(0.15));
  ResilientScanner third(inner, plan_c);
  (void)third.scan_all_ips();
  EXPECT_NE(first.ledger().to_string(), third.ledger().to_string());
}

TEST_F(ResilienceTest, PersistentUnreachabilityExhaustsTheAttemptBudget) {
  const ActiveScanner inner(endpoints_);
  FaultRates rates;
  rates.persistent_unreachable = 1.0;
  const FaultPlan plan(7, rates);
  RetryPolicy policy;
  policy.max_attempts = 3;
  ResilientScanner resilient(inner, plan, policy);

  const ResilientScanResult result = resilient.scan_domain("srv0.example");
  EXPECT_FALSE(result.scan.reachable);
  EXPECT_EQ(result.error, ScanError::kUnreachable);
  EXPECT_EQ(result.attempts, 3u);
  EXPECT_EQ(resilient.ledger().failures, 1u);
  EXPECT_GT(resilient.ledger().backoff_ms_total, 0u);
}

TEST_F(ResilienceTest, TruncatedBundlesSalvageThePrefixChain) {
  const ActiveScanner inner(endpoints_);
  FaultRates rates;
  rates.truncated_handshake = 1.0;
  const FaultPlan plan(0x7121C, rates);
  ResilientScanner resilient(inner, plan);

  std::size_t salvaged_results = 0;
  for (const auto& endpoint : endpoints_) {
    if (endpoint.domain.empty() || !endpoint.revisit_chain.has_value()) continue;
    const auto pristine = inner.scan_domain(endpoint.domain, endpoint.port);
    const auto result = resilient.scan_domain(endpoint.domain, endpoint.port);
    if (!result.scan.reachable) {
      // Every attempt truncated inside the first PEM block: nothing usable.
      EXPECT_EQ(result.error, ScanError::kTruncatedBundle);
      continue;
    }
    ++salvaged_results;
    EXPECT_TRUE(result.degraded);
    EXPECT_EQ(result.error, ScanError::kTruncatedBundle);
    // The salvaged chain is a strict prefix of the pristine chain.
    ASSERT_LE(result.scan.chain.length(), pristine.chain.length());
    for (std::size_t i = 0; i < result.scan.chain.length(); ++i) {
      EXPECT_EQ(result.scan.chain.at(i), pristine.chain.at(i));
    }
    EXPECT_EQ(result.salvaged_certs, result.scan.chain.length());
  }
  EXPECT_GT(salvaged_results, 0u);
  EXPECT_EQ(resilient.ledger().salvaged, salvaged_results);
  EXPECT_TRUE(resilient.ledger().reconciles());
}

TEST_F(ResilienceTest, TransientFaultsAreAbsorbedByRetries) {
  const ActiveScanner inner(endpoints_);
  FaultRates rates;
  rates.transient_unreachable = 0.35;
  rates.connect_timeout = 0.15;
  const FaultPlan plan(0x7247, rates);
  ResilientScanner resilient(inner, plan);

  std::size_t retried_successes = 0;
  for (const auto& result : resilient.scan_all_domains()) {
    if (result.scan.reachable && result.attempts > 1) ++retried_successes;
  }
  // With a 50% per-attempt fault rate and 4 attempts, some targets must have
  // recovered on a retry (seed-stable).
  EXPECT_GT(retried_successes, 0u);
  EXPECT_GT(resilient.ledger().retries, 0u);
  EXPECT_TRUE(resilient.ledger().reconciles());
}

TEST_F(ResilienceTest, DeadlineBoundsSlowResponses) {
  const ActiveScanner inner(endpoints_);
  FaultRates rates;
  rates.slow_response = 1.0;
  const FaultPlan plan(3, rates);
  RetryPolicy policy;
  policy.target_deadline_ms = 400;  // every injected delay is >= 500ms
  ResilientScanner resilient(inner, plan, policy);

  const ResilientScanResult result = resilient.scan_domain("srv1.example");
  EXPECT_FALSE(result.scan.reachable);
  EXPECT_EQ(result.error, ScanError::kDeadlineExceeded);
  EXPECT_LT(result.attempts, resilient.policy().max_attempts + 1);
}

TEST_F(ResilienceTest, RevisitReportsIdenticalWithAndWithoutResilienceAtZeroFaults) {
  const ActiveScanner inner(endpoints_);
  const core::RevisitAnalyzer analyzer(world_.stores());
  std::vector<const ServerEndpoint*> servers;
  for (const auto& endpoint : endpoints_) servers.push_back(&endpoint);

  const core::HybridRevisitReport plain = analyzer.analyze_hybrid(servers, inner);

  const FaultPlan no_faults;
  ResilientScanner resilient(inner, no_faults);
  const core::HybridRevisitReport hardened =
      analyzer.analyze_hybrid(servers, resilient);

  EXPECT_EQ(hardened.previous_servers, plain.previous_servers);
  EXPECT_EQ(hardened.reachable, plain.reachable);
  EXPECT_EQ(hardened.now_all_public, plain.now_all_public);
  EXPECT_EQ(hardened.now_lets_encrypt, plain.now_lets_encrypt);
  EXPECT_EQ(hardened.now_all_non_public, plain.now_all_non_public);
  EXPECT_EQ(hardened.still_hybrid, plain.still_hybrid);

  EXPECT_TRUE(hardened.scan_health.reconciles());
  EXPECT_EQ(hardened.scan_health.reachable_degraded, 0u);
  EXPECT_EQ(hardened.scan_health.ledger.targets, servers.size());
}

TEST_F(ResilienceTest, RevisitScanHealthAccountsForEveryTarget) {
  const ActiveScanner inner(endpoints_);
  const core::RevisitAnalyzer analyzer(world_.stores());
  std::vector<const ServerEndpoint*> servers;
  for (const auto& endpoint : endpoints_) servers.push_back(&endpoint);

  const FaultPlan plan(0xBEA7, FaultRates::uniform(0.2));
  ResilientScanner resilient(inner, plan);
  const core::HybridRevisitReport report = analyzer.analyze_hybrid(servers, resilient);

  EXPECT_EQ(report.scan_health.scanned, servers.size());
  EXPECT_TRUE(report.scan_health.reconciles());
  EXPECT_TRUE(report.scan_health.ledger.reconciles());
  EXPECT_EQ(report.scan_health.ledger.targets, servers.size());
  EXPECT_EQ(report.reachable, report.scan_health.reachable_clean +
                                  report.scan_health.reachable_degraded);
  // The rendered health block mentions each population.
  const std::string text = core::render_scan_health(report.scan_health);
  EXPECT_NE(text.find("degraded"), std::string::npos);
  EXPECT_NE(text.find("attempts"), std::string::npos);

  // Campaign-scoped ledger: a second campaign on the same scanner reports
  // only its own share.
  const core::NonPublicRevisitReport second =
      analyzer.analyze_non_public(servers, resilient, 100, 50);
  EXPECT_EQ(second.scan_health.ledger.targets, second.scan_health.scanned);
}

TEST_F(ResilienceTest, RegistryCountersMirrorTheLedgerExactly) {
  const ActiveScanner inner(endpoints_);
  const FaultPlan plan(0xBEA7, FaultRates::uniform(0.2));
  obs::MetricsRegistry metrics;
  ResilientScanner resilient(inner, plan, {}, &metrics);
  (void)resilient.scan_all_domains();
  (void)resilient.scan_all_ips();

  const ScanLedger& ledger = resilient.ledger();
  ASSERT_GT(ledger.attempts, 0u);
  EXPECT_EQ(metrics.counter("scanner.targets"), ledger.targets);
  EXPECT_EQ(metrics.counter("scanner.attempts"), ledger.attempts);
  EXPECT_EQ(metrics.counter("scanner.retries"), ledger.retries);
  EXPECT_EQ(metrics.counter("scanner.backoff_ms_total"), ledger.backoff_ms_total);
  EXPECT_EQ(metrics.counter("scanner.successes"), ledger.successes);
  EXPECT_EQ(metrics.counter("scanner.failures"), ledger.failures);
  EXPECT_EQ(metrics.counter("scanner.salvaged"), ledger.salvaged);
  EXPECT_EQ(metrics.counter("scanner.certs_salvaged"), ledger.certs_salvaged);
  EXPECT_EQ(metrics.counter("scanner.certs_dropped"), ledger.certs_dropped);
  // Every attempt-error series in the ledger has a matching counter.
  for (const auto& [error, count] : ledger.error_counts) {
    const std::string name =
        "scanner.error." + obs::metric_slug(scanner::scan_error_name(error));
    EXPECT_EQ(metrics.counter(name), count) << name;
  }
  // Fault-taxonomy counters exist (the plan injected at 20% per kind) and
  // never exceed the attempt count.
  std::uint64_t faults = 0;
  for (const auto& [name, value] : metrics.counters()) {
    if (name.rfind("scanner.fault.", 0) == 0) faults += value;
  }
  EXPECT_GT(faults, 0u);
  EXPECT_LE(faults, metrics.counter("scanner.attempts"));
}

TEST_F(ResilienceTest, NullRegistryKeepsScannerBehaviourIdentical) {
  const ActiveScanner inner(endpoints_);
  const FaultPlan plan(0xFA01, FaultRates::uniform(0.15));
  const FaultPlan same_plan(0xFA01, FaultRates::uniform(0.15));
  obs::MetricsRegistry metrics;
  ResilientScanner instrumented(inner, plan, {}, &metrics);
  ResilientScanner bare(inner, same_plan);
  (void)instrumented.scan_all_domains();
  (void)bare.scan_all_domains();
  // Telemetry is write-through: attaching a registry must not perturb the
  // deterministic scan outcome.
  EXPECT_EQ(instrumented.ledger().to_string(), bare.ledger().to_string());
}

// --- ingestion degradation ------------------------------------------------

class IngestionTest : public ::testing::Test {
 protected:
  IngestionTest()
      : stores_(pki_.trusted_stores()), pipeline_(stores_, ct_logs_, vendors_) {}

  /// Builds a small clean SSL/X509 log pair.
  void build_logs(int connections) {
    zeek::SslLogWriter ssl_writer;
    zeek::X509LogWriter x509_writer;
    for (int i = 0; i < connections; ++i) {
      const std::string domain = "host" + std::to_string(i) + ".example";
      const auto chain = pki_.chain_for(domain);
      zeek::SslLogRecord ssl;
      ssl.ts = 1600000000 + i;
      ssl.uid = "C" + std::to_string(i);
      ssl.id_orig_h = "10.0.0.1";
      ssl.id_resp_h = "198.51.100.1";
      ssl.id_resp_p = 443;
      ssl.version = "TLSv12";
      ssl.established = true;
      ssl.server_name = domain;
      for (std::size_t c = 0; c < chain.length(); ++c) {
        const std::string fuid = "F" + std::to_string(i) + "_" + std::to_string(c);
        ssl.cert_chain_fuids.push_back(fuid);
        x509_writer.add(zeek::record_from_certificate(chain.at(c), ssl.ts, fuid));
      }
      ssl_writer.add(ssl);
    }
    ssl_text_ = ssl_writer.finish();
    x509_text_ = x509_writer.finish();
  }

  /// Runs the pipeline over the built log text through the unified entry.
  core::StudyReport run_text(const core::IngestOptions& ingest = {}) {
    core::RunOptions options;
    options.ingest = ingest;
    return pipeline_.run(core::StudyInput::text(ssl_text_, x509_text_), options);
  }

  /// Damages every `stride`-th body row by chopping it in half (guaranteed
  /// wrong column count). Returns how many rows were damaged.
  static std::size_t damage_rows(std::string& text, std::size_t stride) {
    std::vector<std::string> lines = util::split(text, '\n');
    std::size_t damaged = 0;
    std::size_t body_index = 0;
    for (std::string& line : lines) {
      if (line.empty() || line.front() == '#') continue;
      if (body_index++ % stride == 0) {
        line.resize(line.size() / 4);
        ++damaged;
      }
    }
    std::string rebuilt;
    for (const std::string& line : lines) {
      rebuilt += line;
      rebuilt.push_back('\n');
    }
    if (!text.empty() && text.back() != '\n') rebuilt.pop_back();
    text = std::move(rebuilt);
    return damaged;
  }

  testing::TestPki pki_;
  truststore::TrustStoreSet stores_;
  ct::CtLogSet ct_logs_{2};
  core::VendorDirectory vendors_;
  core::StudyPipeline pipeline_;
  std::string ssl_text_;
  std::string x509_text_;
};

TEST_F(IngestionTest, CleanLogsReportCleanIngest) {
  build_logs(10);
  const core::StudyReport report = run_text();
  EXPECT_TRUE(report.ingest.populated);
  EXPECT_TRUE(report.ingest.clean());
  EXPECT_EQ(report.ingest.ssl.records, 10u);
  EXPECT_EQ(report.ingest.ssl.rotations, 1u);  // trailing #close
  EXPECT_EQ(report.totals.connections, 10u);
}

TEST_F(IngestionTest, LenientModeCountsDamageExactly) {
  build_logs(40);  // >= 5% corrupted lines below
  const std::size_t ssl_damaged = damage_rows(ssl_text_, 10);
  const std::size_t x509_damaged = damage_rows(x509_text_, 15);
  ASSERT_GE(ssl_damaged, 2u);

  core::IngestOptions options;
  options.mode = core::IngestMode::kLenient;
  core::StudyReport report;
  ASSERT_NO_THROW(report = run_text(options));

  EXPECT_EQ(report.ingest.ssl.malformed_rows, ssl_damaged);
  EXPECT_EQ(report.ingest.x509.malformed_rows, x509_damaged);
  EXPECT_EQ(report.ingest.ssl.records, 40u - ssl_damaged);
  EXPECT_EQ(report.totals.connections, 40u - ssl_damaged);
  EXPECT_FALSE(report.ingest.sample_errors.empty());

  // The rendered report carries the data-quality section.
  const std::string text = core::render_report_text(report);
  EXPECT_NE(text.find("Data quality"), std::string::npos);
  EXPECT_NE(text.find("lenient"), std::string::npos);
}

TEST_F(IngestionTest, StrictModeSurfacesTheFirstError) {
  build_logs(20);
  damage_rows(ssl_text_, 7);
  core::IngestOptions options;
  options.mode = core::IngestMode::kStrict;
  try {
    (void)run_text(options);
    FAIL() << "strict ingestion must throw on damaged input";
  } catch (const core::IngestError& error) {
    EXPECT_NE(std::string(error.what()).find("ssl log line"), std::string::npos);
  }
}

TEST_F(IngestionTest, StrictModeAcceptsCleanLogs) {
  build_logs(5);
  core::IngestOptions options;
  options.mode = core::IngestMode::kStrict;
  core::StudyReport report;
  ASSERT_NO_THROW(report = run_text(options));
  EXPECT_EQ(report.totals.connections, 5u);
  EXPECT_TRUE(report.ingest.clean());
}

TEST_F(IngestionTest, TinyChunksMatchOneShotIngestion) {
  build_logs(15);
  core::RunOptions tiny;
  tiny.chunk_bytes = 3;
  const core::StudyReport chunked =
      pipeline_.run(core::StudyInput::text(ssl_text_, x509_text_), tiny);
  const core::StudyReport oneshot = run_text();
  EXPECT_EQ(chunked.totals.connections, oneshot.totals.connections);
  EXPECT_EQ(chunked.unique_chains, oneshot.unique_chains);
  EXPECT_EQ(chunked.ingest.ssl.records, oneshot.ingest.ssl.records);
}

TEST(StreamingReaderReuse, FinishResetsHeaderStateForTheNextStream) {
  zeek::SslLogWriter writer;
  zeek::SslLogRecord record;
  record.ts = 1600000000;
  record.uid = "Creuse";
  record.id_orig_h = "10.0.0.1";
  record.id_resp_h = "198.51.100.1";
  record.id_resp_p = 443;
  record.version = "TLSv12";
  writer.add(record);
  // First stream ends mid-body: no #close, unterminated final line.
  const std::string full = writer.finish();
  const std::string headless = full.substr(0, full.find("#close"));

  std::size_t emitted = 0;
  auto reader = zeek::make_streaming_ssl_reader([&](zeek::SslLogRecord) { ++emitted; });
  reader.feed(headless);
  reader.finish();
  EXPECT_EQ(emitted, 1u);

  // Reuse the same instance on a fresh stream: rows before the new header
  // must be skipped (the header state was reset), rows after it consumed.
  const std::size_t body_start = headless.rfind("\n1", std::string::npos);
  ASSERT_NE(body_start, std::string::npos);
  const std::string bare_row = headless.substr(body_start + 1);
  const std::size_t skipped_before = reader.lines_skipped();
  reader.feed(bare_row);          // data with no preceding #fields header
  reader.feed(full);              // a complete fresh stream
  reader.finish();
  EXPECT_EQ(emitted, 2u);
  EXPECT_EQ(reader.records_emitted(), 2u);
  EXPECT_GT(reader.lines_skipped(), skipped_before);
}

}  // namespace
}  // namespace certchain
