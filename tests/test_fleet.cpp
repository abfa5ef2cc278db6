// The continuous revisit fleet's contracts (DESIGN.md §17):
//
//  * delta semantics — compute_epoch_delta classifies churn exactly
//    (appeared / disappeared / re-keyed / re-issued / unchanged) and the
//    summary JSON round-trip is lossless for everything the renderers read;
//  * determinism — same seed + same fault plan + same drifted populations
//    yield byte-identical summaries, rows, and delta reports across reruns
//    AND across worker counts (the scheduling differential);
//  * rate limiting — token buckets charge virtual waits, never wall-clock
//    sleeps, and every ledger reconciles per epoch and cumulatively;
//  * service differential — a live ServiceState fed epoch-by-epoch through
//    ingest_append renders reports byte-identical to one batch fold over the
//    concatenated epochs, the fleet_status / epoch_delta endpoints answer
//    from the RCU snapshot byte-identically to the fleet-side renders, and a
//    kill -9 mid-epoch recovers through the WAL to the never-crashed bytes.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <memory>
#include <string>
#include <vector>

#include "core/epoch_delta.hpp"
#include "core/report_text.hpp"
#include "datagen/epoch_drift.hpp"
#include "datagen/scenario.hpp"
#include "fleet/fleet.hpp"
#include "netsim/faults.hpp"
#include "obs/json.hpp"
#include "svc/client.hpp"
#include "svc/handlers.hpp"
#include "svc/protocol.hpp"
#include "svc/server.hpp"
#include "svc/service_state.hpp"
#include "svc/telemetry.hpp"
#include "svc/wal.hpp"
#include "zeek/log_io.hpp"

namespace certchain {
namespace {

datagen::ScenarioConfig small_scenario_config() {
  datagen::ScenarioConfig config;
  config.seed = 20200901;
  config.chain_scale = 1.0 / 400.0;
  config.total_connections = 400;
  config.client_count = 60;
  config.include_length_outliers = false;
  return config;
}

core::EpochSummary make_summary(
    std::size_t index,
    const std::vector<std::tuple<std::string, std::string, std::string>>&
        targets) {
  // (target, fingerprint, key) triples; category flags are irrelevant to the
  // churn classification under test.
  core::EpochSummary summary;
  summary.index = index;
  for (const auto& [target, fingerprint, key] : targets) {
    core::EpochTargetRecord record;
    record.target = target;
    record.leaf_fingerprint = fingerprint;
    record.leaf_key = key;
    record.chain_length = 1;
    summary.targets[target] = record;
    ++summary.reachable;
  }
  summary.health.scanned = summary.reachable;
  summary.health.reachable_clean = summary.reachable;
  return summary;
}

// --- delta semantics, no fleet involved -------------------------------------

TEST(FleetDelta, ChurnClassificationIsExact) {
  const core::EpochSummary before = make_summary(
      0, {{"a:443", "fp-a", "key-a"},
          {"b:443", "fp-b", "key-b"},
          {"c:443", "fp-c", "key-c"},
          {"gone:443", "fp-g", "key-g"}});
  const core::EpochSummary after = make_summary(
      1, {{"a:443", "fp-a", "key-a"},        // unchanged
          {"b:443", "fp-b2", "key-b2"},      // new fingerprint + new key
          {"c:443", "fp-c2", "key-c"},       // new fingerprint, same key
          {"new:443", "fp-n", "key-n"}});    // appeared

  const core::EpochDelta delta = core::compute_epoch_delta(before, after);
  EXPECT_EQ(delta.from_index, 0u);
  EXPECT_EQ(delta.to_index, 1u);
  EXPECT_EQ(delta.appeared, std::vector<std::string>{"new:443"});
  EXPECT_EQ(delta.disappeared, std::vector<std::string>{"gone:443"});
  EXPECT_EQ(delta.re_keyed, std::vector<std::string>{"b:443"});
  EXPECT_EQ(delta.re_issued, std::vector<std::string>{"c:443"});
  EXPECT_EQ(delta.unchanged, 1u);
  EXPECT_EQ(delta.reachable_shift, 0);
}

TEST(FleetDelta, SummaryJsonRoundTripRendersByteIdentical) {
  core::EpochSummary summary = make_summary(
      2, {{"a:443", "fp-a", "key-a"}, {"b:8443", "fp-b", "key-b"}});
  summary.targets["a:443"].lets_encrypt = true;
  summary.targets["a:443"].all_public = true;
  summary.targets["a:443"].leaf_subject = "cn=a,o=example";
  summary.targets["a:443"].leaf_issuer = "cn=r3,o=let's encrypt";
  summary.targets["b:8443"].all_non_public = true;
  summary.targets["b:8443"].hierarchical_non_public = true;
  summary.targets["b:8443"].chain_length = 3;
  summary.targets["b:8443"].degraded = true;
  summary.lets_encrypt = 1;
  summary.all_non_public = 1;
  summary.hierarchical_non_public = 1;
  summary.health.reachable_clean = 1;
  summary.health.reachable_degraded = 1;
  summary.health.unreachable = 4;
  summary.health.scanned = 6;
  summary.health.ledger.targets = 6;
  summary.health.ledger.attempts = 11;
  summary.health.ledger.retries = 5;
  summary.health.ledger.successes = 2;
  summary.health.ledger.failures = 4;
  summary.health.ledger.backoff_ms_total = 321;
  summary.health.ledger.error_counts[scanner::ScanError::kConnectTimeout] = 3;

  obs::json::Writer writer;
  core::write_epoch_summary_json(writer, summary);
  const std::string json = std::move(writer).str();
  const auto parsed_value = obs::json::parse(json);
  ASSERT_TRUE(parsed_value.has_value());
  const auto round = core::parse_epoch_summary(*parsed_value);
  ASSERT_TRUE(round.has_value());
  EXPECT_EQ(core::render_epoch_summary(*round),
            core::render_epoch_summary(summary));

  // Round-tripped summaries also delta identically.
  const core::EpochSummary other =
      make_summary(3, {{"a:443", "fp-a2", "key-a2"}});
  EXPECT_EQ(core::render_epoch_delta(core::compute_epoch_delta(*round, other)),
            core::render_epoch_delta(core::compute_epoch_delta(summary, other)));
}

TEST(FleetDelta, ParseRejectsInconsistentSummaries) {
  core::EpochSummary summary = make_summary(0, {{"a:443", "fp", "key"}});
  summary.health.reachable_clean = 7;  // no longer matches the target records
  obs::json::Writer writer;
  core::write_epoch_summary_json(writer, summary);
  const auto parsed_value = obs::json::parse(std::move(writer).str());
  ASSERT_TRUE(parsed_value.has_value());
  EXPECT_FALSE(core::parse_epoch_summary(*parsed_value).has_value());

  EXPECT_FALSE(core::parse_epoch_summary(obs::json::Value{}).has_value());
}

TEST(FleetDelta, ParseRejectsMalformedLedgerNumbers) {
  core::EpochSummary summary = make_summary(0, {{"a:443", "fp", "key"}});
  summary.health.ledger.error_counts[scanner::ScanError::kDeadlineExceeded] = 2;
  obs::json::Writer writer;
  core::write_epoch_summary_json(writer, summary);
  const std::string text = std::move(writer).str();
  const std::string errors = R"("errors":[[6,2]])";
  ASSERT_NE(text.find(errors), std::string::npos) << text;
  const auto parsed = core::parse_epoch_summary(*obs::json::parse(text));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->health.ledger.error_counts, summary.health.ledger.error_counts);

  const auto with_errors = [&](const std::string& replacement) {
    std::string damaged = text;
    damaged.replace(damaged.find(errors), errors.size(), replacement);
    return damaged;
  };
  // 7 is past the last ScanError; 262 = 256 + 6 once wrapped to the error
  // code's byte; the rest are fractions, negatives and counts past 2^53.
  for (const char* bad : {R"("errors":[[7,2]])", R"("errors":[[262,2]])",
                          R"("errors":[[5.5,2]])", R"("errors":[[-1,2]])",
                          R"("errors":[[6,2.5]])", R"("errors":[[6,-2]])",
                          R"("errors":[[6,9007199254740994]])"}) {
    const auto value = obs::json::parse(with_errors(bad));
    ASSERT_TRUE(value.has_value()) << bad;
    EXPECT_FALSE(core::parse_epoch_summary(*value).has_value()) << bad;
  }
  for (const char* bad : {R"("errors":[[6,1e999]])", R"("errors":[[6-1,2]])",
                          R"("errors":[[06,2]])"}) {
    EXPECT_FALSE(obs::json::parse(with_errors(bad)).has_value()) << bad;
  }
}

// --- determinism over the drifted population --------------------------------

struct FleetRun {
  std::string section;
  std::string ledger;
  std::vector<std::vector<std::string>> ssl_rows;
  std::vector<std::vector<std::string>> x509_rows;
};

FleetRun run_fleet(datagen::Scenario& scenario, std::size_t epochs,
                   std::size_t workers, std::uint64_t seed) {
  datagen::EpochDriftConfig drift;
  drift.seed = seed;
  const datagen::EpochDrifter drifter(scenario, drift, epochs);
  netsim::FaultPlan plan(seed ^ 0xF1EE7, netsim::FaultRates::uniform(0.05));

  fleet::FleetConfig config;
  config.seed = seed;
  config.workers = workers;
  fleet::ScanFleet fleet(config, scenario.world.stores());
  FleetRun run;
  for (std::size_t epoch = 0; epoch < drifter.epoch_count(); ++epoch) {
    fleet::EpochOutcome outcome = fleet.run_epoch(drifter.epoch(epoch), plan);
    EXPECT_TRUE(outcome.summary.health.reconciles());
    run.ssl_rows.push_back(std::move(outcome.ssl_rows));
    run.x509_rows.push_back(std::move(outcome.x509_rows));
  }
  run.section = core::render_fleet_section(fleet.summaries());
  run.ledger = fleet.ledger().to_string();
  return run;
}

TEST(FleetDeterminism, RerunsAndWorkerCountsAreByteIdentical) {
  // Two scenarios built from the same seed are two independent worlds; the
  // second fleet also runs with a very different worker count, so equality
  // proves scheduling and chunking never leak into the results.
  auto scenario_a = datagen::build_study_scenario(small_scenario_config());
  auto scenario_b = datagen::build_study_scenario(small_scenario_config());
  const FleetRun a = run_fleet(*scenario_a, 3, 1, 20241101);
  const FleetRun b = run_fleet(*scenario_b, 3, 8, 20241101);

  EXPECT_EQ(a.section, b.section);
  EXPECT_EQ(a.ledger, b.ledger);
  ASSERT_EQ(a.ssl_rows.size(), b.ssl_rows.size());
  for (std::size_t epoch = 0; epoch < a.ssl_rows.size(); ++epoch) {
    EXPECT_EQ(a.ssl_rows[epoch], b.ssl_rows[epoch]) << "epoch " << epoch;
    EXPECT_EQ(a.x509_rows[epoch], b.x509_rows[epoch]) << "epoch " << epoch;
  }

  // A different fleet seed must NOT reproduce the same campaign (the seed is
  // live, not decorative).
  auto scenario_c = datagen::build_study_scenario(small_scenario_config());
  const FleetRun c = run_fleet(*scenario_c, 3, 8, 99);
  EXPECT_NE(a.section, c.section);
}

TEST(FleetDeterminism, DriftShiftsTheIssuerMixTowardLetsEncrypt) {
  // The §5 forces must actually move the population: across enough epochs
  // the Let's-Encrypt share grows and hierarchies appear.
  auto scenario = datagen::build_study_scenario(small_scenario_config());
  datagen::EpochDriftConfig drift;
  drift.seed = 7;
  const datagen::EpochDrifter drifter(*scenario, drift, 4);
  netsim::FaultPlan plan;  // zero-fault: mix shifts are pure drift

  fleet::FleetConfig config;
  config.seed = 7;
  fleet::ScanFleet fleet(config, scenario->world.stores());
  for (std::size_t epoch = 0; epoch < drifter.epoch_count(); ++epoch) {
    fleet.run_epoch(drifter.epoch(epoch), plan);
  }
  const auto& summaries = fleet.summaries();
  ASSERT_EQ(summaries.size(), 4u);
  EXPECT_GT(summaries.back().lets_encrypt_share(),
            summaries.front().lets_encrypt_share());
  EXPECT_GT(summaries.back().hierarchical_non_public, 0u);
  // Zero faults: unreachability is purely churn — exactly the endpoints the
  // drifter left without a chain this epoch, nothing else.
  for (std::size_t epoch = 0; epoch < summaries.size(); ++epoch) {
    std::size_t offline = 0;
    for (const netsim::ServerEndpoint& endpoint : drifter.epoch(epoch)) {
      if (!endpoint.revisit_chain.has_value()) ++offline;
    }
    EXPECT_EQ(summaries[epoch].health.unreachable, offline) << "epoch " << epoch;
  }
}

TEST(FleetRateLimiter, SlowBucketsChargeVirtualWaitsDeterministically) {
  auto scenario = datagen::build_study_scenario(small_scenario_config());
  datagen::EpochDriftConfig drift;
  const datagen::EpochDrifter drifter(*scenario, drift, 2);
  netsim::FaultPlan plan;

  fleet::FleetConfig config;
  config.interval_ms = 1000;          // epoch 1 starts 1 virtual second in...
  config.rate.tokens_per_second = 0.2;  // ...but a token takes 5 s to refill
  config.rate.burst = 1.0;
  fleet::ScanFleet fleet(config, scenario->world.stores());

  const fleet::EpochOutcome first = fleet.run_epoch(drifter.epoch(0), plan);
  EXPECT_EQ(first.rate_limited, 0u);  // primed buckets cover the first visit
  const fleet::EpochOutcome second = fleet.run_epoch(drifter.epoch(1), plan);
  EXPECT_EQ(second.rate_limited,
            static_cast<std::uint64_t>(second.summary.health.scanned));
  EXPECT_GT(second.rate_wait_ms, 0u);
  EXPECT_TRUE(second.summary.health.reconciles());

  // The cumulative ledger is exactly the per-epoch ledgers merged.
  scanner::ScanLedger merged = first.ledger;
  merged.merge(second.ledger);
  EXPECT_EQ(merged.to_string(), fleet.ledger().to_string());
}

// --- the live-service differential ------------------------------------------

class FleetServiceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    scenario_ = datagen::build_study_scenario(small_scenario_config()).release();

    // Drift BEFORE any logs or analysis: the drifter mints new leaves and CT
    // entries, and every consumer below must see the same finished world.
    datagen::EpochDriftConfig drift;
    drift.seed = kSeed;
    auto drifter =
        std::make_unique<datagen::EpochDrifter>(*scenario_, drift, kEpochs);
    logs_ = new netsim::GeneratedLogs(scenario_->generate_logs());

    netsim::FaultPlan plan(kSeed ^ 0xF1EE7, netsim::FaultRates::uniform(0.05));
    fleet::FleetConfig config;
    config.seed = kSeed;
    fleet::ScanFleet fleet(config, scenario_->world.stores());
    outcomes_ = new std::vector<fleet::EpochOutcome>();
    for (std::size_t epoch = 0; epoch < kEpochs; ++epoch) {
      outcomes_->push_back(fleet.run_epoch(drifter->epoch(epoch), plan));
    }
    fleet_section_ = new std::string(core::render_fleet_section(fleet.summaries()));
  }

  static void TearDownTestSuite() {
    delete fleet_section_;
    delete outcomes_;
    delete logs_;
    delete scenario_;
    fleet_section_ = nullptr;
    outcomes_ = nullptr;
    logs_ = nullptr;
    scenario_ = nullptr;
  }

  static std::unique_ptr<svc::ServiceState> make_state() {
    auto state = std::make_unique<svc::ServiceState>(
        scenario_->world.stores(), scenario_->world.ct_logs(),
        scenario_->vendors, &scenario_->world.cross_signs());
    state->load(logs_->ssl, logs_->x509);
    return state;
  }

  static std::string full_report(const svc::ServiceState& state) {
    return state.report_section(core::ReportTextOptions{});
  }

  static std::string epoch_key(std::size_t epoch) {
    return "fleet-epoch-" + std::to_string(epoch);
  }

  /// Feeds epochs [0, count) into the state: one ingest_append per epoch
  /// carrying its rows and its summary, as the handlers do.
  static void feed_epochs(svc::ServiceState& state, std::size_t count) {
    for (std::size_t epoch = 0; epoch < count; ++epoch) {
      const fleet::EpochOutcome& outcome = (*outcomes_)[epoch];
      state.ingest_append(outcome.ssl_rows, outcome.x509_rows,
                          epoch_key(epoch), outcome.summary);
    }
  }

  static constexpr std::uint64_t kSeed = 20241101;
  static constexpr std::size_t kEpochs = 3;
  static datagen::Scenario* scenario_;
  static netsim::GeneratedLogs* logs_;
  static std::vector<fleet::EpochOutcome>* outcomes_;
  static std::string* fleet_section_;
};

datagen::Scenario* FleetServiceTest::scenario_ = nullptr;
netsim::GeneratedLogs* FleetServiceTest::logs_ = nullptr;
std::vector<fleet::EpochOutcome>* FleetServiceTest::outcomes_ = nullptr;
std::string* FleetServiceTest::fleet_section_ = nullptr;

TEST_F(FleetServiceTest, EpochFedStateMatchesOneBatchLoadOverAllEpochs) {
  // Live path: base corpus + one ingest_append per epoch.
  auto live = make_state();
  feed_epochs(*live, kEpochs);

  // Batch path: every record — base plus all three epochs' rows, parsed the
  // same way ingest does — folded in a single load().
  std::vector<zeek::SslLogRecord> all_ssl = logs_->ssl;
  std::vector<zeek::X509LogRecord> all_x509 = logs_->x509;
  for (const fleet::EpochOutcome& outcome : *outcomes_) {
    for (const std::string& row : outcome.x509_rows) {
      auto record = zeek::parse_x509_row(row);
      ASSERT_TRUE(record.has_value()) << row;
      all_x509.push_back(*std::move(record));
    }
    for (const std::string& row : outcome.ssl_rows) {
      auto record = zeek::parse_ssl_row(row);
      ASSERT_TRUE(record.has_value()) << row;
      all_ssl.push_back(*std::move(record));
    }
  }
  svc::ServiceState batch(scenario_->world.stores(), scenario_->world.ct_logs(),
                          scenario_->vendors, &scenario_->world.cross_signs());
  batch.load(all_ssl, all_x509);

  EXPECT_EQ(live->unique_chains(), batch.unique_chains());
  EXPECT_EQ(full_report(*live), full_report(batch));
}

TEST_F(FleetServiceTest, EndpointsAnswerFromTheSnapshotByteIdentically) {
  auto state = make_state();
  feed_epochs(*state, kEpochs);
  svc::SyncTelemetry telemetry;
  svc::Server server(*state, telemetry, svc::ServerOptions{});
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  svc::Client client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port(), &error)) << error;

  // fleet_status: the registry plus the same render the fleet produced.
  const auto status = client.fleet_status();
  ASSERT_TRUE(status.has_value());
  ASSERT_TRUE(status->ok);
  const obs::json::Value* epochs = status->payload.find("epochs");
  ASSERT_NE(epochs, nullptr);
  EXPECT_EQ(static_cast<std::size_t>(epochs->num), kEpochs);
  const obs::json::Value* text = status->payload.find("text");
  ASSERT_NE(text, nullptr);
  EXPECT_EQ(text->string, *fleet_section_);

  // report_section("fleet") renders the same bytes.
  const auto section = client.report_section("fleet");
  ASSERT_TRUE(section.has_value());
  ASSERT_TRUE(section->ok);
  const obs::json::Value* section_text = section->payload.find("text");
  ASSERT_NE(section_text, nullptr);
  EXPECT_EQ(section_text->string, *fleet_section_);

  // epoch_delta: latest (2) and explicit (1) both equal the offline diffs.
  for (const auto& [request, to_index] :
       std::vector<std::pair<std::optional<std::size_t>, std::size_t>>{
           {std::nullopt, kEpochs - 1}, {std::size_t{1}, 1}}) {
    const auto delta = client.epoch_delta(request);
    ASSERT_TRUE(delta.has_value());
    ASSERT_TRUE(delta->ok);
    const obs::json::Value* delta_text = delta->payload.find("text");
    ASSERT_NE(delta_text, nullptr);
    EXPECT_EQ(delta_text->string,
              core::render_epoch_delta(core::compute_epoch_delta(
                  (*outcomes_)[to_index - 1].summary,
                  (*outcomes_)[to_index].summary)));
  }

  // Unknown epoch indices are typed NOT_FOUND, not transport failures.
  const auto missing = client.epoch_delta(std::size_t{99});
  ASSERT_TRUE(missing.has_value());
  EXPECT_EQ(missing->frame.type, svc::MessageType::kError);
  EXPECT_EQ(missing->error, svc::ErrorCode::kNotFound);
  const auto zero = client.epoch_delta(std::size_t{0});  // no predecessor
  ASSERT_TRUE(zero.has_value());
  EXPECT_EQ(zero->error, svc::ErrorCode::kNotFound);

  client.shutdown();
  server.wait();
}

TEST_F(FleetServiceTest, EpochDeltaRejectsNonIntegerEpochs) {
  auto state = make_state();
  feed_epochs(*state, kEpochs);
  svc::SyncTelemetry telemetry;
  const svc::RequestHandlers handlers(*state, telemetry);
  const auto answer = [&handlers](const std::string& payload) {
    bool shutdown_requested = false;
    svc::FrameReader reader;
    reader.feed(handlers.handle(
        svc::Frame{svc::MessageType::kEpochDelta, payload}, &shutdown_requested));
    const svc::DecodeResult result = reader.next();
    EXPECT_EQ(result.status, svc::DecodeResult::Status::kFrame) << payload;
    return result.frame;
  };
  EXPECT_EQ(answer(R"({"epoch":1})").type, svc::MessageType::kEpochDeltaOk);

  for (const char* payload :
       {R"({"epoch":1.5})", R"({"epoch":-1})", R"({"epoch":9007199254740994})",
        R"({"epoch":"1"})", R"({"epoch":1e999})", R"({"epoch":1-2})",
        R"({"epoch":01})"}) {
    const svc::Frame frame = answer(payload);
    ASSERT_EQ(frame.type, svc::MessageType::kError) << payload;
    const auto body = obs::json::parse(frame.payload);
    ASSERT_TRUE(body.has_value()) << frame.payload;
    const obs::json::Value* code = body->find("code");
    ASSERT_NE(code, nullptr) << frame.payload;
    EXPECT_EQ(code->string, svc::error_code_name(svc::ErrorCode::kBadPayload))
        << payload;
  }
}

TEST_F(FleetServiceTest, FleetStatusBeforeAnyEpochIsEmptyAndDeltaNotFound) {
  auto state = make_state();
  svc::SyncTelemetry telemetry;
  svc::Server server(*state, telemetry, svc::ServerOptions{});
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  svc::Client client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port(), &error)) << error;

  const auto status = client.fleet_status();
  ASSERT_TRUE(status.has_value());
  ASSERT_TRUE(status->ok);
  const obs::json::Value* epochs = status->payload.find("epochs");
  ASSERT_NE(epochs, nullptr);
  EXPECT_EQ(static_cast<std::size_t>(epochs->num), 0u);

  const auto delta = client.epoch_delta();
  ASSERT_TRUE(delta.has_value());
  EXPECT_EQ(delta->error, svc::ErrorCode::kNotFound);

  client.shutdown();
  server.wait();
}

TEST_F(FleetServiceTest, RefedEpochIsIdempotentByIndex) {
  auto state = make_state();
  feed_epochs(*state, 2);
  const std::uint64_t generation = state->generation();
  const auto pinned = state->acquire_snapshot();
  const std::string pinned_section =
      core::render_fleet_section(*pinned->fleet_epochs);

  // Re-feeding epoch 1 on its key (a retry / post-recovery re-feed) folds
  // nothing and replaces the summary in place: no growth, no reorder, and
  // the corpus generation is untouched.
  EXPECT_TRUE(state
                  ->ingest_append((*outcomes_)[1].ssl_rows,
                                  (*outcomes_)[1].x509_rows, epoch_key(1),
                                  (*outcomes_)[1].summary)
                  .duplicate);
  const auto snapshot = state->acquire_snapshot();
  ASSERT_EQ(snapshot->fleet_epochs->size(), 2u);
  EXPECT_EQ((*snapshot->fleet_epochs)[0].index, 0u);
  EXPECT_EQ((*snapshot->fleet_epochs)[1].index, 1u);
  EXPECT_EQ(state->generation(), generation);
  EXPECT_EQ(core::render_fleet_section(*snapshot->fleet_epochs),
            core::render_fleet_section(
                {(*outcomes_)[0].summary, (*outcomes_)[1].summary}));

  // The re-feed publishes a new snapshot around the same report object; the
  // reader pinning the previous one still renders that snapshot's bytes.
  EXPECT_NE(snapshot, pinned);
  EXPECT_EQ(snapshot->report, pinned->report);
  EXPECT_NE(snapshot->fleet_epochs, pinned->fleet_epochs);
  EXPECT_EQ(core::render_fleet_section(*pinned->fleet_epochs), pinned_section);
}

TEST_F(FleetServiceTest, EveryEpochCarryingAppendPublishesOnce) {
  auto state = make_state();
  svc::SyncTelemetry telemetry;
  svc::Server server(*state, telemetry, svc::ServerOptions{});
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  svc::Client client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port(), &error)) << error;

  // Fresh epochs fold and publish once each; the same requests re-fed fold
  // nothing and publish the updated epoch list once each.
  for (const bool refeed : {false, true}) {
    for (std::size_t epoch = 0; epoch < kEpochs; ++epoch) {
      const fleet::EpochOutcome& outcome = (*outcomes_)[epoch];
      obs::json::Writer summary;
      core::write_epoch_summary_json(summary, outcome.summary);
      const std::uint64_t before = telemetry.counter("svc.snapshot.published");
      const auto response = client.ingest_append_epoch(
          outcome.ssl_rows, outcome.x509_rows, epoch_key(epoch),
          std::move(summary).str());
      ASSERT_TRUE(response.has_value());
      ASSERT_TRUE(response->ok) << response->error_message;
      const obs::json::Value* duplicate = response->payload.find("duplicate");
      ASSERT_NE(duplicate, nullptr);
      EXPECT_EQ(duplicate->boolean, refeed) << "epoch " << epoch;
      EXPECT_EQ(telemetry.counter("svc.snapshot.published"), before + 1)
          << "epoch " << epoch << (refeed ? " re-fed" : " fresh");
    }
  }
  EXPECT_EQ(telemetry.counter("svc.ingest.fleet_epochs"), 2 * kEpochs);
  EXPECT_EQ(core::render_fleet_section(*state->acquire_snapshot()->fleet_epochs),
            *fleet_section_);

  client.shutdown();
  server.wait();
}

TEST_F(FleetServiceTest, KillNineMidEpochRecoversToTheNeverCrashedBytes) {
  const std::string wal =
      ::testing::TempDir() + "certchain_fleet_kill9.wal";
  ::unlink(wal.c_str());
  ::unlink(svc::snapshot_path_for(wal).c_str());

  // The child feeds two epochs durably, then dies by SIGKILL with 9 bytes
  // of epoch 2's WAL record on disk — mid-append, mid-campaign.
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    auto state = make_state();
    svc::DurabilityOptions durability;
    durability.wal_path = wal;
    if (!state->recover_and_arm(durability, nullptr, nullptr)) _exit(10);
    feed_epochs(*state, 2);

    svc::WalRecord torn;
    torn.seq = 3;
    torn.idempotency_key = epoch_key(2);
    torn.ssl_rows = (*outcomes_)[2].ssl_rows;
    torn.x509_rows = (*outcomes_)[2].x509_rows;
    const std::string framed = svc::encode_wal_record(torn);
    const int fd = ::open(wal.c_str(), O_WRONLY | O_APPEND);
    if (fd < 0) _exit(11);
    if (::write(fd, framed.data(), 9) != 9) _exit(12);
    ::fsync(fd);
    ::raise(SIGKILL);
    _exit(13);  // unreachable
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status))
      << "child exited with " << (WIFEXITED(status) ? WEXITSTATUS(status) : -1);
  ASSERT_EQ(WTERMSIG(status), SIGKILL);

  // Recovery replays the two acknowledged epochs and truncates the torn
  // third; the fleet then re-feeds every epoch — duplicates fold exactly
  // once via their idempotency keys, epoch 2 folds fresh, and the epoch
  // registry (in-memory by design, §17.3) repopulates idempotently.
  auto recovered = make_state();
  svc::DurabilityOptions durability;
  durability.wal_path = wal;
  svc::RecoveryStats stats;
  std::string error;
  ASSERT_TRUE(recovered->recover_and_arm(durability, &stats, &error)) << error;
  EXPECT_EQ(stats.wal_records_seen, 2u);
  EXPECT_EQ(stats.wal_records_applied, 2u);
  EXPECT_EQ(stats.torn_bytes, 9u);

  const std::uint64_t recovered_generation = recovered->generation();
  for (std::size_t epoch = 0; epoch < 2; ++epoch) {
    EXPECT_TRUE(recovered
                    ->ingest_append((*outcomes_)[epoch].ssl_rows,
                                    (*outcomes_)[epoch].x509_rows,
                                    epoch_key(epoch),
                                    (*outcomes_)[epoch].summary)
                    .duplicate);
  }
  EXPECT_EQ(recovered->generation(), recovered_generation);
  EXPECT_FALSE(recovered
                   ->ingest_append((*outcomes_)[2].ssl_rows,
                                   (*outcomes_)[2].x509_rows, epoch_key(2),
                                   (*outcomes_)[2].summary)
                   .duplicate);

  auto reference = make_state();
  feed_epochs(*reference, kEpochs);
  EXPECT_EQ(recovered->generation(), reference->generation());
  EXPECT_EQ(full_report(*recovered), full_report(*reference));
  EXPECT_EQ(core::render_fleet_section(
                *recovered->acquire_snapshot()->fleet_epochs),
            *fleet_section_);
  ::unlink(wal.c_str());
}

}  // namespace
}  // namespace certchain
