// The live query server's core contracts (DESIGN.md §12):
//
//  * differential — every answer the server gives (report sections, issuer
//    classes, chain categories) is byte-identical to what a batch
//    StudyPipeline run over the same records computes;
//  * concurrency — N clients querying while ingest_append folds new rows
//    never see torn state: every response carries a complete analysis
//    generation, and the final corpus equals the batch fold of all records;
//  * accounting — the stage.svc.requests.{in,admitted,dropped} triple
//    reconciles (in == admitted + dropped) at every point a test reads it;
//  * backpressure — a zero-capacity admission queue turns every request into
//    a typed OVERLOADED error, deterministically;
//  * drain — kShutdown answers, then the server drains and refuses new work.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "chain/categorizer.hpp"
#include "core/pipeline.hpp"
#include "core/report_text.hpp"
#include "core/study_input.hpp"
#include "datagen/scenario.hpp"
#include "obs/json.hpp"
#include "svc/client.hpp"
#include "svc/server.hpp"
#include "svc/service_state.hpp"
#include "svc/telemetry.hpp"
#include "zeek/joiner.hpp"
#include "zeek/log_io.hpp"

namespace certchain {
namespace {

/// Serializes one record to its raw TSV body row (what ingest_append eats).
template <typename Writer, typename Record>
std::string body_row(const Record& record) {
  Writer writer;
  writer.add(record);
  const std::string text = writer.finish();
  std::size_t begin = 0;
  while (begin < text.size()) {
    std::size_t end = text.find('\n', begin);
    if (end == std::string::npos) end = text.size();
    if (end > begin && text[begin] != '#') return text.substr(begin, end - begin);
    begin = end + 1;
  }
  ADD_FAILURE() << "writer produced no body row";
  return {};
}

std::string ssl_row(const zeek::SslLogRecord& record) {
  return body_row<zeek::SslLogWriter>(record);
}

std::string x509_row(const zeek::X509LogRecord& record) {
  return body_row<zeek::X509LogWriter>(record);
}

std::uint64_t uint_field(const obs::json::Value& payload, const char* key) {
  const obs::json::Value* value = payload.find(key);
  if (value == nullptr || !value->is_number()) {
    ADD_FAILURE() << "missing numeric field " << key;
    return 0;
  }
  return static_cast<std::uint64_t>(value->num);
}

class SvcServerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    datagen::ScenarioConfig config;
    config.seed = 20200901;
    config.chain_scale = 1.0 / 800.0;
    config.total_connections = 800;
    config.client_count = 100;
    config.include_length_outliers = false;
    scenario_ = datagen::build_study_scenario(config).release();
    logs_ = new netsim::GeneratedLogs(scenario_->generate_logs());
    pipeline_ = new core::StudyPipeline(
        scenario_->world.stores(), scenario_->world.ct_logs(),
        scenario_->vendors, &scenario_->world.cross_signs());
    batch_report_ = new core::StudyReport(
        pipeline_->run(core::StudyInput::records(logs_->ssl, logs_->x509)));
  }

  static void TearDownTestSuite() {
    delete batch_report_;
    delete pipeline_;
    delete logs_;
    delete scenario_;
    batch_report_ = nullptr;
    pipeline_ = nullptr;
    logs_ = nullptr;
    scenario_ = nullptr;
  }

  /// A fresh state + server over the given SSL prefix (all X509 records are
  /// always loaded up front so incremental SSL appends join identically to
  /// the batch fold, which indexes every certificate before joining).
  void start_server(std::size_t ssl_prefix, svc::ServerOptions options) {
    std::vector<zeek::SslLogRecord> initial(
        logs_->ssl.begin(),
        logs_->ssl.begin() + static_cast<std::ptrdiff_t>(ssl_prefix));
    state_ = std::make_unique<svc::ServiceState>(
        scenario_->world.stores(), scenario_->world.ct_logs(),
        scenario_->vendors, &scenario_->world.cross_signs());
    state_->load(initial, logs_->x509);
    telemetry_ = std::make_unique<svc::SyncTelemetry>();
    server_ = std::make_unique<svc::Server>(*state_, *telemetry_, options);
    std::string error;
    ASSERT_TRUE(server_->start(&error)) << error;
  }

  void TearDown() override {
    if (server_ != nullptr) {
      server_->request_stop();
      server_->wait();
    }
  }

  svc::Client connect() {
    svc::Client client;
    std::string error;
    EXPECT_TRUE(client.connect("127.0.0.1", server_->port(), &error)) << error;
    return client;
  }

  void expect_triple_reconciles() {
    const std::uint64_t in = telemetry_->counter("stage.svc.requests.in");
    const std::uint64_t admitted =
        telemetry_->counter("stage.svc.requests.admitted");
    const std::uint64_t dropped =
        telemetry_->counter("stage.svc.requests.dropped");
    EXPECT_EQ(in, admitted + dropped)
        << "in=" << in << " admitted=" << admitted << " dropped=" << dropped;
  }

  static core::StudyPipeline* pipeline_;
  static datagen::Scenario* scenario_;
  static netsim::GeneratedLogs* logs_;
  static core::StudyReport* batch_report_;

  std::unique_ptr<svc::ServiceState> state_;
  std::unique_ptr<svc::SyncTelemetry> telemetry_;
  std::unique_ptr<svc::Server> server_;
};

core::StudyPipeline* SvcServerTest::pipeline_ = nullptr;
datagen::Scenario* SvcServerTest::scenario_ = nullptr;
netsim::GeneratedLogs* SvcServerTest::logs_ = nullptr;
core::StudyReport* SvcServerTest::batch_report_ = nullptr;

TEST_F(SvcServerTest, ReportSectionsMatchBatchPipelineByteForByte) {
  start_server(logs_->ssl.size(), {});
  svc::Client client = connect();

  const auto full = client.report_section("full");
  ASSERT_TRUE(full.has_value());
  ASSERT_TRUE(full->ok) << full->error_message;
  EXPECT_EQ(full->payload.find("text")->string,
            core::render_report_text(*batch_report_));

  core::ReportTextOptions categories_only;
  categories_only.totals = false;
  categories_only.interception = false;
  categories_only.hybrid = false;
  categories_only.non_public = false;
  categories_only.ct_compliance = false;
  categories_only.graphs = false;
  categories_only.data_quality = false;
  const auto categories = client.report_section("categories");
  ASSERT_TRUE(categories.has_value());
  ASSERT_TRUE(categories->ok);
  EXPECT_EQ(categories->payload.find("text")->string,
            core::render_report_text(*batch_report_, categories_only));
}

TEST_F(SvcServerTest, AcceptedAndClientSocketsSetTcpNoDelay) {
  start_server(0, {});
  svc::Client client = connect();
  const auto pong = client.ping();  // the server has accepted by now
  ASSERT_TRUE(pong.has_value());
  ASSERT_TRUE(pong->ok);

  // Both ends of the one loopback connection live in this process: the
  // client's socket has the server's port as its peer, the accepted one as
  // its own (the listener has no peer).
  const auto port_of = [](const sockaddr_in& address) {
    return ntohs(address.sin_port);
  };
  int client_fd = -1;
  int accepted_fd = -1;
  for (int fd = 0; fd < 1024; ++fd) {
    sockaddr_in local{};
    sockaddr_in peer{};
    socklen_t local_size = sizeof local;
    socklen_t peer_size = sizeof peer;
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&local), &local_size) != 0 ||
        local.sin_family != AF_INET ||
        ::getpeername(fd, reinterpret_cast<sockaddr*>(&peer), &peer_size) != 0) {
      continue;
    }
    if (port_of(peer) == server_->port()) client_fd = fd;
    if (port_of(local) == server_->port()) accepted_fd = fd;
  }
  ASSERT_GE(client_fd, 0);
  ASSERT_GE(accepted_fd, 0);
  for (const int fd : {client_fd, accepted_fd}) {
    int no_delay = 0;
    socklen_t size = sizeof no_delay;
    ASSERT_EQ(::getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &no_delay, &size), 0);
    EXPECT_NE(no_delay, 0) << (fd == client_fd ? "client" : "accepted");
  }
}

TEST_F(SvcServerTest, ClassifyIssuerMatchesTrustStoreClassification) {
  start_server(logs_->ssl.size(), {});
  svc::Client client = connect();

  std::size_t checked = 0;
  for (const zeek::X509LogRecord& record : logs_->x509) {
    if (checked >= 24) break;
    const x509::Certificate cert = zeek::certificate_from_record(record);
    const auto response = client.classify_issuer(cert.issuer.to_string());
    ASSERT_TRUE(response.has_value());
    ASSERT_TRUE(response->ok) << response->error_message;
    EXPECT_EQ(response->payload.find("class")->string,
              truststore::issuer_class_name(
                  scenario_->world.stores().classify_issuer(cert.issuer)));
    ++checked;
  }
  EXPECT_GT(checked, 0u);
}

TEST_F(SvcServerTest, CategorizeChainMatchesBatchCategorizer) {
  start_server(logs_->ssl.size(), {});
  svc::Client client = connect();

  const chain::InterceptionIssuerSet issuers =
      batch_report_->interception.issuer_set();
  const zeek::LogJoiner joiner(logs_->x509);
  std::size_t checked = 0;
  for (const zeek::SslLogRecord& ssl : logs_->ssl) {
    if (checked >= 16) break;
    const zeek::JoinedConnection joined = joiner.join(ssl);
    if (!joined.complete() || joined.chain.empty()) continue;

    std::vector<std::string> rows;
    for (const std::string& fuid : ssl.cert_chain_fuids) {
      for (const zeek::X509LogRecord& record : logs_->x509) {
        if (record.fuid == fuid) {
          rows.push_back(x509_row(record));
          break;
        }
      }
    }
    const auto response = client.categorize_chain_rows(rows);
    ASSERT_TRUE(response.has_value());
    ASSERT_TRUE(response->ok) << response->error_message;
    EXPECT_EQ(response->payload.find("category")->string,
              chain::chain_category_name(chain::categorize_chain(
                  joined.chain, scenario_->world.stores(), issuers)));
    EXPECT_EQ(uint_field(response->payload, "length"), joined.chain.length());
    ++checked;
  }
  EXPECT_GT(checked, 0u);
}

TEST_F(SvcServerTest, IngestAppendFoldsRowsAndBumpsGeneration) {
  const std::size_t half = logs_->ssl.size() / 2;
  start_server(half, {});
  svc::Client client = connect();

  const auto before = client.ping();
  ASSERT_TRUE(before.has_value());
  const std::uint64_t generation_before =
      uint_field(before->payload, "generation");

  std::vector<std::string> rows;
  for (std::size_t i = half; i < half + 10 && i < logs_->ssl.size(); ++i) {
    rows.push_back(ssl_row(logs_->ssl[i]));
  }
  rows.push_back("definitely\tnot\ta\tparseable\tssl\trow");
  const auto append = client.ingest_append(rows, {});
  ASSERT_TRUE(append.has_value());
  ASSERT_TRUE(append->ok) << append->error_message;
  EXPECT_EQ(uint_field(append->payload, "ssl_added"), rows.size() - 1);
  EXPECT_EQ(uint_field(append->payload, "ssl_malformed"), 1u);
  EXPECT_EQ(uint_field(append->payload, "generation"), generation_before + 1);
}

TEST_F(SvcServerTest, ConcurrentQueriesAndIngestConvergeToTheBatchReport) {
  const std::size_t half = logs_->ssl.size() / 2;
  svc::ServerOptions options;
  options.workers = 4;
  options.queue_capacity = 256;
  start_server(half, options);

  constexpr int kQueryThreads = 6;
  constexpr int kRequestsPerThread = 25;
  std::atomic<int> failures{0};

  std::thread ingest([&] {
    svc::Client client = connect();
    constexpr std::size_t kBatch = 40;
    for (std::size_t begin = half; begin < logs_->ssl.size(); begin += kBatch) {
      const std::size_t end = std::min(begin + kBatch, logs_->ssl.size());
      std::vector<std::string> rows;
      for (std::size_t i = begin; i < end; ++i) {
        rows.push_back(ssl_row(logs_->ssl[i]));
      }
      const auto response = client.ingest_append(rows, {});
      if (!response.has_value() || !response->ok) failures.fetch_add(1);
    }
  });

  std::vector<std::thread> queriers;
  for (int t = 0; t < kQueryThreads; ++t) {
    queriers.emplace_back([&, t] {
      svc::Client client = connect();
      std::uint64_t last_generation = 0;
      for (int i = 0; i < kRequestsPerThread; ++i) {
        switch ((t + i) % 3) {
          case 0: {
            const auto response = client.ping();
            if (!response.has_value() || !response->ok) {
              failures.fetch_add(1);
              break;
            }
            // Generations never run backwards for any observer.
            const obs::json::Value* generation =
                response->payload.find("generation");
            if (generation == nullptr ||
                static_cast<std::uint64_t>(generation->num) < last_generation) {
              failures.fetch_add(1);
            } else {
              last_generation = static_cast<std::uint64_t>(generation->num);
            }
            break;
          }
          case 1: {
            const auto response = client.report_section("totals");
            if (!response.has_value() || !response->ok) failures.fetch_add(1);
            break;
          }
          default: {
            const auto response = client.classify_issuer(
                "CN=Test Issuing CA,O=TestPKI,C=US");
            if (!response.has_value() || !response->ok) failures.fetch_add(1);
            break;
          }
        }
      }
    });
  }

  ingest.join();
  for (std::thread& thread : queriers) thread.join();
  EXPECT_EQ(failures.load(), 0);

  // After the dust settles the live corpus must equal the batch fold of all
  // records — byte-identical report, same unique-chain population.
  svc::Client client = connect();
  const auto full = client.report_section("full");
  ASSERT_TRUE(full.has_value());
  ASSERT_TRUE(full->ok);
  EXPECT_EQ(full->payload.find("text")->string,
            core::render_report_text(*batch_report_));

  expect_triple_reconciles();
  const std::uint64_t ingest_batches =
      static_cast<std::uint64_t>((logs_->ssl.size() - half + 39) / 40);
  const std::uint64_t query_requests =
      static_cast<std::uint64_t>(kQueryThreads) * kRequestsPerThread;
  EXPECT_EQ(telemetry_->counter("stage.svc.requests.in"),
            ingest_batches + query_requests + 1);  // +1: the report above
  const auto metrics = client.metrics();
  ASSERT_TRUE(metrics.has_value());
  ASSERT_TRUE(metrics->ok);
  EXPECT_NE(metrics->frame.payload.find("stage.svc.requests.admitted"),
            std::string::npos);
}

TEST_F(SvcServerTest, TwoHundredFiftySixConnectionsAnswerEveryRequest) {
  // Hundreds of loop-owned sockets at once race the RCU publish/acquire
  // edges, the worker completion queue and the wake pipe — the code TSan can
  // falsify (DESIGN.md §15.5). The load is driven wrk-style: each driver
  // thread owns every kDrivers-th connection and pumps its slice in
  // send-all-then-read-all waves, so every connection stays closed-loop (one
  // request in flight) while the server juggles all of them.
  constexpr int kConnections = 256;
  constexpr int kDrivers = 8;
  constexpr int kRequestsPerConnection = 4;
  svc::ServerOptions options;
  // One request in flight per connection: a queue as deep as the connection
  // count never answers OVERLOADED, so every error is real.
  options.queue_capacity = 256;
  options.max_connections = 264;
  start_server(logs_->ssl.size(), options);

  // Pre-encoded frames for the ping/classify/report/metrics mix (the
  // payloads the typed svc::Client helpers send).
  std::vector<std::string> classify_wires;
  for (const zeek::X509LogRecord& record : logs_->x509) {
    obs::json::Writer writer;
    writer.begin_object();
    writer.key("issuer");
    writer.value_string(
        zeek::certificate_from_record(record).issuer.to_string());
    writer.end_object();
    classify_wires.push_back(svc::encode_frame(
        svc::MessageType::kClassifyIssuer, std::move(writer).str()));
    if (classify_wires.size() == 8) break;
  }
  ASSERT_FALSE(classify_wires.empty());
  const std::string ping_wire = svc::encode_frame(svc::MessageType::kPing, "");
  const std::string report_wire = svc::encode_frame(
      svc::MessageType::kReportSection, "{\"section\":\"totals\"}");
  const std::string metrics_wire =
      svc::encode_frame(svc::MessageType::kMetrics, "");
  const auto request_wire = [&](int connection,
                                int request) -> const std::string& {
    switch ((connection + request) % 4) {
      case 0: return ping_wire;
      case 1:
        return classify_wires[static_cast<std::size_t>(connection) %
                              classify_wires.size()];
      case 2: return report_wire;
      default: return metrics_wire;
    }
  };

  std::atomic<int> errors{0};
  std::vector<std::thread> drivers;
  for (int d = 0; d < kDrivers; ++d) {
    drivers.emplace_back([&, d] {
      std::vector<std::unique_ptr<svc::Client>> connections;
      std::vector<int> ids;
      for (int c = d; c < kConnections; c += kDrivers) {
        auto client = std::make_unique<svc::Client>();
        if (!client->connect("127.0.0.1", server_->port())) {
          errors.fetch_add(kRequestsPerConnection);
          continue;
        }
        connections.push_back(std::move(client));
        ids.push_back(c);
      }
      for (int i = 0; i < kRequestsPerConnection; ++i) {
        for (std::size_t k = 0; k < connections.size(); ++k) {
          if (!connections[k]->send_raw(request_wire(ids[k], i))) {
            errors.fetch_add(1);
          }
        }
        for (std::size_t k = 0; k < connections.size(); ++k) {
          const auto frame = connections[k]->read_frame();
          if (!frame.has_value() || frame->type == svc::MessageType::kError) {
            errors.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& driver : drivers) driver.join();

  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(telemetry_->counter("stage.svc.requests.in"),
            static_cast<std::uint64_t>(kConnections) * kRequestsPerConnection);
  expect_triple_reconciles();
}

TEST_F(SvcServerTest, ZeroCapacityQueueRejectsEverythingWithOverloaded) {
  svc::ServerOptions options;
  options.queue_capacity = 0;
  options.workers = 1;
  start_server(0, options);

  svc::Client client = connect();
  for (int i = 0; i < 5; ++i) {
    const auto response = client.ping();
    ASSERT_TRUE(response.has_value());
    EXPECT_FALSE(response->ok);
    EXPECT_EQ(response->frame.type, svc::MessageType::kError);
    EXPECT_EQ(response->error, svc::ErrorCode::kOverloaded);
  }
  EXPECT_EQ(telemetry_->counter("stage.svc.requests.in"), 5u);
  EXPECT_EQ(telemetry_->counter("stage.svc.requests.admitted"), 0u);
  EXPECT_EQ(telemetry_->counter("stage.svc.requests.dropped"), 5u);
  expect_triple_reconciles();
}

TEST_F(SvcServerTest, ShutdownRequestDrainsAndRefusesNewWork) {
  start_server(0, {});
  svc::Client client = connect();

  const auto response = client.shutdown();
  ASSERT_TRUE(response.has_value());
  ASSERT_TRUE(response->ok);
  // The server closes its end after answering a shutdown.
  EXPECT_FALSE(client.read_frame().has_value());

  server_->wait();
  // Fully drained: the listening socket is gone.
  svc::Client late;
  EXPECT_FALSE(late.connect("127.0.0.1", server_->port()));
  expect_triple_reconciles();
}

TEST_F(SvcServerTest, MetricsEndpointExportsTheStandardSchema) {
  start_server(0, {});
  svc::Client client = connect();
  ASSERT_TRUE(client.ping().has_value());

  const auto metrics = client.metrics();
  ASSERT_TRUE(metrics.has_value());
  ASSERT_TRUE(metrics->ok);
  const auto parsed = obs::json::parse(metrics->frame.payload);
  ASSERT_TRUE(parsed.has_value());
  const obs::json::Value* schema = parsed->find("schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->string, "certchain.obs.metrics");
  // The endpoint histograms ride along in the export.
  EXPECT_NE(metrics->frame.payload.find("svc.endpoint.ping.ms"),
            std::string::npos);
}

TEST_F(SvcServerTest, StalledMidFramePeerGetsDeadlineExceededAndClose) {
  svc::ServerOptions options;
  options.request_deadline_ms = 120;
  start_server(0, options);

  svc::Client client = connect();
  client.set_timeout_ms(5000);  // bounds the test, not the assertion
  const std::string wire = svc::encode_frame(svc::MessageType::kPing, "{}");
  ASSERT_TRUE(client.send_raw(wire.substr(0, wire.size() / 2)));

  // ...and then nothing. Within the deadline (plus scheduling slack) the
  // server must answer with the typed error and hang up — the reader thread
  // is never pinned by the half-delivered frame.
  const auto started = std::chrono::steady_clock::now();
  const auto reply = client.read_frame();
  const auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - started);
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, svc::MessageType::kError);
  const auto payload = obs::json::parse(reply->payload);
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(payload->find("code")->string,
            svc::error_code_name(svc::ErrorCode::kDeadlineExceeded));
  EXPECT_FALSE(client.read_frame().has_value());
  EXPECT_LT(waited.count(), 2000);

  EXPECT_EQ(telemetry_->counter("svc.connections.stalled_closed"), 1u);
  // A frame that never completed never counts as a request.
  EXPECT_EQ(telemetry_->counter("stage.svc.requests.in"), 0u);
  expect_triple_reconciles();

  // The server is unharmed; a well-behaved connection still works.
  svc::Client probe = connect();
  const auto pong = probe.ping();
  ASSERT_TRUE(pong.has_value());
  EXPECT_TRUE(pong->ok);
}

TEST_F(SvcServerTest, CtSthAndInclusionProofAnswerAndVerify) {
  start_server(logs_->ssl.size(), {});
  svc::Client client = connect();

  // ct_sth: one head per log, byte-identical to the in-process trees.
  const ct::CtLogSet& ct_logs = scenario_->world.ct_logs();
  const auto sth = client.ct_sth();
  ASSERT_TRUE(sth.has_value());
  ASSERT_TRUE(sth->ok) << sth->error_message;
  const obs::json::Value* heads = sth->payload.find("logs");
  ASSERT_NE(heads, nullptr);
  ASSERT_EQ(heads->array.size(), ct_logs.log_count());
  for (std::size_t i = 0; i < ct_logs.log_count(); ++i) {
    const obs::json::Value& head = heads->array[i];
    EXPECT_EQ(head.find("log_id")->string, ct_logs.log(i).log_id());
    EXPECT_EQ(uint_field(head, "tree_size"), ct_logs.log(i).size());
    EXPECT_EQ(head.find("root")->string, ct_logs.log(i).root_hash().to_hex());
  }

  // ct_prove_inclusion for a fingerprint the first log actually holds; the
  // returned proof must verify client-side against the returned head.
  const ct::CtLog& log0 = ct_logs.log(0);
  ASSERT_GT(log0.size(), 0u);
  const std::string fingerprint =
      log0.entries().front().certificate_fingerprint;
  const auto proven = client.ct_prove_inclusion(fingerprint);
  ASSERT_TRUE(proven.has_value());
  ASSERT_TRUE(proven->ok) << proven->error_message;
  EXPECT_EQ(proven->payload.find("log_id")->string, log0.log_id());
  const std::size_t index = uint_field(proven->payload, "index");
  const std::size_t tree_size = uint_field(proven->payload, "tree_size");
  EXPECT_EQ(tree_size, log0.size());
  ct::Digest256 root;
  ASSERT_TRUE(
      ct::Digest256::from_hex(proven->payload.find("root")->string, root));
  std::vector<ct::Digest256> proof;
  for (const obs::json::Value& node : proven->payload.find("proof")->array) {
    ct::Digest256 digest;
    ASSERT_TRUE(ct::Digest256::from_hex(node.string, digest));
    proof.push_back(digest);
  }
  EXPECT_TRUE(ct::verify_inclusion_hash(log0.leaf_hash_at(index), index,
                                        tree_size, proof, root));

  // A well-formed query for an unlogged fingerprint is the typed miss...
  const auto missing = client.ct_prove_inclusion("deadbeef-not-logged");
  ASSERT_TRUE(missing.has_value());
  EXPECT_EQ(missing->frame.type, svc::MessageType::kError);
  EXPECT_EQ(missing->error, svc::ErrorCode::kNotFound);

  // ...and a malformed one is payload damage, not NOT_FOUND.
  const auto empty = client.ct_prove_inclusion("");
  ASSERT_TRUE(empty.has_value());
  EXPECT_EQ(empty->error, svc::ErrorCode::kBadPayload);

  // Constraining the search to a named log still answers.
  const auto named = client.ct_prove_inclusion(fingerprint, log0.log_id());
  ASSERT_TRUE(named.has_value());
  EXPECT_TRUE(named->ok);
  const auto wrong_log = client.ct_prove_inclusion(fingerprint, "no-such-log");
  ASSERT_TRUE(wrong_log.has_value());
  EXPECT_EQ(wrong_log->error, svc::ErrorCode::kNotFound);
  expect_triple_reconciles();
}

TEST_F(SvcServerTest, CtMonitorStatusBeforeAndAfterArming) {
  start_server(logs_->ssl.size(), {});

  svc::Client client = connect();
  const auto unarmed = client.ct_monitor_status();
  ASSERT_TRUE(unarmed.has_value());
  ASSERT_TRUE(unarmed->ok) << unarmed->error_message;
  EXPECT_FALSE(unarmed->payload.find("armed")->boolean);

  // Arm and poll twice; the endpoint must report the counters and one clean
  // checkpoint per log.
  ct::Monitor& monitor = state_->arm_ct_monitor();
  monitor.poll_once();
  monitor.poll_once();
  const auto armed = client.ct_monitor_status();
  ASSERT_TRUE(armed.has_value());
  ASSERT_TRUE(armed->ok) << armed->error_message;
  EXPECT_TRUE(armed->payload.find("armed")->boolean);
  EXPECT_EQ(uint_field(armed->payload, "polls"), 2u);
  EXPECT_EQ(uint_field(armed->payload, "violations"), 0u);
  const ct::CtLogSet& ct_logs = scenario_->world.ct_logs();
  const obs::json::Value* checkpoints = armed->payload.find("checkpoints");
  ASSERT_NE(checkpoints, nullptr);
  ASSERT_EQ(checkpoints->array.size(), ct_logs.log_count());
  for (std::size_t i = 0; i < ct_logs.log_count(); ++i) {
    EXPECT_EQ(uint_field(checkpoints->array[i], "tree_size"),
              ct_logs.log(i).size());
  }
  expect_triple_reconciles();
}

/// The handler's "totals" section selection, mirrored exactly: only the
/// totals block renders.
core::ReportTextOptions totals_only_options() {
  core::ReportTextOptions options;
  options.totals = true;
  options.categories = false;
  options.interception = false;
  options.hybrid = false;
  options.non_public = false;
  options.ct_compliance = false;
  options.graphs = false;
  options.data_quality = false;
  return options;
}

// The RCU linearizability contract (ISSUE 8 satellite): while a writer
// streams ingest_append batches, every concurrently served report_section
// response must be byte-identical to what a quiet replay of the same append
// schedule renders AT THAT RESPONSE'S GENERATION — i.e. responses are never
// torn across a publish, never mix generations, and every observer's
// generation sequence is monotone. The expected per-generation bytes come
// from an offline ServiceState fed the identical batches up front.
TEST_F(SvcServerTest, ConcurrentReadsAreByteIdenticalToTheirGenerationsBatchRun) {
  const std::size_t half = logs_->ssl.size() / 2;
  constexpr std::size_t kBatch = 40;

  // Offline oracle: replay the exact append schedule, capture every
  // generation's "totals" bytes. Generation g == expected[g].
  std::vector<std::vector<std::string>> batches;
  for (std::size_t begin = half; begin < logs_->ssl.size(); begin += kBatch) {
    const std::size_t end = std::min(begin + kBatch, logs_->ssl.size());
    std::vector<std::string> rows;
    for (std::size_t i = begin; i < end; ++i) {
      rows.push_back(ssl_row(logs_->ssl[i]));
    }
    batches.push_back(std::move(rows));
  }
  std::vector<std::string> expected;
  {
    svc::ServiceState oracle(scenario_->world.stores(),
                             scenario_->world.ct_logs(), scenario_->vendors,
                             &scenario_->world.cross_signs());
    std::vector<zeek::SslLogRecord> initial(
        logs_->ssl.begin(),
        logs_->ssl.begin() + static_cast<std::ptrdiff_t>(half));
    oracle.load(initial, logs_->x509);
    expected.push_back(oracle.report_section(totals_only_options()));
    for (const std::vector<std::string>& rows : batches) {
      oracle.ingest_append(rows, {});
      expected.push_back(oracle.report_section(totals_only_options()));
    }
  }

  svc::ServerOptions options;
  options.workers = 4;
  options.queue_capacity = 256;
  start_server(half, options);

  constexpr int kQueryThreads = 4;
  constexpr int kRequestsPerThread = 30;
  std::atomic<int> failures{0};
  std::mutex diagnosis_mutex;
  std::string diagnosis;
  const auto report_failure = [&](const std::string& what) {
    failures.fetch_add(1);
    std::lock_guard<std::mutex> lock(diagnosis_mutex);
    if (diagnosis.empty()) diagnosis = what;
  };

  std::thread writer([&] {
    svc::Client client = connect();
    for (const std::vector<std::string>& rows : batches) {
      const auto response = client.ingest_append(rows, {});
      if (!response.has_value() || !response->ok) {
        report_failure("ingest_append failed mid-stream");
      }
    }
  });

  const std::string issuer_dn = "CN=Test Issuing CA,O=TestPKI,C=US";
  std::vector<std::thread> readers;
  for (int t = 0; t < kQueryThreads; ++t) {
    readers.emplace_back([&, t] {
      svc::Client client = connect();  // one connection = one observer
      std::uint64_t last_generation = 0;
      for (int i = 0; i < kRequestsPerThread; ++i) {
        if ((t + i) % 4 == 3) {
          // classify_issuer answers from immutable stores: generation-free,
          // but it must keep answering mid-publish without a hiccup.
          const auto response = client.classify_issuer(issuer_dn);
          if (!response.has_value() || !response->ok) {
            report_failure("classify_issuer failed under writer stress");
          }
          continue;
        }
        const auto response = client.report_section("totals");
        if (!response.has_value() || !response->ok) {
          report_failure("report_section failed under writer stress");
          continue;
        }
        const obs::json::Value* generation =
            response->payload.find("generation");
        const obs::json::Value* text = response->payload.find("text");
        if (generation == nullptr || text == nullptr) {
          report_failure("response missing generation/text");
          continue;
        }
        const std::uint64_t g = static_cast<std::uint64_t>(generation->num);
        if (g < last_generation) {
          report_failure("generation ran backwards for one observer");
          continue;
        }
        last_generation = g;
        if (g >= expected.size()) {
          report_failure("generation beyond the append schedule");
          continue;
        }
        // The heart of the test: bytes must match generation g's quiet
        // replay exactly. A torn read (text from one generation, stamp from
        // another) or a half-published analysis cannot pass this.
        if (text->string != expected[g]) {
          report_failure("generation " + std::to_string(g) +
                         " rendered bytes differ from its batch replay");
        }
      }
    });
  }

  writer.join();
  for (std::thread& thread : readers) thread.join();
  EXPECT_EQ(failures.load(), 0) << diagnosis;

  // Converged: the final generation's bytes are the full batch fold's bytes.
  svc::Client client = connect();
  const auto final_totals = client.report_section("totals");
  ASSERT_TRUE(final_totals.has_value());
  ASSERT_TRUE(final_totals->ok);
  EXPECT_EQ(final_totals->payload.find("text")->string, expected.back());
  EXPECT_EQ(uint_field(final_totals->payload, "generation"),
            static_cast<std::uint64_t>(batches.size()));
  expect_triple_reconciles();
}

// Snapshot pinning (ISSUE 8 satellite): a slow reader holding generation G's
// snapshot keeps rendering G's exact bytes while the writer publishes
// G+1..G+k; superseded generations are freed as soon as nobody holds them,
// observed through live_snapshots() and the svc.snapshot.live gauge.
TEST_F(SvcServerTest, SlowReaderPinsItsGenerationUntilReleased) {
  const std::size_t half = logs_->ssl.size() / 2;
  std::vector<zeek::SslLogRecord> initial(
      logs_->ssl.begin(),
      logs_->ssl.begin() + static_cast<std::ptrdiff_t>(half));

  svc::ServiceState state(scenario_->world.stores(), scenario_->world.ct_logs(),
                          scenario_->vendors, &scenario_->world.cross_signs());
  svc::SyncTelemetry telemetry;
  state.attach_telemetry(&telemetry);
  state.load(initial, logs_->x509);
  EXPECT_EQ(state.live_snapshots(), 1);
  EXPECT_EQ(telemetry.gauge("svc.snapshot.live"), 1.0);
  const std::uint64_t published_after_load = state.snapshots_published();

  // The slow reader grabs generation 0 and sits on it.
  svc::ServiceState::SnapshotPtr pinned = state.acquire_snapshot();
  EXPECT_EQ(pinned->generation, 0u);
  const std::string pinned_bytes =
      core::render_report_text(*pinned->report, totals_only_options());
  EXPECT_EQ(state.live_snapshots(), 1) << "pinning the current snapshot "
                                          "creates no extra generation";

  // The writer publishes k newer generations underneath it.
  constexpr std::size_t kBatch = 40;
  constexpr std::size_t kPublishes = 3;
  std::size_t begin = half;
  for (std::size_t k = 0; k < kPublishes; ++k) {
    const std::size_t end = std::min(begin + kBatch, logs_->ssl.size());
    std::vector<std::string> rows;
    for (std::size_t i = begin; i < end; ++i) {
      rows.push_back(ssl_row(logs_->ssl[i]));
    }
    begin = end;
    state.ingest_append(rows, {});
  }
  EXPECT_EQ(state.generation(), kPublishes);
  EXPECT_EQ(state.snapshots_published(), published_after_load + kPublishes);

  // The pinned snapshot is untouched — same generation, same bytes — while
  // fresh acquisitions already see the new world.
  EXPECT_EQ(pinned->generation, 0u);
  EXPECT_EQ(core::render_report_text(*pinned->report, totals_only_options()),
            pinned_bytes);
  EXPECT_NE(state.report_section(totals_only_options()), pinned_bytes);

  // Exactly two generations are alive: the current one and the pinned one.
  // The intermediates (G+1..G+k-1) died the moment they were superseded.
  EXPECT_EQ(state.live_snapshots(), 2);
  EXPECT_EQ(telemetry.gauge("svc.snapshot.live"), 2.0);

  // The last reader dropping generation 0 frees it on the spot.
  pinned.reset();
  EXPECT_EQ(state.live_snapshots(), 1);
  EXPECT_EQ(telemetry.gauge("svc.snapshot.live"), 1.0);
  EXPECT_EQ(telemetry.counter("svc.snapshot.published"),
            published_after_load + kPublishes);

  state.attach_telemetry(nullptr);
}

TEST_F(SvcServerTest, IdleConnectionIsClosedQuietly) {
  svc::ServerOptions options;
  options.idle_timeout_ms = 100;
  start_server(0, options);

  svc::Client client = connect();
  client.set_timeout_ms(5000);
  // No bytes at all: the idle timer closes the connection without an error
  // frame — an idle peer did nothing wrong.
  const auto started = std::chrono::steady_clock::now();
  EXPECT_FALSE(client.read_frame().has_value());
  const auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - started);
  EXPECT_LT(waited.count(), 2000);
  EXPECT_EQ(telemetry_->counter("svc.connections.idle_closed"), 1u);
  EXPECT_EQ(telemetry_->counter("svc.connections.stalled_closed"), 0u);

  // An active connection is NOT idle-closed while requests flow.
  svc::Client active = connect();
  for (int i = 0; i < 3; ++i) {
    const auto pong = active.ping();
    ASSERT_TRUE(pong.has_value());
    EXPECT_TRUE(pong->ok);
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
  }
  expect_triple_reconciles();
}

}  // namespace
}  // namespace certchain
