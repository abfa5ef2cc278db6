// Certificate sharing (DESIGN.md §16.2): the joiner builds one sealed
// certificate per fuid, and every chain the corpus keeps holds handles to
// those objects rather than copies — after a fold of any input kind, after
// a checkpoint resume, and after a WAL-snapshot restore. A chain copy bumps
// reference counts, so shared chains are also read from several threads at
// once (the ThreadSanitizer target).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "../tests/helpers.hpp"
#include "core/corpus.hpp"
#include "core/dn_pool.hpp"
#include "core/log_source.hpp"
#include "core/pipeline.hpp"
#include "core/stream_checkpoint.hpp"
#include "core/study_input.hpp"
#include "datagen/scenario.hpp"
#include "obs/json.hpp"
#include "obs/run_context.hpp"
#include "svc/wal.hpp"
#include "zeek/joiner.hpp"
#include "zeek/log_io.hpp"

namespace certchain {
namespace {

std::string temp_path(const std::string& leaf) {
  return ::testing::TempDir() + "certchain_sharing_" + leaf;
}

void write_file(const std::string& path, const std::string& text) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  ASSERT_NE(file, nullptr) << path;
  ASSERT_EQ(std::fwrite(text.data(), 1, text.size(), file), text.size());
  ASSERT_EQ(std::fclose(file), 0);
}

std::string snapshot_of(const core::CorpusIndex& corpus) {
  obs::json::Writer writer;
  corpus.write_snapshot(writer);
  return std::move(writer).str();
}

class ChainSharing : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    datagen::ScenarioConfig config;
    config.seed = 20200901;
    config.chain_scale = 1.0 / 4000.0;
    config.total_connections = 3000;
    config.client_count = 200;
    config.include_length_outliers = false;
    scenario_ = datagen::build_study_scenario(config).release();
    logs_ = new netsim::GeneratedLogs(scenario_->generate_logs());
    zeek::SslLogWriter ssl_writer;
    for (const auto& record : logs_->ssl) ssl_writer.add(record);
    ssl_text_ = new std::string(ssl_writer.finish());
    zeek::X509LogWriter x509_writer;
    for (const auto& record : logs_->x509) x509_writer.add(record);
    x509_text_ = new std::string(x509_writer.finish());
  }

  static void TearDownTestSuite() {
    delete x509_text_;
    delete ssl_text_;
    delete logs_;
    delete scenario_;
    x509_text_ = nullptr;
    ssl_text_ = nullptr;
    logs_ = nullptr;
    scenario_ = nullptr;
  }

  /// Checks that every certificate of every chain in `corpus` is one of the
  /// joiner's own objects (address identity, not equality).
  static void expect_shares_joiner(const core::CorpusIndex& corpus,
                                   const zeek::LogJoiner& joiner,
                                   const char* label) {
    std::unordered_set<const x509::Certificate*> owned;
    for (const zeek::X509LogRecord& record : logs_->x509) {
      const x509::CertificateHandle* cert = joiner.find(record.fuid);
      ASSERT_NE(cert, nullptr) << label << ": " << record.fuid;
      owned.insert(cert->get());
    }
    std::size_t certificates = 0;
    std::size_t foreign = 0;
    for (const auto& [id, observation] : corpus.chains()) {
      for (const x509::Certificate& cert : observation.chain) {
        ++certificates;
        if (!owned.contains(&cert)) ++foreign;
      }
    }
    EXPECT_GT(corpus.unique_chain_count(), 10u) << label;
    EXPECT_GT(certificates, corpus.unique_chain_count()) << label;
    EXPECT_EQ(foreign, 0u) << label << ": of " << certificates << " certificates";
  }

  /// One engine fold, with the joiner and corpus kept for inspection.
  struct Folded {
    core::DnPool pool;
    zeek::LogJoiner joiner;
    core::CorpusIndex corpus;
    obs::RunContext ctx;
  };

  static std::unique_ptr<Folded> fold(const core::StudyInput& input,
                                      const core::RunOptions& options = {}) {
    auto folded = std::make_unique<Folded>();
    folded->joiner.set_dn_pool(&folded->pool);
    core::fold_input(input, options, folded->joiner, folded->corpus,
                     folded->ctx);
    return folded;
  }

  static datagen::Scenario* scenario_;
  static netsim::GeneratedLogs* logs_;
  static std::string* ssl_text_;
  static std::string* x509_text_;
};

datagen::Scenario* ChainSharing::scenario_ = nullptr;
netsim::GeneratedLogs* ChainSharing::logs_ = nullptr;
std::string* ChainSharing::ssl_text_ = nullptr;
std::string* ChainSharing::x509_text_ = nullptr;

TEST_F(ChainSharing, CopySharesHandlesComparesEqualAndIterates) {
  testing::TestPki pki;
  const chain::CertificateChain original = pki.chain_for("share.example", true);
  const chain::CertificateChain copy = original;
  ASSERT_EQ(copy.length(), original.length());
  EXPECT_EQ(copy, original);
  EXPECT_EQ(copy.id(), original.id());
  std::size_t index = 0;
  auto it = original.begin();
  for (const x509::Certificate& cert : copy) {
    EXPECT_EQ(&cert, &copy.at(index));
    EXPECT_EQ(&cert, &original.at(index)) << index;
    EXPECT_EQ(&cert, &*it++) << index;
    ++index;
  }
  EXPECT_EQ(it, original.end());
  EXPECT_EQ(&copy.first(), &original.first());

  // Rebuilt from value copies: equal and the same id, but its own objects.
  const chain::CertificateChain rebuilt(
      std::vector<x509::Certificate>(original.begin(), original.end()));
  EXPECT_EQ(rebuilt, original);
  EXPECT_EQ(rebuilt.id(), original.id());
  EXPECT_NE(&rebuilt.first(), &original.first());

  // A certificate that differs in one field makes the chains unequal.
  std::vector<x509::Certificate> certs(original.begin(), original.end());
  certs.back().serial += "00";
  EXPECT_FALSE(chain::CertificateChain(certs) == original);
  EXPECT_NE(chain::CertificateChain(certs).id(), original.id());
}

TEST_F(ChainSharing, EveryInputKindFoldsToTheJoinersCertificates) {
  const std::string ssl_path = temp_path("fold_ssl.log");
  const std::string x509_path = temp_path("fold_x509.log");
  write_file(ssl_path, *ssl_text_);
  write_file(x509_path, *x509_text_);

  const auto records = fold(core::StudyInput::records(logs_->ssl, logs_->x509));
  expect_shares_joiner(records->corpus, records->joiner, "records");
  const auto text = fold(core::StudyInput::text(*ssl_text_, *x509_text_));
  expect_shares_joiner(text->corpus, text->joiner, "text");
  core::RunOptions chunked;
  chunked.chunk_bytes = 4096;
  const auto files =
      fold(core::StudyInput::files(ssl_path, x509_path), chunked);
  expect_shares_joiner(files->corpus, files->joiner, "files");

  // The unfused path: JoinedConnection chains hold the joiner's handles too.
  core::CorpusIndex joined;
  for (const auto& record : logs_->ssl) joined.add(records->joiner.join(record));
  expect_shares_joiner(joined, records->joiner, "joined connections");

  // Sharing changes no byte of the fold state.
  EXPECT_EQ(snapshot_of(text->corpus), snapshot_of(records->corpus));
  EXPECT_EQ(snapshot_of(files->corpus), snapshot_of(records->corpus));
  EXPECT_EQ(snapshot_of(joined), snapshot_of(records->corpus));
  std::remove(ssl_path.c_str());
  std::remove(x509_path.c_str());
}

TEST_F(ChainSharing, CheckpointResumeRestoresTheJoinersCertificates) {
  const std::string checkpoint = temp_path("resume.ckpt");
  std::remove(checkpoint.c_str());
  core::RunOptions options;
  options.chunk_bytes = 8 * 1024;
  options.checkpoint_path = checkpoint;

  // A run killed after a few SSL chunks leaves its last checkpoint behind.
  auto served = std::make_shared<std::size_t>(0);
  auto offset = std::make_shared<std::size_t>(0);
  const std::string* ssl = ssl_text_;
  std::shared_ptr<core::LogSource> killing = core::make_function_source(
      [ssl, served, offset](std::string& out, std::size_t max_bytes) {
        if (*served == 4) throw std::runtime_error("simulated kill");
        ++*served;
        out.assign(*ssl, *offset, max_bytes);
        *offset += out.size();
        return out.size();
      },
      "<killing>", [served, offset] { *served = *offset = 0; });
  EXPECT_THROW(fold(core::StudyInput::sources(
                        killing, core::make_text_source(*x509_text_)),
                    options),
               std::runtime_error);
  ASSERT_TRUE(core::read_file_text(checkpoint).has_value());

  const auto resumed =
      fold(core::StudyInput::sources(core::make_text_source(*ssl_text_),
                                     core::make_text_source(*x509_text_)),
           options);
  EXPECT_EQ(resumed->ctx.metrics.counter("stream.resume.loaded"), 1u);
  expect_shares_joiner(resumed->corpus, resumed->joiner, "resumed");
  const auto uninterrupted =
      fold(core::StudyInput::text(*ssl_text_, *x509_text_));
  EXPECT_EQ(snapshot_of(resumed->corpus), snapshot_of(uninterrupted->corpus));
  std::remove(checkpoint.c_str());
}

TEST_F(ChainSharing, WalSnapshotRestoreSharesTheJoinersCertificates) {
  const auto live = fold(core::StudyInput::records(logs_->ssl, logs_->x509));

  // Half the certificates came with the base load, half with appends the
  // snapshot carries as rows; restored chains resolve to either.
  const std::size_t base = logs_->x509.size() / 2;
  svc::SvcSnapshot snapshot;
  for (std::size_t i = base; i < logs_->x509.size(); ++i) {
    snapshot.appended_x509_rows.push_back(zeek::render_x509_row(logs_->x509[i]));
  }
  const std::string text = svc::encode_svc_snapshot(snapshot, live->corpus);

  core::DnPool pool;
  zeek::LogJoiner joiner;
  joiner.set_dn_pool(&pool);
  for (std::size_t i = 0; i < base; ++i) joiner.add(logs_->x509[i]);
  core::CorpusIndex restored;
  std::string error;
  ASSERT_TRUE(svc::decode_svc_snapshot(text, joiner, restored, &error).has_value())
      << error;
  EXPECT_EQ(joiner.certificate_count(), live->joiner.certificate_count());
  expect_shares_joiner(restored, joiner, "wal snapshot");
  EXPECT_EQ(snapshot_of(restored), snapshot_of(live->corpus));
}

TEST_F(ChainSharing, SnapshotCertificatesStaySorted) {
  const auto folded = fold(core::StudyInput::text(*ssl_text_, *x509_text_));
  const std::optional<obs::json::Value> value =
      obs::json::parse(snapshot_of(folded->corpus));
  ASSERT_TRUE(value.has_value());
  const obs::json::Value* certificates = value->find("certificates");
  ASSERT_NE(certificates, nullptr);
  ASSERT_TRUE(certificates->is_array());
  std::vector<std::string> fingerprints;
  for (const obs::json::Value& entry : certificates->array) {
    ASSERT_TRUE(entry.is_string());
    fingerprints.push_back(entry.string);
  }
  EXPECT_EQ(fingerprints.size(), folded->corpus.totals().distinct_certificates);
  EXPECT_GT(fingerprints.size(), 10u);
  EXPECT_TRUE(std::is_sorted(fingerprints.begin(), fingerprints.end()));
  EXPECT_EQ(std::adjacent_find(fingerprints.begin(), fingerprints.end()),
            fingerprints.end());
}

TEST_F(ChainSharing, SharedChainsReadFromManyThreads) {
  // Analysis shards copy, compare and drop chains whose certificates the
  // joiner and every other shard hold too; the handles' reference counts
  // and the certificates' DN bodies are the shared state.
  const auto folded = fold(core::StudyInput::records(logs_->ssl, logs_->x509));
  std::vector<const chain::CertificateChain*> chains;
  std::vector<std::string> ids;
  for (const auto& [id, observation] : folded->corpus.chains()) {
    chains.push_back(&observation.chain);
    ids.push_back(id);
  }
  ASSERT_GT(chains.size(), 10u);
  constexpr int kThreads = 4;
  std::vector<std::size_t> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&chains, &ids, &mismatches, t] {
      std::vector<chain::CertificateChain> held;
      for (int round = 0; round < 10; ++round) {
        for (std::size_t i = 0; i < chains.size(); ++i) {
          const chain::CertificateChain& shared = *chains[i];
          chain::CertificateChain copy = shared;
          bool same = copy == shared && copy.id() == ids[i];
          for (std::size_t k = 0; k < copy.length(); ++k) {
            same = same && &copy.at(k) == &shared.at(k) &&
                   copy.at(k).fingerprint() == shared.at(k).fingerprint() &&
                   copy.at(k).issuer.to_string() == shared.at(k).issuer.to_string();
          }
          if (!same) ++mismatches[t];
          held.push_back(std::move(copy));
        }
        held.clear();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0u) << t;
}

}  // namespace
}  // namespace certchain
