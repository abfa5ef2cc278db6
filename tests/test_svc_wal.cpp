// The ingest WAL and crash-recovery contracts (DESIGN.md §13):
//
//  * framing — certchain.svc.wal v1 records round-trip through replay; a
//    torn tail of ANY byte length yields exactly the intact record prefix,
//    never a partial or damaged record;
//  * damage — a checksum mismatch, length lie, or sequence break mid-file
//    ends replay at the prior record (bytes after damage have no
//    trustworthy framing);
//  * recovery — a state recovered from snapshot + WAL renders reports
//    byte-identical to a state that never crashed, proven both for a clean
//    shutdown and for a real fork()ed child killed with SIGKILL mid-append;
//  * idempotency — a retried append with the same key folds exactly once,
//    in-process and across a crash/recovery boundary;
//  * compaction — --snapshot-every bounds replay to the WAL tail, and the
//    crash window between snapshot-write and WAL-reset is harmless;
//  * load — a state loaded from a written file pair answers like one loaded
//    from the same records, accounts damage exactly as the batch engine
//    does, and a load that throws leaves the previous generation serving.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline.hpp"
#include "core/report_text.hpp"
#include "core/stream_checkpoint.hpp"
#include "datagen/scenario.hpp"
#include "svc/service_state.hpp"
#include "svc/wal.hpp"
#include "util/hash.hpp"
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

std::string temp_path(const std::string& leaf) {
  return ::testing::TempDir() + "certchain_svc_wal_" + leaf;
}

bool write_file(const std::string& path, const std::string& content) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) return false;
  const bool ok =
      std::fwrite(content.data(), 1, content.size(), file) == content.size();
  return (std::fclose(file) == 0) && ok;
}

svc::WalRecord make_record(std::uint64_t seq, const std::string& key) {
  svc::WalRecord record;
  record.seq = seq;
  record.idempotency_key = key;
  record.ssl_rows = {"ssl-row-a-" + std::to_string(seq),
                     "ssl-row-b-" + std::to_string(seq)};
  record.x509_rows = {"x509-row-" + std::to_string(seq)};
  return record;
}

// --- the framing layer, no corpus involved ----------------------------------

TEST(SvcWalFraming, ReplayOfMissingFileIsAnEmptyValidLog) {
  const std::string path = temp_path("missing.wal");
  ::unlink(path.c_str());

  std::string error;
  const auto replay = svc::WriteAheadLog::replay(path, &error);
  ASSERT_TRUE(replay.has_value()) << error;
  EXPECT_TRUE(replay->header_valid);
  EXPECT_TRUE(replay->records.empty());
  EXPECT_EQ(replay->good_bytes, 0u);
  EXPECT_EQ(replay->torn_bytes, 0u);
}

TEST(SvcWalFraming, AppendedRecordsRoundTripThroughReplay) {
  const std::string path = temp_path("roundtrip.wal");
  ::unlink(path.c_str());

  svc::WriteAheadLog wal;
  std::string error;
  ASSERT_TRUE(wal.open(path, 0, 1, &error)) << error;
  std::vector<svc::WalRecord> written;
  for (int i = 0; i < 3; ++i) {
    svc::WalRecord record = make_record(0, i == 1 ? "" : "key-" + std::to_string(i));
    ASSERT_TRUE(wal.append(record, &error)) << error;
    EXPECT_EQ(record.seq, static_cast<std::uint64_t>(i + 1));
    written.push_back(record);
  }
  const std::uint64_t bytes = wal.bytes_on_disk();
  wal.close();

  const auto replay = svc::WriteAheadLog::replay(path, &error);
  ASSERT_TRUE(replay.has_value()) << error;
  EXPECT_TRUE(replay->header_valid);
  EXPECT_EQ(replay->good_bytes, bytes);
  EXPECT_EQ(replay->torn_bytes, 0u);
  ASSERT_EQ(replay->records.size(), written.size());
  for (std::size_t i = 0; i < written.size(); ++i) {
    EXPECT_EQ(replay->records[i].seq, written[i].seq);
    EXPECT_EQ(replay->records[i].idempotency_key, written[i].idempotency_key);
    EXPECT_EQ(replay->records[i].ssl_rows, written[i].ssl_rows);
    EXPECT_EQ(replay->records[i].x509_rows, written[i].x509_rows);
  }
}

TEST(SvcWalFraming, EveryTruncationPointYieldsExactlyTheIntactPrefix) {
  // The whole point of the format: whatever byte a kill -9 stops the write
  // at, replay returns complete records only and reports the rest as torn.
  const std::string path = temp_path("sweep.wal");

  std::string bytes = svc::encode_wal_header();
  std::vector<std::size_t> boundaries = {bytes.size()};
  for (std::uint64_t seq = 1; seq <= 3; ++seq) {
    bytes += svc::encode_wal_record(make_record(seq, "k" + std::to_string(seq)));
    boundaries.push_back(bytes.size());
  }

  for (std::size_t length = svc::kWalHeaderBytes; length <= bytes.size();
       ++length) {
    ASSERT_TRUE(write_file(path, bytes.substr(0, length)));
    std::string error;
    const auto replay = svc::WriteAheadLog::replay(path, &error);
    ASSERT_TRUE(replay.has_value()) << "length " << length << ": " << error;

    std::size_t complete = 0;
    while (complete + 1 < boundaries.size() &&
           boundaries[complete + 1] <= length) {
      ++complete;
    }
    EXPECT_EQ(replay->records.size(), complete) << "length " << length;
    EXPECT_EQ(replay->good_bytes, boundaries[complete]) << "length " << length;
    EXPECT_EQ(replay->torn_bytes, length - boundaries[complete])
        << "length " << length;
  }
  ::unlink(path.c_str());
}

TEST(SvcWalFraming, ChecksumDamageMidFileEndsReplayAtThePriorRecord) {
  const std::string path = temp_path("damage.wal");

  std::string bytes = svc::encode_wal_header();
  bytes += svc::encode_wal_record(make_record(1, "k1"));
  const std::size_t record_two_at = bytes.size();
  bytes += svc::encode_wal_record(make_record(2, "k2"));
  bytes += svc::encode_wal_record(make_record(3, "k3"));

  // Flip one payload byte inside record 2: its checksum no longer matches,
  // and record 3 — though byte-intact — must NOT be surfaced: framing after
  // damage is untrustworthy.
  std::string damaged = bytes;
  damaged[record_two_at + svc::kWalRecordHeaderBytes + 5] ^= 0x01;
  ASSERT_TRUE(write_file(path, damaged));

  std::string error;
  const auto replay = svc::WriteAheadLog::replay(path, &error);
  ASSERT_TRUE(replay.has_value()) << error;
  ASSERT_EQ(replay->records.size(), 1u);
  EXPECT_EQ(replay->records[0].seq, 1u);
  EXPECT_EQ(replay->good_bytes, record_two_at);
  EXPECT_EQ(replay->torn_bytes, damaged.size() - record_two_at);
  ::unlink(path.c_str());
}

TEST(SvcWalFraming, SequenceRegressionEndsReplay) {
  const std::string path = temp_path("seqbreak.wal");
  std::string bytes = svc::encode_wal_header();
  bytes += svc::encode_wal_record(make_record(5, "k5"));
  bytes += svc::encode_wal_record(make_record(3, "k3"));  // goes backwards
  ASSERT_TRUE(write_file(path, bytes));

  std::string error;
  const auto replay = svc::WriteAheadLog::replay(path, &error);
  ASSERT_TRUE(replay.has_value()) << error;
  ASSERT_EQ(replay->records.size(), 1u);
  EXPECT_EQ(replay->records[0].seq, 5u);
  EXPECT_GT(replay->torn_bytes, 0u);
  ::unlink(path.c_str());
}

TEST(SvcWalFraming, MalformedSequenceNumbersEndReplay) {
  const std::string path = temp_path("badseq.wal");
  const std::string record_two = svc::encode_wal_record(make_record(2, "k2"));
  const std::string payload = record_two.substr(svc::kWalRecordHeaderBytes);
  const std::string seq_two = R"({"seq":2)";
  ASSERT_EQ(payload.rfind(seq_two, 0), 0u);
  // Length + checksum framing, so only the number inside is damaged.
  const auto frame = [](const std::string& bytes) {
    std::string out;
    const auto length = static_cast<std::uint32_t>(bytes.size());
    for (int shift = 24; shift >= 0; shift -= 8) {
      out.push_back(static_cast<char>((length >> shift) & 0xFF));
    }
    const std::uint64_t sum = util::fnv1a64(bytes);
    for (int shift = 56; shift >= 0; shift -= 8) {
      out.push_back(static_cast<char>((sum >> shift) & 0xFF));
    }
    return out + bytes;
  };
  ASSERT_EQ(frame(payload), record_two);

  for (const std::string seq :
       {"2.5", "-2", "9007199254740994", "1e999", "2-1", "02", "+2"}) {
    const std::string bad =
        frame(R"({"seq":)" + seq + payload.substr(seq_two.size()));
    ASSERT_TRUE(write_file(path, svc::encode_wal_header() +
                                     svc::encode_wal_record(make_record(1, "k1")) +
                                     bad));
    std::string error;
    const auto replay = svc::WriteAheadLog::replay(path, &error);
    ASSERT_TRUE(replay.has_value()) << error;
    ASSERT_EQ(replay->records.size(), 1u) << seq;
    EXPECT_EQ(replay->torn_bytes, bad.size()) << seq;
  }
  ::unlink(path.c_str());
}

TEST(SvcSnapshotCodec, RejectsMalformedNumbers) {
  svc::SvcSnapshot snapshot;
  snapshot.generation = 31;
  snapshot.wal_seq = 5;
  svc::AppliedAppend applied;
  applied.key = "k1";
  applied.result.wal_seq = 4;
  applied.result.generation = 7;
  applied.result.ssl_added = 11;
  snapshot.applied.push_back(applied);
  const std::string encoded = svc::encode_svc_snapshot(snapshot, core::CorpusIndex{});
  {
    zeek::LogJoiner joiner;
    core::CorpusIndex corpus;
    std::string error;
    const auto decoded = svc::decode_svc_snapshot(encoded, joiner, corpus, &error);
    ASSERT_TRUE(decoded.has_value()) << error;
    EXPECT_EQ(decoded->generation, 31u);
  }
  for (const auto& [from, to] : std::vector<std::pair<std::string, std::string>>{
           {R"("generation":31)", R"("generation":31.5)"},
           {R"("generation":31)", R"("generation":-31)"},
           {R"("generation":31)", R"("generation":1e999)"},
           {R"("wal_seq":5)", R"("wal_seq":9007199254740994)"},
           {R"("ssl_added":11)", R"("ssl_added":11.5)"},
           {R"("ssl_added":11)", R"("ssl_added":1-1)"}}) {
    std::string damaged = encoded;
    const std::size_t at = damaged.find(from);
    ASSERT_NE(at, std::string::npos) << from;
    damaged.replace(at, from.size(), to);
    zeek::LogJoiner joiner;
    core::CorpusIndex corpus;
    std::string error;
    EXPECT_FALSE(svc::decode_svc_snapshot(damaged, joiner, corpus, &error)
                     .has_value())
        << to;
    EXPECT_FALSE(error.empty()) << to;
  }
}

TEST(SvcWalFraming, ForeignHeaderRefusesReplay) {
  const std::string path = temp_path("foreign.wal");

  ASSERT_TRUE(write_file(path, "XWAL\x01\x00\x00\x00"));
  std::string error;
  EXPECT_FALSE(svc::WriteAheadLog::replay(path, &error).has_value());
  EXPECT_FALSE(error.empty());

  std::string wrong_version = svc::encode_wal_header();
  wrong_version[4] = 9;
  ASSERT_TRUE(write_file(path, wrong_version));
  EXPECT_FALSE(svc::WriteAheadLog::replay(path, &error).has_value());

  ASSERT_TRUE(write_file(path, "XWA"));  // short AND foreign: still refused
  EXPECT_FALSE(svc::WriteAheadLog::replay(path, &error).has_value());
  ::unlink(path.c_str());
}

TEST(SvcWalFraming, PartialHeaderReadsAsEmptyLogAndReopens) {
  // A crash between open(O_CREAT) and the header fsync leaves an empty or
  // partially-headered file. That must not brick the daemon: replay reads
  // it as an empty log and open() re-stamps the header.
  const std::string path = temp_path("partial_header.wal");

  for (std::size_t length = 0; length < svc::kWalHeaderBytes; ++length) {
    ASSERT_TRUE(write_file(path, svc::encode_wal_header().substr(0, length)));
    std::string error;
    const auto replay = svc::WriteAheadLog::replay(path, &error);
    ASSERT_TRUE(replay.has_value()) << "length " << length << ": " << error;
    EXPECT_TRUE(replay->header_valid) << "length " << length;
    EXPECT_TRUE(replay->records.empty());
    EXPECT_EQ(replay->good_bytes, 0u) << "length " << length;
    EXPECT_EQ(replay->torn_bytes, length);

    svc::WriteAheadLog wal;
    ASSERT_TRUE(wal.open(path, replay->good_bytes, 1, &error)) << error;
    EXPECT_EQ(wal.bytes_on_disk(), svc::kWalHeaderBytes);
    svc::WalRecord record = make_record(0, "k1");
    ASSERT_TRUE(wal.append(record, &error)) << error;
    wal.close();

    const auto reread = svc::WriteAheadLog::replay(path, &error);
    ASSERT_TRUE(reread.has_value()) << error;
    ASSERT_EQ(reread->records.size(), 1u) << "length " << length;
    EXPECT_EQ(reread->torn_bytes, 0u);
  }
  ::unlink(path.c_str());
}

TEST(SvcWalFraming, FailedAppendRollsTheFileBack) {
  // An append that tears mid-record (ENOSPC's shape) must leave no bytes
  // past the committed prefix — otherwise the next acknowledged append
  // would be written after damage and discarded by replay as torn tail.
  const std::string path = temp_path("rollback.wal");
  ::unlink(path.c_str());

  svc::WriteAheadLog wal;
  std::string error;
  ASSERT_TRUE(wal.open(path, 0, 1, &error)) << error;
  svc::WalRecord first = make_record(0, "k1");
  ASSERT_TRUE(wal.append(first, &error)) << error;
  const std::uint64_t committed = wal.bytes_on_disk();

  wal.inject_torn_append_for_test();
  svc::WalRecord torn = make_record(0, "k2");
  EXPECT_FALSE(wal.append(torn, &error));
  EXPECT_NE(error.find("rolled back"), std::string::npos) << error;
  EXPECT_FALSE(wal.poisoned());
  EXPECT_EQ(wal.bytes_on_disk(), committed);
  EXPECT_EQ(torn.seq, 0u);  // the seq was not consumed

  // The retry commits cleanly right after the rollback, on the same seq.
  svc::WalRecord retry = make_record(0, "k2");
  ASSERT_TRUE(wal.append(retry, &error)) << error;
  EXPECT_EQ(retry.seq, 2u);
  wal.close();

  const auto replay = svc::WriteAheadLog::replay(path, &error);
  ASSERT_TRUE(replay.has_value()) << error;
  ASSERT_EQ(replay->records.size(), 2u);
  EXPECT_EQ(replay->records[1].seq, 2u);
  EXPECT_EQ(replay->records[1].idempotency_key, "k2");
  EXPECT_EQ(replay->torn_bytes, 0u);
  ::unlink(path.c_str());
}

TEST(SvcWalFraming, FailedRollbackPoisonsTheLogUntilRecovery) {
  const std::string path = temp_path("poison.wal");
  ::unlink(path.c_str());

  svc::WriteAheadLog wal;
  std::string error;
  ASSERT_TRUE(wal.open(path, 0, 1, &error)) << error;
  svc::WalRecord first = make_record(0, "k1");
  ASSERT_TRUE(wal.append(first, &error)) << error;

  wal.inject_torn_append_for_test(/*rollback_fails=*/true);
  svc::WalRecord torn = make_record(0, "k2");
  EXPECT_FALSE(wal.append(torn, &error));
  EXPECT_NE(error.find("poisoned"), std::string::npos) << error;
  EXPECT_TRUE(wal.poisoned());

  // Fail closed: the poisoned log refuses every append, even a healthy one.
  svc::WalRecord refused = make_record(0, "k3");
  EXPECT_FALSE(wal.append(refused, &error));
  EXPECT_NE(error.find("poisoned"), std::string::npos) << error;
  wal.close();

  // Recovery sees the half-written frame as the torn tail, truncates it,
  // and the log serves appends again.
  const auto replay = svc::WriteAheadLog::replay(path, &error);
  ASSERT_TRUE(replay.has_value()) << error;
  ASSERT_EQ(replay->records.size(), 1u);
  EXPECT_GT(replay->torn_bytes, 0u);
  ASSERT_TRUE(wal.open(path, replay->good_bytes,
                       replay->records.back().seq + 1, &error))
      << error;
  EXPECT_FALSE(wal.poisoned());
  svc::WalRecord after = make_record(0, "k2");
  ASSERT_TRUE(wal.append(after, &error)) << error;
  EXPECT_EQ(after.seq, 2u);
  wal.close();
  ::unlink(path.c_str());
}

TEST(SvcWalFraming, OpenTruncatesTheTornTailAndAppendsAfterIt) {
  const std::string path = temp_path("truncate.wal");

  std::string bytes = svc::encode_wal_header();
  bytes += svc::encode_wal_record(make_record(1, "k1"));
  const std::size_t good = bytes.size();
  bytes += "torn-partial-record-bytes";
  ASSERT_TRUE(write_file(path, bytes));

  std::string error;
  auto replay = svc::WriteAheadLog::replay(path, &error);
  ASSERT_TRUE(replay.has_value()) << error;
  EXPECT_EQ(replay->good_bytes, good);
  EXPECT_GT(replay->torn_bytes, 0u);

  svc::WriteAheadLog wal;
  ASSERT_TRUE(
      wal.open(path, replay->good_bytes, replay->records.back().seq + 1, &error))
      << error;
  svc::WalRecord next = make_record(0, "k2");
  ASSERT_TRUE(wal.append(next, &error)) << error;
  EXPECT_EQ(next.seq, 2u);
  wal.close();

  replay = svc::WriteAheadLog::replay(path, &error);
  ASSERT_TRUE(replay.has_value()) << error;
  ASSERT_EQ(replay->records.size(), 2u);
  EXPECT_EQ(replay->records[1].seq, 2u);
  EXPECT_EQ(replay->torn_bytes, 0u);
  ::unlink(path.c_str());
}

TEST(SvcWalFraming, ResetYieldsAFreshLogWithAContinuingSequence) {
  const std::string path = temp_path("reset.wal");
  ::unlink(path.c_str());

  svc::WriteAheadLog wal;
  std::string error;
  ASSERT_TRUE(wal.open(path, 0, 1, &error)) << error;
  svc::WalRecord record = make_record(0, "k1");
  ASSERT_TRUE(wal.append(record, &error)) << error;
  ASSERT_TRUE(wal.reset(&error)) << error;
  EXPECT_EQ(wal.bytes_on_disk(), svc::kWalHeaderBytes);

  // seq is global to the serving state's lifetime, not to one file.
  svc::WalRecord after = make_record(0, "k2");
  ASSERT_TRUE(wal.append(after, &error)) << error;
  EXPECT_EQ(after.seq, 2u);
  wal.close();

  const auto replay = svc::WriteAheadLog::replay(path, &error);
  ASSERT_TRUE(replay.has_value()) << error;
  ASSERT_EQ(replay->records.size(), 1u);
  EXPECT_EQ(replay->records[0].seq, 2u);
  ::unlink(path.c_str());
}

// --- recovery differentials over a real corpus ------------------------------

/// One ingest_append batch of raw TSV rows.
struct Batch {
  std::vector<std::string> ssl;
  std::vector<std::string> x509;
};

class SvcWalRecoveryTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    datagen::ScenarioConfig config;
    config.seed = 20200901;
    config.chain_scale = 1.0 / 600.0;
    config.total_connections = 600;
    config.client_count = 90;
    config.include_length_outliers = false;
    scenario_ = datagen::build_study_scenario(config).release();
    netsim::GeneratedLogs logs = scenario_->generate_logs();

    // Base corpus = the first half of both logs; the second half becomes
    // three append batches. Round-robin assignment leaves some SSL rows
    // referencing X509 rows from a later batch — deliberately: incomplete
    // joins must survive recovery identically too.
    const std::size_t ssl_split = logs.ssl.size() / 2;
    const std::size_t x509_split = logs.x509.size() / 2;
    base_ssl_ = new std::vector<zeek::SslLogRecord>(
        logs.ssl.begin(),
        logs.ssl.begin() + static_cast<std::ptrdiff_t>(ssl_split));
    base_x509_ = new std::vector<zeek::X509LogRecord>(
        logs.x509.begin(),
        logs.x509.begin() + static_cast<std::ptrdiff_t>(x509_split));
    batches_ = new std::vector<Batch>(3);
    for (std::size_t i = ssl_split; i < logs.ssl.size(); ++i) {
      (*batches_)[(i - ssl_split) % 3].ssl.push_back(
          body_row<zeek::SslLogWriter>(logs.ssl[i]));
    }
    for (std::size_t i = x509_split; i < logs.x509.size(); ++i) {
      (*batches_)[(i - x509_split) % 3].x509.push_back(
          body_row<zeek::X509LogWriter>(logs.x509[i]));
    }
    ASSERT_GE((*batches_)[0].ssl.size(), 1u);
    ASSERT_GE((*batches_)[0].x509.size(), 1u);
  }

  static void TearDownTestSuite() {
    delete batches_;
    delete base_x509_;
    delete base_ssl_;
    delete scenario_;
    batches_ = nullptr;
    base_x509_ = nullptr;
    base_ssl_ = nullptr;
    scenario_ = nullptr;
  }

  static std::unique_ptr<svc::ServiceState> make_unloaded_state() {
    return std::make_unique<svc::ServiceState>(
        scenario_->world.stores(), scenario_->world.ct_logs(),
        scenario_->vendors, &scenario_->world.cross_signs());
  }

  static std::unique_ptr<svc::ServiceState> make_state() {
    auto state = make_unloaded_state();
    state->load(*base_ssl_, *base_x509_);
    return state;
  }

  /// A WAL path (plus its snapshot sibling) guaranteed absent.
  static std::string fresh_wal(const std::string& leaf) {
    const std::string path = temp_path(leaf);
    ::unlink(path.c_str());
    ::unlink(svc::snapshot_path_for(path).c_str());
    return path;
  }

  static std::string full_report(const svc::ServiceState& state) {
    return state.report_section(core::ReportTextOptions{});
  }

  static void ingest_all(svc::ServiceState& state) {
    for (std::size_t i = 0; i < batches_->size(); ++i) {
      state.ingest_append((*batches_)[i].ssl, (*batches_)[i].x509,
                          "batch-" + std::to_string(i + 1));
    }
  }

  static datagen::Scenario* scenario_;
  static std::vector<zeek::SslLogRecord>* base_ssl_;
  static std::vector<zeek::X509LogRecord>* base_x509_;
  static std::vector<Batch>* batches_;
};

datagen::Scenario* SvcWalRecoveryTest::scenario_ = nullptr;
std::vector<zeek::SslLogRecord>* SvcWalRecoveryTest::base_ssl_ = nullptr;
std::vector<zeek::X509LogRecord>* SvcWalRecoveryTest::base_x509_ = nullptr;
std::vector<Batch>* SvcWalRecoveryTest::batches_ = nullptr;

TEST_F(SvcWalRecoveryTest, DuplicateIdempotencyKeyFoldsExactlyOnce) {
  const std::string wal = fresh_wal("dup.wal");
  auto state = make_state();
  svc::DurabilityOptions durability;
  durability.wal_path = wal;
  std::string error;
  ASSERT_TRUE(state->recover_and_arm(durability, nullptr, &error)) << error;

  const svc::AppendResult first =
      state->ingest_append((*batches_)[0].ssl, (*batches_)[0].x509, "K");
  EXPECT_FALSE(first.duplicate);
  EXPECT_EQ(first.wal_seq, 1u);
  const std::uint64_t generation = state->generation();
  EXPECT_EQ(first.generation, generation);

  // Same key again: the original result comes back, nothing re-folds, and
  // nothing new hits the WAL.
  const svc::AppendResult retry =
      state->ingest_append((*batches_)[0].ssl, (*batches_)[0].x509, "K");
  EXPECT_TRUE(retry.duplicate);
  EXPECT_EQ(retry.generation, first.generation);
  EXPECT_EQ(retry.wal_seq, first.wal_seq);
  EXPECT_EQ(retry.ssl_added, first.ssl_added);
  EXPECT_EQ(retry.unique_chains, first.unique_chains);
  EXPECT_EQ(state->generation(), generation);

  const auto replay = svc::WriteAheadLog::replay(wal, &error);
  ASSERT_TRUE(replay.has_value()) << error;
  EXPECT_EQ(replay->records.size(), 1u);

  // A different key folds normally.
  const svc::AppendResult second =
      state->ingest_append((*batches_)[1].ssl, (*batches_)[1].x509, "K2");
  EXPECT_FALSE(second.duplicate);
  EXPECT_EQ(state->generation(), generation + 1);
}

TEST_F(SvcWalRecoveryTest, RecoveredStateRendersByteIdenticalReports) {
  const std::string wal = fresh_wal("clean.wal");

  // The never-crashed reference: plain in-memory appends, no durability.
  auto reference = make_state();
  ingest_all(*reference);

  // The durable run commits the same batches through the WAL...
  {
    auto durable = make_state();
    svc::DurabilityOptions durability;
    durability.wal_path = wal;
    std::string error;
    ASSERT_TRUE(durable->recover_and_arm(durability, nullptr, &error)) << error;
    ingest_all(*durable);
    EXPECT_EQ(full_report(*durable), full_report(*reference));
  }  // durable state destroyed: only the disk remains

  // ...and a fresh process recovers to the exact same answers.
  auto recovered = make_state();
  svc::DurabilityOptions durability;
  durability.wal_path = wal;
  svc::RecoveryStats stats;
  std::string error;
  ASSERT_TRUE(recovered->recover_and_arm(durability, &stats, &error)) << error;
  EXPECT_FALSE(stats.snapshot_loaded);
  EXPECT_EQ(stats.wal_records_seen, 3u);
  EXPECT_EQ(stats.wal_records_applied, 3u);
  EXPECT_EQ(stats.wal_records_skipped, 0u);
  EXPECT_EQ(stats.torn_bytes, 0u);
  EXPECT_EQ(recovered->generation(), reference->generation());
  EXPECT_EQ(recovered->unique_chains(), reference->unique_chains());
  EXPECT_EQ(full_report(*recovered), full_report(*reference));
}

TEST_F(SvcWalRecoveryTest, KillNineMidAppendRecoversByteIdentical) {
  const std::string wal = fresh_wal("kill9.wal");

  // The child lives the crash: arm durability, fold two batches, start
  // committing a third, die by SIGKILL with only 7 bytes of its record on
  // disk. _exit codes distinguish child-side setup failures from the one
  // legitimate death.
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    auto state = make_state();
    svc::DurabilityOptions durability;
    durability.wal_path = wal;
    if (!state->recover_and_arm(durability, nullptr, nullptr)) _exit(10);
    state->ingest_append((*batches_)[0].ssl, (*batches_)[0].x509, "batch-1");
    state->ingest_append((*batches_)[1].ssl, (*batches_)[1].x509, "batch-2");

    svc::WalRecord torn;
    torn.seq = 3;
    torn.idempotency_key = "batch-3";
    torn.ssl_rows = (*batches_)[2].ssl;
    torn.x509_rows = (*batches_)[2].x509;
    const std::string framed = svc::encode_wal_record(torn);
    const int fd = ::open(wal.c_str(), O_WRONLY | O_APPEND);
    if (fd < 0) _exit(11);
    if (::write(fd, framed.data(), 7) != 7) _exit(12);
    ::fsync(fd);
    ::raise(SIGKILL);
    _exit(13);  // unreachable
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status))
      << "child exited with " << (WIFEXITED(status) ? WEXITSTATUS(status) : -1);
  ASSERT_EQ(WTERMSIG(status), SIGKILL);

  // The survivor recovers the two acknowledged batches, truncates the torn
  // third, and answers exactly like a run that folded those two batches and
  // never crashed.
  auto recovered = make_state();
  svc::DurabilityOptions durability;
  durability.wal_path = wal;
  svc::RecoveryStats stats;
  std::string error;
  ASSERT_TRUE(recovered->recover_and_arm(durability, &stats, &error)) << error;
  EXPECT_EQ(stats.wal_records_seen, 2u);
  EXPECT_EQ(stats.wal_records_applied, 2u);
  EXPECT_EQ(stats.torn_bytes, 7u);

  auto reference = make_state();
  reference->ingest_append((*batches_)[0].ssl, (*batches_)[0].x509, "batch-1");
  reference->ingest_append((*batches_)[1].ssl, (*batches_)[1].x509, "batch-2");
  EXPECT_EQ(recovered->generation(), reference->generation());
  EXPECT_EQ(full_report(*recovered), full_report(*reference));

  // The interrupted batch retries against the recovered state with the same
  // idempotency key and folds exactly once — it never made it to the WAL.
  const svc::AppendResult retried =
      recovered->ingest_append((*batches_)[2].ssl, (*batches_)[2].x509,
                               "batch-3");
  EXPECT_FALSE(retried.duplicate);
  reference->ingest_append((*batches_)[2].ssl, (*batches_)[2].x509, "batch-3");
  EXPECT_EQ(full_report(*recovered), full_report(*reference));
}

TEST_F(SvcWalRecoveryTest, CompactionBoundsReplayToTheWalTail) {
  const std::string wal = fresh_wal("compact.wal");

  auto durable = make_state();
  svc::DurabilityOptions durability;
  durability.wal_path = wal;
  durability.snapshot_every = 2;
  std::string error;
  ASSERT_TRUE(durable->recover_and_arm(durability, nullptr, &error)) << error;
  ingest_all(*durable);  // batches 1+2 compact; batch 3 stays in the WAL

  ASSERT_TRUE(core::read_file_text(svc::snapshot_path_for(wal)).has_value());
  const auto replay = svc::WriteAheadLog::replay(wal, &error);
  ASSERT_TRUE(replay.has_value()) << error;
  ASSERT_EQ(replay->records.size(), 1u);
  EXPECT_EQ(replay->records[0].seq, 3u);

  auto recovered = make_state();
  svc::RecoveryStats stats;
  ASSERT_TRUE(recovered->recover_and_arm(durability, &stats, &error)) << error;
  EXPECT_TRUE(stats.snapshot_loaded);
  EXPECT_EQ(stats.wal_records_seen, 1u);
  EXPECT_EQ(stats.wal_records_applied, 1u);
  EXPECT_EQ(stats.wal_records_skipped, 0u);

  auto reference = make_state();
  ingest_all(*reference);
  EXPECT_EQ(recovered->generation(), reference->generation());
  EXPECT_EQ(full_report(*recovered), full_report(*reference));

  // The idempotency ledger survives the snapshot/replay round trip: a
  // retried batch is recognized after recovery too.
  const svc::AppendResult retry =
      recovered->ingest_append((*batches_)[2].ssl, (*batches_)[2].x509,
                               "batch-3");
  EXPECT_TRUE(retry.duplicate);
  EXPECT_EQ(recovered->generation(), reference->generation());
}

TEST_F(SvcWalRecoveryTest, CrashBetweenSnapshotAndWalResetIsHarmless) {
  const std::string wal = fresh_wal("midcompact.wal");

  // Run compaction normally (snapshot written, WAL reset)...
  auto durable = make_state();
  svc::DurabilityOptions durability;
  durability.wal_path = wal;
  durability.snapshot_every = 2;
  std::string error;
  ASSERT_TRUE(durable->recover_and_arm(durability, nullptr, &error)) << error;
  durable->ingest_append((*batches_)[0].ssl, (*batches_)[0].x509, "batch-1");
  durable->ingest_append((*batches_)[1].ssl, (*batches_)[1].x509, "batch-2");
  durable.reset();

  // ...then reconstruct the disk state of a crash BETWEEN the two steps:
  // the snapshot exists AND the pre-reset WAL still holds the records it
  // absorbed. The framed bytes are deterministic, so the pre-compaction WAL
  // can be rebuilt exactly.
  std::string stale = svc::encode_wal_header();
  for (std::uint64_t seq = 1; seq <= 2; ++seq) {
    svc::WalRecord record;
    record.seq = seq;
    record.idempotency_key = "batch-" + std::to_string(seq);
    record.ssl_rows = (*batches_)[seq - 1].ssl;
    record.x509_rows = (*batches_)[seq - 1].x509;
    stale += svc::encode_wal_record(record);
  }
  ASSERT_TRUE(write_file(wal, stale));

  // Recovery must skip every absorbed record (seq <= snapshot frontier) and
  // land on the same state as a clean run of the two batches.
  auto recovered = make_state();
  svc::RecoveryStats stats;
  ASSERT_TRUE(recovered->recover_and_arm(durability, &stats, &error)) << error;
  EXPECT_TRUE(stats.snapshot_loaded);
  EXPECT_EQ(stats.wal_records_seen, 2u);
  EXPECT_EQ(stats.wal_records_applied, 0u);
  EXPECT_EQ(stats.wal_records_skipped, 2u);

  auto reference = make_state();
  reference->ingest_append((*batches_)[0].ssl, (*batches_)[0].x509, "batch-1");
  reference->ingest_append((*batches_)[1].ssl, (*batches_)[1].x509, "batch-2");
  EXPECT_EQ(recovered->generation(), reference->generation());
  EXPECT_EQ(full_report(*recovered), full_report(*reference));
}

TEST_F(SvcWalRecoveryTest, LedgerBoundEvictsOldestKeysFirst) {
  const std::string wal = fresh_wal("ledger.wal");
  auto state = make_state();
  svc::DurabilityOptions durability;
  durability.wal_path = wal;
  durability.applied_ledger_max = 2;
  std::string error;
  ASSERT_TRUE(state->recover_and_arm(durability, nullptr, &error)) << error;

  ingest_all(*state);  // keys batch-1..batch-3; the bound keeps the last two
  const std::uint64_t generation = state->generation();

  // The most recent keys still answer as duplicates...
  EXPECT_TRUE(state
                  ->ingest_append((*batches_)[2].ssl, (*batches_)[2].x509,
                                  "batch-3")
                  .duplicate);
  EXPECT_TRUE(state
                  ->ingest_append((*batches_)[1].ssl, (*batches_)[1].x509,
                                  "batch-2")
                  .duplicate);
  EXPECT_EQ(state->generation(), generation);

  // ...while the evicted oldest key re-folds: the documented trade-off of
  // a bounded ledger (pick the bound above the client retry horizon).
  const svc::AppendResult evicted =
      state->ingest_append((*batches_)[0].ssl, (*batches_)[0].x509, "batch-1");
  EXPECT_FALSE(evicted.duplicate);
  EXPECT_EQ(state->generation(), generation + 1);
}

TEST_F(SvcWalRecoveryTest, LedgerBoundSurvivesSnapshotRecovery) {
  const std::string wal = fresh_wal("ledger_recover.wal");
  svc::DurabilityOptions durability;
  durability.wal_path = wal;
  durability.snapshot_every = 2;  // snapshot carries the (bounded) ledger
  durability.applied_ledger_max = 2;
  {
    auto durable = make_state();
    std::string error;
    ASSERT_TRUE(durable->recover_and_arm(durability, nullptr, &error)) << error;
    ingest_all(*durable);
  }

  auto recovered = make_state();
  std::string error;
  ASSERT_TRUE(recovered->recover_and_arm(durability, nullptr, &error)) << error;
  const std::uint64_t generation = recovered->generation();
  EXPECT_TRUE(recovered
                  ->ingest_append((*batches_)[2].ssl, (*batches_)[2].x509,
                                  "batch-3")
                  .duplicate);
  EXPECT_EQ(recovered->generation(), generation);
  EXPECT_FALSE(recovered
                   ->ingest_append((*batches_)[0].ssl, (*batches_)[0].x509,
                                   "batch-1")
                   .duplicate);
  EXPECT_EQ(recovered->generation(), generation + 1);
}

TEST_F(SvcWalRecoveryTest, RepeatedRowsAcrossAppendsRecoverIdentically) {
  // The snapshot records an appended X509 row only when its fuid was new to
  // the joiner (first observation wins), so overlapping batches must not
  // change what recovery rebuilds — through both the snapshot and the
  // WAL-tail replay path.
  const std::string wal = fresh_wal("repeat.wal");
  svc::DurabilityOptions durability;
  durability.wal_path = wal;
  durability.snapshot_every = 2;  // appends 1+2 compact; append 3 replays

  auto reference = make_state();
  reference->ingest_append((*batches_)[0].ssl, (*batches_)[0].x509, "A");
  reference->ingest_append((*batches_)[0].ssl, (*batches_)[0].x509, "B");
  reference->ingest_append((*batches_)[1].ssl, (*batches_)[1].x509, "C");

  {
    auto durable = make_state();
    std::string error;
    ASSERT_TRUE(durable->recover_and_arm(durability, nullptr, &error)) << error;
    durable->ingest_append((*batches_)[0].ssl, (*batches_)[0].x509, "A");
    durable->ingest_append((*batches_)[0].ssl, (*batches_)[0].x509, "B");
    durable->ingest_append((*batches_)[1].ssl, (*batches_)[1].x509, "C");
    EXPECT_EQ(full_report(*durable), full_report(*reference));
  }

  auto recovered = make_state();
  svc::RecoveryStats stats;
  std::string error;
  ASSERT_TRUE(recovered->recover_and_arm(durability, &stats, &error)) << error;
  EXPECT_TRUE(stats.snapshot_loaded);
  EXPECT_EQ(recovered->generation(), reference->generation());
  EXPECT_EQ(full_report(*recovered), full_report(*reference));
}

// --- loading a file pair ------------------------------------------------------

class SvcLoadTest : public SvcWalRecoveryTest {
 protected:
  /// The base corpus written out as a Zeek log pair, with `damage` applied
  /// to the two texts first; returns the pair's paths.
  static std::pair<std::string, std::string> write_base_pair(
      const std::string& leaf,
      void (*damage)(std::string& ssl, std::string& x509) = nullptr) {
    zeek::SslLogWriter ssl_writer;
    for (const zeek::SslLogRecord& record : *base_ssl_) ssl_writer.add(record);
    zeek::X509LogWriter x509_writer;
    for (const zeek::X509LogRecord& record : *base_x509_) x509_writer.add(record);
    std::string ssl_text = ssl_writer.finish();
    std::string x509_text = x509_writer.finish();
    if (damage != nullptr) damage(ssl_text, x509_text);
    const std::string ssl_path = temp_path(leaf + "_ssl.log");
    const std::string x509_path = temp_path(leaf + "_x509.log");
    EXPECT_TRUE(write_file(ssl_path, ssl_text));
    EXPECT_TRUE(write_file(x509_path, x509_text));
    return {ssl_path, x509_path};
  }

  /// The full report with every section the server renders.
  static std::string every_section(const svc::ServiceState& state) {
    core::ReportTextOptions options;
    options.graphs = true;
    return state.report_section(options);
  }
};

void expect_same_ingest(const core::IngestReport& a, const core::IngestReport& b) {
  EXPECT_EQ(a.populated, b.populated);
  EXPECT_EQ(a.mode, b.mode);
  for (const auto& [x, y] : {std::pair{&a.ssl, &b.ssl}, std::pair{&a.x509, &b.x509}}) {
    EXPECT_EQ(x->bytes, y->bytes);
    EXPECT_EQ(x->lines, y->lines);
    EXPECT_EQ(x->records, y->records);
    EXPECT_EQ(x->malformed_rows, y->malformed_rows);
    EXPECT_EQ(x->skipped_lines, y->skipped_lines);
    EXPECT_EQ(x->rotations, y->rotations);
  }
  EXPECT_EQ(a.sample_errors, b.sample_errors);
}

TEST_F(SvcLoadTest, FileLoadAnswersEveryReportSectionLikeARecordLoad) {
  const auto [ssl_path, x509_path] = write_base_pair("clean");
  const auto from_records = make_state();
  auto from_files = make_unloaded_state();
  const core::IngestReport ingest =
      from_files->load(core::StudyInput::files(ssl_path, x509_path));

  EXPECT_TRUE(ingest.populated);
  EXPECT_EQ(ingest.ssl.records, base_ssl_->size());
  EXPECT_EQ(ingest.x509.records, base_x509_->size());
  EXPECT_TRUE(ingest.clean());
  EXPECT_EQ(from_files->generation(), 0u);
  EXPECT_EQ(from_files->snapshots_published(), 1u);
  EXPECT_EQ(every_section(*from_files), every_section(*from_records));
  EXPECT_EQ(full_report(*from_files), full_report(*from_records));
}

TEST_F(SvcLoadTest, DamagedPairLoadsWithTheBatchEnginesAccounting) {
  const auto [ssl_path, x509_path] =
      write_base_pair("damaged", [](std::string& ssl, std::string& x509) {
        // A short row and a bad timestamp before SSL's #close, a row after
        // it (no header yet), and a wrong-width X509 row.
        std::string bad_ts = "BAD";
        for (int i = 0; i < 14; ++i) bad_ts += "\tx";
        ssl.insert(ssl.find("#close"),
                   "1598918400.000000\tonly\tthree\n" + bad_ts + "\n");
        ssl += zeek::render_ssl_row(base_ssl_->front()) + "\n";
        x509.insert(x509.find("#close"), "not\ta\tvalid\trow\n");
      });
  const core::StudyInput input = core::StudyInput::files(ssl_path, x509_path);
  auto state = make_unloaded_state();
  const core::IngestReport loaded = state->load(input);
  const core::StudyPipeline pipeline(
      scenario_->world.stores(), scenario_->world.ct_logs(), scenario_->vendors,
      &scenario_->world.cross_signs());
  const core::StudyReport batch = pipeline.run(input);

  EXPECT_EQ(loaded.ssl.malformed_rows, 2u);
  EXPECT_EQ(loaded.ssl.skipped_lines, 3u);
  EXPECT_EQ(loaded.x509.malformed_rows, 1u);
  expect_same_ingest(loaded, batch.ingest);
  // The served report carries no ingest section; everything else matches.
  core::ReportTextOptions without_ingest;
  without_ingest.graphs = true;
  without_ingest.data_quality = false;
  EXPECT_EQ(every_section(*state),
            core::render_report_text(batch, without_ingest));
}

TEST_F(SvcLoadTest, FailedLoadLeavesThePreviousGenerationServing) {
  auto state = make_state();
  state->ingest_append((*batches_)[0].ssl, (*batches_)[0].x509, "before");
  const std::string report = full_report(*state);
  const std::uint64_t generation = state->generation();
  const std::uint64_t published = state->snapshots_published();

  // The SSL file opens; the X509 path does not.
  const auto [ssl_path, x509_path] = write_base_pair("half");
  EXPECT_THROW(state->load(core::StudyInput::files(
                   ssl_path, temp_path("no_such_x509.log"))),
               core::IngestError);
  EXPECT_EQ(state->snapshots_published(), published);
  EXPECT_EQ(state->generation(), generation);
  EXPECT_EQ(full_report(*state), report);
  EXPECT_TRUE(
      state->ingest_append((*batches_)[0].ssl, (*batches_)[0].x509, "before")
          .duplicate);

  // The next append folds onto the corpus from before the failed load.
  auto reference = make_state();
  reference->ingest_append((*batches_)[0].ssl, (*batches_)[0].x509, "before");
  reference->ingest_append((*batches_)[1].ssl, (*batches_)[1].x509, "after");
  state->ingest_append((*batches_)[1].ssl, (*batches_)[1].x509, "after");
  EXPECT_EQ(state->generation(), reference->generation());
  EXPECT_EQ(full_report(*state), full_report(*reference));
}

}  // namespace
}  // namespace certchain
