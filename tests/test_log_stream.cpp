// Streaming Zeek log reader: chunked feeds, split lines, rotation.
#include "zeek/log_stream.hpp"

#include <gtest/gtest.h>

#include "../tests/helpers.hpp"
#include "util/rng.hpp"
#include "zeek/joiner.hpp"

namespace certchain::zeek {
namespace {

using certchain::testing::TestPki;

std::vector<SslLogRecord> two_ssl_records() {
  std::vector<SslLogRecord> records;
  for (int i = 0; i < 2; ++i) {
    SslLogRecord record;
    record.ts = 1600000000 + i;
    record.uid = "Cstream" + std::to_string(i);
    record.id_orig_h = "10.0.0.1";
    record.id_orig_p = 40000;
    record.id_resp_h = "198.51.100.1";
    record.id_resp_p = 443;
    record.version = "TLSv12";
    record.established = (i == 0);
    record.server_name = "s" + std::to_string(i) + ".example";
    records.push_back(std::move(record));
  }
  return records;
}

std::string two_record_ssl_log() {
  SslLogWriter writer;
  for (const SslLogRecord& record : two_ssl_records()) writer.add(record);
  return writer.finish();
}

TEST(LogStream, WholeFileInOneFeed) {
  std::vector<SslLogRecord> records;
  auto reader = make_streaming_ssl_reader(
      [&](SslLogRecord record) { records.push_back(std::move(record)); });
  reader.feed(two_record_ssl_log());
  reader.finish();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].uid, "Cstream0");
  EXPECT_EQ(records[1].uid, "Cstream1");
  EXPECT_EQ(reader.records_emitted(), 2u);
  EXPECT_EQ(reader.rotations_seen(), 1u);  // trailing #close
}

TEST(LogStream, ByteAtATimeFeedIsEquivalent) {
  const std::string log = two_record_ssl_log();
  std::vector<SslLogRecord> records;
  auto reader = make_streaming_ssl_reader(
      [&](SslLogRecord record) { records.push_back(std::move(record)); });
  for (const char c : log) reader.feed(std::string_view(&c, 1));
  reader.finish();
  EXPECT_EQ(records.size(), 2u);
  EXPECT_EQ(reader.lines_skipped(), 0u);
}

TEST(LogStream, RandomChunkBoundaries) {
  const std::string log = two_record_ssl_log() + two_record_ssl_log();
  util::Rng rng(404);
  for (int trial = 0; trial < 20; ++trial) {
    std::size_t emitted = 0;
    auto reader =
        make_streaming_ssl_reader([&](SslLogRecord) { ++emitted; });
    std::size_t pos = 0;
    while (pos < log.size()) {
      const std::size_t take =
          std::min<std::size_t>(1 + rng.next_below(37), log.size() - pos);
      reader.feed(std::string_view(log).substr(pos, take));
      pos += take;
    }
    reader.finish();
    EXPECT_EQ(emitted, 4u) << "trial " << trial;
    EXPECT_EQ(reader.rotations_seen(), 2u);
  }
}

TEST(LogStream, RotationResetsHeaderState) {
  // After #close, data before the next #fields header is skipped.
  const std::string first = two_record_ssl_log();
  const std::string orphan_row = "1600000009.000000\tCorphan\t10.0.0.1\t1\t"
                                 "198.51.100.1\t443\tTLSv12\t-\t-\tF\tT\t-\t-\t-\t-\n";
  std::size_t emitted = 0;
  auto reader = make_streaming_ssl_reader([&](SslLogRecord) { ++emitted; });
  reader.feed(first);        // ends with #close
  reader.feed(orphan_row);   // no header yet: must be skipped
  reader.feed(first);        // fresh header, 2 more rows
  reader.finish();
  EXPECT_EQ(emitted, 4u);
  EXPECT_GE(reader.lines_skipped(), 1u);
}

TEST(LogStream, DamagedRowsAreCountedNotFatal) {
  std::string log = two_record_ssl_log();
  const std::size_t close_pos = log.find("#close");
  log.insert(close_pos, "not\ta\tvalid\trow\n");
  std::size_t emitted = 0;
  auto reader = make_streaming_ssl_reader([&](SslLogRecord) { ++emitted; });
  reader.feed(log);
  reader.finish();
  EXPECT_EQ(emitted, 2u);
  EXPECT_EQ(reader.lines_skipped(), 1u);
}

TEST(LogStream, X509ReaderStreamsCertificates) {
  TestPki pki;
  X509LogWriter writer;
  const auto chain = pki.chain_for("stream.example", true);
  for (std::size_t i = 0; i < chain.length(); ++i) {
    writer.add(record_from_certificate(chain.at(i), 1600000000,
                                       "Fs" + std::to_string(i)));
  }
  std::vector<X509LogRecord> records;
  auto reader = make_streaming_x509_reader(
      [&](X509LogRecord record) { records.push_back(std::move(record)); });
  const std::string log = writer.finish();
  // Feed in two uneven halves.
  reader.feed(std::string_view(log).substr(0, log.size() / 3));
  reader.feed(std::string_view(log).substr(log.size() / 3));
  reader.finish();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[2].fuid, "Fs2");
  // Streamed records reconstruct to the same certificates.
  EXPECT_TRUE(certificate_from_record(records[0]).subject.matches(
      chain.first().subject));
}

TEST(LogStream, MatchesWrittenRecordsOnFullCorpus) {
  // The row after #close has no header yet: the reader skips it.
  const std::string log = two_record_ssl_log() +
                          "1600000009.000000\tCorphan\t10.0.0.1\t1\t"
                          "198.51.100.1\t443\tTLSv12\t-\t-\tF\tT\t-\t-\t-\t-\n";
  std::vector<SslLogRecord> streamed;
  auto reader = make_streaming_ssl_reader(
      [&](SslLogRecord record) { streamed.push_back(std::move(record)); });
  reader.feed(log);
  reader.finish();
  EXPECT_EQ(streamed, two_ssl_records());
  EXPECT_EQ(reader.lines_skipped(), 1u);
}

// --- chunk-boundary correctness ---------------------------------------------

/// One streamed pass with the reader's full accounting.
struct ParseResult {
  std::vector<SslLogRecord> records;
  std::size_t bytes = 0;
  std::size_t lines = 0;
  std::size_t skipped = 0;
  std::size_t malformed = 0;
  std::size_t rotations = 0;
  std::vector<std::pair<std::size_t, std::string>> errors;  // (line, message)
};

/// Feeds `text` in `chunk`-byte pieces (0: one feed of the whole text).
ParseResult parse_serial(std::string_view text, std::size_t chunk) {
  ParseResult out;
  auto reader = make_streaming_ssl_reader(
      [&out](SslLogRecord record) { out.records.push_back(std::move(record)); });
  if (chunk == 0) chunk = std::max<std::size_t>(1, text.size());
  for (std::size_t pos = 0; pos < text.size(); pos += chunk) {
    reader.feed(text.substr(pos, std::min(chunk, text.size() - pos)));
  }
  reader.finish();
  out.bytes = reader.bytes_consumed();
  out.lines = reader.lines_seen();
  out.skipped = reader.lines_skipped();
  out.malformed = reader.malformed_rows();
  out.rotations = reader.rotations_seen();
  for (const auto& error : reader.errors()) {
    out.errors.emplace_back(error.line_number, error.message);
  }
  return out;
}

/// A stream with every boundary hazard: two rotations, a damaged row, an
/// orphan row after #close, a blank line, and no trailing newline.
std::string hazard_log() {
  std::string log = two_record_ssl_log();
  const std::size_t close_pos = log.find("#close");
  log.insert(close_pos, "not\ta\tvalid\trow\n");
  log += "1600000009.000000\tCorphan\tno header yet\n";
  log += "\n";
  log += two_record_ssl_log();
  log.pop_back();  // strip the final newline: last line ends at EOF
  return log;
}

void expect_same_parse(const ParseResult& a, const ParseResult& b) {
  EXPECT_EQ(a.records, b.records);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.lines, b.lines);
  EXPECT_EQ(a.skipped, b.skipped);
  EXPECT_EQ(a.malformed, b.malformed);
  EXPECT_EQ(a.rotations, b.rotations);
  EXPECT_EQ(a.errors, b.errors);
}

TEST(LogStream, ChunkSizeNeverChangesTheParse) {
  const std::string log = hazard_log();
  const ParseResult whole = parse_serial(log, 0);
  ASSERT_EQ(whole.records.size(), 4u);
  ASSERT_GE(whole.errors.size(), 2u);
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                  std::size_t{13}, log.size() - 1}) {
    const ParseResult chunked = parse_serial(log, chunk);
    expect_same_parse(whole, chunked);
  }
}

}  // namespace
}  // namespace certchain::zeek

namespace certchain::zeek {
namespace {

/// Reads `text` in `chunk` slices through split()/parse()/commit() with up
/// to `pieces` pieces a chunk (pieces parsed back to front, as workers may
/// finish), then split_tail()/finish(): the uids in piece order and the
/// final reader state.
std::pair<std::vector<std::string>, ReaderCheckpoint> parse_in_pieces(
    std::string_view text, std::size_t chunk, std::size_t pieces) {
  std::vector<std::string> uids;
  auto reader = make_streaming_ssl_view_reader([](SslRowView) {
    ADD_FAILURE() << "pieces never reach the callback";
  });
  const auto run = [&](std::vector<StreamingSslViewReader::Piece> parts) {
    std::vector<std::vector<std::string>> found(parts.size());
    for (std::size_t k = parts.size(); k-- > 0;) {
      reader.parse(parts[k], [&found, k](SslRowView row) {
        found[k].emplace_back(row.uid);
      });
    }
    reader.commit(parts);
    for (const auto& piece : found) uids.insert(uids.end(), piece.begin(), piece.end());
  };
  for (std::size_t pos = 0; pos < text.size(); pos += chunk) {
    run(reader.split(text.substr(pos, chunk), pieces));
  }
  run(reader.split_tail());
  reader.finish();
  return {uids, reader.checkpoint()};
}

TEST(LogStream, PiecesReproduceFeedOnEveryCutAndPieceCount) {
  // Rotations, a foreign layout, data before a header, 40 damaged rows (over
  // the 32-error cap) and an unterminated last row, over many chunk sizes.
  SslLogWriter first;
  SslLogWriter second;
  SslLogRecord record = two_ssl_records()[0];
  for (int i = 0; i < 60; ++i) {
    record.uid = "C" + std::to_string(i);
    (i < 30 ? first : second).add(record);
  }
  std::string text = "orphan\trow\n" + first.finish() +
                     "#fields\tnot\tthe\tlayout\nstray\trow\n" + second.finish();
  for (int i = 0; i < 40; ++i) {
    const std::size_t at = text.find("\tC" + std::to_string(i + 10) + "\t");
    ASSERT_NE(at, std::string::npos);
    text.insert(text.rfind('\n', at) + 1, "bad\trow\n");
  }
  text += render_ssl_row(record);  // no trailing newline

  std::vector<std::string> uids;
  auto reference = make_streaming_ssl_view_reader(
      [&uids](SslRowView row) { uids.emplace_back(row.uid); });
  reference.feed(text);
  reference.finish();
  const ReaderCheckpoint want = reference.checkpoint();
  ASSERT_EQ(want.errors.size(), StreamingSslViewReader::kMaxRecordedErrors);
  ASSERT_EQ(want.rotations_seen, 2u);

  for (const std::size_t chunk : {std::size_t{1}, std::size_t{97},
                                  std::size_t{4096}, text.size()}) {
    for (const std::size_t pieces : {1u, 2u, 3u, 8u}) {
      const auto [got_uids, got] = parse_in_pieces(text, chunk, pieces);
      const std::string label =
          "chunk " + std::to_string(chunk) + ", " + std::to_string(pieces) + " pieces";
      EXPECT_EQ(got_uids, uids) << label;
      EXPECT_EQ(got.bytes_consumed, want.bytes_consumed) << label;
      EXPECT_EQ(got.lines_seen, want.lines_seen) << label;
      EXPECT_EQ(got.records_emitted, want.records_emitted) << label;
      EXPECT_EQ(got.lines_skipped, want.lines_skipped) << label;
      EXPECT_EQ(got.malformed_rows, want.malformed_rows) << label;
      EXPECT_EQ(got.rotations_seen, want.rotations_seen) << label;
      EXPECT_EQ(got.in_body, want.in_body) << label;
      ASSERT_EQ(got.errors.size(), want.errors.size()) << label;
      for (std::size_t i = 0; i < want.errors.size(); ++i) {
        EXPECT_EQ(got.errors[i].line_number, want.errors[i].line_number) << label;
        EXPECT_EQ(got.errors[i].message, want.errors[i].message) << label;
      }
    }
  }
}

TEST(LogStream, SplitKeepsTheReaderCheckpointOfFeed) {
  // After each chunk the reader's checkpoint (carried tail included) is the
  // one feed() leaves, so a parallel fold checkpoints identically.
  const std::string log = two_record_ssl_log();
  auto fed = make_streaming_ssl_view_reader([](SslRowView) {});
  auto split = make_streaming_ssl_view_reader([](SslRowView) {});
  for (std::size_t pos = 0; pos < log.size(); pos += 50) {
    const std::string_view chunk = std::string_view(log).substr(pos, 50);
    fed.feed(chunk);
    auto pieces = split.split(chunk, 3);
    for (auto& piece : pieces) split.parse(piece, [](SslRowView) {});
    split.commit(pieces);
    const ReaderCheckpoint a = fed.checkpoint();
    const ReaderCheckpoint b = split.checkpoint();
    EXPECT_EQ(a.buffer, b.buffer) << pos;
    EXPECT_EQ(a.in_body, b.in_body) << pos;
    EXPECT_EQ(a.lines_seen, b.lines_seen) << pos;
    EXPECT_EQ(a.records_emitted, b.records_emitted) << pos;
    EXPECT_EQ(a.bytes_consumed, b.bytes_consumed) << pos;
  }
}

}  // namespace
}  // namespace certchain::zeek
