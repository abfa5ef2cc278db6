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
