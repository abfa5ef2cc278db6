// Zeek substrate: TSV log format round trips, the writers against the
// string-building oracle, damage handling, and the SSL x X509 join.
#include <gtest/gtest.h>

#include <climits>
#include <optional>
#include <stdexcept>

#include "../tests/helpers.hpp"
#include "core/dn_pool.hpp"
#include "util/hash.hpp"
#include "util/strings.hpp"
#include "zeek/joiner.hpp"
#include "zeek/log_io.hpp"
#include "zeek/log_stream.hpp"
#include "zeek_row_oracle.hpp"

namespace certchain::zeek {
namespace {

using certchain::testing::TestPki;

SslLogRecord sample_ssl() {
  SslLogRecord record;
  record.ts = util::make_time(2020, 10, 5, 12, 0, 0);
  record.uid = "CAbCdEf123456789ab";
  record.id_orig_h = "10.1.2.3";
  record.id_orig_p = 51515;
  record.id_resp_h = "198.51.100.7";
  record.id_resp_p = 443;
  record.version = "TLSv12";
  record.cipher = "TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256";
  record.server_name = "www.example.org";
  record.resumed = false;
  record.established = true;
  record.cert_chain_fuids = {"FaAaAaAaAaAaAaAaAa", "FbBbBbBbBbBbBbBbBb"};
  record.subject = "CN=www.example.org,O=Example, Inc.";
  record.issuer = "CN=Issuing CA,O=Example";
  record.validation_status = "ok";
  return record;
}

X509LogRecord sample_x509() {
  X509LogRecord record;
  record.ts = util::make_time(2020, 10, 5, 12, 0, 1);
  record.fuid = "FaAaAaAaAaAaAaAaAa";
  record.version = 3;
  record.serial = "0a1b2c";
  record.subject = "CN=www.example.org";
  record.issuer = "CN=Issuing CA,O=Example";
  record.not_before = util::make_time(2020, 7, 1);
  record.not_after = util::make_time(2021, 7, 1);
  record.key_alg = "rsa2048";
  record.sig_alg = "sha256WithRSAEncryption";
  record.key_length = 2048;
  record.basic_constraints_ca = false;
  record.san_dns = {"www.example.org", "example.org"};
  return record;
}

/// One whole-text pass of a streaming reader: the records it emitted and
/// its line accounting.
template <typename Record>
struct ReadLog {
  std::vector<Record> records;
  std::size_t skipped_lines = 0;
  std::vector<ReaderLineError> errors;
};

template <typename Record, typename MakeReader>
ReadLog<Record> read_log(std::string_view text, MakeReader make_reader) {
  ReadLog<Record> out;
  auto reader = make_reader(
      [&out](Record record) { out.records.push_back(std::move(record)); });
  reader.feed(text);
  reader.finish();
  out.skipped_lines = reader.lines_skipped();
  out.errors = reader.errors();
  return out;
}

ReadLog<SslLogRecord> read_ssl_log(std::string_view text) {
  return read_log<SslLogRecord>(text, make_streaming_ssl_reader);
}

ReadLog<X509LogRecord> read_x509_log(std::string_view text) {
  return read_log<X509LogRecord>(text, make_streaming_x509_reader);
}

/// tsv::append_escaped into a fresh string.
std::string escaped(std::string_view value) {
  std::string out;
  tsv::append_escaped(out, value);
  return out;
}

TEST(ZeekTsv, FieldHelpers) {
  std::string time = "x";
  tsv::append_time(time, 1598918400);
  EXPECT_EQ(time, "x1598918400.000000");
  EXPECT_EQ(tsv::parse_time("1598918400.123456"), 1598918400);
  EXPECT_FALSE(tsv::parse_time("not-a-time").has_value());
  EXPECT_EQ(tsv::parse_bool("F"), false);
  EXPECT_FALSE(tsv::parse_bool("x").has_value());
  std::string vector;
  tsv::append_vector(vector, {});
  EXPECT_EQ(vector, "(empty)");
  vector.clear();
  tsv::append_vector(vector, {""});
  EXPECT_EQ(vector, "-");
  vector.clear();
  tsv::append_vector(vector, {"a,b", "c"});
  EXPECT_EQ(vector, "a\\x2cb,c");
  EXPECT_TRUE(tsv::parse_vector("(empty)").empty());
  EXPECT_TRUE(tsv::parse_vector("-").empty());
  EXPECT_EQ(tsv::parse_vector("a,b"), (std::vector<std::string>{"a", "b"}));
}

TEST(ZeekTsv, EscapingRoundTripsSeparatorBytes) {
  const std::string nasty = "CN=Acme, Inc.\tweird\nline\\slash";
  EXPECT_EQ(tsv::unescape_field(escaped(nasty)), nasty);
  // Escaped form must contain no raw separator bytes.
  const std::string text = escaped(nasty);
  EXPECT_EQ(text.find('\t'), std::string::npos);
  EXPECT_EQ(text.find('\n'), std::string::npos);
  EXPECT_EQ(text.find(','), std::string::npos);
}

TEST(ZeekTsv, UnescapeDecodesOnlyTwoHexDigits) {
  EXPECT_EQ(tsv::unescape_field("a\\x5bz"), "a[z");
  EXPECT_EQ(tsv::unescape_field("\\x2C\\x2c"), ",,");
  // A sign or whitespace is not a hex digit: the text stays literal.
  for (const std::string text :
       {"a\\x 5b", "a\\x+5b", "a\\x\t5b", "a\\x-1b", "a\\x0z", "a\\x5", "a\\x",
        "a\\y41", "trailing\\"}) {
    EXPECT_EQ(tsv::unescape_field(text), text) << text;
    std::string out = "stale";
    tsv::unescape_into(text, out);
    EXPECT_EQ(out, text) << text;
  }
  // A literal backslash before a decodable escape, and a decoded backslash
  // that is not re-read as the start of another escape.
  EXPECT_EQ(tsv::unescape_field("\\\\x41"), "\\A");
  EXPECT_EQ(tsv::unescape_field("\\x5cx41"), "\\x41");
}

TEST(ZeekTsv, EscapeUnescapeRoundTripsEveryByte) {
  std::string all;
  for (int byte = 0; byte < 256; ++byte) {
    const std::string one(1, static_cast<char>(byte));
    EXPECT_EQ(tsv::unescape_field(escaped(one)), one) << byte;
    all += one;
  }
  EXPECT_EQ(tsv::unescape_field(escaped(all)), all);
}

// The writers against the string-building renderers they replaced: the
// same bytes for every escape byte, empty and unset field, vector shape and
// extreme scalar.
TEST(ZeekLogs, RowsMatchTheStringOracle) {
  const std::vector<std::string> texts = {
      "", "\t", "\n", ",", "\\", "a\tb\nc,d\\e", "\\x41", ",,\t\t", "plain"};
  const std::vector<std::vector<std::string>> vectors = {
      {}, {""}, {"", ""}, {"F1"}, {"F1", "F2"}, {"a,b", "c\td"}, {"\\", "\n", ""}};

  std::vector<SslLogRecord> ssl_rows{sample_ssl()};
  for (const std::string& text : texts) {
    SslLogRecord record = sample_ssl();
    record.server_name = record.subject = record.issuer =
        record.validation_status = text;
    ssl_rows.push_back(record);
    // Fields the format leaves unescaped stay unescaped.
    record = sample_ssl();
    record.uid = record.id_orig_h = record.id_resp_h = record.version =
        record.cipher = text;
    ssl_rows.push_back(record);
  }
  for (const auto& fuids : vectors) {
    SslLogRecord record = sample_ssl();
    record.cert_chain_fuids = fuids;
    ssl_rows.push_back(record);
  }
  for (const util::SimTime ts : {util::SimTime{0}, util::SimTime{-1},
                                 util::SimTime{-1598918400}, util::SimTime{1}}) {
    SslLogRecord record = sample_ssl();
    record.ts = ts;
    record.id_orig_p = 0;
    record.id_resp_p = 65535;
    record.resumed = true;
    record.established = false;
    ssl_rows.push_back(record);
  }
  ssl_rows.push_back(SslLogRecord{});

  std::vector<X509LogRecord> x509_rows{sample_x509()};
  for (const std::string& text : texts) {
    X509LogRecord record = sample_x509();
    record.subject = record.issuer = text;
    x509_rows.push_back(record);
    record = sample_x509();
    record.fuid = record.serial = record.key_alg = record.sig_alg = text;
    x509_rows.push_back(record);
  }
  for (const auto& sans : vectors) {
    X509LogRecord record = sample_x509();
    record.san_dns = sans;
    x509_rows.push_back(record);
  }
  for (const int value : {0, INT_MAX}) {
    X509LogRecord record = sample_x509();
    record.key_length = value;
    record.version = value;
    record.basic_constraints_ca = value == 0;
    record.basic_constraints_path_len = value;
    x509_rows.push_back(record);
    // A written count reads back as written.
    const std::optional<X509LogRecord> parsed =
        parse_x509_row(render_x509_row(record));
    ASSERT_TRUE(parsed.has_value()) << value;
    EXPECT_EQ(*parsed, record);
  }
  // The three counts are unsigned in Zeek: a negative one is refused before
  // a byte is written, so whatever the writer accepts parses back.
  for (const int value : {INT_MIN, -1}) {
    for (int field = 0; field < 3; ++field) {
      X509LogRecord record = sample_x509();
      (field == 0   ? record.version
       : field == 1 ? record.key_length
                    : record.basic_constraints_path_len.emplace()) = value;
      EXPECT_THROW(render_x509_row(record), std::invalid_argument) << field;
      X509LogWriter writer;
      EXPECT_THROW(writer.add(record), std::invalid_argument) << field;
      EXPECT_EQ(writer.count(), 0u);
      EXPECT_EQ(writer.finish(), X509LogWriter().finish());
    }
  }
  for (const util::SimTime ts : {util::SimTime{0}, util::SimTime{-86400}}) {
    X509LogRecord record = sample_x509();
    record.ts = record.not_before = ts;
    record.not_after = -ts;
    x509_rows.push_back(record);
  }
  {
    X509LogRecord record = sample_x509();
    record.basic_constraints_ca.reset();
    x509_rows.push_back(record);  // path_len unset too
    record.basic_constraints_path_len = 3;
    x509_rows.push_back(record);  // path_len without ca
  }
  x509_rows.push_back(X509LogRecord{});

  SslLogWriter ssl_writer;
  std::string ssl_body;
  for (const SslLogRecord& record : ssl_rows) {
    EXPECT_EQ(render_ssl_row(record), oracle::render_ssl_row(record));
    ssl_writer.add(record);
    ssl_body += oracle::render_ssl_row(record) + "\n";
  }
  // finish() is the empty log's header, the body, and the closing line.
  const std::string ssl_empty = SslLogWriter().finish();
  EXPECT_EQ(ssl_writer.finish(),
            ssl_empty.substr(0, ssl_empty.size() - 7) + ssl_body + "#close\n");

  X509LogWriter x509_writer;
  std::string x509_body;
  for (const X509LogRecord& record : x509_rows) {
    EXPECT_EQ(render_x509_row(record), oracle::render_x509_row(record));
    x509_writer.add(record);
    x509_body += oracle::render_x509_row(record) + "\n";
  }
  const std::string x509_empty = X509LogWriter().finish();
  EXPECT_EQ(x509_writer.finish(),
            x509_empty.substr(0, x509_empty.size() - 7) + x509_body + "#close\n");
}

TEST(ZeekLogs, SslRoundTrip) {
  SslLogWriter writer;
  SslLogRecord with_sni = sample_ssl();
  SslLogRecord without_chain = sample_ssl();
  without_chain.version = "TLSv13";
  without_chain.server_name.clear();
  without_chain.cert_chain_fuids.clear();
  without_chain.subject.clear();
  without_chain.issuer.clear();
  without_chain.validation_status.clear();
  without_chain.established = false;
  writer.add(with_sni);
  writer.add(without_chain);
  EXPECT_EQ(writer.count(), 2u);

  const auto parsed = read_ssl_log(writer.finish());
  ASSERT_EQ(parsed.records.size(), 2u);
  EXPECT_EQ(parsed.records[0], with_sni);
  EXPECT_EQ(parsed.records[1], without_chain);
  EXPECT_EQ(parsed.skipped_lines, 0u);
}

TEST(ZeekLogs, X509RoundTrip) {
  X509LogWriter writer;
  X509LogRecord full = sample_x509();
  X509LogRecord bare = sample_x509();
  bare.fuid = "FcCcCcCcCcCcCcCcCc";
  bare.basic_constraints_ca.reset();  // extension absent
  bare.basic_constraints_path_len.reset();
  bare.san_dns.clear();
  writer.add(full);
  writer.add(bare);

  const auto parsed = read_x509_log(writer.finish()).records;
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0], full);
  EXPECT_EQ(parsed[1], bare);
  EXPECT_FALSE(parsed[1].basic_constraints_ca.has_value());
}

TEST(ZeekLogs, HeaderShape) {
  SslLogWriter writer;
  writer.add(sample_ssl());
  const std::string text = writer.finish();
  EXPECT_TRUE(text.starts_with("#separator \\x09\n"));
  EXPECT_NE(text.find("#fields\tts\tuid\t"), std::string::npos);
  EXPECT_NE(text.find("#types\ttime\tstring\t"), std::string::npos);
  EXPECT_TRUE(text.ends_with("#close\n"));
}

TEST(ZeekLogs, ParserSkipsDamagedRowsAndReports) {
  SslLogWriter writer;
  writer.add(sample_ssl());
  std::string text = writer.finish();
  // Inject damage: a short row and a full-width row with a bad timestamp.
  const std::size_t close = text.find("#close");
  std::string bad_ts = "BAD";
  for (int i = 0; i < 14; ++i) bad_ts += "\tx";
  text.insert(close, "1598918400.000000\tonly\tthree\n" + bad_ts + "\n");

  const auto parsed = read_ssl_log(text);
  EXPECT_EQ(parsed.records.size(), 1u);  // only the intact row survives
  EXPECT_GE(parsed.skipped_lines, 2u);
  EXPECT_FALSE(parsed.errors.empty());
}

TEST(ZeekLogs, ParserRejectsUnknownFieldLayouts) {
  const std::string text =
      "#fields\tts\tmystery\n1598918400.000000\tx\n";
  const auto parsed = read_ssl_log(text);
  EXPECT_TRUE(parsed.records.empty());
  EXPECT_GE(parsed.skipped_lines, 1u);
}

TEST(ZeekLogs, DnWithCommaSurvivesVectorEncoding) {
  // DN strings contain commas; the vector separator must not split them.
  X509LogWriter writer;
  X509LogRecord record = sample_x509();
  record.subject = "CN=Acme, Inc.,O=Acme";
  writer.add(record);
  const auto parsed = read_x509_log(writer.finish()).records;
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].subject, "CN=Acme, Inc.,O=Acme");
}

/// `row` with tab-separated cell `index` replaced by `value`.
std::string with_cell(const std::string& row, std::size_t index,
                      const std::string& value) {
  std::vector<std::string> cells = util::split(row, '\t');
  cells.at(index) = value;
  return util::join(cells, "\t");
}

// A scalar that does not fit its field is malformed, never truncated: each
// of these values used to parse as a different, in-range number.

TEST(ZeekLogs, RejectsOutOfRangePort) {
  const std::string row = render_ssl_row(sample_ssl());
  for (const std::size_t cell : {3u, 5u}) {  // id.orig_p, id.resp_p
    ASSERT_TRUE(parse_ssl_row(with_cell(row, cell, "65535")).has_value());
    std::string error;
    EXPECT_FALSE(parse_ssl_row(with_cell(row, cell, "70000"), &error));
    EXPECT_EQ(error, "malformed scalar field");
    EXPECT_FALSE(parse_ssl_row_view(with_cell(row, cell, "70000")));
  }
}

TEST(ZeekLogs, RejectsOutOfRangeKeyLength) {
  const std::string row = render_x509_row(sample_x509());
  std::string error;
  EXPECT_FALSE(parse_x509_row(with_cell(row, 10, "4294969344"), &error));
  EXPECT_EQ(error, "malformed scalar field");
  EXPECT_EQ(parse_x509_row(with_cell(row, 10, "2147483647"))->key_length,
            2147483647);
}

TEST(ZeekLogs, RejectsOutOfRangeVersion) {
  const std::string row = render_x509_row(sample_x509());
  std::string error;
  EXPECT_FALSE(parse_x509_row(with_cell(row, 2, "4294967299"), &error));
  EXPECT_EQ(error, "malformed scalar field");
  EXPECT_FALSE(parse_x509_row(with_cell(row, 2, "2147483648")));
}

TEST(ZeekLogs, RejectsOutOfRangePathLen) {
  const std::string row = render_x509_row(sample_x509());
  EXPECT_EQ(parse_x509_row(with_cell(row, 12, "2"))->basic_constraints_path_len,
            2);
  std::string error;
  EXPECT_FALSE(parse_x509_row(with_cell(row, 12, "4294967298"), &error));
  EXPECT_EQ(error, "malformed basic_constraints.path_len");
}

TEST(ZeekLogs, RejectsMalformedTimeFraction) {
  EXPECT_FALSE(tsv::parse_time("1598918400.xyz").has_value());
  EXPECT_FALSE(tsv::parse_time("1598918400.").has_value());
  EXPECT_FALSE(tsv::parse_time("1598918400.12x").has_value());
  EXPECT_EQ(tsv::parse_time("1598918400"), 1598918400);
  std::string error;
  EXPECT_FALSE(parse_ssl_row(
      with_cell(render_ssl_row(sample_ssl()), 0, "1598918400.xyz"), &error));
  EXPECT_EQ(error, "malformed scalar field");
  EXPECT_FALSE(parse_x509_row(
      with_cell(render_x509_row(sample_x509()), 7, "1598918400.xyz"), &error));
  EXPECT_EQ(error, "malformed scalar field");
}

// --- joiner -------------------------------------------------------------------

TEST(Joiner, CertificateProjectionRoundTrips) {
  TestPki pki;
  const x509::Certificate original = pki.leaf("join.example");
  const X509LogRecord record = record_from_certificate(original, 123, "Fx");
  const x509::Certificate reconstructed = certificate_from_record(record);
  // Key material is gone (Zeek does not log it)...
  EXPECT_TRUE(reconstructed.public_key.material.empty());
  EXPECT_TRUE(reconstructed.signature.value.empty());
  // ...but every analysis-relevant field survives.
  EXPECT_TRUE(reconstructed.issuer.matches(original.issuer));
  EXPECT_TRUE(reconstructed.subject.matches(original.subject));
  EXPECT_EQ(reconstructed.serial, original.serial);
  EXPECT_EQ(reconstructed.validity, original.validity);
  EXPECT_EQ(reconstructed.basic_constraints, original.basic_constraints);
  EXPECT_EQ(reconstructed.subject_alt_names, original.subject_alt_names);
}

TEST(Joiner, LenientDnParsingKeepsRawString) {
  X509LogRecord record = sample_x509();
  record.subject = "no equals sign at all";  // unparseable as a DN
  const x509::Certificate cert = certificate_from_record(record);
  EXPECT_EQ(cert.subject.common_name(), "no equals sign at all");
}

TEST(Joiner, BuiltCertificatesFileAsTheirRecordsJoin) {
  // Rows as two pool tasks build them: spellings repeated within and across
  // builders, canonically colliding spellings, an unparseable one, and a
  // duplicate fuid whose first row must win.
  const std::vector<std::pair<std::string, std::string>> names = {
      {"CN=Issuing CA,O=Example", "CN=a.example"},
      {"CN=Issuing CA,O=Example", "CN=b.example"},
      {"cn=issuing ca,o=example", "CN=Issuing CA,O=Example"},
      {"no equals sign at all", "CN=a.example"},
      {"CN=Issuing CA,O=Example", "CN=c.example"},
      {"cn=issuing ca,o=example", "cn=A.example"},
  };
  std::vector<X509LogRecord> rows;
  for (std::size_t i = 0; i < names.size(); ++i) {
    X509LogRecord record = sample_x509();
    record.fuid = "F" + std::to_string(i);
    record.serial = std::to_string(100 + i);
    record.issuer = names[i].first;
    record.subject = names[i].second;
    rows.push_back(record);
  }
  X509LogRecord duplicate = rows[1];
  duplicate.serial = "ffff";
  rows.push_back(duplicate);

  core::DnPool serial_pool;
  LogJoiner serial;
  serial.set_dn_pool(&serial_pool);
  for (const X509LogRecord& record : rows) serial.add(record);

  core::DnPool built_pool;
  LogJoiner built;
  built.set_dn_pool(&built_pool);
  std::vector<CertificateBuilder> builders(2);
  std::vector<PreparedCertificate> prepared;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    CertificateBuilder& builder = builders[i * builders.size() / rows.size()];
    prepared.push_back(builder.prepare(X509LogRecord(rows[i])));
  }
  for (PreparedCertificate& certificate : prepared) built.add(certificate);

  ASSERT_EQ(built.certificate_count(), serial.certificate_count());
  EXPECT_EQ(built_pool.size(), serial_pool.size());
  for (const X509LogRecord& record : rows) {
    SCOPED_TRACE(record.fuid + " " + record.issuer + " / " + record.subject);
    const x509::CertificateHandle* want = serial.find(record.fuid);
    const x509::CertificateHandle* got = built.find(record.fuid);
    ASSERT_NE(want, nullptr);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ((*got)->serial, (*want)->serial);
    EXPECT_EQ((*got)->tbs_bytes(), (*want)->tbs_bytes());
    EXPECT_EQ((*got)->fingerprint_digest(), (*want)->fingerprint_digest());
    EXPECT_EQ((*got)->issuer_id, (*want)->issuer_id);
    EXPECT_EQ((*got)->subject_id, (*want)->subject_id);
    // A filed certificate shares the pool's DN bodies, whichever builder
    // parsed the spelling.
    EXPECT_EQ(&(*got)->issuer.rdns(),
              &built_pool.name_for_raw(record.issuer).rdns());
    EXPECT_EQ(&(*got)->subject.rdns(),
              &built_pool.name_for_raw(record.subject).rdns());
  }
  EXPECT_EQ((*built.find("F1"))->serial, "101");  // the first row won
}

TEST(Joiner, JoinsChainInDeliveryOrder) {
  TestPki pki;
  const auto chain = pki.chain_for("ordered.example", true);
  std::vector<X509LogRecord> x509_records;
  std::vector<std::string> fuids;
  for (const auto& cert : chain) {
    const std::string fuid = util::zeek_style_fuid(cert.fingerprint());
    fuids.push_back(fuid);
    x509_records.push_back(record_from_certificate(cert, 1, fuid));
  }
  SslLogRecord ssl = sample_ssl();
  ssl.cert_chain_fuids = fuids;

  const LogJoiner joiner(x509_records);
  const JoinedConnection joined = joiner.join(ssl);
  EXPECT_TRUE(joined.complete());
  ASSERT_EQ(joined.chain.length(), 3u);
  EXPECT_TRUE(joined.chain.at(0).subject.matches(chain.at(0).subject));
  EXPECT_TRUE(joined.chain.at(2).is_self_signed());
}

TEST(Joiner, ReportsMissingFuids) {
  const LogJoiner joiner({sample_x509()});
  SslLogRecord ssl = sample_ssl();
  ssl.cert_chain_fuids = {"FaAaAaAaAaAaAaAaAa", "Fmissing"};
  const JoinedConnection joined = joiner.join(ssl);
  EXPECT_FALSE(joined.complete());
  EXPECT_EQ(joined.chain.length(), 1u);
  EXPECT_EQ(joined.missing_fuids, (std::vector<std::string>{"Fmissing"}));
}

}  // namespace
}  // namespace certchain::zeek
