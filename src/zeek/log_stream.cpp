#include "zeek/log_stream.hpp"

#include <algorithm>

namespace certchain::zeek {

ShardHeaderScan scan_shard_header_state(std::string_view shard,
                                        std::string_view expected_fields) {
  ShardHeaderScan scan;
  scan.newlines =
      static_cast<std::size_t>(std::count(shard.begin(), shard.end(), '\n'));

  // Directive lines are rare, so jump between '#'-at-line-start positions
  // instead of walking every line. Shards are line-aligned, so a directive
  // line never straddles a shard boundary.
  std::size_t line_start = 0;
  while (line_start != std::string_view::npos && line_start < shard.size()) {
    if (shard[line_start] == '#') {
      std::size_t line_end = shard.find('\n', line_start);
      if (line_end == std::string_view::npos) line_end = shard.size();
      const std::string_view line = shard.substr(line_start, line_end - line_start);
      if (line.rfind("#close", 0) == 0) {
        scan.has_directive = true;
        scan.exit_in_body = false;
      } else if (line.rfind("#fields\t", 0) == 0) {
        scan.has_directive = true;
        scan.exit_in_body = (line.substr(8) == expected_fields);
      }
      line_start = line_end == shard.size() ? std::string_view::npos : line_end + 1;
      continue;
    }
    // Skip to the start of the next '#' line.
    const std::size_t next = shard.find("\n#", line_start);
    line_start = next == std::string_view::npos ? std::string_view::npos : next + 1;
  }
  return scan;
}

// The canonical field layouts live in log_io.cpp; re-derive them here from a
// rendered header so the two stay in sync by construction.
namespace {

std::string fields_of(const std::string& rendered_log) {
  const std::size_t begin = rendered_log.find("#fields\t");
  const std::size_t end = rendered_log.find('\n', begin);
  return rendered_log.substr(begin + 8, end - begin - 8);
}

}  // namespace

std::string ssl_log_fields() {
  static const std::string fields = fields_of(SslLogWriter().finish());
  return fields;
}

std::string x509_log_fields() {
  static const std::string fields = fields_of(X509LogWriter().finish());
  return fields;
}

template <>
std::optional<SslLogRecord> StreamingLogReader<SslLogRecord>::parse_row(
    std::string_view line, std::string* error) {
  return parse_ssl_row(line, error);
}

template <>
std::optional<SslRowView> StreamingLogReader<SslRowView>::parse_row(
    std::string_view line, std::string* error) {
  return parse_ssl_row_view(line, error);
}

template <>
std::optional<X509LogRecord> StreamingLogReader<X509LogRecord>::parse_row(
    std::string_view line, std::string* error) {
  return parse_x509_row(line, error);
}

StreamingSslReader make_streaming_ssl_reader(StreamingSslReader::Callback callback) {
  return StreamingSslReader(ssl_log_fields(), std::move(callback));
}

StreamingSslViewReader make_streaming_ssl_view_reader(
    StreamingSslViewReader::Callback callback) {
  return StreamingSslViewReader(ssl_log_fields(), std::move(callback));
}

StreamingX509Reader make_streaming_x509_reader(
    StreamingX509Reader::Callback callback) {
  return StreamingX509Reader(x509_log_fields(), std::move(callback));
}

}  // namespace certchain::zeek
