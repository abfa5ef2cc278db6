#include "zeek/log_stream.hpp"

#include <utility>

namespace certchain::zeek {

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
