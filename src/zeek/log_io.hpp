// Zeek TSV log serialization.
//
// Writes and reads the Zeek ASCII log format: '#'-prefixed header lines
// (separator, fields, types), tab-separated rows, "-" for unset fields,
// "(empty)" for empty vectors, and comma-joined vector elements. The netsim
// streams its synthetic traffic through this format so the analysis pipeline
// consumes byte-faithful Zeek logs rather than in-memory shortcuts.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "zeek/records.hpp"

namespace certchain::zeek {

/// Zeek-style field rendering helpers.
namespace tsv {
inline constexpr std::string_view kUnset = "-";
inline constexpr std::string_view kEmpty = "(empty)";

/// Appends "<seconds>.000000", e.g. "1598918400.000000".
void append_time(std::string& out, util::SimTime t);
/// Whole seconds; a fractional part, when present, must be digits.
std::optional<util::SimTime> parse_time(std::string_view text);
std::optional<bool> parse_bool(std::string_view text);
/// Appends a vector cell: "(empty)" for no elements, "-" for one empty
/// element, otherwise the escaped elements joined by ','.
void append_vector(std::string& out, const std::vector<std::string>& items);
std::vector<std::string> parse_vector(std::string_view text);
/// Appends `value` with its separator bytes (tab, newline, ',', '\')
/// escaped as `\xHH`.
void append_escaped(std::string& out, std::string_view value);
/// Decodes each `\xHH` (a backslash, `x`, exactly two hex digits) to its
/// byte; every other backslash stays literal.
std::string unescape_field(std::string_view value);
/// unescape_field into `out`, replacing its contents; a value with no
/// backslash (virtually every field) is one copy into out's capacity.
void unescape_into(std::string_view value, std::string& out);

/// Calls `visit(element)` for each element of a vector cell, in order, with
/// parse_vector's semantics but without building the vector: an element is
/// unescaped, into `scratch`, only when it contains a backslash. "(empty)"
/// and "-" have no elements.
template <typename Visit>
void for_each_vector_element(std::string_view cell, std::string& scratch,
                             Visit&& visit) {
  if (cell == kEmpty || cell == kUnset) return;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = cell.find(',', start);
    const std::string_view part = cell.substr(
        start, pos == std::string_view::npos ? pos : pos - start);
    if (part.find('\\') == std::string_view::npos) {
      visit(part);
    } else {
      unescape_into(part, scratch);
      visit(std::string_view(scratch));
    }
    if (pos == std::string_view::npos) return;
    start = pos + 1;
  }
}
}  // namespace tsv

/// Renders one SSL.log body row (no trailing newline): the bytes the writer
/// appends for the record. External producers (the revisit fleet) use it to
/// synthesize ingest batches byte-identical to writer-produced logs.
std::string render_ssl_row(const SslLogRecord& record);

/// Renders one X509.log body row (no trailing newline). Throws
/// std::invalid_argument for a negative version, key length or path
/// length: Zeek writes those fields as unsigned counts.
std::string render_x509_row(const X509LogRecord& record);

/// Serializes SSL.log.
class SslLogWriter {
 public:
  SslLogWriter();
  void add(const SslLogRecord& record);
  std::size_t count() const { return count_; }
  /// Full log text including header and closing line.
  std::string finish() const;

 private:
  std::string body_;
  std::size_t count_ = 0;
};

/// Serializes X509.log.
class X509LogWriter {
 public:
  X509LogWriter();
  /// Throws std::invalid_argument, writing nothing, for a record
  /// render_x509_row refuses.
  void add(const X509LogRecord& record);
  std::size_t count() const { return count_; }
  std::string finish() const;

 private:
  std::string body_;
  std::size_t count_ = 0;
};

/// Parses one SSL.log body row (no header handling) into views over `line`;
/// a well-formed row allocates nothing. On failure returns nullopt and,
/// when `error` is given, a short reason: a wrong column count, or a scalar
/// that is malformed or out of its type's range. The one SSL row parser;
/// the streaming readers and the daemon's append path sit on top of it.
std::optional<SslRowView> parse_ssl_row_view(std::string_view line,
                                             std::string* error = nullptr);

/// parse_ssl_row_view plus materialization: unescaped, owned fields.
std::optional<SslLogRecord> parse_ssl_row(std::string_view line,
                                          std::string* error = nullptr);

/// Parses one X509.log body row, with the same rejection rules.
std::optional<X509LogRecord> parse_x509_row(std::string_view line,
                                            std::string* error = nullptr);

}  // namespace certchain::zeek
