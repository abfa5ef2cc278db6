#include "zeek/log_io.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <stdexcept>

#include "util/strings.hpp"

namespace certchain::zeek {

namespace tsv {

void append_time(std::string& out, util::SimTime t) {
  char buffer[24];
  const auto end = std::to_chars(buffer, buffer + sizeof(buffer), t).ptr;
  out.append(buffer, end);
  out.append(".000000");
}

std::optional<util::SimTime> parse_time(std::string_view text) {
  const std::size_t dot = text.find('.');
  const std::string_view whole = dot == std::string_view::npos ? text : text.substr(0, dot);
  util::SimTime value = 0;
  const auto result = std::from_chars(whole.data(), whole.data() + whole.size(), value);
  if (result.ec != std::errc{} || result.ptr != whole.data() + whole.size()) {
    return std::nullopt;
  }
  if (dot != std::string_view::npos) {
    const std::string_view fraction = text.substr(dot + 1);
    if (fraction.empty() ||
        !std::all_of(fraction.begin(), fraction.end(),
                     [](char c) { return c >= '0' && c <= '9'; })) {
      return std::nullopt;
    }
  }
  return value;
}

std::optional<bool> parse_bool(std::string_view text) {
  if (text == "T") return true;
  if (text == "F") return false;
  return std::nullopt;
}

void append_vector(std::string& out, const std::vector<std::string>& items) {
  if (items.empty()) {
    out.append(kEmpty);
  } else if (items.size() == 1 && items.front().empty()) {
    out.append(kUnset);  // a lone empty element renders as an empty cell
  } else {
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (i != 0) out.push_back(',');
      append_escaped(out, items[i]);
    }
  }
}

std::vector<std::string> parse_vector(std::string_view text) {
  if (text == kEmpty || text == kUnset) return {};
  std::vector<std::string> out;
  out.reserve(1 + static_cast<std::size_t>(
                      std::count(text.begin(), text.end(), ',')));
  std::string scratch;
  for_each_vector_element(text, scratch, [&out](std::string_view element) {
    out.emplace_back(element);
  });
  return out;
}

void append_escaped(std::string& out, std::string_view value) {
  // Zeek escapes separator bytes as \xNN; tabs, newlines and commas (the
  // vector separator) are the ones that can occur in DN strings. Runs
  // without one are appended whole.
  std::size_t copied = 0;  // value[0, copied) is in `out`
  for (std::size_t at = 0; at < value.size(); ++at) {
    std::string_view code;
    switch (value[at]) {
      case '\t': code = "\\x09"; break;
      case '\n': code = "\\x0a"; break;
      case ',': code = "\\x2c"; break;
      case '\\': code = "\\x5c"; break;
      default: continue;
    }
    out.append(value.substr(copied, at - copied));
    out.append(code);
    copied = at + 1;
  }
  out.append(value.substr(copied));
}

void unescape_into(std::string_view value, std::string& out) {
  // Only `\x` plus exactly two hex digits decodes; any other backslash is
  // kept literally. Unescaped runs are appended whole.
  out.clear();
  std::size_t copied = 0;  // value[0, copied) is in `out`
  for (std::size_t at = value.find('\\'); at != std::string_view::npos;
       at = value.find('\\', at + 1)) {
    if (at + 3 >= value.size() || value[at + 1] != 'x') continue;
    const int high = util::hex_value(value[at + 2]);
    const int low = util::hex_value(value[at + 3]);
    if (high < 0 || low < 0) continue;
    out.append(value.substr(copied, at - copied));
    out.push_back(static_cast<char>(high << 4 | low));
    at += 3;
    copied = at + 1;
  }
  out.append(value.substr(copied));
}

std::string unescape_field(std::string_view value) {
  std::string out;
  unescape_into(value, out);
  return out;
}

}  // namespace tsv

namespace {

constexpr std::string_view kSslFields =
    "ts\tuid\tid.orig_h\tid.orig_p\tid.resp_h\tid.resp_p\tversion\tcipher\t"
    "server_name\tresumed\testablished\tcert_chain_fuids\tsubject\tissuer\t"
    "validation_status";
constexpr std::string_view kSslTypes =
    "time\tstring\taddr\tport\taddr\tport\tstring\tstring\tstring\tbool\tbool\t"
    "vector[string]\tstring\tstring\tstring";

constexpr std::string_view kX509Fields =
    "ts\tfuid\tcertificate.version\tcertificate.serial\tcertificate.subject\t"
    "certificate.issuer\tcertificate.not_valid_before\tcertificate.not_valid_after\t"
    "certificate.key_alg\tcertificate.sig_alg\tcertificate.key_length\t"
    "basic_constraints.ca\tbasic_constraints.path_len\tsan.dns";
constexpr std::string_view kX509Types =
    "time\tstring\tcount\tstring\tstring\tstring\ttime\ttime\tstring\tstring\t"
    "count\tbool\tcount\tvector[string]";

std::string header(std::string_view path, std::string_view fields,
                   std::string_view types) {
  std::string out;
  out.append("#separator \\x09\n");
  out.append("#set_separator\t,\n");
  out.append("#empty_field\t(empty)\n");
  out.append("#unset_field\t-\n");
  out.append("#path\t").append(path).append("\n");
  out.append("#fields\t").append(fields).append("\n");
  out.append("#types\t").append(types).append("\n");
  return out;
}

/// A string cell: "-" when empty.
void append_text(std::string& out, std::string_view value) {
  out.append(value.empty() ? tsv::kUnset : value);
  out.push_back('\t');
}

/// An escaped string cell: "-" when empty.
void append_escaped_text(std::string& out, std::string_view value) {
  if (value.empty()) {
    out.append(tsv::kUnset);
  } else {
    tsv::append_escaped(out, value);
  }
  out.push_back('\t');
}

void append_int(std::string& out, long long value) {
  char buffer[24];
  out.append(buffer, std::to_chars(buffer, buffer + sizeof(buffer), value).ptr);
  out.push_back('\t');
}

void append_bool(std::string& out, bool value) {
  out.push_back(value ? 'T' : 'F');
  out.push_back('\t');
}

void append_time_cell(std::string& out, util::SimTime t) {
  tsv::append_time(out, t);
  out.push_back('\t');
}

/// Each appender writes one row followed by its newline.
void append_ssl_row(std::string& out, const SslLogRecord& record) {
  append_time_cell(out, record.ts);
  append_text(out, record.uid);
  append_text(out, record.id_orig_h);
  append_int(out, record.id_orig_p);
  append_text(out, record.id_resp_h);
  append_int(out, record.id_resp_p);
  append_text(out, record.version);
  append_text(out, record.cipher);
  append_escaped_text(out, record.server_name);
  append_bool(out, record.resumed);
  append_bool(out, record.established);
  tsv::append_vector(out, record.cert_chain_fuids);
  out.push_back('\t');
  append_escaped_text(out, record.subject);
  append_escaped_text(out, record.issuer);
  append_escaped_text(out, record.validation_status);
  out.back() = '\n';
}

/// X509.log's version, key length and path length are Zeek `count`s, which
/// parse_x509_row reads unsigned: a negative one would be written and then
/// dropped as malformed. The row is refused before any byte of it is
/// written, so what a writer accepts always reads back.
void check_counts(const X509LogRecord& record) {
  const auto check = [](const char* field, long long value) {
    if (value < 0) {
      throw std::invalid_argument(std::string("X509.log ") + field +
                                  " is a count, not " + std::to_string(value));
    }
  };
  check("certificate.version", record.version);
  check("certificate.key_length", record.key_length);
  if (record.basic_constraints_path_len) {
    check("basic_constraints.path_len", *record.basic_constraints_path_len);
  }
}

void append_x509_row(std::string& out, const X509LogRecord& record) {
  check_counts(record);
  append_time_cell(out, record.ts);
  append_text(out, record.fuid);
  append_int(out, record.version);
  append_text(out, record.serial);
  append_escaped_text(out, record.subject);
  append_escaped_text(out, record.issuer);
  append_time_cell(out, record.not_before);
  append_time_cell(out, record.not_after);
  append_text(out, record.key_alg);
  append_text(out, record.sig_alg);
  append_int(out, record.key_length);
  if (record.basic_constraints_ca) {
    append_bool(out, *record.basic_constraints_ca);
  } else {
    append_text(out, {});  // unset: "-"
  }
  if (record.basic_constraints_path_len) {
    append_int(out, *record.basic_constraints_path_len);
  } else {
    append_text(out, {});
  }
  tsv::append_vector(out, record.san_dns);
  out.push_back('\n');
}

/// The header, the body and the closing line. The result is reserved
/// before the body goes in, so the body is copied once.
std::string finish_log(std::string_view path, std::string_view fields,
                       std::string_view types, const std::string& body) {
  std::string out = header(path, fields, types);
  constexpr std::string_view kClose = "#close\n";
  out.reserve(out.size() + body.size() + kClose.size());
  out.append(body);
  out.append(kClose);
  return out;
}

}  // namespace

std::string render_ssl_row(const SslLogRecord& record) {
  std::string row;
  append_ssl_row(row, record);
  row.pop_back();
  return row;
}

std::string render_x509_row(const X509LogRecord& record) {
  std::string row;
  append_x509_row(row, record);
  row.pop_back();
  return row;
}

SslLogWriter::SslLogWriter() = default;

void SslLogWriter::add(const SslLogRecord& record) {
  append_ssl_row(body_, record);
  ++count_;
}

std::string SslLogWriter::finish() const {
  return finish_log("ssl", kSslFields, kSslTypes, body_);
}

X509LogWriter::X509LogWriter() = default;

void X509LogWriter::add(const X509LogRecord& record) {
  append_x509_row(body_, record);
  ++count_;
}

std::string X509LogWriter::finish() const {
  return finish_log("x509", kX509Fields, kX509Types, body_);
}

namespace {

void set_error(std::string* error, std::string_view message) {
  if (error != nullptr) *error = std::string(message);
}

/// Materializes a parsed row: unescaped, owned fields.
SslLogRecord to_ssl_record(const SslRowView& row) {
  SslLogRecord record;
  record.ts = row.ts;
  record.uid = row.uid;
  record.id_orig_h = row.id_orig_h;
  record.id_orig_p = row.id_orig_p;
  record.id_resp_h = row.id_resp_h;
  record.id_resp_p = row.id_resp_p;
  record.version = row.version;
  record.cipher = row.cipher;
  tsv::unescape_into(row.server_name, record.server_name);
  record.resumed = row.resumed;
  record.established = row.established;
  record.cert_chain_fuids = tsv::parse_vector(row.cert_chain_fuids);
  tsv::unescape_into(row.subject, record.subject);
  tsv::unescape_into(row.issuer, record.issuer);
  tsv::unescape_into(row.validation_status, record.validation_status);
  return record;
}

}  // namespace

std::optional<SslRowView> parse_ssl_row_view(std::string_view line,
                                             std::string* error) {
  std::array<std::string_view, 15> cells;
  if (!util::split_exact(line, '\t', cells.data(), cells.size())) {
    set_error(error, "wrong column count");
    return std::nullopt;
  }
  const auto ts = tsv::parse_time(cells[0]);
  const auto orig_p = util::parse_count<std::uint16_t>(cells[3]);
  const auto resp_p = util::parse_count<std::uint16_t>(cells[5]);
  const auto resumed = tsv::parse_bool(cells[9]);
  const auto established = tsv::parse_bool(cells[10]);
  if (!ts || !orig_p || !resp_p || !resumed || !established) {
    set_error(error, "malformed scalar field");
    return std::nullopt;
  }
  const auto unset_to_empty = [](std::string_view cell) {
    return cell == tsv::kUnset ? std::string_view{} : cell;
  };
  SslRowView row;
  row.ts = *ts;
  row.uid = cells[1];
  row.id_orig_h = cells[2];
  row.id_orig_p = *orig_p;
  row.id_resp_h = cells[4];
  row.id_resp_p = *resp_p;
  row.version = unset_to_empty(cells[6]);
  row.cipher = unset_to_empty(cells[7]);
  row.server_name = unset_to_empty(cells[8]);
  row.resumed = *resumed;
  row.established = *established;
  row.cert_chain_fuids = cells[11];
  row.subject = unset_to_empty(cells[12]);
  row.issuer = unset_to_empty(cells[13]);
  row.validation_status = unset_to_empty(cells[14]);
  return row;
}

std::optional<SslLogRecord> parse_ssl_row(std::string_view line,
                                          std::string* error) {
  const std::optional<SslRowView> row = parse_ssl_row_view(line, error);
  if (!row) return std::nullopt;
  return to_ssl_record(*row);
}

std::optional<X509LogRecord> parse_x509_row(std::string_view line,
                                            std::string* error) {
  std::array<std::string_view, 14> cells;
  if (!util::split_exact(line, '\t', cells.data(), cells.size())) {
    set_error(error, "wrong column count");
    return std::nullopt;
  }
  X509LogRecord record;
  const auto ts = tsv::parse_time(cells[0]);
  const auto version = util::parse_count<int>(cells[2]);
  const auto not_before = tsv::parse_time(cells[6]);
  const auto not_after = tsv::parse_time(cells[7]);
  const auto key_length = util::parse_count<int>(cells[10]);
  if (!ts || !version || !not_before || !not_after || !key_length) {
    set_error(error, "malformed scalar field");
    return std::nullopt;
  }
  record.ts = *ts;
  record.fuid = cells[1];
  record.version = *version;
  record.serial = cells[3];
  tsv::unescape_into(cells[4], record.subject);
  tsv::unescape_into(cells[5], record.issuer);
  record.not_before = *not_before;
  record.not_after = *not_after;
  record.key_alg = cells[8];
  record.sig_alg = cells[9];
  record.key_length = *key_length;
  if (cells[11] != tsv::kUnset) {
    const auto ca = tsv::parse_bool(cells[11]);
    if (!ca) {
      set_error(error, "malformed basic_constraints.ca");
      return std::nullopt;
    }
    record.basic_constraints_ca = *ca;
  }
  if (cells[12] != tsv::kUnset) {
    const auto path_len = util::parse_count<int>(cells[12]);
    if (!path_len) {
      set_error(error, "malformed basic_constraints.path_len");
      return std::nullopt;
    }
    record.basic_constraints_path_len = *path_len;
  }
  record.san_dns = tsv::parse_vector(cells[13]);
  return record;
}

}  // namespace certchain::zeek
