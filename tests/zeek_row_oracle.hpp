// The string-building Zeek row renderers, kept as the executable reference
// the append-in-place writers are checked against.
//
// Each field is rendered to its own string (escaped into a fresh string,
// times through snprintf, integers through std::to_string) and then joined
// with tabs, an empty rendering becoming "-". zeek::render_ssl_row and
// zeek::render_x509_row must return exactly these bytes for every record
// (tests/test_zeek.cpp).
#pragma once

#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "zeek/records.hpp"

namespace certchain::zeek::oracle {

inline std::string render_time(util::SimTime t) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%lld.000000", static_cast<long long>(t));
  return buffer;
}

inline std::string render_bool(bool b) { return b ? "T" : "F"; }

inline std::string escape_field(std::string_view value) {
  std::string out;
  for (const char c : value) {
    switch (c) {
      case '\t': out.append("\\x09"); break;
      case '\n': out.append("\\x0a"); break;
      case ',': out.append("\\x2c"); break;
      case '\\': out.append("\\x5c"); break;
      default: out.push_back(c);
    }
  }
  return out;
}

inline std::string render_vector(const std::vector<std::string>& items) {
  if (items.empty()) return "(empty)";
  std::string out;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i != 0) out.push_back(',');
    out.append(escape_field(items[i]));
  }
  return out;
}

inline void append_field(std::string& row, std::string_view value,
                         bool first = false) {
  if (!first) row.push_back('\t');
  row.append(value.empty() ? std::string_view("-") : value);
}

inline std::string render_ssl_row(const SslLogRecord& record) {
  std::string row;
  append_field(row, render_time(record.ts), true);
  append_field(row, record.uid);
  append_field(row, record.id_orig_h);
  append_field(row, std::to_string(record.id_orig_p));
  append_field(row, record.id_resp_h);
  append_field(row, std::to_string(record.id_resp_p));
  append_field(row, record.version);
  append_field(row, record.cipher);
  append_field(row, escape_field(record.server_name));
  append_field(row, render_bool(record.resumed));
  append_field(row, render_bool(record.established));
  append_field(row, render_vector(record.cert_chain_fuids));
  append_field(row, escape_field(record.subject));
  append_field(row, escape_field(record.issuer));
  append_field(row, escape_field(record.validation_status));
  return row;
}

inline std::string render_x509_row(const X509LogRecord& record) {
  std::string row;
  append_field(row, render_time(record.ts), true);
  append_field(row, record.fuid);
  append_field(row, std::to_string(record.version));
  append_field(row, record.serial);
  append_field(row, escape_field(record.subject));
  append_field(row, escape_field(record.issuer));
  append_field(row, render_time(record.not_before));
  append_field(row, render_time(record.not_after));
  append_field(row, record.key_alg);
  append_field(row, record.sig_alg);
  append_field(row, std::to_string(record.key_length));
  append_field(row, record.basic_constraints_ca
                        ? render_bool(*record.basic_constraints_ca)
                        : std::string("-"));
  append_field(row, record.basic_constraints_path_len
                        ? std::to_string(*record.basic_constraints_path_len)
                        : std::string("-"));
  append_field(row, render_vector(record.san_dns));
  return row;
}

}  // namespace certchain::zeek::oracle
