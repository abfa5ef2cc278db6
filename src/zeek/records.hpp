// Zeek log record types.
//
// The study's raw inputs are Zeek's SSL.log (one row per TLS connection) and
// X509.log (one row per certificate observed in a handshake), joined by the
// per-certificate file ids listed in ssl.cert_chain_fuids. These structs
// mirror the authorized fields the paper used — deliberately *excluding*
// public keys and signatures, which Zeek's X509.log does not carry and whose
// absence motivates the issuer–subject methodology (§4.2).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/dn_id.hpp"
#include "util/time.hpp"

namespace certchain::core {
class DnPool;
}  // namespace certchain::core

namespace certchain::zeek {

/// One TLS connection (SSL.log row).
struct SslLogRecord {
  util::SimTime ts = 0;
  std::string uid;          // connection uid ("C...")
  std::string id_orig_h;    // client IP (campus side, post-NAT)
  std::uint16_t id_orig_p = 0;
  std::string id_resp_h;    // server IP
  std::uint16_t id_resp_p = 0;

  std::string version;      // "TLSv12", "TLSv13", ...
  std::string cipher;
  std::string server_name;  // SNI; empty when the client sent none
  bool resumed = false;
  bool established = false;  // the paper's success criterion (§4.2 footnote 1)

  /// File ids of the delivered certificates, leaf first. Empty for TLS 1.3
  /// connections (certificates are encrypted; §6.3) and resumed sessions.
  std::vector<std::string> cert_chain_fuids;

  /// Subject/issuer of the first certificate, as Zeek logs them.
  std::string subject;
  std::string issuer;

  /// Zeek's validation verdict for the delivered chain ("ok" or an error
  /// string); used when learning cross-sign pairs (App. D.1).
  std::string validation_status;

  /// Interned ids of subject/issuer when the record passed through a
  /// core::DnPool (intern_dn_fields), kInvalidDnId otherwise. Pool-local
  /// derived state: excluded from equality.
  core::DnId subject_id = core::kInvalidDnId;
  core::DnId issuer_id = core::kInvalidDnId;

  /// Semantic equality over the logged fields; the derived pool ids are
  /// deliberately not compared.
  bool operator==(const SslLogRecord& other) const {
    return ts == other.ts && uid == other.uid &&
           id_orig_h == other.id_orig_h && id_orig_p == other.id_orig_p &&
           id_resp_h == other.id_resp_h && id_resp_p == other.id_resp_p &&
           version == other.version && cipher == other.cipher &&
           server_name == other.server_name && resumed == other.resumed &&
           established == other.established &&
           cert_chain_fuids == other.cert_chain_fuids &&
           subject == other.subject && issuer == other.issuer &&
           validation_status == other.validation_status;
  }
};

/// One SSL.log body row as views into the line it was parsed from, with the
/// scalar fields decoded. Text cells are raw: still Zeek-escaped, with the
/// unset marker ("-") already mapped to empty wherever SslLogRecord maps it.
/// `cert_chain_fuids` is the whole vector cell ("(empty)", "-" or the
/// comma-joined escaped fuids). Valid only while the line's bytes live; the
/// fold reads it in place, and parse_ssl_row materializes it into an
/// SslLogRecord.
struct SslRowView {
  util::SimTime ts = 0;
  std::string_view uid;
  std::string_view id_orig_h;
  std::uint16_t id_orig_p = 0;
  std::string_view id_resp_h;
  std::uint16_t id_resp_p = 0;
  std::string_view version;
  std::string_view cipher;
  std::string_view server_name;
  bool resumed = false;
  bool established = false;
  std::string_view cert_chain_fuids;
  std::string_view subject;
  std::string_view issuer;
  std::string_view validation_status;
};

/// One observed certificate (X509.log row).
struct X509LogRecord {
  util::SimTime ts = 0;
  std::string fuid;  // file id referenced from SslLogRecord::cert_chain_fuids

  int version = 3;
  std::string serial;
  std::string subject;  // RFC 4514 one-line form
  std::string issuer;
  util::SimTime not_before = 0;
  util::SimTime not_after = 0;

  std::string key_alg;   // e.g. "rsa2048"
  std::string sig_alg;   // e.g. "sha256WithRSAEncryption"
  int key_length = 0;

  /// basicConstraints: unset (extension absent) vs explicit CA flag. The
  /// §4.3 omission statistics read straight off this optional.
  std::optional<bool> basic_constraints_ca;
  std::optional<int> basic_constraints_path_len;

  /// SAN DNS names.
  std::vector<std::string> san_dns;

  /// Interned ids of subject/issuer (see SslLogRecord); filled by
  /// intern_dn_fields on the pool-aware ingest path.
  core::DnId subject_id = core::kInvalidDnId;
  core::DnId issuer_id = core::kInvalidDnId;

  /// Semantic equality over the logged fields; pool ids excluded.
  bool operator==(const X509LogRecord& other) const {
    return ts == other.ts && fuid == other.fuid && version == other.version &&
           serial == other.serial && subject == other.subject &&
           issuer == other.issuer && not_before == other.not_before &&
           not_after == other.not_after && key_alg == other.key_alg &&
           sig_alg == other.sig_alg && key_length == other.key_length &&
           basic_constraints_ca == other.basic_constraints_ca &&
           basic_constraints_path_len == other.basic_constraints_path_len &&
           san_dns == other.san_dns;
  }
};

/// Interns the record's DN fields into `pool` and stamps the ids. The
/// raw-bytes memo inside the pool makes the repeat case (the overwhelming
/// majority) two hash lookups, no DN parsing.
void intern_dn_fields(SslLogRecord& record, core::DnPool& pool);
void intern_dn_fields(X509LogRecord& record, core::DnPool& pool);

}  // namespace certchain::zeek
