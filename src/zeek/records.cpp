#include "zeek/records.hpp"

#include "core/dn_pool.hpp"

namespace certchain::zeek {

void intern_dn_fields(SslLogRecord& record, core::DnPool& pool) {
  // SSL rows mirror the leaf's names only when Zeek saw certificates; "-"
  // parses to an empty field and stays uninterned.
  if (!record.subject.empty()) record.subject_id = pool.intern(record.subject);
  if (!record.issuer.empty()) record.issuer_id = pool.intern(record.issuer);
}

void intern_dn_fields(X509LogRecord& record, core::DnPool& pool) {
  record.subject_id = pool.intern(record.subject);
  record.issuer_id = pool.intern(record.issuer);
}

}  // namespace certchain::zeek
