#include "x509/certificate.hpp"

#include <charconv>

#include "util/hash.hpp"
#include "util/strings.hpp"

namespace certchain::x509 {

bool dns_in_subtree(std::string_view dns_name, std::string_view base) {
  const std::string name = util::to_lower(dns_name);
  const std::string suffix = util::to_lower(base);
  if (name == suffix) return true;
  return name.size() > suffix.size() && util::ends_with(name, suffix) &&
         name[name.size() - suffix.size() - 1] == '.';
}

bool NameConstraints::allows(std::string_view dns_name) const {
  if (!present) return true;
  for (const std::string& base : excluded_dns) {
    if (dns_in_subtree(dns_name, base)) return false;
  }
  if (permitted_dns.empty()) return true;
  for (const std::string& base : permitted_dns) {
    if (dns_in_subtree(dns_name, base)) return true;
  }
  return false;
}

namespace {

/// Appends `value` in decimal, as std::to_string writes it.
template <typename Sink, typename Int>
void append_decimal(Sink& sink, Int value) {
  char digits[24];
  const auto end = std::to_chars(digits, digits + sizeof digits, value).ptr;
  sink.append(std::string_view(digits, static_cast<std::size_t>(end - digits)));
}

/// Writes the canonical to-be-signed serialization into `sink` (a
/// std::string or a util::Digest256Builder). Unambiguous because every
/// field is length-independent and separated by record markers.
template <typename Sink>
void write_tbs(const Certificate& cert, Sink& sink) {
  constexpr char kEnd = '\x1e';
  sink.append("v=");
  append_decimal(sink, cert.version);
  sink.push_back(kEnd);
  sink.append("serial=");
  sink.append(cert.serial);
  sink.push_back(kEnd);
  sink.append("issuer=");
  sink.append(cert.issuer.to_string());
  sink.push_back(kEnd);
  sink.append("subject=");
  sink.append(cert.subject.to_string());
  sink.push_back(kEnd);
  sink.append("nb=");
  append_decimal(sink, cert.validity.begin);
  sink.push_back(kEnd);
  sink.append("na=");
  append_decimal(sink, cert.validity.end);
  sink.push_back(kEnd);
  sink.append("keyalg=");
  sink.append(crypto::key_algorithm_name(cert.public_key.algorithm));
  sink.push_back(kEnd);
  sink.append("key=");
  sink.append(cert.public_key.material);
  sink.push_back(kEnd);
  sink.append("bc=");
  const BasicConstraints& bc = cert.basic_constraints;
  if (bc.present) {
    sink.append(bc.is_ca ? "CA:TRUE" : "CA:FALSE");
    if (bc.path_len_constraint) {
      sink.append(",pathlen:");
      append_decimal(sink, *bc.path_len_constraint);
    }
  } else {
    sink.append("absent");
  }
  sink.push_back(kEnd);
  sink.append("nc=");
  if (cert.name_constraints.present) {
    sink.push_back('p');
    for (const std::string& base : cert.name_constraints.permitted_dns) {
      sink.append(base);
      sink.push_back(';');
    }
    sink.push_back('x');
    for (const std::string& base : cert.name_constraints.excluded_dns) {
      sink.append(base);
      sink.push_back(';');
    }
  }
  sink.push_back(kEnd);
  sink.append("ku=");
  if (cert.key_usage.present) {
    if (cert.key_usage.digital_signature) sink.append("ds,");
    if (cert.key_usage.key_cert_sign) sink.append("kcs,");
    if (cert.key_usage.crl_sign) sink.append("crl,");
  }
  sink.push_back(kEnd);
  sink.append("san=");
  for (const std::string& name : cert.subject_alt_names) {
    sink.append(name);
    sink.push_back(';');
  }
  sink.push_back(kEnd);
  // Note: the SCT list is deliberately NOT part of the to-be-signed bytes.
  // This mirrors RFC 6962 precertificate semantics: the CA signs the
  // certificate before logs return their SCTs, so embedding SCTs afterwards
  // must not invalidate the signature.
}

/// Digests the fingerprint bytes: the tbs serialization, then `scts` (the
/// certificate's own list, or none for its precertificate identity), then
/// the signature.
util::Digest256 digest_fingerprint(const Certificate& cert,
                                   const std::vector<EmbeddedSct>& scts) {
  constexpr char kEnd = '\x1e';
  util::Digest256Builder digest;
  write_tbs(cert, digest);
  digest.append("scts=");
  for (const EmbeddedSct& sct : scts) {
    digest.append(sct.log_id);
    digest.push_back('@');
    append_decimal(digest, sct.timestamp);
    digest.push_back(';');
  }
  digest.push_back(kEnd);
  digest.append("sigalg=");
  digest.append(crypto::signature_algorithm_name(cert.signature.algorithm));
  digest.push_back(kEnd);
  digest.append("sig=");
  digest.append(cert.signature.value);
  digest.push_back(kEnd);
  return digest.finish();
}

}  // namespace

std::string Certificate::tbs_bytes() const {
  std::string out;
  out.reserve(512);
  write_tbs(*this, out);
  return out;
}

util::Digest256 Certificate::fingerprint_digest() const {
  if (fingerprint_memo) return *fingerprint_memo;
  // The fingerprint is the identity of the certificate *as delivered*, so it
  // does cover the embedded SCT list (unlike the signature).
  return digest_fingerprint(*this, scts);
}

util::Digest256 Certificate::precertificate_fingerprint() const {
  return digest_fingerprint(*this, {});
}

void Certificate::seal_fingerprint() {
  fingerprint_memo.reset();
  fingerprint_memo = fingerprint_digest();
}

bool wildcard_matches(std::string_view pattern, std::string_view domain) {
  const std::string p = util::to_lower(pattern);
  const std::string d = util::to_lower(domain);
  if (!util::starts_with(p, "*.")) return p == d;
  // "*.example.com" matches exactly one extra left label.
  const std::string_view suffix = std::string_view(p).substr(1);  // ".example.com"
  if (!util::ends_with(d, suffix)) return false;
  const std::string_view label = std::string_view(d).substr(0, d.size() - suffix.size());
  return !label.empty() && label.find('.') == std::string_view::npos;
}

bool Certificate::covers_domain(std::string_view domain) const {
  for (const std::string& san : subject_alt_names) {
    if (wildcard_matches(san, domain)) return true;
  }
  // Fallback to CN when no SAN is present (legacy behaviour common among
  // non-public-DB issuers).
  if (subject_alt_names.empty()) {
    if (const auto cn = subject.common_name()) return wildcard_matches(*cn, domain);
  }
  return false;
}

}  // namespace certchain::x509
