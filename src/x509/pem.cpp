#include "x509/pem.hpp"

#include <charconv>

#include "util/base64.hpp"
#include "util/strings.hpp"

namespace certchain::x509 {

namespace {

constexpr std::string_view kBegin = "-----BEGIN CERTIFICATE-----";
constexpr std::string_view kEnd = "-----END CERTIFICATE-----";

void emit(std::string& out, std::string_view key, std::string_view value) {
  out.append(key);
  out.push_back(':');
  // Values may contain newlines only via escaping; DN strings never do, but
  // be defensive and escape backslash + newline.
  for (const char c : value) {
    if (c == '\\') {
      out.append("\\\\");
    } else if (c == '\n') {
      out.append("\\n");
    } else {
      out.push_back(c);
    }
  }
  out.push_back('\n');
}

std::string unescape(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (std::size_t i = 0; i < value.size(); ++i) {
    if (value[i] == '\\' && i + 1 < value.size()) {
      ++i;
      out.push_back(value[i] == 'n' ? '\n' : value[i]);
    } else {
      out.push_back(value[i]);
    }
  }
  return out;
}

bool parse_i64(std::string_view text, std::int64_t& out) {
  const auto* begin = text.data();
  const auto* end = text.data() + text.size();
  const auto result = std::from_chars(begin, end, out);
  return result.ec == std::errc{} && result.ptr == end;
}

}  // namespace

std::string encode_der_sim(const Certificate& cert) {
  std::string out;
  out.reserve(1024);
  emit(out, "format", "certchain-der-sim/1");
  emit(out, "version", std::to_string(cert.version));
  emit(out, "serial", cert.serial);
  emit(out, "issuer", cert.issuer.to_string());
  emit(out, "subject", cert.subject.to_string());
  emit(out, "not-before", std::to_string(cert.validity.begin));
  emit(out, "not-after", std::to_string(cert.validity.end));
  emit(out, "key-alg", crypto::key_algorithm_name(cert.public_key.algorithm));
  emit(out, "key", cert.public_key.material);
  if (cert.public_key.malformed) emit(out, "key-malformed", "1");
  emit(out, "sig-alg", crypto::signature_algorithm_name(cert.signature.algorithm));
  emit(out, "sig", cert.signature.value);
  if (cert.basic_constraints.present) {
    std::string bc = cert.basic_constraints.is_ca ? "CA:TRUE" : "CA:FALSE";
    if (cert.basic_constraints.path_len_constraint) {
      bc += ",pathlen:" + std::to_string(*cert.basic_constraints.path_len_constraint);
    }
    emit(out, "basic-constraints", bc);
  }
  if (cert.name_constraints.present) {
    for (const std::string& base : cert.name_constraints.permitted_dns) {
      emit(out, "nc-permit", base);
    }
    for (const std::string& base : cert.name_constraints.excluded_dns) {
      emit(out, "nc-exclude", base);
    }
    emit(out, "nc-present", "1");
  }
  if (cert.key_usage.present) {
    std::string ku;
    if (cert.key_usage.digital_signature) ku += "digitalSignature,";
    if (cert.key_usage.key_cert_sign) ku += "keyCertSign,";
    if (cert.key_usage.crl_sign) ku += "cRLSign,";
    if (!ku.empty()) ku.pop_back();
    emit(out, "key-usage", ku);
  }
  for (const std::string& san : cert.subject_alt_names) emit(out, "san", san);
  for (const EmbeddedSct& sct : cert.scts) {
    emit(out, "sct", sct.log_id + "@" + std::to_string(sct.timestamp));
  }
  if (cert.malformed_encoding) emit(out, "x-malformed-encoding", "1");
  return out;
}

std::optional<Certificate> decode_der_sim(std::string_view data) {
  Certificate cert;
  cert.basic_constraints = BasicConstraints{};
  bool saw_format = false;
  bool saw_issuer = false;
  bool saw_subject = false;

  for (const std::string& raw_line : util::split(data, '\n')) {
    if (raw_line.empty()) continue;
    const std::size_t colon = raw_line.find(':');
    if (colon == std::string::npos) return std::nullopt;
    const std::string_view key = std::string_view(raw_line).substr(0, colon);
    const std::string value = unescape(std::string_view(raw_line).substr(colon + 1));

    if (key == "format") {
      if (value != "certchain-der-sim/1") return std::nullopt;
      saw_format = true;
    } else if (key == "version") {
      if (!util::store(util::parse_count<int>(value), cert.version)) {
        return std::nullopt;
      }
    } else if (key == "serial") {
      cert.serial = value;
    } else if (key == "issuer") {
      auto dn = DistinguishedName::parse(value);
      if (!dn) return std::nullopt;
      cert.issuer = *std::move(dn);
      saw_issuer = true;
    } else if (key == "subject") {
      auto dn = DistinguishedName::parse(value);
      if (!dn) return std::nullopt;
      cert.subject = *std::move(dn);
      saw_subject = true;
    } else if (key == "not-before") {
      if (!parse_i64(value, cert.validity.begin)) return std::nullopt;
    } else if (key == "not-after") {
      if (!parse_i64(value, cert.validity.end)) return std::nullopt;
    } else if (key == "key-alg") {
      bool found = false;
      for (const auto alg :
           {crypto::KeyAlgorithm::kRsa2048, crypto::KeyAlgorithm::kRsa4096,
            crypto::KeyAlgorithm::kEcdsaP256, crypto::KeyAlgorithm::kEd25519,
            crypto::KeyAlgorithm::kGostR3410}) {
        if (crypto::key_algorithm_name(alg) == value) {
          cert.public_key.algorithm = alg;
          found = true;
          break;
        }
      }
      if (!found) return std::nullopt;
    } else if (key == "key") {
      cert.public_key.material = value;
    } else if (key == "key-malformed") {
      cert.public_key.malformed = (value == "1");
    } else if (key == "sig-alg") {
      bool found = false;
      for (const auto alg :
           {crypto::SignatureAlgorithm::kSimSha256WithRsa,
            crypto::SignatureAlgorithm::kSimSha1WithRsa,
            crypto::SignatureAlgorithm::kSimEcdsaSha256,
            crypto::SignatureAlgorithm::kSimEd25519,
            crypto::SignatureAlgorithm::kSimGost}) {
        if (crypto::signature_algorithm_name(alg) == value) {
          cert.signature.algorithm = alg;
          found = true;
          break;
        }
      }
      if (!found) return std::nullopt;
    } else if (key == "sig") {
      cert.signature.value = value;
    } else if (key == "basic-constraints") {
      cert.basic_constraints.present = true;
      const auto parts = util::split(value, ',');
      if (parts.empty()) return std::nullopt;
      if (parts[0] == "CA:TRUE") {
        cert.basic_constraints.is_ca = true;
      } else if (parts[0] == "CA:FALSE") {
        cert.basic_constraints.is_ca = false;
      } else {
        return std::nullopt;
      }
      for (std::size_t i = 1; i < parts.size(); ++i) {
        if (util::starts_with(parts[i], "pathlen:")) {
          const std::optional<int> len =
              util::parse_count<int>(std::string_view(parts[i]).substr(8));
          if (!len) return std::nullopt;
          cert.basic_constraints.path_len_constraint = *len;
        }
      }
    } else if (key == "nc-present") {
      cert.name_constraints.present = (value == "1");
    } else if (key == "nc-permit") {
      cert.name_constraints.present = true;
      cert.name_constraints.permitted_dns.push_back(value);
    } else if (key == "nc-exclude") {
      cert.name_constraints.present = true;
      cert.name_constraints.excluded_dns.push_back(value);
    } else if (key == "key-usage") {
      cert.key_usage.present = true;
      for (const auto& bit : util::split_nonempty(value, ',')) {
        if (bit == "digitalSignature") cert.key_usage.digital_signature = true;
        if (bit == "keyCertSign") cert.key_usage.key_cert_sign = true;
        if (bit == "cRLSign") cert.key_usage.crl_sign = true;
      }
    } else if (key == "san") {
      cert.subject_alt_names.push_back(value);
    } else if (key == "sct") {
      const std::size_t at = value.rfind('@');
      if (at == std::string::npos) return std::nullopt;
      EmbeddedSct sct;
      sct.log_id = value.substr(0, at);
      if (!parse_i64(std::string_view(value).substr(at + 1), sct.timestamp)) {
        return std::nullopt;
      }
      cert.scts.push_back(std::move(sct));
    } else if (key == "x-malformed-encoding") {
      cert.malformed_encoding = (value == "1");
    } else {
      return std::nullopt;  // unknown field: strict parse
    }
  }

  if (!saw_format || !saw_issuer || !saw_subject) return std::nullopt;
  return cert;
}

std::string encode_pem(const Certificate& cert) {
  const std::string body = util::base64_encode(encode_der_sim(cert));
  std::string out;
  out.reserve(body.size() + body.size() / 64 + 64);
  out.append(kBegin);
  out.push_back('\n');
  for (std::size_t i = 0; i < body.size(); i += 64) {
    out.append(body.substr(i, 64));
    out.push_back('\n');
  }
  out.append(kEnd);
  out.push_back('\n');
  return out;
}

std::optional<Certificate> decode_pem(std::string_view pem) {
  const std::size_t begin = pem.find(kBegin);
  if (begin == std::string_view::npos) return std::nullopt;
  const std::size_t body_start = begin + kBegin.size();
  const std::size_t end = pem.find(kEnd, body_start);
  if (end == std::string_view::npos) return std::nullopt;
  const auto decoded = util::base64_decode(pem.substr(body_start, end - body_start));
  if (!decoded) return std::nullopt;
  return decode_der_sim(*decoded);
}

std::vector<Certificate> decode_pem_bundle(std::string_view bundle,
                                           std::size_t* malformed_count) {
  std::vector<Certificate> certs;
  std::size_t malformed = 0;
  std::size_t cursor = 0;
  while (true) {
    const std::size_t begin = bundle.find(kBegin, cursor);
    if (begin == std::string_view::npos) break;
    const std::size_t end = bundle.find(kEnd, begin);
    if (end == std::string_view::npos) {
      ++malformed;
      break;
    }
    const std::size_t block_end = end + kEnd.size();
    if (auto cert = decode_pem(bundle.substr(begin, block_end - begin))) {
      certs.push_back(*std::move(cert));
    } else {
      ++malformed;
    }
    cursor = block_end;
  }
  if (malformed_count != nullptr) *malformed_count = malformed;
  return certs;
}

}  // namespace certchain::x509
