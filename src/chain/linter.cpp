#include "chain/linter.hpp"

#include <set>

#include "chain/matcher.hpp"
#include "util/strings.hpp"

namespace certchain::chain {

std::string_view lint_severity_name(LintSeverity severity) {
  switch (severity) {
    case LintSeverity::kInfo: return "info";
    case LintSeverity::kWarning: return "warning";
    case LintSeverity::kError: return "error";
  }
  return "unknown";
}

std::string_view lint_code_name(LintCode code) {
  switch (code) {
    case LintCode::kWellFormed: return "well-formed";
    case LintCode::kSingleSelfSigned: return "single-self-signed";
    case LintCode::kSingleWithoutIssuer: return "single-without-issuer";
    case LintCode::kUnnecessaryCertificate: return "unnecessary-certificate";
    case LintCode::kStagingCertificate: return "staging-certificate";
    case LintCode::kLeafNotFirst: return "leaf-not-first";
    case LintCode::kNoCompletePath: return "no-complete-path";
    case LintCode::kExpiredCertificate: return "expired-certificate";
    case LintCode::kNotYetValid: return "not-yet-valid";
    case LintCode::kDuplicateCertificate: return "duplicate-certificate";
    case LintCode::kMissingIntermediate: return "missing-intermediate";
  }
  return "unknown";
}

namespace {

bool looks_like_staging(const x509::Certificate& cert) {
  const std::string issuer = util::to_lower(cert.issuer.common_name().value_or(""));
  const std::string subject = util::to_lower(cert.subject.common_name().value_or(""));
  for (const std::string_view marker : {"fake le", "staging", "test ca", "happy hacker"}) {
    if (util::contains(issuer, marker) || util::contains(subject, marker)) return true;
  }
  return false;
}

void add_finding(LintReport& report, LintCode code, LintSeverity severity,
                 std::size_t position, std::string message,
                 std::string recommendation) {
  report.findings.push_back(LintFinding{code, severity, position, std::move(message),
                                        std::move(recommendation)});
}

}  // namespace

LintReport lint_chain(const CertificateChain& chain, const LintOptions& options) {
  LintReport report;
  if (chain.empty()) {
    add_finding(report, LintCode::kNoCompletePath, LintSeverity::kError,
                static_cast<std::size_t>(-1), "no certificates were delivered",
                "configure the server to send its certificate chain");
    return report;
  }

  // Validity findings (every position).
  if (options.now != 0) {
    for (std::size_t i = 0; i < chain.length(); ++i) {
      const x509::Certificate& cert = chain.at(i);
      if (cert.expired_at(options.now)) {
        add_finding(report, LintCode::kExpiredCertificate, LintSeverity::kError, i,
                    "certificate expired on " + util::format_date(cert.validity.end),
                    "renew the certificate");
      } else if (!cert.valid_at(options.now) && options.now < cert.validity.begin) {
        add_finding(report, LintCode::kNotYetValid, LintSeverity::kWarning, i,
                    "certificate only becomes valid on " +
                        util::format_date(cert.validity.begin),
                    "check the server clock and deployment date");
      }
    }
  }

  // Duplicates.
  std::set<std::string> fingerprints;
  for (std::size_t i = 0; i < chain.length(); ++i) {
    if (!fingerprints.insert(chain.at(i).fingerprint()).second) {
      add_finding(report, LintCode::kDuplicateCertificate, LintSeverity::kWarning, i,
                  "certificate is delivered more than once",
                  "remove the duplicate from the chain file");
    }
  }

  // Staging placeholders anywhere in the chain.
  for (std::size_t i = 0; i < chain.length(); ++i) {
    if (looks_like_staging(chain.at(i))) {
      add_finding(report, LintCode::kStagingCertificate, LintSeverity::kError, i,
                  "staging/test CA certificate deployed to production",
                  "re-issue without --test-cert/--dry-run and redeploy");
    }
  }

  if (chain.is_single()) {
    if (chain.first_is_self_signed()) {
      add_finding(report, LintCode::kSingleSelfSigned, LintSeverity::kWarning, 0,
                  "single self-signed certificate",
                  "clients outside your organization cannot establish trust; "
                  "use a publicly trusted issuer or distribute the root");
    } else {
      add_finding(report, LintCode::kSingleWithoutIssuer, LintSeverity::kWarning, 0,
                  "leaf delivered without its issuing CA certificate",
                  "include the intermediate certificates in the chain file");
    }
    return report;
  }

  const PathAnalysis analysis = analyze_paths(chain, options.registry);
  if (analysis.is_complete_path()) {
    add_finding(report, LintCode::kWellFormed, LintSeverity::kInfo,
                static_cast<std::size_t>(-1),
                "one complete matched path, no unnecessary certificates", "");
    return report;
  }

  if (analysis.contains_complete_path()) {
    for (const std::size_t index : analysis.unnecessary_certificates) {
      add_finding(report, LintCode::kUnnecessaryCertificate, LintSeverity::kWarning,
                  index,
                  "certificate does not contribute to the trust path",
                  "drop it; strict presented-chain validators may reject the "
                  "delivery otherwise");
    }
    if (analysis.complete_path->begin > 0) {
      add_finding(report, LintCode::kLeafNotFirst, LintSeverity::kError,
                  0,
                  "the chain does not start with the end-entity certificate",
                  "reorder the chain file: leaf first, then each issuing CA");
    }
    return report;
  }

  // No complete matched path at all.
  add_finding(report, LintCode::kNoCompletePath, LintSeverity::kError,
              static_cast<std::size_t>(-1),
              "no complete matched path (mismatch ratio " +
                  util::format_double(analysis.match.mismatch_ratio(), 2) + ")",
              "rebuild the chain: leaf first, then each issuing CA in order");
  for (const std::size_t index : analysis.match.mismatch_indices()) {
    add_finding(report, LintCode::kMissingIntermediate, LintSeverity::kWarning, index,
                "issuer of certificate " + std::to_string(index) +
                    " does not match the subject of certificate " +
                    std::to_string(index + 1),
                "insert the issuing CA certificate between them or remove the "
                "stray certificate");
  }
  return report;
}

}  // namespace certchain::chain
