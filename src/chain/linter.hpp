// Chain linting: the paper's misconfiguration taxonomy as actionable
// findings.
//
// Everything §4 diagnoses in the wild — unnecessary certificates, staging
// leftovers, broken delivery order, missing intermediates, self-signed
// leaves, expired certificates — is reported here as a structured finding
// with a severity and a recommendation, so operators can fix chains before
// clients disagree about them (§6.1). examples/chain_doctor.cpp is the CLI
// wrapper.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "chain/chain.hpp"
#include "chain/cross_sign_registry.hpp"
#include "util/time.hpp"

namespace certchain::chain {

enum class LintSeverity : std::uint8_t { kInfo, kWarning, kError };

std::string_view lint_severity_name(LintSeverity severity);

enum class LintCode : std::uint8_t {
  kWellFormed,              // info: complete matched path, nothing extra
  kSingleSelfSigned,        // warning: lone self-signed certificate
  kSingleWithoutIssuer,     // warning: lone cert, issuing CA not included
  kUnnecessaryCertificate,  // warning: cert outside the complete path
  kStagingCertificate,      // error: Fake LE-style staging placeholder
  kLeafNotFirst,            // error: chain does not start with the leaf
  kNoCompletePath,          // error: no complete matched path at all
  kExpiredCertificate,      // error: certificate outside validity at `now`
  kNotYetValid,             // warning: certificate not yet valid at `now`
  kDuplicateCertificate,    // warning: same certificate delivered twice
  kMissingIntermediate,     // warning: a cert's issuer appears nowhere
};

std::string_view lint_code_name(LintCode code);

struct LintFinding {
  LintCode code = LintCode::kWellFormed;
  LintSeverity severity = LintSeverity::kInfo;
  /// Certificate index the finding anchors to; npos for chain-level findings.
  std::size_t position = static_cast<std::size_t>(-1);
  std::string message;         // what is wrong
  std::string recommendation;  // what to do about it
};

struct LintReport {
  std::vector<LintFinding> findings;

  bool has_errors() const {
    for (const LintFinding& finding : findings) {
      if (finding.severity == LintSeverity::kError) return true;
    }
    return false;
  }
  std::size_t count(LintCode code) const {
    std::size_t n = 0;
    for (const LintFinding& finding : findings) {
      if (finding.code == code) ++n;
    }
    return n;
  }
};

struct LintOptions {
  /// Point in time for validity findings; 0 disables the check.
  util::SimTime now = 0;
  /// Known cross-signing relationships (suppresses false order findings).
  const CrossSignRegistry* registry = nullptr;
};

/// Lints a delivered chain.
LintReport lint_chain(const CertificateChain& chain, const LintOptions& options = {});

}  // namespace certchain::chain
