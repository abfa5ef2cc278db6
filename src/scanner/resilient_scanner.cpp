#include "scanner/resilient_scanner.hpp"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hpp"
#include "x509/pem.hpp"

namespace certchain::scanner {

using netsim::FaultEvent;
using netsim::FaultKind;
using netsim::FaultPlan;

namespace {

// The fixed half of the retry discipline (RetryPolicy documents it).
constexpr double kBaseBackoffMs = 100.0;
constexpr double kMaxBackoffMs = 5000.0;
constexpr double kBackoffMultiplier = 2.0;
constexpr double kJitterFraction = 0.1;
constexpr std::uint32_t kRttMs = 50;
constexpr std::uint32_t kConnectTimeoutMs = 1000;

}  // namespace

std::string_view scan_error_name(ScanError error) {
  switch (error) {
    case ScanError::kNone: return "ok";
    case ScanError::kConnectTimeout: return "connect-timeout";
    case ScanError::kConnectionReset: return "connection-reset";
    case ScanError::kTruncatedBundle: return "truncated-bundle";
    case ScanError::kCorruptBundle: return "corrupt-bundle";
    case ScanError::kUnreachable: return "unreachable";
    case ScanError::kDeadlineExceeded: return "deadline-exceeded";
  }
  return "unknown";
}

void ScanLedger::merge(const ScanLedger& other) {
  targets += other.targets;
  attempts += other.attempts;
  retries += other.retries;
  successes += other.successes;
  salvaged += other.salvaged;
  failures += other.failures;
  backoff_ms_total += other.backoff_ms_total;
  certs_salvaged += other.certs_salvaged;
  certs_dropped += other.certs_dropped;
  for (const auto& [error, count] : other.error_counts) {
    error_counts[error] += count;
  }
}

ScanLedger ScanLedger::delta_since(const ScanLedger& before) const {
  ScanLedger delta;
  delta.targets = targets - before.targets;
  delta.attempts = attempts - before.attempts;
  delta.retries = retries - before.retries;
  delta.successes = successes - before.successes;
  delta.salvaged = salvaged - before.salvaged;
  delta.failures = failures - before.failures;
  delta.backoff_ms_total = backoff_ms_total - before.backoff_ms_total;
  delta.certs_salvaged = certs_salvaged - before.certs_salvaged;
  delta.certs_dropped = certs_dropped - before.certs_dropped;
  for (const auto& [error, count] : error_counts) {
    const auto it = before.error_counts.find(error);
    const std::uint64_t prior = it == before.error_counts.end() ? 0 : it->second;
    if (count > prior) delta.error_counts[error] = count - prior;
  }
  return delta;
}

std::string ScanLedger::to_string() const {
  std::string out;
  const auto line = [&out](const char* key, std::uint64_t value) {
    out.append(key);
    out.push_back('=');
    out.append(std::to_string(value));
    out.push_back('\n');
  };
  line("targets", targets);
  line("attempts", attempts);
  line("retries", retries);
  line("successes", successes);
  line("salvaged", salvaged);
  line("failures", failures);
  line("backoff_ms_total", backoff_ms_total);
  line("certs_salvaged", certs_salvaged);
  line("certs_dropped", certs_dropped);
  for (const auto& [error, count] : error_counts) {
    out.append("error.");
    out.append(scan_error_name(error));
    out.push_back('=');
    out.append(std::to_string(count));
    out.push_back('\n');
  }
  return out;
}

void ResilientScanner::bump(std::string_view name, std::uint64_t delta) {
  if (metrics_ != nullptr) metrics_->count(name, delta);
}

ResilientScanResult ResilientScanner::run_attempts(ScanResult pristine) {
  ResilientScanResult result;
  result.scan.target = pristine.target;
  ++ledger_.targets;
  bump("scanner.targets");

  util::Rng jitter_rng =
      util::Rng(policy_.jitter_seed).fork(util::stable_salt(pristine.target));

  // Best salvage candidate seen across attempts.
  bool have_salvage = false;
  ScanResult best_salvage;
  std::size_t best_salvaged_certs = 0;
  std::size_t best_dropped_certs = 0;
  ScanError best_salvage_error = ScanError::kNone;

  std::uint32_t elapsed = 0;
  ScanError last_error = ScanError::kUnreachable;
  const std::uint32_t max_attempts = std::max<std::uint32_t>(1, policy_.max_attempts);

  for (std::uint32_t attempt = 0; attempt < max_attempts; ++attempt) {
    if (attempt > 0) {
      // Exponential backoff with deterministic jitter before every retry.
      double wait = kBaseBackoffMs *
                    std::pow(kBackoffMultiplier, static_cast<double>(attempt - 1));
      wait = std::min(wait, kMaxBackoffMs);
      wait *= jitter_rng.uniform(1.0 - kJitterFraction, 1.0 + kJitterFraction);
      const auto wait_ms = static_cast<std::uint32_t>(wait);
      elapsed += wait_ms;
      ledger_.backoff_ms_total += wait_ms;
      ++ledger_.retries;
      bump("scanner.backoff_ms_total", wait_ms);
      bump("scanner.retries");
      if (elapsed >= policy_.target_deadline_ms) {
        last_error = ScanError::kDeadlineExceeded;
        break;
      }
    }

    ++ledger_.attempts;
    ++result.attempts;
    bump("scanner.attempts");
    const FaultEvent event = plan_->decide(pristine.target, attempt);

    // A host that is genuinely gone (no revisit chain / unknown target)
    // looks the same regardless of the injected fault.
    if (!pristine.reachable) {
      elapsed += kConnectTimeoutMs;
      last_error = ScanError::kUnreachable;
      ++ledger_.error_counts[last_error];
      bump("scanner.error.unreachable");
      continue;
    }
    if (event.kind != FaultKind::kNone) {
      bump("scanner.fault." +
           obs::metric_slug(netsim::fault_kind_name(event.kind)));
    }

    bool attempt_failed = false;
    switch (event.kind) {
      case FaultKind::kNone:
        elapsed += kRttMs;
        break;
      case FaultKind::kSlowResponse:
        elapsed += kRttMs + event.delay_ms;
        if (elapsed > policy_.target_deadline_ms) {
          last_error = ScanError::kDeadlineExceeded;
          attempt_failed = true;
        }
        break;
      case FaultKind::kConnectTimeout:
        elapsed += kConnectTimeoutMs;
        last_error = ScanError::kConnectTimeout;
        attempt_failed = true;
        break;
      case FaultKind::kConnectionReset:
        elapsed += kRttMs;
        last_error = ScanError::kConnectionReset;
        attempt_failed = true;
        break;
      case FaultKind::kTransientUnreachable:
      case FaultKind::kPersistentUnreachable:
        elapsed += kRttMs;
        last_error = ScanError::kUnreachable;
        attempt_failed = true;
        break;
      case FaultKind::kTruncatedHandshake:
      case FaultKind::kByteCorruption: {
        elapsed += kRttMs;
        last_error = event.kind == FaultKind::kTruncatedHandshake
                         ? ScanError::kTruncatedBundle
                         : ScanError::kCorruptBundle;
        attempt_failed = true;
        const std::string damaged =
            FaultPlan::damage_bundle(event, pristine.pem_bundle);
        std::size_t malformed = 0;
        std::vector<x509::Certificate> certs =
            x509::decode_pem_bundle(damaged, &malformed);
        if (!certs.empty() && certs.size() > best_salvaged_certs) {
          have_salvage = true;
          best_salvaged_certs = certs.size();
          best_dropped_certs =
              pristine.chain.length() > certs.size()
                  ? pristine.chain.length() - certs.size()
                  : malformed;
          best_salvage_error = last_error;
          best_salvage.reachable = true;
          best_salvage.target = pristine.target;
          best_salvage.pem_bundle = damaged;
          best_salvage.chain = chain::CertificateChain(std::move(certs));
        }
        break;
      }
    }

    if (!attempt_failed) {
      // Clean (possibly slow) full answer.
      result.scan = std::move(pristine);
      result.error = ScanError::kNone;
      result.elapsed_ms = elapsed;
      ++ledger_.successes;
      bump("scanner.successes");
      return result;
    }
    ++ledger_.error_counts[last_error];
    bump("scanner.error." + obs::metric_slug(scan_error_name(last_error)));
    if (last_error == ScanError::kDeadlineExceeded) break;
  }

  result.elapsed_ms = elapsed;
  if (have_salvage) {
    result.scan = std::move(best_salvage);
    result.degraded = true;
    result.error = best_salvage_error;
    result.salvaged_certs = best_salvaged_certs;
    result.dropped_certs = best_dropped_certs;
    ++ledger_.salvaged;
    ledger_.certs_salvaged += best_salvaged_certs;
    ledger_.certs_dropped += best_dropped_certs;
    bump("scanner.salvaged");
    bump("scanner.certs_salvaged", best_salvaged_certs);
    bump("scanner.certs_dropped", best_dropped_certs);
    return result;
  }
  result.error = last_error;
  ++ledger_.failures;
  bump("scanner.failures");
  return result;
}

ResilientScanResult ResilientScanner::scan_domain(const std::string& domain,
                                                  std::uint16_t port) {
  return run_attempts(inner_->scan_domain(domain, port));
}

ResilientScanResult ResilientScanner::scan_ip(const std::string& ip,
                                              std::uint16_t port) {
  return run_attempts(inner_->scan_ip(ip, port));
}

std::vector<ResilientScanResult> ResilientScanner::scan_all_domains() {
  std::vector<ResilientScanResult> results;
  std::vector<ScanResult> pristine = inner_->scan_all_domains();
  results.reserve(pristine.size());
  for (ScanResult& scan : pristine) results.push_back(run_attempts(std::move(scan)));
  return results;
}

std::vector<ResilientScanResult> ResilientScanner::scan_all_ips() {
  std::vector<ResilientScanResult> results;
  std::vector<ScanResult> pristine = inner_->scan_all_ips();
  results.reserve(pristine.size());
  for (ScanResult& scan : pristine) results.push_back(run_attempts(std::move(scan)));
  return results;
}

}  // namespace certchain::scanner
