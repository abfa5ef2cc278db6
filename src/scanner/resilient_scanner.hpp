// Resilient active scanning: retry, backoff, salvage, accounting.
//
// ActiveScanner answers "what does this server serve" in a perfect network.
// ResilientScanner wraps it with the discipline a real §5 revisit needs: a
// per-target attempt budget with exponential backoff and deterministic
// jitter, a virtual per-target deadline, an error taxonomy for every way an
// attempt can die (see netsim::FaultPlan), and partial-result salvage — a
// truncated or corrupted -showcerts bundle still yields the parseable prefix
// chain, flagged as degraded rather than discarded. Every scan feeds a
// ScanLedger so revisit tables can report reachable / degraded / unreachable
// populations the way the paper reports its exclusions (e.g. the 79.49%
// no-SNI share).
//
// Determinism: with the same FaultPlan seed and RetryPolicy, two runs produce
// byte-identical results and ledgers. With a zero-fault plan, results are
// identical to ActiveScanner's.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "netsim/faults.hpp"
#include "scanner/scanner.hpp"
#include "util/rng.hpp"

namespace certchain::obs {
class MetricsRegistry;
}  // namespace certchain::obs

namespace certchain::scanner {

/// Terminal classification of a scan attempt (and, for the last attempt, of
/// the whole target).
enum class ScanError : std::uint8_t {
  kNone = 0,
  kConnectTimeout,
  kConnectionReset,
  kTruncatedBundle,
  kCorruptBundle,
  kUnreachable,        // transient or persistent host-down, or host gone
  kDeadlineExceeded,   // per-target virtual deadline ran out
};

std::string_view scan_error_name(ScanError error);

/// Retry/backoff knobs. All time is virtual (milliseconds charged against
/// the per-target deadline), so runs are instant and reproducible. The rest
/// of the discipline is fixed: the first retry waits 100 ms, the backoff
/// doubles per retry up to 5,000 ms, each wait is scaled by a factor drawn
/// uniformly from [0.9, 1.1] (deterministic via jitter_seed), a round trip
/// costs 50 ms and a connect timeout 1,000 ms, and the parseable prefix of a
/// damaged bundle is kept as a degraded result.
struct RetryPolicy {
  std::uint32_t max_attempts = 4;
  std::uint64_t jitter_seed = 0x5CA27E7ULL;
  /// Per-target budget; attempts stop once it is exhausted.
  std::uint32_t target_deadline_ms = 30000;
};

/// ScanResult plus resilience metadata.
struct ResilientScanResult {
  ScanResult scan;
  std::uint32_t attempts = 0;
  std::uint32_t elapsed_ms = 0;      // virtual wall-clock incl. backoff
  bool degraded = false;             // salvaged from a damaged bundle
  ScanError error = ScanError::kNone;  // terminal error when !scan.reachable
  std::size_t salvaged_certs = 0;    // certs recovered from damaged bundles
  std::size_t dropped_certs = 0;     // certs lost to damage

  bool reachable() const { return scan.reachable; }
};

/// Aggregated accounting across a scan campaign. `reconciles()` is the
/// invariant the robustness suite checks: every target ends in exactly one
/// of success / salvage / failure.
struct ScanLedger {
  std::uint64_t targets = 0;
  std::uint64_t attempts = 0;
  std::uint64_t retries = 0;        // attempts beyond the first, per target
  std::uint64_t successes = 0;      // clean full-bundle results
  std::uint64_t salvaged = 0;       // degraded partial results
  std::uint64_t failures = 0;       // nothing usable within the budget
  std::uint64_t backoff_ms_total = 0;
  std::uint64_t certs_salvaged = 0;
  std::uint64_t certs_dropped = 0;
  std::map<ScanError, std::uint64_t> error_counts;  // per failed attempt

  bool reconciles() const { return targets == successes + salvaged + failures; }
  double salvage_rate() const {
    const std::uint64_t usable = successes + salvaged;
    return usable == 0 ? 0.0
                       : static_cast<double>(salvaged) / static_cast<double>(usable);
  }
  void merge(const ScanLedger& other);
  /// Counter-wise difference against an earlier snapshot of the same ledger
  /// (all fields are monotonic), for per-campaign accounting on a shared
  /// scanner.
  ScanLedger delta_since(const ScanLedger& before) const;
  /// Stable one-line-per-field rendering (used by determinism checks).
  std::string to_string() const;
};

class ResilientScanner {
 public:
  /// `metrics`, when given, mirrors every ledger movement as `scanner.*`
  /// registry counters (attempts, retries, backoff totals, per-error and
  /// injected-fault taxonomy counts) so campaign telemetry exports alongside
  /// pipeline telemetry. The ledger stays authoritative; the registry is a
  /// write-through view and the two always agree (asserted in tests).
  ResilientScanner(const ActiveScanner& inner, const netsim::FaultPlan& plan,
                   RetryPolicy policy = {},
                   obs::MetricsRegistry* metrics = nullptr)
      : inner_(&inner), plan_(&plan), policy_(policy), metrics_(metrics) {}

  ResilientScanResult scan_domain(const std::string& domain,
                                  std::uint16_t port = 443);
  ResilientScanResult scan_ip(const std::string& ip, std::uint16_t port);

  std::vector<ResilientScanResult> scan_all_domains();
  std::vector<ResilientScanResult> scan_all_ips();

  const RetryPolicy& policy() const { return policy_; }
  const ScanLedger& ledger() const { return ledger_; }

 private:
  /// Runs the retry loop against the pristine (fault-free) answer.
  ResilientScanResult run_attempts(ScanResult pristine);

  /// Write-through to the attached registry (no-op when none).
  void bump(std::string_view name, std::uint64_t delta = 1);

  const ActiveScanner* inner_;
  const netsim::FaultPlan* plan_;
  RetryPolicy policy_;
  ScanLedger ledger_;
  obs::MetricsRegistry* metrics_ = nullptr;
};

}  // namespace certchain::scanner
