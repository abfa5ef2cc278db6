// Deterministic network fault injection.
//
// Real campus-scale re-scanning (§5, Appendix D) runs into connect timeouts,
// TCP resets, handshakes that die mid-flight (truncated -showcerts output),
// bit-flipped bytes on bad links, endpoints that are down for a minute vs.
// gone for good, and servers that answer after seconds of silence. The
// deterministic ActiveScanner cannot express any of that, so the resilient
// scanning path is wired through a FaultPlan: a seeded schedule that, for a
// given (target, epoch, attempt) triple, decides which fault — if any — the
// connection experiences. Same seed + same rates => byte-identical fault
// schedule, so every failure-mode experiment is exactly reproducible.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace certchain::netsim {

/// The fault vocabulary a connection attempt can hit.
enum class FaultKind : std::uint8_t {
  kNone = 0,
  /// SYN goes unanswered until the connect timer fires.
  kConnectTimeout,
  /// RST during or right after the handshake; no certificate bytes arrive.
  kConnectionReset,
  /// The handshake dies mid-certificate-message: only a byte prefix of the
  /// PEM bundle arrives (the parseable prefix chain is salvageable).
  kTruncatedHandshake,
  /// Random bytes of the delivered bundle are corrupted in flight; damaged
  /// PEM blocks fail to decode, intact ones survive.
  kByteCorruption,
  /// Endpoint is down for this attempt only; a retry can succeed.
  kTransientUnreachable,
  /// Endpoint is down for the whole epoch; retries never help.
  kPersistentUnreachable,
  /// The server answers correctly but slowly (eats into the deadline).
  kSlowResponse,
};

std::string_view fault_kind_name(FaultKind kind);

/// Per-fault probabilities, evaluated per connection attempt (persistent
/// unreachability is evaluated once per target per epoch). Rates are clamped
/// to [0,1]; if the attempt-level rates sum past 1 the draw is proportional.
struct FaultRates {
  double connect_timeout = 0.0;
  double connection_reset = 0.0;
  double truncated_handshake = 0.0;
  double byte_corruption = 0.0;
  double transient_unreachable = 0.0;
  double persistent_unreachable = 0.0;
  double slow_response = 0.0;

  /// Sum of the attempt-level rates (everything but persistent).
  double attempt_total() const;
  bool any() const;

  /// Uniform shorthand: every fault kind at rate `r` (persistent included).
  static FaultRates uniform(double r);
};

/// What one connection attempt experiences.
struct FaultEvent {
  FaultKind kind = FaultKind::kNone;
  /// kTruncatedHandshake: fraction of the bundle's bytes that arrived.
  double truncate_fraction = 1.0;
  /// kByteCorruption: number of bytes flipped.
  std::uint32_t corrupt_bytes = 0;
  /// kSlowResponse: extra server-side delay charged to the deadline.
  std::uint32_t delay_ms = 0;
  /// Salt for payload damage so byte positions are reproducible too.
  std::uint64_t payload_salt = 0;
};

/// A seeded fault schedule. Stateless per query: decide() is a
/// pure function of (seed, rates, epoch, target, attempt).
class FaultPlan {
 public:
  /// Default plan injects nothing (the zero-fault plan is the identity).
  FaultPlan() = default;
  FaultPlan(std::uint64_t seed, FaultRates rates) : seed_(seed), rates_(rates) {}

  /// Epoch knob: the §5 revisit can be replayed under different epochs of
  /// the same plan (fault draws are independent across epochs).
  void set_epoch(std::uint32_t epoch) { epoch_ = epoch; }
  std::uint32_t epoch() const { return epoch_; }

  std::uint64_t seed() const { return seed_; }

  /// True if any configured rate can ever fire.
  bool enabled() const;

  /// The fault (if any) injected into attempt number `attempt` (0-based)
  /// against `target` in the current epoch.
  FaultEvent decide(std::string_view target, std::uint32_t attempt) const;

  /// Applies an event's payload damage (truncation / byte corruption) to a
  /// delivered PEM bundle. Deterministic in the event. Other kinds return
  /// the bundle unchanged.
  static std::string damage_bundle(const FaultEvent& event, std::string_view bundle);

 private:
  std::uint64_t seed_ = 0;
  FaultRates rates_;
  std::uint32_t epoch_ = 0;
};

}  // namespace certchain::netsim
