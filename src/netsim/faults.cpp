#include "netsim/faults.hpp"

#include <algorithm>

#include "util/rng.hpp"

namespace certchain::netsim {

namespace {

double clamp01(double value) { return std::clamp(value, 0.0, 1.0); }

}  // namespace

std::string_view fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone: return "none";
    case FaultKind::kConnectTimeout: return "connect-timeout";
    case FaultKind::kConnectionReset: return "connection-reset";
    case FaultKind::kTruncatedHandshake: return "truncated-handshake";
    case FaultKind::kByteCorruption: return "byte-corruption";
    case FaultKind::kTransientUnreachable: return "transient-unreachable";
    case FaultKind::kPersistentUnreachable: return "persistent-unreachable";
    case FaultKind::kSlowResponse: return "slow-response";
  }
  return "unknown";
}

double FaultRates::attempt_total() const {
  return clamp01(connect_timeout) + clamp01(connection_reset) +
         clamp01(truncated_handshake) + clamp01(byte_corruption) +
         clamp01(transient_unreachable) + clamp01(slow_response);
}

bool FaultRates::any() const {
  return attempt_total() > 0.0 || clamp01(persistent_unreachable) > 0.0;
}

FaultRates FaultRates::uniform(double r) {
  FaultRates rates;
  rates.connect_timeout = r;
  rates.connection_reset = r;
  rates.truncated_handshake = r;
  rates.byte_corruption = r;
  rates.transient_unreachable = r;
  rates.persistent_unreachable = r;
  rates.slow_response = r;
  return rates;
}

bool FaultPlan::enabled() const { return rates_.any(); }

FaultEvent FaultPlan::decide(std::string_view target, std::uint32_t attempt) const {
  FaultEvent event;
  if (!rates_.any()) return event;

  const std::uint64_t target_salt = util::stable_salt(target);
  const std::uint64_t epoch_salt =
      (static_cast<std::uint64_t>(epoch_) << 32) | 0x9D5AULL;

  // Persistent unreachability is a property of the (target, epoch), not of
  // the attempt: every retry sees the same dead host.
  {
    util::Rng persistent_rng = util::Rng(seed_).fork(target_salt ^ epoch_salt);
    if (persistent_rng.bernoulli(clamp01(rates_.persistent_unreachable))) {
      event.kind = FaultKind::kPersistentUnreachable;
      return event;
    }
  }

  util::Rng rng = util::Rng(seed_).fork(target_salt ^ epoch_salt)
                      .fork(0xA77E0000ULL + attempt);
  const double total = rates_.attempt_total();
  if (total <= 0.0) return event;

  // One uniform draw walks the cumulative rate ladder. If the rates sum past
  // 1 the selection degrades to proportional (every attempt faults).
  const double scale = total > 1.0 ? total : 1.0;
  double u = rng.uniform() * scale;
  const auto take = [&u](double rate) {
    u -= clamp01(rate);
    return u < 0.0;
  };

  if (take(rates_.connect_timeout)) {
    event.kind = FaultKind::kConnectTimeout;
  } else if (take(rates_.connection_reset)) {
    event.kind = FaultKind::kConnectionReset;
  } else if (take(rates_.truncated_handshake)) {
    event.kind = FaultKind::kTruncatedHandshake;
    // Keep between 10% and 90% of the bundle: always lose something, always
    // keep enough bytes for a salvage attempt to be interesting.
    event.truncate_fraction = rng.uniform(0.10, 0.90);
  } else if (take(rates_.byte_corruption)) {
    event.kind = FaultKind::kByteCorruption;
    event.corrupt_bytes = 1 + static_cast<std::uint32_t>(rng.next_below(16));
  } else if (take(rates_.transient_unreachable)) {
    event.kind = FaultKind::kTransientUnreachable;
  } else if (take(rates_.slow_response)) {
    event.kind = FaultKind::kSlowResponse;
    event.delay_ms = 500 + static_cast<std::uint32_t>(rng.next_below(9500));
  }
  if (event.kind != FaultKind::kNone) {
    event.payload_salt = rng.next_u64();
  }
  return event;
}

std::string FaultPlan::damage_bundle(const FaultEvent& event,
                                     std::string_view bundle) {
  switch (event.kind) {
    case FaultKind::kTruncatedHandshake: {
      const auto keep = static_cast<std::size_t>(
          static_cast<double>(bundle.size()) *
          std::clamp(event.truncate_fraction, 0.0, 1.0));
      return std::string(bundle.substr(0, keep));
    }
    case FaultKind::kByteCorruption: {
      std::string damaged(bundle);
      if (damaged.empty()) return damaged;
      util::Rng rng(event.payload_salt ^ 0xC0220F7EDULL);
      for (std::uint32_t i = 0; i < event.corrupt_bytes; ++i) {
        const std::size_t pos =
            static_cast<std::size_t>(rng.next_below(damaged.size()));
        damaged[pos] = static_cast<char>(rng.next_below(256));
      }
      return damaged;
    }
    default:
      return std::string(bundle);
  }
}

}  // namespace certchain::netsim
