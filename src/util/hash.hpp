// Hashing and digest utilities.
//
// The repository needs stable content digests in two roles:
//   1. identifiers — Zeek-style file ids (fuids) and certificate fingerprints
//      that let SSL.log rows reference X509.log rows;
//   2. the simulated signature scheme in src/crypto, which derives
//      "signatures" from digests instead of real public-key math.
// Digest256 below is a fixed, fully specified 256-bit mixing function. It is
// NOT cryptographically secure and must never be used outside simulation.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

namespace certchain::util {

/// FNV-1a 64-bit hash.
std::uint64_t fnv1a64(std::string_view data);

/// Incremental FNV-1a: folds `data` into a running state. Seeding with
/// fnv1a64("") (the FNV offset basis is what an empty fold returns) and
/// chaining chunks yields exactly fnv1a64 of the concatenation — the
/// streaming engine digests multi-GB sources chunk by chunk this way.
std::uint64_t fnv1a64_continue(std::uint64_t state, std::string_view data);

/// A 256-bit digest value.
struct Digest256 {
  std::array<std::uint64_t, 4> words{};

  bool operator==(const Digest256&) const = default;
  auto operator<=>(const Digest256&) const = default;

  /// Lowercase hex rendering (64 chars).
  std::string to_hex() const;

  /// Parses 64 hex chars; returns false on malformed input.
  static bool from_hex(std::string_view hex, Digest256& out);
};

/// Computes the 256-bit digest of a byte string. Deterministic across
/// platforms and process runs.
Digest256 digest256(std::string_view data);

/// Convenience: digest rendered as hex.
std::string digest256_hex(std::string_view data);

/// Transparent string hash for unordered containers keyed by std::string:
/// lookups take a string_view without building a key string.
struct StringHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view text) const {
    return std::hash<std::string_view>{}(text);
  }
};

/// Zeek-style file id ("F" + 17 base-36-ish chars) derived from content.
std::string zeek_style_fuid(std::string_view content);

/// Zeek-style connection uid ("C" + 17 chars) derived from a counter + salt.
std::string zeek_style_conn_uid(std::uint64_t counter, std::uint64_t salt);

}  // namespace certchain::util
