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
  /// The same 64 chars written to `out`, which must hold them.
  void write_hex(char* out) const;

  /// Parses 64 hex chars; returns false on malformed input.
  static bool from_hex(std::string_view hex, Digest256& out);
};

/// Hashes a Digest256 for unordered containers. The words are already
/// avalanche-mixed, so one of them is a good hash.
struct Digest256Hash {
  std::size_t operator()(const Digest256& digest) const {
    return static_cast<std::size_t>(digest.words[0]);
  }
};

/// digest256 over bytes that arrive in pieces: appending the pieces of a
/// string, split anywhere, and then calling finish() yields exactly
/// digest256 of the whole string. The digest is per-byte FNV-1a over four
/// lanes plus a length finalizer, so a value can be digested while it is
/// serialized, without building the string.
class Digest256Builder {
 public:
  Digest256Builder& append(std::string_view data);
  Digest256Builder& push_back(char c) {
    std::uint64_t& lane = lanes_[size_ & 3];
    lane = ((lane ^ static_cast<unsigned char>(c)) * kPrime) ^ (size_ << 1);
    ++size_;
    return *this;
  }
  /// The digest of everything appended so far; the builder stays usable.
  Digest256 finish() const;

 private:
  static constexpr std::uint64_t kPrime = 0x100000001B3ULL;

  std::uint64_t lanes_[4] = {0xCBF29CE484222325ULL, 0x84222325CBF29CE4ULL,
                             0x9E3779B97F4A7C15ULL, 0xC2B2AE3D27D4EB4FULL};
  std::uint64_t size_ = 0;
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
