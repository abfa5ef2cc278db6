#include "util/hash.hpp"

#include <cstddef>

#include "util/strings.hpp"

namespace certchain::util {

namespace {

std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

constexpr char kHexDigits[] = "0123456789abcdef";

}  // namespace

std::uint64_t fnv1a64(std::string_view data) {
  return fnv1a64_continue(0xCBF29CE484222325ULL, data);
}

std::uint64_t fnv1a64_continue(std::uint64_t state, std::string_view data) {
  std::uint64_t hash = state;
  for (const char c : data) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

std::string Digest256::to_hex() const {
  std::string out;
  out.reserve(64);
  for (const std::uint64_t word : words) {
    for (int shift = 60; shift >= 0; shift -= 4) {
      out.push_back(kHexDigits[(word >> shift) & 0xF]);
    }
  }
  return out;
}

bool Digest256::from_hex(std::string_view hex, Digest256& out) {
  if (hex.size() != 64) return false;
  Digest256 parsed;
  for (std::size_t w = 0; w < 4; ++w) {
    std::uint64_t word = 0;
    for (std::size_t i = 0; i < 16; ++i) {
      const int v = hex_value(hex[w * 16 + i]);
      if (v < 0) return false;
      word = (word << 4) | static_cast<std::uint64_t>(v);
    }
    parsed.words[w] = word;
  }
  out = parsed;
  return true;
}

Digest256 digest256(std::string_view data) {
  // Four lanes of FNV-1a with distinct offsets, finalized with avalanche
  // mixing and cross-lane diffusion. Fully deterministic; not secure.
  std::uint64_t lanes[4] = {0xCBF29CE484222325ULL, 0x84222325CBF29CE4ULL,
                            0x9E3779B97F4A7C15ULL, 0xC2B2AE3D27D4EB4FULL};
  std::size_t index = 0;
  for (const char c : data) {
    const auto byte = static_cast<unsigned char>(c);
    std::uint64_t& lane = lanes[index & 3];
    lane ^= byte;
    lane *= 0x100000001B3ULL;
    lane ^= (index << 1);
    ++index;
  }
  // Length padding + cross-lane diffusion. Every output word must depend on
  // every lane: fold an all-lane mix into each lane, twice, so inputs that
  // differ only in bytes assigned to one lane still change all four words.
  for (auto& lane : lanes) lane ^= static_cast<std::uint64_t>(data.size()) * 0x9E3779B97F4A7C15ULL;
  Digest256 digest;
  for (std::size_t round = 0; round < 2; ++round) {
    const std::uint64_t all =
        mix64(lanes[0] ^ (lanes[1] << 17 | lanes[1] >> 47) ^
              (lanes[2] << 31 | lanes[2] >> 33) ^ (lanes[3] << 47 | lanes[3] >> 17));
    for (std::size_t i = 0; i < 4; ++i) {
      lanes[i] = mix64(lanes[i] + all + i * 0xD6E8FEB86659FD93ULL + round);
    }
  }
  for (std::size_t i = 0; i < 4; ++i) digest.words[i] = lanes[i];
  return digest;
}

std::string digest256_hex(std::string_view data) { return digest256(data).to_hex(); }

namespace {

// Zeek ids use this alphabet after the leading letter.
constexpr char kIdAlphabet[] = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz";

std::string render_id(char prefix, std::uint64_t hi, std::uint64_t lo) {
  std::string out;
  out.reserve(18);
  out.push_back(prefix);
  std::uint64_t bits[2] = {hi, lo};
  for (int i = 0; i < 17; ++i) {
    std::uint64_t& word = bits[i & 1];
    out.push_back(kIdAlphabet[word % 62]);
    word /= 62;
    word ^= bits[(i + 1) & 1] >> 7;
  }
  return out;
}

}  // namespace

std::string zeek_style_fuid(std::string_view content) {
  const Digest256 digest = digest256(content);
  return render_id('F', digest.words[0], digest.words[1]);
}

std::string zeek_style_conn_uid(std::uint64_t counter, std::uint64_t salt) {
  return render_id('C', mix64(counter * 0x9E3779B97F4A7C15ULL + salt),
                   mix64(salt ^ (counter << 17)));
}

}  // namespace certchain::util
