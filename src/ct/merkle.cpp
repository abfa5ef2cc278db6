#include "ct/merkle.hpp"

#include <string>

namespace certchain::ct {

namespace {

std::string digest_bytes(const Digest256& digest) {
  // Fixed-width byte rendering for feeding digests back into the hash.
  std::string out;
  out.reserve(32);
  for (const std::uint64_t word : digest.words) {
    for (int shift = 56; shift >= 0; shift -= 8) {
      out.push_back(static_cast<char>((word >> shift) & 0xFF));
    }
  }
  return out;
}

}  // namespace

Digest256 leaf_hash(std::string_view data) {
  std::string buffer;
  buffer.reserve(data.size() + 1);
  buffer.push_back('\x00');
  buffer.append(data);
  return util::digest256(buffer);
}

Digest256 node_hash(const Digest256& left, const Digest256& right) {
  std::string buffer;
  buffer.reserve(65);
  buffer.push_back('\x01');
  buffer.append(digest_bytes(left));
  buffer.append(digest_bytes(right));
  return util::digest256(buffer);
}

bool verify_inclusion(std::string_view leaf_data, std::size_t index, std::size_t n,
                      const std::vector<Digest256>& proof, const Digest256& root) {
  return verify_inclusion_hash(leaf_hash(leaf_data), index, n, proof, root);
}

bool verify_inclusion_hash(const Digest256& leaf, std::size_t index, std::size_t n,
                           const std::vector<Digest256>& proof,
                           const Digest256& root) {
  if (n == 0 || index >= n) return false;
  std::size_t fn = index;
  std::size_t sn = n - 1;
  Digest256 r = leaf;
  for (const Digest256& v : proof) {
    if (sn == 0) return false;
    if ((fn & 1) == 1 || fn == sn) {
      r = node_hash(v, r);
      if ((fn & 1) == 0) {
        while (fn != 0 && (fn & 1) == 0) {
          fn >>= 1;
          sn >>= 1;
        }
      }
    } else {
      r = node_hash(r, v);
    }
    fn >>= 1;
    sn >>= 1;
  }
  return sn == 0 && r == root;
}

bool verify_consistency(std::size_t m, std::size_t n, const Digest256& old_root,
                        const Digest256& new_root,
                        const std::vector<Digest256>& proof) {
  if (m > n) return false;
  if (m == n) return proof.empty() && old_root == new_root;
  if (m == 0) return proof.empty();  // empty tree is consistent with anything
  // If m is an exact power-of-two prefix, the proof starts from old_root.
  std::vector<Digest256> path = proof;
  if ((m & (m - 1)) == 0) {
    path.insert(path.begin(), old_root);
  }
  if (path.empty()) return false;

  std::size_t fn = m - 1;
  std::size_t sn = n - 1;
  while ((fn & 1) == 1) {
    fn >>= 1;
    sn >>= 1;
  }
  Digest256 fr = path.front();
  Digest256 sr = path.front();
  for (std::size_t i = 1; i < path.size(); ++i) {
    const Digest256& c = path[i];
    if (sn == 0) return false;
    if ((fn & 1) == 1 || fn == sn) {
      fr = node_hash(c, fr);
      sr = node_hash(c, sr);
      if ((fn & 1) == 0) {
        while (fn != 0 && (fn & 1) == 0) {
          fn >>= 1;
          sn >>= 1;
        }
      }
    } else {
      sr = node_hash(sr, c);
    }
    fn >>= 1;
    sn >>= 1;
  }
  return fr == old_root && sr == new_root && sn == 0;
}

}  // namespace certchain::ct
