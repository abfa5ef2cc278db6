// The recursive RFC 6962 Merkle tree, kept as the executable reference the
// CT suites check the library against.
//
// It stores every leaf and recomputes each MTH from the leaves on every
// root_hash()/proof call (O(n) each), exactly as RFC 6962 §2.1 writes the
// recursion: split at the largest power of two below n, hash left and
// right. The library's ct::IncrementalMerkleTree must produce the same
// digests at every size (tests/test_ct_incremental.cpp); the verifiers in
// ct/merkle.hpp must accept its proofs (tests/test_merkle.cpp).
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "ct/merkle.hpp"

namespace certchain::ct {

/// An append-only Merkle tree over opaque leaf byte strings.
class MerkleTree {
 public:
  /// Appends a leaf; returns its index.
  std::size_t append(std::string_view leaf_data) {
    leaves_.emplace_back(leaf_data);
    leaf_hashes_.push_back(leaf_hash(leaf_data));
    return leaves_.size() - 1;
  }

  std::size_t size() const { return leaves_.size(); }

  /// MTH over the first `n` leaves (n <= size). n == 0 yields H(empty).
  Digest256 root_hash(std::size_t n) const {
    if (n > size()) throw std::out_of_range("MerkleTree::root_hash: n > size");
    return subtree_hash(0, n);
  }
  Digest256 root_hash() const { return root_hash(size()); }

  /// RFC 6962 audit path for leaf `index` in the tree of the first `n`
  /// leaves. Empty for a single-leaf tree.
  std::vector<Digest256> inclusion_proof(std::size_t index, std::size_t n) const {
    if (n > size() || index >= n) {
      throw std::out_of_range("MerkleTree::inclusion_proof: bad index/size");
    }
    return subtree_inclusion(index, 0, n);
  }
  std::vector<Digest256> inclusion_proof(std::size_t index) const {
    return inclusion_proof(index, size());
  }

  /// RFC 6962 consistency proof between the trees of the first `m` and first
  /// `n` leaves (m <= n).
  std::vector<Digest256> consistency_proof(std::size_t m, std::size_t n) const {
    if (m > n || n > size()) {
      throw std::out_of_range("MerkleTree::consistency_proof: bad sizes");
    }
    if (m == 0 || m == n) return {};
    return subproof(m, 0, n, true);
  }

 private:
  /// Largest power of two strictly less than n (n >= 2).
  static std::size_t split_point(std::size_t n) {
    std::size_t k = 1;
    while (k * 2 < n) k *= 2;
    return k;
  }

  Digest256 subtree_hash(std::size_t begin, std::size_t end) const {
    const std::size_t n = end - begin;
    if (n == 0) return util::digest256("");
    if (n == 1) return leaf_hashes_[begin];
    const std::size_t k = split_point(n);
    return node_hash(subtree_hash(begin, begin + k), subtree_hash(begin + k, end));
  }

  std::vector<Digest256> subtree_inclusion(std::size_t index, std::size_t begin,
                                           std::size_t end) const {
    const std::size_t n = end - begin;
    if (n <= 1) return {};
    const std::size_t k = split_point(n);
    std::vector<Digest256> path;
    if (index < k) {
      path = subtree_inclusion(index, begin, begin + k);
      path.push_back(subtree_hash(begin + k, end));
    } else {
      path = subtree_inclusion(index - k, begin + k, end);
      path.push_back(subtree_hash(begin, begin + k));
    }
    return path;
  }

  std::vector<Digest256> subproof(std::size_t m, std::size_t begin, std::size_t end,
                                  bool whole) const {
    const std::size_t n = end - begin;
    if (m == n) {
      if (whole) return {};
      return {subtree_hash(begin, end)};
    }
    const std::size_t k = split_point(n);
    std::vector<Digest256> proof;
    if (m <= k) {
      proof = subproof(m, begin, begin + k, whole);
      proof.push_back(subtree_hash(begin + k, end));
    } else {
      proof = subproof(m - k, begin + k, end, false);
      proof.push_back(subtree_hash(begin, begin + k));
    }
    return proof;
  }

  std::vector<Digest256> leaf_hashes_;
  std::vector<std::string> leaves_;
};

}  // namespace certchain::ct
