// Incremental RFC 6962 Merkle hash tree (DESIGN.md §14.1).
//
// RFC 6962 defines the tree head as a recursion over the leaves. A tree that
// follows it literally (the test oracle, tests/merkle_oracle.hpp) recomputes
// every subtree hash on every root_hash()/proof call — O(n) per signed tree
// head — and retains the full leaf byte strings. A log front-end that signs a
// tree head per batch over millions of entries needs both appends and proofs
// in O(log n).
//
// IncrementalMerkleTree stores one vector of digests per tree level:
// levels_[0] holds the leaf hashes, and levels_[j+1][i] is the node hash of
// levels_[j][2i] and levels_[j][2i+1] — i.e. every *complete* (perfect,
// aligned) subtree hash is cached the moment its last leaf arrives. Appending
// leaf i propagates carries exactly like a binary counter increment: while
// the new index is odd at the current level, the freshly completed pair is
// hashed one level up. Amortized O(1) hash work per append, ~2n digests of
// memory, no leaf bytes retained.
//
// Proofs and roots reduce to range_hash(begin, end) over the RFC 6962
// recursion. The key invariant: at every split the *left* half is a perfect
// aligned subtree, so it is answered from the cache in O(1); only the right
// spine recurses. root_hash / inclusion_proof / consistency_proof are
// therefore O(log n) with no recomputation, and produce digests identical to
// the recursive implementation (proven by the seeded differential suite in
// tests/test_ct_incremental.cpp).
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "ct/merkle.hpp"
#include "util/hash.hpp"

namespace certchain::ct {

/// Append-only Merkle tree over leaf *hashes* with cached subtree digests.
/// Digest-identical to the recursive RFC 6962 definition; throws
/// std::out_of_range on out-of-bounds arguments.
class IncrementalMerkleTree {
 public:
  /// Appends a leaf by its content; returns its index.
  std::size_t append(std::string_view leaf_data) {
    return append_leaf_hash(leaf_hash(leaf_data));
  }

  /// Appends a precomputed leaf hash; returns its index. This is the bulk
  /// ingestion fast path (datagen, bench) — the caller hashes, the tree
  /// only carries.
  std::size_t append_leaf_hash(const Digest256& leaf);

  std::size_t size() const {
    return levels_.empty() ? 0 : levels_[0].size();
  }

  /// Leaf hash of entry `index` (index < size).
  const Digest256& leaf_hash_at(std::size_t index) const;

  /// MTH over the first `n` leaves (n <= size). n == 0 yields H(empty).
  Digest256 root_hash(std::size_t n) const;
  Digest256 root_hash() const { return root_hash(size()); }

  /// RFC 6962 audit path for leaf `index` in the tree of the first `n`
  /// leaves. Empty for a single-leaf tree.
  std::vector<Digest256> inclusion_proof(std::size_t index, std::size_t n) const;
  std::vector<Digest256> inclusion_proof(std::size_t index) const {
    return inclusion_proof(index, size());
  }

  /// RFC 6962 consistency proof between the trees of the first `m` and
  /// first `n` leaves (m <= n).
  std::vector<Digest256> consistency_proof(std::size_t m, std::size_t n) const;

 private:
  /// MTH of leaves [begin, end). Cache hit when the range is a perfect
  /// aligned subtree; otherwise splits at the largest power of two < n,
  /// where the left half always hits.
  Digest256 range_hash(std::size_t begin, std::size_t end) const;
  std::vector<Digest256> range_inclusion(std::size_t index, std::size_t begin,
                                         std::size_t end) const;
  std::vector<Digest256> subproof(std::size_t m, std::size_t begin,
                                  std::size_t end, bool whole) const;

  // levels_[0] = leaf hashes; levels_[j][i] = hash of the perfect subtree
  // over leaves [i * 2^j, (i + 1) * 2^j).
  std::vector<std::vector<Digest256>> levels_;
};

}  // namespace certchain::ct
