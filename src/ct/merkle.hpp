// RFC 6962 Merkle tree hashing and proof verification.
//
// CT logs are append-only Merkle trees; inclusion proofs let a client check a
// certificate is logged, and consistency proofs let monitors check the log
// never rewrote history. These are the RFC 6962 leaf/node hashes (with their
// domain separation) over the simulated digest from src/util, and the
// verifiers a client or monitor runs against a tree head. The tree itself is
// ct::IncrementalMerkleTree (ct/merkle_inc.hpp).
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "util/hash.hpp"

namespace certchain::ct {

using util::Digest256;

/// Leaf hash: H(0x00 || data).
Digest256 leaf_hash(std::string_view data);

/// Interior node hash: H(0x01 || left || right).
Digest256 node_hash(const Digest256& left, const Digest256& right);

/// Verifies an inclusion proof: does `leaf_data` at `index` belong to the
/// tree of size `n` with root `root`?
bool verify_inclusion(std::string_view leaf_data, std::size_t index, std::size_t n,
                      const std::vector<Digest256>& proof, const Digest256& root);

/// Same check starting from a precomputed leaf hash. Monitors work from leaf
/// hashes served by the log — they never hold the full leaf bytes.
bool verify_inclusion_hash(const Digest256& leaf, std::size_t index, std::size_t n,
                           const std::vector<Digest256>& proof,
                           const Digest256& root);

/// Verifies a consistency proof between roots of sizes m and n.
bool verify_consistency(std::size_t m, std::size_t n, const Digest256& old_root,
                        const Digest256& new_root,
                        const std::vector<Digest256>& proof);

}  // namespace certchain::ct
