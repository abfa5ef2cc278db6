// RFC 6962 Merkle tree: root computation, inclusion and consistency proofs,
// checked with the library's verifiers against the recursive oracle tree.
#include "ct/merkle.hpp"

#include <gtest/gtest.h>

#include <string>

#include "merkle_oracle.hpp"

namespace certchain::ct {
namespace {

std::string leaf_data(std::size_t i) { return "leaf-" + std::to_string(i); }

MerkleTree build_tree(std::size_t n) {
  MerkleTree tree;
  for (std::size_t i = 0; i < n; ++i) tree.append(leaf_data(i));
  return tree;
}

TEST(MerkleTree, EmptyTreeRootIsHashOfEmptyString) {
  MerkleTree tree;
  EXPECT_EQ(tree.root_hash(), util::digest256(""));
}

TEST(MerkleTree, SingleLeafRootIsLeafHash) {
  MerkleTree tree;
  tree.append("only");
  EXPECT_EQ(tree.root_hash(), leaf_hash("only"));
  EXPECT_TRUE(tree.inclusion_proof(0).empty());
}

TEST(MerkleTree, LeafAndNodeHashesAreDomainSeparated) {
  // H(0x00 || x) != H(0x01 || x-ish): a leaf can't be confused with a node.
  const Digest256 as_leaf = leaf_hash("ab");
  const Digest256 as_node = node_hash(util::digest256("a"), util::digest256("b"));
  EXPECT_NE(as_leaf, as_node);
}

TEST(MerkleTree, TwoLeafRootStructure) {
  MerkleTree tree;
  tree.append("a");
  tree.append("b");
  EXPECT_EQ(tree.root_hash(), node_hash(leaf_hash("a"), leaf_hash("b")));
}

TEST(MerkleTree, RootChangesOnAppend) {
  MerkleTree tree;
  Digest256 previous = tree.root_hash();
  for (std::size_t i = 0; i < 20; ++i) {
    tree.append(leaf_data(i));
    const Digest256 current = tree.root_hash();
    EXPECT_NE(current, previous);
    previous = current;
  }
}

TEST(MerkleTree, PrefixRootMatchesIndependentTree) {
  const MerkleTree big = build_tree(37);
  for (const std::size_t n : {1u, 2u, 3u, 16u, 31u, 37u}) {
    EXPECT_EQ(big.root_hash(n), build_tree(n).root_hash()) << n;
  }
}

class MerkleInclusionTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MerkleInclusionTest, EveryLeafProvesInclusion) {
  const std::size_t n = GetParam();
  const MerkleTree tree = build_tree(n);
  const Digest256 root = tree.root_hash();
  for (std::size_t i = 0; i < n; ++i) {
    const auto proof = tree.inclusion_proof(i);
    EXPECT_TRUE(verify_inclusion(leaf_data(i), i, n, proof, root))
        << "leaf " << i << " of " << n;
    // Wrong data must not verify.
    EXPECT_FALSE(verify_inclusion("tampered", i, n, proof, root));
    // Wrong index must not verify (unless proof happens to be empty tree of 1).
    if (n > 1) {
      EXPECT_FALSE(verify_inclusion(leaf_data(i), (i + 1) % n, n, proof, root));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, MerkleInclusionTest,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17,
                                           33, 64, 65));

class MerkleConsistencyTest
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(MerkleConsistencyTest, OldRootIsConsistentWithNewRoot) {
  const auto [m, n] = GetParam();
  const MerkleTree tree = build_tree(n);
  const Digest256 old_root = tree.root_hash(m);
  const Digest256 new_root = tree.root_hash(n);
  const auto proof = tree.consistency_proof(m, n);
  EXPECT_TRUE(verify_consistency(m, n, old_root, new_root, proof))
      << m << " -> " << n;
  // A different old root must fail (history rewrite detection).
  if (m > 0 && m < n) {
    const Digest256 forged = util::digest256("forged-old-root");
    EXPECT_FALSE(verify_consistency(m, n, forged, new_root, proof));
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizePairs, MerkleConsistencyTest,
    ::testing::Values(std::pair<std::size_t, std::size_t>{0, 8},
                      std::pair<std::size_t, std::size_t>{1, 1},
                      std::pair<std::size_t, std::size_t>{1, 2},
                      std::pair<std::size_t, std::size_t>{2, 8},
                      std::pair<std::size_t, std::size_t>{3, 7},
                      std::pair<std::size_t, std::size_t>{4, 7},
                      std::pair<std::size_t, std::size_t>{6, 8},
                      std::pair<std::size_t, std::size_t>{7, 8},
                      std::pair<std::size_t, std::size_t>{8, 8},
                      std::pair<std::size_t, std::size_t>{5, 17},
                      std::pair<std::size_t, std::size_t>{16, 33},
                      std::pair<std::size_t, std::size_t>{31, 64}));

TEST(MerkleTree, RewrittenHistoryFailsConsistency) {
  // Build two trees that agree on size but not content.
  MerkleTree honest = build_tree(8);
  MerkleTree rewritten;
  for (std::size_t i = 0; i < 8; ++i) {
    rewritten.append(i == 3 ? std::string("evil") : leaf_data(i));
  }
  for (std::size_t i = 8; i < 12; ++i) rewritten.append(leaf_data(i));
  const auto proof = rewritten.consistency_proof(8, 12);
  EXPECT_FALSE(verify_consistency(8, 12, honest.root_hash(8),
                                  rewritten.root_hash(12), proof));
}

TEST(MerkleTree, ProofApiBoundsChecks) {
  MerkleTree tree = build_tree(4);
  EXPECT_THROW(tree.inclusion_proof(4, 4), std::out_of_range);
  EXPECT_THROW(tree.inclusion_proof(0, 5), std::out_of_range);
  EXPECT_THROW(tree.consistency_proof(5, 4), std::out_of_range);
  EXPECT_THROW(tree.root_hash(9), std::out_of_range);
}

TEST(MerkleTree, VerifyInclusionRejectsBadParameters) {
  const MerkleTree tree = build_tree(4);
  const auto proof = tree.inclusion_proof(1);
  EXPECT_FALSE(verify_inclusion(leaf_data(1), 1, 0, proof, tree.root_hash()));
  EXPECT_FALSE(verify_inclusion(leaf_data(1), 7, 4, proof, tree.root_hash()));
  // Truncated proof fails.
  auto short_proof = proof;
  short_proof.pop_back();
  EXPECT_FALSE(verify_inclusion(leaf_data(1), 1, 4, short_proof, tree.root_hash()));
}

}  // namespace
}  // namespace certchain::ct
