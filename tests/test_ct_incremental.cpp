// Differential suite: the incremental Merkle tree (cached subtree hashes,
// O(log n) appends/proofs) must be digest-identical to the legacy recursive
// MerkleTree at every size, for every historical root, and for every
// inclusion/consistency proof — the legacy tree (tests/merkle_oracle.hpp) is
// the executable RFC 6962 reference. Schedules are seeded and property-style:
// random append counts, random proof queries, verifier round-trips. One
// scale case grows both trees with a signed tree head per batch while a
// ct::Monitor audits the incremental one from another thread.
#include "ct/merkle_inc.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "ct/merkle.hpp"
#include "ct/monitor.hpp"
#include "merkle_oracle.hpp"
#include "obs/stopwatch.hpp"
#include "util/rng.hpp"

namespace certchain::ct {
namespace {

std::string leaf(std::size_t index, std::uint64_t word) {
  return "leaf/" + std::to_string(index) + "/" + std::to_string(word);
}

TEST(CtIncremental, EmptyAndSingleLeafMatchLegacy) {
  MerkleTree legacy;
  IncrementalMerkleTree incremental;
  EXPECT_EQ(incremental.size(), 0u);
  EXPECT_EQ(incremental.root_hash(), legacy.root_hash());

  legacy.append("only");
  incremental.append("only");
  EXPECT_EQ(incremental.root_hash(), legacy.root_hash());
  EXPECT_TRUE(incremental.inclusion_proof(0, 1).empty());
}

TEST(CtIncremental, RootsMatchLegacyAtEverySize) {
  util::Rng rng(0xc71);
  MerkleTree legacy;
  IncrementalMerkleTree incremental;
  for (std::size_t i = 0; i < 130; ++i) {
    const std::string data = leaf(i, rng.next_u64());
    legacy.append(data);
    incremental.append(data);
    ASSERT_EQ(incremental.root_hash(), legacy.root_hash()) << "size=" << i + 1;
  }
  // Every historical root, not just the current one.
  for (std::size_t n = 0; n <= legacy.size(); ++n) {
    ASSERT_EQ(incremental.root_hash(n), legacy.root_hash(n)) << "n=" << n;
  }
}

TEST(CtIncremental, AppendLeafHashMatchesAppend) {
  MerkleTree legacy;
  IncrementalMerkleTree by_data;
  IncrementalMerkleTree by_hash;
  for (std::size_t i = 0; i < 40; ++i) {
    const std::string data = leaf(i, i * 7919);
    legacy.append(data);
    by_data.append(data);
    by_hash.append_leaf_hash(leaf_hash(data));
    ASSERT_EQ(by_data.root_hash(), legacy.root_hash());
    ASSERT_EQ(by_hash.root_hash(), legacy.root_hash());
    ASSERT_EQ(by_hash.leaf_hash_at(i), leaf_hash(data));
  }
}

TEST(CtIncremental, InclusionProofsMatchLegacyAndVerify) {
  util::Rng rng(0x1dc7);
  MerkleTree legacy;
  IncrementalMerkleTree incremental;
  std::vector<std::string> data;
  for (std::size_t i = 0; i < 97; ++i) {
    data.push_back(leaf(i, rng.next_u64()));
    legacy.append(data.back());
    incremental.append(data.back());
  }
  // Proofs against the current head and against historical heads.
  for (std::size_t trial = 0; trial < 200; ++trial) {
    const std::size_t n = 1 + rng.next_below(incremental.size());
    const std::size_t index = rng.next_below(n);
    const auto proof = incremental.inclusion_proof(index, n);
    ASSERT_EQ(proof, legacy.inclusion_proof(index, n));
    EXPECT_TRUE(verify_inclusion(data[index], index, n, proof,
                                 incremental.root_hash(n)));
    EXPECT_TRUE(verify_inclusion_hash(incremental.leaf_hash_at(index), index, n,
                                      proof, incremental.root_hash(n)));
    // A proof for one index must not verify for a different leaf.
    const std::size_t other = (index + 1) % n;
    if (other != index) {
      EXPECT_FALSE(verify_inclusion(data[other], index, n, proof,
                                    incremental.root_hash(n)));
    }
  }
}

TEST(CtIncremental, ConsistencyProofsMatchLegacyAndVerify) {
  util::Rng rng(0x5eed);
  MerkleTree legacy;
  IncrementalMerkleTree incremental;
  for (std::size_t i = 0; i < 113; ++i) {
    const std::string data = leaf(i, rng.next_u64());
    legacy.append(data);
    incremental.append(data);
  }
  for (std::size_t trial = 0; trial < 200; ++trial) {
    const std::size_t n = 1 + rng.next_below(incremental.size());
    const std::size_t m = 1 + rng.next_below(n);
    const auto proof = incremental.consistency_proof(m, n);
    ASSERT_EQ(proof, legacy.consistency_proof(m, n));
    EXPECT_TRUE(verify_consistency(m, n, incremental.root_hash(m),
                                   incremental.root_hash(n), proof));
    // Tampered old root must not verify (except the trivial m == n proof).
    if (m != n) {
      Digest256 wrong = incremental.root_hash(m);
      wrong.words[0] ^= 1;
      EXPECT_FALSE(
          verify_consistency(m, n, wrong, incremental.root_hash(n), proof));
    }
  }
}

TEST(CtIncremental, RandomGrowthSchedulesStayIdentical) {
  // Property-style: interleave random-size append bursts with root/proof
  // checks, across several seeds.
  for (const std::uint64_t seed : {1ull, 42ull, 20200901ull, 0xfeedfaceull}) {
    util::Rng rng(seed);
    MerkleTree legacy;
    IncrementalMerkleTree incremental;
    std::size_t next_index = 0;
    for (std::size_t burst = 0; burst < 12; ++burst) {
      const std::size_t count = 1 + rng.next_below(50);
      for (std::size_t i = 0; i < count; ++i, ++next_index) {
        const std::string data = leaf(next_index, rng.next_u64());
        legacy.append(data);
        incremental.append(data);
      }
      ASSERT_EQ(incremental.size(), legacy.size());
      ASSERT_EQ(incremental.root_hash(), legacy.root_hash())
          << "seed=" << seed << " burst=" << burst;
      const std::size_t index = rng.next_below(incremental.size());
      ASSERT_EQ(incremental.inclusion_proof(index, incremental.size()),
                legacy.inclusion_proof(index, legacy.size()));
      const std::size_t m = 1 + rng.next_below(incremental.size());
      ASSERT_EQ(incremental.consistency_proof(m, incremental.size()),
                legacy.consistency_proof(m, legacy.size()));
    }
  }
}

TEST(CtIncremental, OutOfRangeArgumentsThrowLikeLegacy) {
  IncrementalMerkleTree incremental;
  incremental.append("a");
  incremental.append("b");
  EXPECT_THROW(incremental.root_hash(3), std::out_of_range);
  EXPECT_THROW(incremental.leaf_hash_at(2), std::out_of_range);
  EXPECT_THROW(incremental.inclusion_proof(2, 2), std::out_of_range);
  EXPECT_THROW(incremental.inclusion_proof(0, 3), std::out_of_range);
  EXPECT_THROW(incremental.consistency_proof(3, 2), std::out_of_range);
  EXPECT_THROW(incremental.consistency_proof(1, 3), std::out_of_range);
}

/// An incremental tree behind a mutex, the way a log front-end serializes
/// its write path, and the monitor's view of it from another thread.
struct LockedTree {
  mutable std::mutex mutex;
  IncrementalMerkleTree tree;
};

class LockedTreeClient : public LogClient {
 public:
  explicit LockedTreeClient(const LockedTree& locked) : locked_(&locked) {}

  std::string log_id() const override { return "locked-incremental-log"; }

  TreeHead tree_head() const override {
    std::lock_guard<std::mutex> lock(locked_->mutex);
    return {locked_->tree.size(), locked_->tree.root_hash()};
  }

  std::optional<std::vector<Digest256>> consistency(
      std::size_t m, std::size_t n) const override {
    std::lock_guard<std::mutex> lock(locked_->mutex);
    if (m > n || n > locked_->tree.size()) return std::nullopt;
    return locked_->tree.consistency_proof(m, n);
  }

  std::optional<InclusionAnswer> inclusion(std::size_t index,
                                           std::size_t n) const override {
    std::lock_guard<std::mutex> lock(locked_->mutex);
    if (n > locked_->tree.size() || index >= n) return std::nullopt;
    return InclusionAnswer{locked_->tree.leaf_hash_at(index),
                           locked_->tree.inclusion_proof(index, n)};
  }

 private:
  const LockedTree* locked_;
};

TEST(CtIncremental, ConcurrentMonitorAuditsTheGrowingTreeCleanly) {
  // Both trees take the same seeded leaves and publish a tree head every
  // kBatch appends, as a log front-end does. The legacy head costs O(n), the
  // incremental one O(log n). Legacy proofs are O(n) each too, so only a few
  // are sampled.
  constexpr std::size_t kEntries = 20000;
  constexpr std::size_t kBatch = 2000;
  constexpr std::size_t kProofSamples = 256;
  constexpr std::size_t kLegacyProofSamples = 4;
  constexpr std::uint64_t kSeed = 20200901;
  std::vector<std::string> leaves;
  leaves.reserve(kEntries);
  util::Rng leaf_rng(kSeed);
  for (std::size_t i = 0; i < kEntries; ++i) {
    leaves.push_back(leaf(i, leaf_rng.next_u64()));
  }

  MerkleTree legacy;
  Digest256 legacy_root;
  const obs::Stopwatch legacy_watch;
  for (std::size_t i = 0; i < kEntries; ++i) {
    legacy.append(leaves[i]);
    if ((i + 1) % kBatch == 0 || i + 1 == kEntries) {
      legacy_root = legacy.root_hash();
    }
  }
  const double legacy_ms = legacy_watch.elapsed_ms();

  LockedTree locked;
  MonitorConfig config;
  config.inclusion_samples = 4;
  config.seed = kSeed;
  Monitor monitor(config);
  monitor.watch(std::make_shared<LockedTreeClient>(locked));
  std::atomic<bool> appending{true};
  std::thread poller([&monitor, &appending] {
    while (appending.load(std::memory_order_relaxed)) {
      monitor.poll_once();
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  Digest256 incremental_root;
  const obs::Stopwatch incremental_watch;
  for (std::size_t appended = 0; appended < kEntries;) {
    const std::size_t stop = std::min(kEntries, appended + kBatch);
    std::lock_guard<std::mutex> lock(locked.mutex);
    for (; appended < stop; ++appended) locked.tree.append(leaves[appended]);
    incremental_root = locked.tree.root_hash();
  }
  const double incremental_ms = incremental_watch.elapsed_ms();
  appending.store(false, std::memory_order_relaxed);
  poller.join();
  monitor.poll_once();  // one audit of the finished tree

  EXPECT_EQ(incremental_root, legacy_root);
  util::Rng sample_rng(kSeed ^ 0xabcdef);
  for (std::size_t sample = 0; sample < kProofSamples; ++sample) {
    const std::size_t index = sample_rng.next_below(kEntries);
    EXPECT_TRUE(verify_inclusion_hash(
        locked.tree.leaf_hash_at(index), index, kEntries,
        locked.tree.inclusion_proof(index, kEntries), incremental_root))
        << "index=" << index;
    if (sample < kLegacyProofSamples) {
      EXPECT_TRUE(verify_inclusion(leaves[index], index, kEntries,
                                   legacy.inclusion_proof(index), legacy_root))
          << "index=" << index;
    }
  }
  const MonitorStatus status = monitor.status();
  EXPECT_GT(status.sth_verified, 0u);
  EXPECT_EQ(status.inclusion_failures, 0u);
  EXPECT_EQ(status.violation_count, 0u);
  // Per-batch heads are what the cached subtrees buy: the incremental tree
  // must grow faster than the recursive one, monitor contention included.
  EXPECT_LT(incremental_ms, legacy_ms);
}

}  // namespace
}  // namespace certchain::ct
