// Hybrid-chain structure analysis (§4.2; Tables 3, 6, 7; Figures 4, 6).
//
// Consumes the hybrid slice of the corpus and produces every number the
// paper reports about it: the Table 3 structure buckets with establishment
// rates, the Table 6 sector split of non-public leaves anchored to public
// roots (with CT-logging compliance and expired-leaf checks), the Table 7
// no-path taxonomy, the Figure 4 per-position structure grid, and the
// Figure 6 mismatch-ratio distribution.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "chain/categorizer.hpp"
#include "core/corpus.hpp"
#include "core/dn_pool.hpp"
#include "ct/ct_log.hpp"
#include "truststore/issuer_classifier.hpp"
#include "truststore/trust_store.hpp"

namespace certchain::core {

/// One analyzed hybrid chain.
struct HybridChainRecord {
  chain::HybridClassification classification;
  /// Leaf of the complete path was already expired when last observed.
  bool expired_leaf = false;
  /// Non-public leaf anchored to a public root is present in CT (§4.2
  /// requires it; the paper found 100% compliance).
  bool leaf_ct_logged = false;
};

/// Figure 4 cell label: which run a certificate belongs to and the issuer
/// class mix of that run.
struct StructureCell {
  enum class RunKind : std::uint8_t { kComplete, kPartial, kSingle, kSingleLeaf };
  enum class ClassMix : std::uint8_t { kPublic, kNonPublic, kHybrid };
  RunKind kind = RunKind::kSingle;
  ClassMix mix = ClassMix::kNonPublic;
};

std::string_view structure_cell_code(const StructureCell& cell);

/// One Figure 4 column: the per-position cells of one chain (index 0 = the
/// bottom of the trust hierarchy, as in the paper's y-axis).
struct StructureColumn {
  std::string chain_id;
  std::vector<StructureCell> cells;
};

/// Table 6 row.
struct AnchoredChainRow {
  std::string sector;  // "Government" / "Corporate"
  std::vector<std::string> entities;
  std::size_t chains = 0;
};

/// Per-bucket usage statistics.
struct BucketUsage {
  std::size_t chains = 0;
  std::uint64_t connections = 0;
  std::uint64_t established = 0;
  std::size_t client_ips = 0;

  double establish_rate() const {
    return connections == 0 ? 0.0
                            : static_cast<double>(established) /
                                  static_cast<double>(connections);
  }
};

struct HybridReport {
  std::vector<HybridChainRecord> records;

  // Table 3.
  std::size_t complete_nonpub_to_pub = 0;
  std::size_t complete_pub_to_private = 0;
  std::size_t contains_complete_path = 0;
  std::size_t no_complete_path = 0;
  std::size_t total() const {
    return complete_nonpub_to_pub + complete_pub_to_private +
           contains_complete_path + no_complete_path;
  }

  // Establishment statistics per structure bucket (§4.2).
  BucketUsage usage_complete;   // chain *is* a complete matched path
  BucketUsage usage_contains;   // chain contains one plus extras
  BucketUsage usage_no_path;    // no complete matched path

  // Table 6.
  std::vector<AnchoredChainRow> anchored_rows;
  std::size_t anchored_ct_logged = 0;   // of complete_nonpub_to_pub leaves
  std::size_t anchored_expired_leaf = 0;

  // Table 7 (keyed by category enum value for stable ordering).
  std::map<chain::NoPathCategory, std::size_t> no_path_categories;
  std::size_t public_leaf_without_issuer = 0;
  BucketUsage usage_public_leaf_without_issuer;

  // Figure 4: columns for the contains-complete-path chains.
  std::vector<StructureColumn> figure4_columns;

  // Figure 6: mismatch ratios of the no-path chains.
  std::vector<double> mismatch_ratios;

  // Appendix F.2 misconfiguration signatures among contains-path chains.
  std::size_t fake_le_chains = 0;   // staging "Fake LE" cert appended
  std::size_t athenz_chains = 0;    // Athenz self-signed appended
  std::size_t leaf_before_path = 0;  // chain *starts* with a foreign leaf
};

class HybridAnalyzer {
 public:
  /// The Figure 4 issuer-class lookups go through an IssuerClassifier on
  /// the run's `dn_pool` (DESIGN.md §16); a certificate without an interned
  /// issuer id falls back to the string path.
  HybridAnalyzer(const truststore::TrustStoreSet& stores,
                 const ct::CtLogSet& ct_logs, const core::DnPool& dn_pool,
                 const chain::CrossSignRegistry* registry = nullptr)
      : stores_(&stores), ct_logs_(&ct_logs), dn_pool_(&dn_pool),
        registry_(registry) {}

  HybridReport analyze(const std::vector<const ChainObservation*>& hybrid_chains) const;

  /// Builds the Figure 4 column for one analyzed chain. analyze() threads
  /// one classifier through every column so its memo carries across chains.
  StructureColumn build_structure_column(
      const ChainObservation& observation,
      const chain::HybridClassification& cls,
      truststore::IssuerClassifier& classifier) const;

 private:
  const truststore::TrustStoreSet* stores_;
  const ct::CtLogSet* ct_logs_;
  const core::DnPool* dn_pool_;
  const chain::CrossSignRegistry* registry_;
};

}  // namespace certchain::core
