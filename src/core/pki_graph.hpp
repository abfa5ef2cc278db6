// Certificate relationship graphs (Figures 5, 7, 8).
//
// Figure 5 draws the certificates of hybrid chains as a graph: nodes are
// distinct certificates colored by issuer class and sized by role, and two
// nodes share an edge when they co-occur in at least one chain. Figures 7
// and 8 look at issuance *links* (matched issuer-subject adjacency) inside
// non-public-only and interception chains and pull out the "complex PKI
// structures": intermediates linked to three or more distinct intermediates.
// PkiGraph carries both edge sets and the statistics the figures summarize.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/corpus.hpp"
#include "core/dn_pool.hpp"
#include "truststore/issuer_classifier.hpp"
#include "truststore/trust_store.hpp"

namespace certchain::core {

enum class CertRole : std::uint8_t { kLeaf, kIntermediate, kRoot };

std::string_view cert_role_name(CertRole role);

struct PkiGraphNode {
  std::string fingerprint;
  std::string subject;  // display
  truststore::IssuerClass issuer_class = truststore::IssuerClass::kNonPublicDb;
  CertRole role = CertRole::kLeaf;
  std::size_t chain_count = 0;  // in how many distinct chains it appears
};

class PkiGraph {
 public:
  const std::vector<PkiGraphNode>& nodes() const { return nodes_; }
  /// Undirected co-occurrence edges (Figure 5 semantics), as index pairs
  /// with first < second.
  const std::set<std::pair<std::size_t, std::size_t>>& co_occurrence_edges() const {
    return co_edges_;
  }
  /// Directed issuance links: (lower, upper) for each matched adjacent pair
  /// ever observed (Figures 7/8 semantics).
  const std::set<std::pair<std::size_t, std::size_t>>& issuance_links() const {
    return links_;
  }

  std::size_t node_count() const { return nodes_.size(); }

  /// Node counts split by (role, issuer class).
  std::map<std::pair<CertRole, truststore::IssuerClass>, std::size_t>
  node_breakdown() const;

  /// Indices of intermediates linked (by issuance, either direction) to at
  /// least `threshold` distinct intermediates — the complex structures of
  /// Figures 7/8.
  std::vector<std::size_t> complex_intermediates(std::size_t threshold = 3) const;

  /// Number of connected components under co-occurrence edges.
  std::size_t connected_components() const;

  /// Degree (issuance links, both directions) of node `index`.
  std::size_t issuance_degree(std::size_t index) const;

  /// Chains longer than this contribute issuance links but no co-occurrence
  /// edges (all-pairs is quadratic; see note_chain).
  static constexpr std::size_t kMaxCoOccurrenceChain = 64;

  // Construction API (used by build_pki_graph). The issuer-class lookup is
  // a DnId memo load (§16) for a certificate with an interned issuer id.
  std::size_t intern_node(const x509::Certificate& cert,
                          truststore::IssuerClassifier& classifier);
  void note_chain(const std::vector<std::size_t>& node_indices,
                  const std::vector<bool>& pair_matched);
  void promote_role(std::size_t index, CertRole role);

 private:
  std::vector<PkiGraphNode> nodes_;
  std::map<std::string, std::size_t, std::less<>> by_fingerprint_;
  std::set<std::pair<std::size_t, std::size_t>> co_edges_;
  std::set<std::pair<std::size_t, std::size_t>> links_;
};

/// Builds the graph over a slice of the corpus. Roles are inferred: a
/// self-signed CA (or any self-signed certificate in a multi-cert chain) is
/// a root; a certificate that issues another observed certificate (or is
/// CA:TRUE) is an intermediate; everything else is a leaf. Chains longer
/// than `max_length` are excluded entirely (the Figure 1 outlier chains
/// would otherwise flood the graph with thousands of junk nodes). Issuer
/// classification goes through an IssuerClassifier on the run's `dn_pool`;
/// a certificate without an interned issuer id falls back to the string path.
PkiGraph build_pki_graph(const std::vector<const ChainObservation*>& chains,
                         const truststore::TrustStoreSet& stores,
                         const core::DnPool& dn_pool,
                         std::size_t max_length = 30);

}  // namespace certchain::core
